"""Discrete probability measures on a bounding box.

Provides the measure/box containers, validation, the Kullback-Leibler
divergence and total-variation norm on shared supports, product measures,
grid sampling of densities, and the plain-text measure file format.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    MeasureFileError,
    NegativeWeightError,
    NonFiniteValueError,
    PointOutsideBoxError,
    SinkdivError,
    SupportMismatchError,
    WeightSumDeviationError,
    ZeroMassError,
)
from .fileio import atomic_write_text

# Weight sums must match 1 to this absolute tolerance after construction.
WEIGHT_SUM_TOL = 1e-12


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise DimensionMismatchError(
            f"points must be a (n, d) array with d >= 1, got shape {pts.shape}"
        )
    return pts


def _finite_points(points) -> np.ndarray:
    """points as an (n, d) float array; NonFiniteValueError on a non-finite coordinate."""
    pts = _as_points(points)
    if not np.all(np.isfinite(pts)):
        raise NonFiniteValueError("non-finite point coordinate")
    return pts


def _read_only(array: np.ndarray, given) -> np.ndarray:
    """array, read-only; copied first when it is (or views) the caller's writable `given`."""
    if array.flags.writeable and isinstance(given, np.ndarray) and np.may_share_memory(array, given):
        array = array.copy()
    array.flags.writeable = False
    return array


def _positive(owner: str, name: str, value, squared=False, infinite=False, minimum=None) -> float:
    """value as a float; ValueError naming the option unless 0 < value < inf (a bool is not).

    The rule of every real option. infinite admits +inf (an epsilon), a
    minimum replaces 0 < value by minimum <= value (0 for a gradient
    tolerance), and squared, for a parameter used as its square, requires 0 <
    value^2 < inf, since its kernel values are NaN or infinite otherwise.
    """
    # comparisons with NaN are false, so NaN fails too
    above = value > 0 if minimum is None else value >= minimum
    below = value < math.inf or infinite and value == math.inf
    if isinstance(value, bool) or not (above and below):
        finite = "" if infinite else "a finite "
        bound = "> 0" if minimum is None else f">= {minimum}"
        raise ValueError(f"{owner} requires {finite}{name} {bound}, got {value!r}")
    if squared and not 0 < float(value) * float(value) < math.inf:
        raise ValueError(f"{owner} requires {name}^2 to be finite and > 0, got {name} = {value!r}")
    return float(value)


def _check_integer(owner: str, name: str, value, minimum: int) -> int:
    """value as an int; ValueError naming the option unless an int or numpy integer >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{owner} requires an integer {name} >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned compact box [lower_1, upper_1] x ... x [lower_d, upper_d].

    The corners are stored read-only, as DiscreteMeasure stores its arrays.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise DimensionMismatchError("box corners must be non-empty vectors of equal length, "
                                         f"got {lo.shape} and {hi.shape}")
        # an infinite corner gives an infinite diameter and grid
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise NonFiniteValueError("box corners must be finite")
        if not np.all(lo < hi):
            raise ValueError("box requires lower < upper componentwise")
        object.__setattr__(self, "lower", _read_only(lo, self.lower))
        object.__setattr__(self, "upper", _read_only(hi, self.upper))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n points uniformly from the box."""
        u = rng.random((n, self.dim))
        return self.lower + u * (self.upper - self.lower)

    def grid(self, n_per_axis: int) -> np.ndarray:
        """Regular grid with n_per_axis nodes per axis, endpoints included.

        Rows are ordered row-major (first axis outermost); n_per_axis is an
        integer >= 2, the two ends. A grid past the largest array numpy can
        index raises ValueError (numpy's own errors for such sizes vary).
        """
        n_per_axis = _check_integer("BoundingBox.grid", "n_per_axis", n_per_axis, 2)
        if n_per_axis ** self.dim * self.dim > np.iinfo(np.intp).max // 8:
            raise ValueError(f"a grid of {n_per_axis}^{self.dim} points exceeds the largest array")
        axes = [np.linspace(self.lower[k], self.upper[k], n_per_axis) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud sum_i w_i * delta(x_i) in R^d.

    The raw constructor stores points and weights as given, after checking
    their shapes, that every entry is finite and that there is at least one
    atom (ZeroMassError otherwise); use :meth:`normalized` to
    renormalize the weights exactly once. The stored arrays are read-only
    and safe to share across threads; a caller's writable array is copied,
    never frozen, and a read-only one (another measure's) is shared.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _finite_points(self.points)
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != pts.shape[0]:
            raise DimensionMismatchError(
                f"weights shape {w.shape} does not match {pts.shape[0]} points"
            )
        if not np.all(np.isfinite(w)):
            raise NonFiniteValueError("non-finite weight")
        if w.shape[0] == 0:
            raise ZeroMassError("a measure needs at least one atom")
        object.__setattr__(self, "points", _read_only(np.ascontiguousarray(pts), self.points))
        object.__setattr__(self, "weights", _read_only(np.ascontiguousarray(w), self.weights))

    @classmethod
    def normalized(cls, points, weights=None) -> "DiscreteMeasure":
        """Construct a probability measure, dividing the weights by their sum once."""
        pts = _as_points(points)
        if weights is None:
            # no atoms give no weights, which the constructor rejects
            w = np.ones(pts.shape[0]) / pts.shape[0]
        else:
            # shape and finiteness are checked before any arithmetic
            w = cls(pts, weights).weights
            if np.any(w < 0):
                raise NegativeWeightError(f"min weight {w.min()} < 0")
            total = float(np.sum(w))
            if total <= 0:
                raise ZeroMassError("weights sum to zero")
            w = w / total
        return cls(pts, w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def dirac(point) -> DiscreteMeasure:
    """Unit mass at a single point."""
    pts = _as_points(point if hasattr(point, "__len__") else [point])
    if pts.shape[0] != 1:
        pts = pts.reshape(1, -1)
    return DiscreteMeasure(pts, np.array([1.0]))


def uniform(points) -> DiscreteMeasure:
    """Equal-weight measure on the given points."""
    return DiscreteMeasure.normalized(points)


def validate(m: DiscreteMeasure, box: BoundingBox) -> DiscreteMeasure:
    """Check all measure invariants against a box; return the measure unchanged.

    Raises NegativeWeightError, WeightSumDeviationError, PointOutsideBoxError
    or DimensionMismatchError on the first violated invariant.
    """
    if m.dim != box.dim:
        raise DimensionMismatchError(
            f"measure dimension {m.dim} != box dimension {box.dim}"
        )
    if np.any(m.weights < 0):
        raise NegativeWeightError(f"min weight {m.weights.min()} < 0")
    total = _sequential_sum(m.weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumDeviationError(f"weights sum to {total!r}, deviation > {WEIGHT_SUM_TOL}")
    outside = np.flatnonzero(np.any((m.points < box.lower) | (m.points > box.upper), axis=1))
    if outside.size:
        i = int(outside[0])
        raise PointOutsideBoxError(
            f"atom {i} at {m.points[i].tolist()} lies outside the box "
            f"[{box.lower.tolist()}, {box.upper.tolist()}]"
        )
    return m


def _sequential_sum(values) -> float:
    # Left-to-right accumulation in stored order; keeps reported sums
    # bitwise reproducible regardless of the BLAS in use.
    total = 0.0
    for v in values:
        total += float(v)
    return total


def _require_shared_support(mu: DiscreteMeasure, nu: DiscreteMeasure):
    if mu.points.shape != nu.points.shape or not np.array_equal(mu.points, nu.points):
        raise SupportMismatchError("measures must share the same support point list")


def kl_divergence(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """KL(mu, nu) = sum_j mu_j log(mu_j / nu_j) on a shared support.

    Uses the convention 0 log 0 = 0 and returns +inf when some nu_j = 0 < mu_j.
    """
    _require_shared_support(mu, nu)
    total = 0.0
    for p, q in zip(mu.weights, nu.weights):
        if p == 0.0:
            continue
        if q == 0.0:
            return math.inf
        total += p * math.log(p / q)
    return total


def tv_norm(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Total variation norm ||mu - nu||_M = sum_j |mu_j - nu_j| on a shared support."""
    _require_shared_support(mu, nu)
    total = 0.0
    for p, q in zip(mu.weights, nu.weights):
        total += abs(p - q)
    return total


def product_measure(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Product measure mu (x) nu on R^{2d}, atoms (x_i, y_j) in row-major order."""
    if mu.dim != nu.dim:
        raise DimensionMismatchError(f"dimensions differ: {mu.dim} vs {nu.dim}")
    n, m = len(mu), len(nu)
    left = np.repeat(mu.points, m, axis=0)
    right = np.tile(nu.points, (n, 1))
    pts = np.concatenate([left, right], axis=1)
    w = np.outer(mu.weights, nu.weights).ravel()
    return DiscreteMeasure.normalized(pts, w)


def sample_grid_density(f, box: BoundingBox, n_per_axis: int) -> DiscreteMeasure:
    """Atomic approximation of a density: atoms on a regular grid, weights prop. to f.

    f is evaluated pointwise at each grid node and must be non-negative there.
    """
    nodes = box.grid(n_per_axis)
    values = np.array([float(f(x)) for x in nodes])
    if np.any(values < 0):
        raise NegativeWeightError("density evaluated to a negative value on the grid")
    if not np.any(values > 0):
        raise ZeroMassError("density vanishes on the whole grid")
    return DiscreteMeasure.normalized(nodes, values)


# ---------------------------------------------------------------------------
# Measure file format: one atom per line, "weight,x1,...,xd"; '#' comments.
# ---------------------------------------------------------------------------

def load_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Read the raw (values, points) columns of a measure-format file.

    A field that is not a number (bytes that are not UTF-8 read as U+FFFD),
    or a line without a coordinate or with a field count other than the first
    atom line's, raises MeasureFileError naming <path>:<line>.
    """
    values = []
    rows = []
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                fields = [float(p) for p in line.split(",")]
            except ValueError:
                raise MeasureFileError(
                    f"{path}:{number}: {line!r} is not a row of numbers"
                ) from None
            # a weight and at least one coordinate; later lines match the first
            expected = len(rows[0]) + 1 if rows else max(len(fields), 2)
            if len(fields) != expected:
                raise MeasureFileError(f"{path}:{number}: {len(fields)} fields, expected {expected}")
            values.append(fields[0])
            rows.append(fields[1:])
    if not rows:
        raise ZeroMassError(f"no atoms found in {path}")
    return np.array(values), np.array(rows)


def load_measure(path) -> DiscreteMeasure:
    """Read a measure file; weights are renormalized on load.

    An invalid weight (negative, non-finite, zero total) raises the error of
    DiscreteMeasure.normalized with the path added.
    """
    w, pts = load_table(path)
    try:
        return DiscreteMeasure.normalized(pts, w)
    except SinkdivError as exc:
        raise type(exc)(f"{exc} in {path}") from exc


def save_measure(path, m: DiscreteMeasure, header: str | None = None):
    save_potential(path, m.points, m.weights, header=header)


def save_potential(path, points: np.ndarray, values: np.ndarray, header: str | None = None):
    """Write a value column plus coordinates in the measure file format.

    Every number is written as %.17g, which round-trips float64; the whole
    table is formatted by one %-format, not one format call per number.
    """
    table = np.column_stack([np.asarray(values, dtype=float), _as_points(points)])
    comments = "".join(f"# {h}\n" for h in header.splitlines()) if header else ""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    atomic_write_text(path, comments + (row * table.shape[0]) % tuple(table.ravel().tolist()))
