"""Kernel and cost function zoo.

Radial kernels K(x, y) = h(||x - y||) with analytic gradients, a conservative
numerically-precomputed Lipschitz constant per instance, the order-1
conditionally-positive-definite anchor shift, the spectral kernel on the
1-torus, and an empirical positive-definiteness check. Costs mirror the same
machinery; a kernel K can be used as the cost c = -K.

Every cost and Gram matrix starts from squared_distances, which fills a
fresh (n, m) array in place with fl(x_ik - y_jk)^2 summed in coordinate
order, the same bits for (x, y) as for (y, x). The profile then overwrites
that block. The Gaussian, inverse multiquadric and smoothed distance read
s directly (exp(-s/c^2), (c^2 + s)^-p, -sqrt(c^2 + s)), one rounding fewer
than their earlier formulas in r = sqrt(s), so their matrices and those of
the wrappers built on them moved at rounding level; every other profile
takes r = sqrt(s) in place and keeps the bits of pairwise_distances.

An n x m Gram or cost matrix is filled one row block at a time (_row_blocks):
the distances, the profile, a NegatedKernel's negation and a CpdShifted
anchor shift all run on a block that stays in L2 cache, and only the finished
block is written to the result. Every entry comes from the same elementwise
operations as on the whole matrix, so the bits do not depend on the blocks.

Every array computed in parts is filled by _fill_parts, with one part rule:
row blocks of about 2^16 cells (_row_blocks) for cost and Gram matrices and
sinkhorn.softmin, one row or column part per thread (_pool_parts) for the
passes of a Sinkhorn solve. From _PARALLEL_CELLS cells on, the parts run on
the calling thread and a thread pool (_run_parts), as many threads as CPUs
per BLAS thread (_pool_width). numpy releases the GIL inside each part, and
each part computes exactly what the whole-matrix pass computes for its rows
or columns, so the pool changes how many CPUs work, never a bit of the result.
"""
from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonDifferentiablePointError,
    NotNegatedKernelError,
)
from .measures import BoundingBox, _as_points, _check_integer, _positive

# Grid resolution and safety inflation for the numeric Lipschitz bound
# max |h'(r)| over r in [0, diam].
_LIPSCHITZ_GRID = 10_000
_LIPSCHITZ_INFLATION = 1.05

# Cells of one row block of an n x m evaluation: 2^16 float64 cells are
# 512 KiB, so a block and the few temporaries built from it fit in a 2 MiB L2
# cache. A matrix that already fits (dither's 900 x 50 solves) is one block.
_BLOCK_CELLS = 1 << 16

# Cells of the smallest matrix whose passes run on the pool. Handing parts
# to pool threads costs 35-75 us per pass, and a gemv split in two on one
# BLAS thread loses at 900^2 (319 -> 419 us) but wins from 1024^2
# (392 -> 328 us), so every smaller matrix (all of dither's) stays on the
# calling thread.
_PARALLEL_CELLS = 1 << 20


def _pool_width(environ, cpus: int) -> int:
    """Pool threads that fit beside BLAS: max(1, cpus // BLAS threads).

    The BLAS thread count is the positive integer in OPENBLAS_NUM_THREADS,
    else in OMP_NUM_THREADS, else cpus, which is what OpenBLAS takes when
    neither is set; so an unpinned BLAS gets width 1 and no pool.
    """
    threads = cpus
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            threads = value
            break
    return max(1, cpus // threads)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Read once, as BLAS reads its own settings once when numpy loads it.
_WIDTH = _pool_width(os.environ, _usable_cpus())
# The executor, made on first use, so importing the package starts no thread
# and loads no concurrent.futures.
_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    # a forked child inherits the executor but not its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _executor():
    # the calling thread works too, so the pool needs one thread fewer
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=max(1, _WIDTH - 1),
                                       thread_name_prefix="sinkdiv")
        return _pool


def _pool_parts(length: int, cells: int) -> list[slice]:
    """Slices of range(length), one per thread of a pass, each starting on a multiple of 8.

    A matrix of fewer than _PARALLEL_CELLS cells, or a pool width of 1,
    gets the one slice of the whole range. Parts start on multiples of 8
    for the reason blocks do (_row_blocks); a part of columns is also a
    whole dot product per output entry, so it needs no partial sums.
    """
    if cells < _PARALLEL_CELLS or _WIDTH == 1:
        return [slice(0, length)]
    size = max(8, (-(-length // _WIDTH) + 7) // 8 * 8)
    return [slice(start, min(start + size, length)) for start in range(0, length, size)]


def _run_parts(task, parts: list, cells: int) -> None:
    """task(part) for every part, shared with the pool when that pays.

    The parts run on the calling thread alone when there is one part, the
    pool width is 1 or the matrix has fewer than _PARALLEL_CELLS cells.
    Otherwise the calling thread and up to _WIDTH - 1 pool threads take the
    next part in turn until none is left, so a pool thread that starts late
    leaves its parts to the calling thread instead of holding the pass up.
    A task writes only its own part (_fill_parts' fill, or an in-place
    pass), and must not reach the pool itself; the tasks here evaluate at
    most one block, which is one part. Every task ends before this returns,
    and a failing task's exception is raised as it was. Pool threads start with
    numpy's default errstate, so a task that needs another sets it itself.
    """
    if len(parts) == 1 or _WIDTH == 1 or cells < _PARALLEL_CELLS:
        for part in parts:
            task(part)
        return
    from concurrent.futures import wait
    pending = iter(parts)
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                part = next(pending, None)
            if part is None:
                return
            task(part)

    helpers = [_executor().submit(drain) for _ in range(min(_WIDTH, len(parts)) - 1)]
    try:
        drain()
    finally:
        wait(helpers)
    for helper in helpers:
        helper.result()


def squared_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance matrix, entry (i, j) = ||xs_i - ys_j||^2.

    Built in place, one coordinate k at a time: x_k is broadcast down a
    fresh (n, m) buffer, y_k is subtracted in place (a contiguous pass along
    each row), the difference is squared in place and added to the sum in
    coordinate order. Every entry is fl(x_ik - y_jk)^2 summed in order, the
    bits of numpy's own sum of the squared (n, m, d) difference tensor for
    d <= 8, and fl(y - x)^2 = fl(x - y)^2, so S[i, j] and the transposed
    evaluation agree bitwise. At most two (n, m) arrays are live.
    """
    xs = _as_points(xs)
    ys = _as_points(ys)
    if xs.shape[1] != ys.shape[1]:
        raise DimensionMismatchError(
            f"point sets have dimensions {xs.shape[1]} and {ys.shape[1]}"
        )
    shape = (xs.shape[0], ys.shape[0])
    sq = np.empty(shape)
    diff = np.empty(shape) if xs.shape[1] > 1 else None
    # coordinates of ys as contiguous rows, one (m,) vector per k
    ys_t = ys.T.copy()
    for k in range(xs.shape[1]):
        out = diff if k else sq
        np.copyto(out, xs[:, k, None])
        out -= ys_t[k]
        out *= out
        if k:
            sq += out
    return sq


def pairwise_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, entry (i, j) = ||xs_i - ys_j||: squared_distances' square root."""
    sq = squared_distances(xs, ys)
    return np.sqrt(sq, out=sq)


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Row slices that cover an n_rows x n_cols matrix in cache-sized blocks.

    Each block has at most about _BLOCK_CELLS cells and a multiple of 8 rows,
    at least 8, so every block starts on a multiple of 8. OpenBLAS gemv takes
    rows in groups of 4, so products block @ w then group rows as one product
    over the whole matrix does and give the same bits (blocks of 21 rows do
    not). Row-wise max and sum give the same bits for any block. An empty
    matrix is one empty block, whose evaluation still checks the inputs.
    """
    rows = max(8, _BLOCK_CELLS // max(n_cols, 1) // 8 * 8)
    return [slice(start, start + rows) for start in range(0, max(n_rows, 1), rows)]


def _fill_parts(compute, parts: list, cells: int, shape) -> np.ndarray:
    """A new array of `shape` with out[part] = compute(part) for every part.

    One part gives compute's own result, with no copy; more share the pool
    through _run_parts, cells being the size of the matrix the parts cut.
    """
    if len(parts) == 1:
        return compute(parts[0])
    out = np.empty(shape)

    def fill(part):
        out[part] = compute(part)

    _run_parts(fill, parts, cells)
    return out


def _by_row_blocks(evaluate, xs, ys) -> np.ndarray:
    """The matrix evaluate(xs, ys), filled one row block of xs at a time."""
    xs = _as_points(xs)
    ys = _as_points(ys)
    n, m = xs.shape[0], ys.shape[0]
    return _fill_parts(lambda rows: evaluate(xs[rows], ys), _row_blocks(n, m), n * m, (n, m))


class _RadialFunction:
    """Shared evaluation machinery for functions of the distance ||x - y||."""

    #: True when the gradient of h(||x-y||) extends continuously to x = y.
    smooth_at_zero = True

    def __init__(self, box: BoundingBox):
        self.box = box
        self.lipschitz = self._lipschitz_bound()

    def _profile(self, s):
        """The profile on a fresh block s of squared distances, which it may overwrite."""
        raise NotImplementedError

    # h' of the profile h(r), vectorized over r >= 0
    def _profile_deriv(self, r):
        raise NotImplementedError

    def params(self) -> dict:
        """Constructor parameters, as in the JSON spec."""
        return {}

    def _lipschitz_bound(self) -> float:
        r = np.linspace(0.0, self.box.diameter, _LIPSCHITZ_GRID)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.abs(self._profile_deriv(r))
        return _LIPSCHITZ_INFLATION * float(np.max(d))

    def eval(self, x, y) -> float:
        """The one-pair gram, so a single evaluation matches the matrix bitwise."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        return float(self.gram(x[None], y[None])[0, 0])

    def _gram_block(self, xs, ys) -> np.ndarray:
        """Evaluations on one row block, a fresh array; gram runs it block by block."""
        return self._profile(squared_distances(xs, ys))

    def gram(self, xs, ys) -> np.ndarray:
        """Matrix of evaluations, row-major over xs (outer) and ys (inner)."""
        return _by_row_blocks(self._gram_block, xs, ys)

    def grad_y(self, x, y) -> np.ndarray:
        """Gradient in the second argument at a single pair."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        return self.pairwise_grad_y(x[None, :], y[None, :])[0, 0]

    def _grad_scale(self, r: np.ndarray) -> np.ndarray:
        """h'(r)/r, the gradient's factor on y - x, taken as 0 at r = 0.

        Raises NonDifferentiablePointError at r = 0 unless smooth_at_zero.
        """
        zero = r == 0.0
        if np.any(zero) and not self.smooth_at_zero:
            raise NonDifferentiablePointError(
                f"{type(self).__name__} is not differentiable at coincident points"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(zero, 0.0, self._profile_deriv(r) / np.where(zero, 1.0, r))

    def pairwise_grad_y(self, xs, ys) -> np.ndarray:
        """(n, m, d) array of gradients in the second argument for all pairs."""
        xs = _as_points(xs)
        ys = _as_points(ys)
        scale = self._grad_scale(pairwise_distances(xs, ys))
        diff = ys[None, :, :] - xs[:, None, :]
        # the gradients overwrite the differences, saving one (n, m, d) array
        return np.multiply(scale[:, :, None], diff, out=diff)

    def _scale_from_values(self, values):
        """h'(r)/r as a closed form F of the matrix values = h(r), or None.

        Only a profile whose F is finite for every r >= 0 gives one; the
        rest read their factor from the distances. F is odd, F(-h) = -F(h),
        so F applied to a NegatedKernel's matrix C = -K gives -F(K), the
        cost's own factor. A fresh array is returned; values is not written.
        """
        return None

    def plan_grad_y(self, xs, ys, plan, values=None) -> np.ndarray:
        """sum_i plan_ij grad_y k(xs_i, ys_j) for each j, shape (m, d).

        plan is the (n, m) plan, or the pair (a, b) of weights of the
        independent coupling a b^T, which is then never built. The sum is
        one n x m factor h'(r)/r and one matrix product (_plan_contraction),
        no (n, m, d) gradients.

        values, if given, is this function's own matrix at (xs, ys), as
        gram or matrix builds it. A profile with a closed form of h'(r)/r in
        h (_scale_from_values) then reads the factor from it and computes
        no distances; every other profile takes the distance route, which
        is also the route with values=None.
        """
        xs = _as_points(xs)
        ys = _as_points(ys)
        weights = None if values is None else self._scale_from_values(values)
        if weights is None:
            weights = self._grad_scale(pairwise_distances(xs, ys))
        return _plan_contraction(xs, ys, weights, plan)


def _plan_contraction(xs: np.ndarray, ys: np.ndarray, scale: np.ndarray, plan) -> np.ndarray:
    """sum_i P_ij S_ij (ys_j - xs_i) for each j, S the factor h'(r)/r, which is overwritten.

    A dense plan P is folded into W = P * S, giving ys_j sum_i W_ij - (W^T xs)_j.
    The independent coupling P = a b^T, given as (a, b), gives
    b_j (ys_j (S^T a)_j - (S^T (a * xs))_j) from one product S^T [a, a * xs].
    """
    if isinstance(plan, tuple):
        a, b = plan
        sums = scale.T @ np.column_stack((a, a[:, None] * xs))
        return b[:, None] * (ys * sums[:, :1] - sums[:, 1:])
    scale *= plan
    return ys * scale.sum(axis=0)[:, None] - scale.T @ xs


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

class Kernel(_RadialFunction):
    """Symmetric kernel with Lipschitz metadata."""

    variant = "Kernel"


class Gaussian(Kernel):
    """K(x, y) = exp(-||x-y||^2 / c^2), strictly positive definite.

    c must be wide enough for the box: every quotient the profile and its
    derivative form there, s / c^2 up to diam^2 / c^2, 2 r / c^2 up to
    2 diam / c^2 and h'(r)/r = -2 h / c^2 up to 2 / c^2, is finite.
    """

    variant = "Gaussian"

    def __init__(self, box: BoundingBox, c: float = 1.0):
        self.c = _positive("Gaussian", "c", c, squared=True)
        diam = box.diameter
        if not max(2.0, 2.0 * diam, diam * diam) / (self.c * self.c) < math.inf:
            raise ValueError("Gaussian requires 2 / c^2, 2 diam / c^2 and diam^2 / c^2 to be "
                             f"finite on its box, got c = {c!r}")
        super().__init__(box)

    def _profile(self, s):
        np.divide(s, -(self.c * self.c), out=s)
        return np.exp(s, out=s)

    def _profile_deriv(self, r):
        return -2.0 * r / (self.c * self.c) * np.exp(-(r * r) / (self.c * self.c))

    def _scale_from_values(self, values):
        # h'(r)/r = -2 h / c^2
        return values * (-2.0 / (self.c * self.c))

    def params(self):
        return {"c": self.c}


class InverseMultiquadric(Kernel):
    """K(x, y) = (c^2 + ||x-y||^2)^(-p), strictly positive definite."""

    variant = "InverseMultiquadric"

    def __init__(self, box: BoundingBox, c: float = 1.0, p: float = 0.5):
        self.c = _positive("InverseMultiquadric", "c", c, squared=True)
        self.p = _positive("InverseMultiquadric", "p", p)
        # |h'| peaks near r = 0, where the power is (c^2)^(-p-1)
        with np.errstate(over="ignore", under="ignore"):
            if not 0 < np.float64(self.c * self.c) ** (-self.p - 1.0) < math.inf:
                raise ValueError("InverseMultiquadric requires (c^2)^(-p-1) to be finite and > 0, "
                                 f"got c = {c!r}, p = {p!r}")
        super().__init__(box)

    def _profile(self, s):
        s += self.c * self.c
        s **= -self.p
        return s

    def _profile_deriv(self, r):
        return -2.0 * self.p * r * (self.c * self.c + r * r) ** (-self.p - 1.0)

    def params(self):
        return {"c": self.c, "p": self.p}


class WendlandPower(Kernel):
    """K(x, y) = (1 - ||x-y||)_+^p, positive definite for p >= floor(d/2) + 1."""

    variant = "WendlandPower"
    smooth_at_zero = False

    def __init__(self, box: BoundingBox, p: float):
        self.p = _positive(f"WendlandPower in dimension {box.dim}", "p", p, minimum=box.dim // 2 + 1)
        super().__init__(box)

    def _profile(self, s):
        r = np.sqrt(s, out=s)
        np.subtract(1.0, r, out=r)
        np.maximum(r, 0.0, out=r)
        r **= self.p
        return r

    def _profile_deriv(self, r):
        r = np.asarray(r, dtype=float)
        # the 0**0 = 1 convention would leak outside the support for p = 1
        return np.where(r < 1.0, -self.p * np.maximum(1.0 - r, 0.0) ** (self.p - 1.0), 0.0)

    def params(self):
        return {"p": self.p}


class NegativeDistance(Kernel):
    """K(x, y) = -||x-y||, conditionally positive definite of order 1."""

    variant = "NegativeDistance"
    smooth_at_zero = False

    def _profile(self, s):
        r = np.sqrt(s, out=s)
        return np.negative(r, out=r)

    def _profile_deriv(self, r):
        return -np.ones_like(np.asarray(r, dtype=float))


class ShiftedNegativeDistance(Kernel):
    """K(x, y) = C - ||x-y||, positive definite on the box for large enough C.

    C defaults to twice the box diameter; for probability measures the shift
    cancels in discrepancies, so C only affects numerical conditioning.
    """

    variant = "ShiftedNegativeDistance"
    smooth_at_zero = False

    def __init__(self, box: BoundingBox, C: float | None = None):
        if C is None:
            C = 2.0 * box.diameter
        self.C = _positive("ShiftedNegativeDistance", "C", C)
        # a discrepancy adds two Gram double sums, each up to C
        if not 2.0 * self.C < math.inf:
            raise ValueError(f"ShiftedNegativeDistance requires 2 C to be finite, got C = {C!r}")
        super().__init__(box)

    def _profile(self, s):
        r = np.sqrt(s, out=s)
        return np.subtract(self.C, r, out=r)

    def _profile_deriv(self, r):
        return -np.ones_like(np.asarray(r, dtype=float))

    def params(self):
        return {"C": self.C}


class SmoothedNegativeDistance(Kernel):
    """K(x, y) = -sqrt(c^2 + ||x-y||^2), a differentiable order-1 cpd distance kernel."""

    variant = "SmoothedNegativeDistance"

    def __init__(self, box: BoundingBox, c: float = 1e-2):
        self.c = _positive("SmoothedNegativeDistance", "c", c, squared=True)
        super().__init__(box)

    def _profile(self, s):
        s += self.c * self.c
        np.sqrt(s, out=s)
        return np.negative(s, out=s)

    def _profile_deriv(self, r):
        return -r / np.sqrt(self.c * self.c + r * r)

    def _scale_from_values(self, values):
        # h'(r)/r = -1/sqrt(c^2 + r^2) = 1/h, and |h| >= c > 0
        return np.reciprocal(values)

    def params(self):
        return {"c": self.c}


class CpdShifted(Kernel):
    """Anchor shift K~(x, y) = K(x, y) - K(u, y) - K(x, u) + K(u, u).

    Turns an order-1 conditionally positive definite kernel into a positive
    definite one without changing discrepancies between probability measures.
    """

    variant = "CpdShifted"

    def __init__(self, base: Kernel, anchor):
        self.base = base
        u = np.asarray(anchor, dtype=float).ravel()
        if u.shape[0] != base.box.dim:
            raise DimensionMismatchError(
                f"anchor dimension {u.shape[0]} != box dimension {base.box.dim}"
            )
        # written so that NaN fails too
        if not np.all((base.box.lower <= u) & (u <= base.box.upper)):
            raise ValueError(f"CpdShifted requires an anchor inside the box, got {u.tolist()}")
        u.flags.writeable = False
        self.anchor = u
        self._kuu = base.eval(u, u)
        self.smooth_at_zero = base.smooth_at_zero
        super().__init__(base.box)

    def _lipschitz_bound(self) -> float:
        # |K~(x,y) - K~(x',y)| <= |K(x,y)-K(x',y)| + |K(x,u)-K(x',u)|
        return 2.0 * self.base.lipschitz

    def _gram_block(self, xs, ys) -> np.ndarray:
        # grouped so the two anchor cross terms commute; evaluation is then
        # bitwise symmetric in (x, y)
        u = self.anchor[None, :]
        base = self.base._gram_block
        block = base(xs, ys)
        block += self._kuu
        block -= base(u, ys) + base(xs, u)
        return block

    # defined again here and in NegatedKernel: perfbench/spans.py wraps gram
    # on each class that defines its own evaluation
    def gram(self, xs, ys) -> np.ndarray:
        return _by_row_blocks(self._gram_block, xs, ys)

    def pairwise_grad_y(self, xs, ys) -> np.ndarray:
        u = self.anchor[None, :]
        return self.base.pairwise_grad_y(xs, ys) - self.base.pairwise_grad_y(u, ys)

    def plan_grad_y(self, xs, ys, plan, values=None) -> np.ndarray:
        # the anchor term's gradient in y is weighted by the plan's column
        # sums; the shifted matrix does not give the base kernel's values,
        # so values is not read and the distance route runs
        u = self.anchor[None, :]
        if isinstance(plan, tuple):
            sums = (plan[0].sum(keepdims=True), plan[1])
        else:
            sums = plan.sum(axis=0)[None, :]
        return self.base.plan_grad_y(xs, ys, plan) - self.base.plan_grad_y(u, ys, sums)

    def params(self):
        return {
            "base": {"variant": self.base.variant, "params": self.base.params()},
            "anchor": self.anchor.tolist(),
        }


class SpectralKernel(Kernel):
    """Kernel on the 1-torus [0, 1) defined by Fourier coefficients.

    K(x, y) = alpha_0 + 2 sum_{k=1}^N alpha_k cos(2 pi k (x - y)); the alphas
    are given for k = 0..N with the symmetric completion alpha_{-k} = alpha_k
    implied. Non-negative alphas make the kernel positive definite.
    """

    variant = "SpectralKernel"

    def __init__(self, alpha, box: BoundingBox | None = None):
        a = np.array(alpha, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError(f"SpectralKernel requires a non-empty 1-D alpha, got shape {a.shape}")
        # written so that NaN fails too
        if not np.all((a >= 0) & (a < math.inf)):
            raise ValueError("SpectralKernel requires finite non-negative alpha")
        # K(x, x) = alpha_0 + 2 sum alpha_k is the largest value, and a
        # discrepancy adds two Gram double sums of up to that
        with np.errstate(over="ignore"):
            top = 2.0 * (a[0] + 2.0 * a[1:].sum())
        if not top < math.inf:
            raise ValueError(f"SpectralKernel requires 2 K(x, x) = 2 (alpha_0 + 2 sum alpha_k) "
                             f"to be finite, got alpha = {a.tolist()}")
        a.flags.writeable = False
        self.alpha = a
        if box is None:
            box = BoundingBox(np.array([0.0]), np.array([1.0]))
        if box.dim != 1:
            raise DimensionMismatchError("SpectralKernel lives on the 1-torus")
        super().__init__(box)

    @property
    def max_freq(self) -> int:
        return self.alpha.shape[0] - 1

    def _profile(self, s):
        r = np.sqrt(s, out=s)
        out = np.full_like(r, self.alpha[0])
        term = np.empty_like(r)
        for k in range(1, self.alpha.shape[0]):
            np.multiply(2.0 * np.pi * k, r, out=term)
            np.cos(term, out=term)
            term *= 2.0 * self.alpha[k]
            out += term
        return out

    def _profile_deriv(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for k in range(1, self.alpha.shape[0]):
            out = out - 4.0 * np.pi * k * self.alpha[k] * np.sin(2.0 * np.pi * k * r)
        return out

    def params(self):
        return {"alpha": self.alpha.tolist()}


def empirical_pd_check(kernel: Kernel, n: int, seed: int, box: BoundingBox | None = None) -> float:
    """Smallest eigenvalue of the Gram matrix on n seeded uniform points."""
    _check_integer("empirical_pd_check", "n", n, 2)
    box = box if box is not None else kernel.box
    rng = np.random.default_rng(seed)
    pts = box.sample(n, rng)
    gram = kernel.gram(pts, pts)
    return float(np.linalg.eigvalsh(gram)[0])


# ---------------------------------------------------------------------------
# Costs
# ---------------------------------------------------------------------------

class Cost(_RadialFunction):
    """Symmetric transport cost with Lipschitz metadata."""

    variant = "Cost"

    def matrix(self, xs, ys) -> np.ndarray:
        return self.gram(xs, ys)


class AbsDistance(Cost):
    """c(x, y) = ||x-y||."""

    variant = "AbsDistance"
    smooth_at_zero = False

    def _profile(self, s):
        return np.sqrt(s, out=s)

    def _profile_deriv(self, r):
        return np.ones_like(np.asarray(r, dtype=float))


class PowerDistance(Cost):
    """c(x, y) = ||x-y||^p."""

    variant = "PowerDistance"

    def __init__(self, box: BoundingBox, p: float):
        self.p = _positive("PowerDistance", "p", p)
        self.smooth_at_zero = self.p > 1
        super().__init__(box)

    def _profile(self, s):
        r = np.sqrt(s, out=s)
        r **= self.p
        return r

    def _profile_deriv(self, r):
        # 0**0 = 1 gives the correct h'(0) = p for p = 1; p < 1 yields inf there
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.p * np.asarray(r, dtype=float) ** (self.p - 1.0)

    def params(self):
        return {"p": self.p}


class NegatedKernel(Cost):
    """Cost c(x, y) = -K(x, y); may take negative values."""

    variant = "NegatedKernel"

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.smooth_at_zero = kernel.smooth_at_zero
        super().__init__(kernel.box)

    def _lipschitz_bound(self) -> float:
        return self.kernel.lipschitz

    def _gram_block(self, xs, ys) -> np.ndarray:
        block = self.kernel._gram_block(xs, ys)
        return np.negative(block, out=block)

    def gram(self, xs, ys) -> np.ndarray:
        return _by_row_blocks(self._gram_block, xs, ys)

    def pairwise_grad_y(self, xs, ys) -> np.ndarray:
        return -self.kernel.pairwise_grad_y(xs, ys)

    def plan_grad_y(self, xs, ys, plan, values=None) -> np.ndarray:
        # the kernel's closed form is odd, so on C = -K it gives -F(K), the
        # cost's factor (1/C for the smoothed distance)
        weights = None if values is None else self.kernel._scale_from_values(values)
        if weights is None:
            return -self.kernel.plan_grad_y(xs, ys, plan)
        return _plan_contraction(_as_points(xs), _as_points(ys), weights, plan)

    def params(self):
        return {"kernel": {"variant": self.kernel.variant, "params": self.kernel.params()}}


def kernel_for_cost(cost: Cost) -> Kernel:
    """Kernel K with c = -K, when the cost is kernel-backed.

    AbsDistance and PowerDistance with p = 1, the same distance cost, map to
    NegativeDistance; all other non-kernel costs raise.
    """
    if isinstance(cost, NegatedKernel):
        return cost.kernel
    if isinstance(cost, AbsDistance) or (isinstance(cost, PowerDistance) and cost.p == 1.0):
        return NegativeDistance(cost.box)
    raise NotNegatedKernelError(f"cost {cost.variant} is not of the form -K")


# ---------------------------------------------------------------------------
# JSON construction: {"variant": "...", "params": {...}}
# ---------------------------------------------------------------------------

_KERNEL_VARIANTS = {
    "Gaussian": Gaussian,
    "InverseMultiquadric": InverseMultiquadric,
    "WendlandPower": WendlandPower,
    "NegativeDistance": NegativeDistance,
    "ShiftedNegativeDistance": ShiftedNegativeDistance,
    "SmoothedNegativeDistance": SmoothedNegativeDistance,
}


def kernel_from_spec(spec: dict, box: BoundingBox) -> Kernel:
    variant = spec.get("variant")
    params = dict(spec.get("params", {}))
    if variant == "CpdShifted":
        base = kernel_from_spec(params["base"], box)
        return CpdShifted(base, params["anchor"])
    if variant == "SpectralKernel":
        return SpectralKernel(params["alpha"], box)
    if variant not in _KERNEL_VARIANTS:
        raise ValueError(f"unknown kernel variant {variant!r}")
    return _KERNEL_VARIANTS[variant](box, **params)


def cost_from_spec(spec: dict, box: BoundingBox) -> Cost:
    variant = spec.get("variant")
    params = dict(spec.get("params", {}))
    if variant == "AbsDistance":
        return AbsDistance(box)
    if variant == "PowerDistance":
        return PowerDistance(box, **params)
    if variant == "NegatedKernel":
        return NegatedKernel(kernel_from_spec(params["kernel"], box))
    raise ValueError(f"unknown cost variant {variant!r}")
