"""Measure container, KL/TV, products, grid sampling, file format."""
import math

import numpy as np
import pytest

from sinkdiv import (
    AbsDistance,
    BoundingBox,
    DiscreteMeasure,
    Gaussian,
    SinkhornConfig,
    dirac,
    discrepancy,
    halftoning_energy,
    kl_divergence,
    load_measure,
    product_measure,
    sample_grid_density,
    save_measure,
    softmin,
    solve,
    tv_norm,
    uniform,
    validate,
)
from sinkdiv.errors import (
    DimensionMismatchError,
    NegativeWeightError,
    NonFiniteValueError,
    PointOutsideBoxError,
    SupportMismatchError,
    WeightSumDeviationError,
    ZeroMassError,
)
from sinkdiv.measures import load_table, save_potential

from conftest import random_measure


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_uniform_two_point(unit_box):
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    assert validate(m, unit_box) is m

def test_validate_weight_sum_deviation(unit_box):
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.6]))
    with pytest.raises(WeightSumDeviationError):
        validate(m, unit_box)

def test_validate_negative_weight(unit_box):
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([-0.1, 1.1]))
    with pytest.raises(NegativeWeightError):
        validate(m, unit_box)

def test_validate_point_outside_box(unit_box):
    m = DiscreteMeasure(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
    with pytest.raises(PointOutsideBoxError):
        validate(m, unit_box)

def test_validate_dimension_mismatch(unit_square):
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    with pytest.raises(DimensionMismatchError):
        validate(m, unit_square)

def test_normalized_constructor_renormalizes_once():
    m = DiscreteMeasure.normalized(np.array([[0.0], [1.0]]), np.array([2.0, 6.0]))
    assert np.allclose(m.weights, [0.25, 0.75])
    assert abs(m.weights.sum() - 1.0) <= 1e-12

@pytest.mark.parametrize("points, weights", [
    ([[0.0], [1.0]], [0.5, math.nan]),
    ([[0.0], [1.0]], [math.inf, 0.5]),
    ([[0.0], [math.nan]], [0.5, 0.5]),
    ([[-math.inf], [1.0]], [0.5, 0.5]),
])
def test_non_finite_points_and_weights_rejected(points, weights):
    with pytest.raises(NonFiniteValueError):
        DiscreteMeasure(np.array(points), np.array(weights))
    with pytest.raises(NonFiniteValueError):
        DiscreteMeasure.normalized(np.array(points), np.array(weights))

def _no_atoms():
    return DiscreteMeasure(np.zeros((0, 2)), np.zeros(0))

@pytest.mark.parametrize("use", [
    lambda box, other: uniform(np.zeros((0, 2))),
    lambda box, other: solve(AbsDistance(box), _no_atoms(), other, SinkhornConfig(epsilon=0.1)),
    lambda box, other: softmin(AbsDistance(box), _no_atoms(), np.zeros(0), 0.1, other.points),
    lambda box, other: discrepancy(Gaussian(box, c=0.4), other, _no_atoms()),
    lambda box, other: halftoning_energy(Gaussian(box, c=0.4), other, np.zeros((0, 2))),
], ids=["uniform", "solve", "softmin", "discrepancy", "halftoning_energy"])
def test_inputs_with_no_atoms_raise_zero_mass(unit_square, use):
    other = uniform([[0.2, 0.3], [0.6, 0.5]])
    with pytest.raises(ZeroMassError):
        use(unit_square, other)

@pytest.mark.parametrize("lower, upper", [
    ([0.0, 0.0], [math.inf, 1.0]),
    ([-math.inf, 0.0], [1.0, 1.0]),
    ([0.0, math.nan], [1.0, 1.0]),
])
def test_box_corners_must_be_finite(lower, upper):
    with pytest.raises(NonFiniteValueError, match="box"):
        BoundingBox(np.array(lower), np.array(upper))

@pytest.mark.parametrize("build", [
    lambda: BoundingBox(np.array([]), np.array([])),
    lambda: DiscreteMeasure(np.zeros((3, 0)), np.ones(3) / 3),
    lambda: uniform(np.zeros((3, 0))),
], ids=["box", "measure", "uniform"])
def test_zero_dimensional_boxes_and_points_rejected(build):
    # pairwise distances and every solve read the first coordinate
    with pytest.raises(DimensionMismatchError):
        build()

def test_measure_arrays_frozen():
    m = uniform(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        m.weights[0] = 2.0

@pytest.mark.parametrize("shape", [(4, 2), (4,)])
def test_caller_arrays_stay_writable(shape):
    # the measure and the box freeze copies they own, never the caller's arrays
    rng = np.random.default_rng(3)
    points, weights = rng.random(shape), rng.random(shape[0]) + 0.1
    lower, upper = np.zeros(shape[1:] or 1), np.ones(shape[1:] or 1)
    stored = [uniform(points).points, DiscreteMeasure(points, weights).points,
              DiscreteMeasure(points, weights).weights]
    box = BoundingBox(lower, upper)
    stored += [box.lower, box.upper]
    for given in (points, weights, lower, upper):
        assert given.flags.writeable
    for array in stored:
        assert not array.flags.writeable
    before = stored[0].copy()
    points[...] = 0.5
    assert np.array_equal(stored[0], before)
    # a read-only array, such as another measure's, is shared as it is
    m = DiscreteMeasure(points, weights)
    assert DiscreteMeasure(m.points, m.weights).points is m.points


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------

def test_kl_identity_is_zero():
    m = DiscreteMeasure.normalized(np.array([[0.1], [0.4], [0.8]]), np.array([0.2, 0.3, 0.5]))
    assert kl_divergence(m, m) == 0.0

def test_kl_hand_value():
    pts = np.array([[0.0], [1.0]])
    mu = DiscreteMeasure(pts, np.array([0.5, 0.5]))
    nu = DiscreteMeasure(pts, np.array([0.25, 0.75]))
    # independent scalar evaluation of sum_j mu_j log(mu_j / nu_j)
    expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert expected == pytest.approx(0.14384103622589045, abs=1e-15)
    assert kl_divergence(mu, nu) == pytest.approx(expected, abs=1e-15)

def test_kl_absolute_continuity_failure_is_infinite():
    pts = np.array([[0.0], [1.0]])
    mu = DiscreteMeasure(pts, np.array([1.0, 0.0]))
    nu = DiscreteMeasure(pts, np.array([0.0, 1.0]))
    assert kl_divergence(mu, nu) == math.inf

def test_kl_support_mismatch():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(np.array([[0.0], [0.9]]), np.array([0.5, 0.5]))
    with pytest.raises(SupportMismatchError):
        kl_divergence(mu, nu)

def test_kl_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(7)
    pts = rng.random((6, 2))
    for _ in range(200):
        mu = DiscreteMeasure.normalized(pts, rng.random(6) + 1e-6)
        nu = DiscreteMeasure.normalized(pts, rng.random(6) + 1e-6)
        kl = kl_divergence(mu, nu)
        assert kl >= 0.0
        if np.max(np.abs(mu.weights - nu.weights)) <= 1e-12:
            assert kl == 0.0
        else:
            assert kl > 0.0


# ---------------------------------------------------------------------------
# total variation norm
# ---------------------------------------------------------------------------

def test_tv_identity_zero():
    m = DiscreteMeasure.normalized(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
    assert tv_norm(m, m) == 0.0

def test_tv_disjoint_masses():
    pts = np.array([[0.0], [1.0]])
    mu = DiscreteMeasure(pts, np.array([1.0, 0.0]))
    nu = DiscreteMeasure(pts, np.array([0.0, 1.0]))
    assert tv_norm(mu, nu) == 2.0

def test_tv_hand_value():
    pts = np.array([[0.0], [1.0]])
    mu = DiscreteMeasure(pts, np.array([0.5, 0.5]))
    nu = DiscreteMeasure(pts, np.array([0.25, 0.75]))
    # |0.5 - 0.25| + |0.5 - 0.75| = 0.5
    assert tv_norm(mu, nu) == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# Pinsker-type control of TV by KL
# ---------------------------------------------------------------------------

def test_tv_squared_at_most_two_kl():
    # The stated inequality without the factor 2 is false; see
    # tests/test_acceptance.py for the counterexample.
    rng = np.random.default_rng(123)
    pts = rng.random((5, 1))
    for _ in range(1000):
        mu = DiscreteMeasure.normalized(pts, rng.random(5) + 1e-9)
        nu = DiscreteMeasure.normalized(pts, rng.random(5) + 1e-9)
        kl = kl_divergence(mu, nu)
        assert tv_norm(mu, nu) ** 2 <= 2.0 * kl + 1e-12


# ---------------------------------------------------------------------------
# product measure
# ---------------------------------------------------------------------------

def test_product_of_diracs():
    prod = product_measure(dirac([0.0]), dirac([1.0]))
    assert prod.dim == 2
    assert np.array_equal(prod.points, np.array([[0.0, 1.0]]))
    assert np.array_equal(prod.weights, np.array([1.0]))

def test_product_of_two_point_uniforms():
    mu = uniform(np.array([[0.0], [1.0]]))
    nu = uniform(np.array([[0.2], [0.8]]))
    prod = product_measure(mu, nu)
    assert len(prod) == 4
    assert np.allclose(prod.weights, 0.25)

def test_product_weights_row_major():
    pts = np.array([[0.0], [1.0]])
    mu = DiscreteMeasure(pts, np.array([0.3, 0.7]))
    nu = DiscreteMeasure(pts, np.array([0.5, 0.5]))
    prod = product_measure(mu, nu)
    # elementwise products, i outer, j inner
    assert np.allclose(prod.weights, [0.15, 0.15, 0.35, 0.35], atol=1e-15)
    assert abs(prod.weights.sum() - 1.0) <= 1e-12

def test_product_weights_sum_to_one_randomized():
    rng = np.random.default_rng(11)
    box = BoundingBox(np.zeros(2), np.ones(2))
    for _ in range(50):
        mu = random_measure(rng, 7, box)
        nu = random_measure(rng, 5, box)
        prod = product_measure(mu, nu)
        assert abs(prod.weights.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# entropy-offset identity: KL(pi, u (x) u) - KL(mu (x) nu, u (x) u) = KL(pi, mu (x) nu)
# for couplings pi of (mu, nu), with u uniform on the support grid
# ---------------------------------------------------------------------------

def _random_coupling(rng, w_mu, w_nu):
    # convex combination of the independent coupling and a greedy monotone one
    n, m = len(w_mu), len(w_nu)
    greedy = np.zeros((n, m))
    rows = w_mu.copy()
    cols = w_nu.copy()
    i = j = 0
    while i < n and j < m:
        move = min(rows[i], cols[j])
        greedy[i, j] = move
        rows[i] -= move
        cols[j] -= move
        if rows[i] <= cols[j]:
            i += 1
        else:
            j += 1
    theta = rng.random()
    return theta * np.outer(w_mu, w_nu) + (1.0 - theta) * greedy

def test_entropy_offset_identity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n, m = 4, 6
        w_mu = rng.random(n) + 0.05
        w_mu /= w_mu.sum()
        w_nu = rng.random(m) + 0.05
        w_nu /= w_nu.sum()
        plan = _random_coupling(rng, w_mu, w_nu)

        grid = np.arange(n * m, dtype=float)[:, None]
        pi = DiscreteMeasure(grid, plan.ravel())
        prod = DiscreteMeasure(grid, np.outer(w_mu, w_nu).ravel())
        lam = DiscreteMeasure(grid, np.full(n * m, 1.0 / (n * m)))

        lhs = kl_divergence(pi, lam) - kl_divergence(prod, lam)
        rhs = kl_divergence(pi, prod)
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# grid sampling
# ---------------------------------------------------------------------------

def test_sample_grid_constant_density(unit_square):
    m = sample_grid_density(lambda x: 1.0, unit_square, 2)
    assert len(m) == 4
    assert np.allclose(m.weights, 0.25)

def test_sample_grid_indicator_half(unit_box):
    m = sample_grid_density(lambda x: 1.0 if x[0] < 0.5 else 0.0, unit_box, 10)
    inside = m.weights[m.points[:, 0] < 0.5]
    assert np.allclose(inside, 1.0 / inside.size)
    assert np.all(m.weights[m.points[:, 0] >= 0.5] == 0.0)

def test_sample_grid_gaussian_target():
    box = BoundingBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    density = lambda x: math.exp(-9.0 * float(x @ x) / 2.0)
    m = sample_grid_density(density, box, 90)
    assert len(m) == 8100
    assert abs(m.weights.sum() - 1.0) <= 1e-12
    # normalization-independent check: weight ratios match the density ratios
    idx = np.argmax(m.weights)
    other = 1234
    expected = density(m.points[other]) / density(m.points[idx])
    assert m.weights[other] / m.weights[idx] == pytest.approx(expected, rel=1e-12)

def test_sample_grid_zero_mass(unit_box):
    with pytest.raises(ZeroMassError):
        sample_grid_density(lambda x: 0.0, unit_box, 4)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_measure_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    box = BoundingBox(np.zeros(3), np.ones(3))
    m = random_measure(rng, 17, box)
    path = tmp_path / "measure.txt"
    save_measure(path, m, header="roundtrip test")
    raw_weights, raw_points = load_table(path)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(raw_points, m.points)
    assert np.array_equal(raw_weights, m.weights)
    # loading renormalizes, which may divide by a sum one ulp away from 1
    loaded = load_measure(path)
    assert np.allclose(loaded.weights, m.weights, rtol=1e-15, atol=0)

def test_measure_file_renormalizes_on_load(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text("# comment line\n2,0\n6,1\n")
    m = load_measure(path)
    assert np.allclose(m.weights, [0.25, 0.75])

def test_potential_file_keeps_signs(tmp_path):
    path = tmp_path / "potential.txt"
    pts = np.array([[0.0], [1.0]])
    save_potential(path, pts, np.array([-0.25, 0.75]))
    values, loaded_pts = load_table(path)
    assert np.array_equal(values, np.array([-0.25, 0.75]))
    assert np.array_equal(loaded_pts, pts)

def test_potential_file_bytes_match_per_value_format(tmp_path):
    # one %-format for the whole table writes what one f"{x:.17g}" per number did
    special = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
    values = np.array(special + [-2.5])
    pts = np.array([special, special[::-1], [0.5] * 5, [-1.0] * 5, special[1:] + [0.0],
                    [1e-300, -1e300, 0.0, 1.0, 2.0]])
    path = tmp_path / "potential.txt"
    save_potential(path, pts, values, header="first\nsecond")
    rows = [",".join(f"{x:.17g}" for x in (v, *row)) for v, row in zip(values, pts)]
    expected = "# first\n# second\n" + "\n".join(rows) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
