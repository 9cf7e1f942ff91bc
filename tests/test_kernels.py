"""Kernel/cost zoo: evaluations, gradients, Lipschitz metadata, definiteness."""
import math
import tracemalloc

import numpy as np
import pytest

from sinkdiv import (
    AbsDistance,
    BoundingBox,
    CpdShifted,
    Gaussian,
    InverseMultiquadric,
    NegatedKernel,
    NegativeDistance,
    PowerDistance,
    ShiftedNegativeDistance,
    SmoothedNegativeDistance,
    SpectralKernel,
    WendlandPower,
    cost_from_spec,
    discrepancy,
    empirical_pd_check,
    kernel_from_spec,
)
from sinkdiv.errors import NonDifferentiablePointError, NotNegatedKernelError
from sinkdiv import kernels
from sinkdiv.kernels import _row_blocks, kernel_for_cost, pairwise_distances, squared_distances


def all_kernels(box):
    return [
        Gaussian(box, c=0.7),
        InverseMultiquadric(box, c=0.5, p=1.0),
        WendlandPower(box, p=box.dim // 2 + 1),
        NegativeDistance(box),
        ShiftedNegativeDistance(box),
        SmoothedNegativeDistance(box, c=0.05),
        CpdShifted(NegativeDistance(box), anchor=box.lower),
    ]


# ---------------------------------------------------------------------------
# pointwise evaluations
# ---------------------------------------------------------------------------

def test_gaussian_at_coincident_points(unit_square):
    k = Gaussian(unit_square, c=0.3)
    assert k.eval([0.2, 0.4], [0.2, 0.4]) == 1.0

def test_cpd_shift_hand_value(unit_box):
    # K(x,y) = -|x-y| anchored at 0: -0.4 + 0.7 + 0.3 - 0 = 0.6 = 2 min(x, y)
    k = CpdShifted(NegativeDistance(unit_box), anchor=[0.0])
    assert k.eval([0.3], [0.7]) == pytest.approx(0.6, abs=1e-15)
    assert k.eval([0.3], [0.7]) == pytest.approx(2 * min(0.3, 0.7), abs=1e-15)

def test_shifted_negative_distance_zero(unit_box):
    k = ShiftedNegativeDistance(unit_box, C=1.0)
    assert k.eval([0.0], [1.0]) == 0.0

def test_smoothed_negative_distance_value(unit_box):
    k = SmoothedNegativeDistance(unit_box, c=1.0)
    assert k.eval([0.0], [1.0]) == pytest.approx(-math.sqrt(2.0), abs=1e-15)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def test_gram_single_point(unit_box):
    for k in all_kernels(unit_box):
        g = k.gram(np.array([[0.3]]), np.array([[0.3]]))
        assert g.shape == (1, 1)
        assert g[0, 0] == k.eval([0.3], [0.3])

def test_gram_shifted_negative_distance_identity(unit_box):
    k = ShiftedNegativeDistance(unit_box, C=1.0)
    g = k.gram(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
    assert np.array_equal(g, np.array([[1.0, 0.0], [0.0, 1.0]]))

def test_gram_symmetry_bitwise(unit_square):
    rng = np.random.default_rng(5)
    pts = rng.random((20, 2))
    for k in all_kernels(unit_square):
        g = k.gram(pts, pts)
        assert np.array_equal(g, g.T)

def test_eval_symmetry_bitwise(unit_square):
    rng = np.random.default_rng(6)
    for k in all_kernels(unit_square):
        for _ in range(20):
            x, y = rng.random(2), rng.random(2)
            assert k.eval(x, y) == k.eval(y, x)

@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_eval_is_one_pair_gram_bitwise(d):
    box = BoundingBox(np.zeros(d), np.ones(d))
    rng = np.random.default_rng(10 + d)
    pairs = rng.random((150, 2, d))
    for k in _contraction_variants(box):
        for x, y in pairs:
            value = k.eval(x, y)
            assert value == k.gram([x], [y])[0, 0] == k.gram([y], [x])[0, 0], type(k).__name__


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_zero_at_coincident_smooth(unit_square):
    x = np.array([0.3, 0.6])
    for k in [Gaussian(unit_square, c=0.7), InverseMultiquadric(unit_square, c=0.5, p=1.0),
              SmoothedNegativeDistance(unit_square, c=0.05)]:
        assert np.array_equal(k.grad_y(x, x), np.zeros(2))

def test_gradient_smoothed_negative_distance_hand(unit_box):
    k = SmoothedNegativeDistance(unit_box, c=1.0)
    g = k.grad_y([0.0], [1.0])
    assert g[0] == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)

def test_gradient_negative_distance_kink(unit_box):
    k = NegativeDistance(unit_box)
    with pytest.raises(NonDifferentiablePointError):
        k.grad_y([0.3], [0.3])

def _fd_gradient(fun, x, y, h=1e-6):
    g = np.zeros_like(y, dtype=float)
    for i in range(y.size):
        step = np.zeros_like(y, dtype=float)
        step[i] = h
        g[i] = (fun(x, y + step) - fun(x, y - step)) / (2 * h)
    return g

def test_gradient_matches_central_differences(unit_square):
    rng = np.random.default_rng(17)
    kernels = [
        Gaussian(unit_square, c=0.7),
        InverseMultiquadric(unit_square, c=0.5, p=1.0),
        NegativeDistance(unit_square),
        SmoothedNegativeDistance(unit_square, c=0.05),
        CpdShifted(SmoothedNegativeDistance(unit_square, c=0.05), anchor=[0.0, 0.0]),
    ]
    for k in kernels:
        for _ in range(25):
            x, y = rng.random(2), rng.random(2)
            if np.linalg.norm(x - y) < 1e-3:
                continue
            g = k.grad_y(x, y)
            fd = _fd_gradient(k.eval, x, y)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)

def test_pairwise_grad_matches_single(unit_square):
    rng = np.random.default_rng(23)
    xs, ys = rng.random((4, 2)), rng.random((3, 2))
    for k in [Gaussian(unit_square, c=0.7), SmoothedNegativeDistance(unit_square, c=0.05),
              CpdShifted(NegativeDistance(unit_square), anchor=[0.0, 0.0])]:
        block = k.pairwise_grad_y(xs, ys)
        for i in range(4):
            for j in range(3):
                assert np.allclose(block[i, j], k.grad_y(xs[i], ys[j]), atol=1e-15)


# ---------------------------------------------------------------------------
# plan-weighted gradient contraction
# ---------------------------------------------------------------------------

def _contraction_variants(box):
    """Every kernel and cost variant, the anchor-shifted and negated wrappers included."""
    kernels = all_kernels(box) + [CpdShifted(SmoothedNegativeDistance(box, c=0.05), box.lower)]
    if box.dim == 1:
        kernels.append(SpectralKernel([1.0, 0.5, 0.25], box))
    costs = [AbsDistance(box), PowerDistance(box, p=1.0), PowerDistance(box, p=1.5),
             PowerDistance(box, p=2.0)]
    return kernels + costs + [NegatedKernel(k) for k in kernels]

def _plan_contraction(k, xs, ys, plan):
    return np.einsum("ij,ijk->jk", plan, k.pairwise_grad_y(xs, ys))

def _assert_contraction_matches(k, xs, ys, plan):
    # both routes: the factor from the distances, and from the function's own
    # matrix where the profile gives it in closed form
    ref = _plan_contraction(k, xs, ys, plan)
    for values in (None, k.gram(xs, ys)):
        got = k.plan_grad_y(xs, ys, plan, values)
        assert got.shape == ys.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), type(k).__name__

@pytest.mark.parametrize("d", [1, 2])
def test_plan_grad_matches_pairwise_contraction(d):
    # a box of side 2 puts some pairs beyond WendlandPower's unit support
    box = BoundingBox(np.zeros(d), np.full(d, 2.0))
    rng = np.random.default_rng(41 + d)
    xs, ys = 2.0 * rng.random((9, d)), 2.0 * rng.random((6, d))
    plan = rng.random((9, 6))
    plan /= plan.sum()
    for k in _contraction_variants(box):
        _assert_contraction_matches(k, xs, ys, plan)

@pytest.mark.parametrize("d", [1, 2])
def test_plan_grad_coincident_points(d):
    box = BoundingBox(np.zeros(d), np.ones(d))
    rng = np.random.default_rng(47 + d)
    ys = rng.random((5, d))
    # two of the xs coincide with atoms of ys
    xs = np.vstack([rng.random((4, d)), ys[[1, 3]]])
    plan = rng.random((6, 5))
    for k in _contraction_variants(box):
        if not k.smooth_at_zero:
            for values in (None, k.gram(xs, ys)):
                with pytest.raises(NonDifferentiablePointError):
                    k.plan_grad_y(xs, ys, plan, values)
            continue
        _assert_contraction_matches(k, xs, ys, plan)
        # a coincident pair contributes nothing (CpdShifted adds its anchor
        # term, which is not a pair term)
        if not isinstance(getattr(k, "kernel", k), CpdShifted):
            for values in (None, k.gram(ys, ys)):
                assert np.array_equal(k.plan_grad_y(ys, ys, np.eye(5), values), np.zeros((5, d)))

def test_plan_grad_from_values_reads_no_distances_for_closed_forms(monkeypatch, unit_square):
    # the smoothed distance (1/h) and the Gaussian (-2h/c^2), as kernels and
    # as costs, take h'(r)/r from their matrix; the given matrix is not written
    rng = np.random.default_rng(53)
    xs, ys = rng.random((7, 2)), rng.random((4, 2))
    plan = rng.random((7, 4))
    closed = [SmoothedNegativeDistance(unit_square, c=0.05), Gaussian(unit_square, c=0.7)]
    for k in closed + [NegatedKernel(k) for k in closed]:
        values = k.gram(xs, ys)
        kept = values.copy()
        calls = []
        monkeypatch.setattr(kernels, "squared_distances",
                            lambda a, b: calls.append(1) or squared_distances(a, b))
        k.plan_grad_y(xs, ys, plan, values)
        monkeypatch.undo()
        assert calls == [], type(k).__name__
        assert np.array_equal(values, kept)

@pytest.mark.parametrize("d", [1, 2])
def test_plan_grad_of_the_independent_coupling_from_its_weights(d):
    # the coupling a b^T given as (a, b) is contracted without building it
    box = BoundingBox(np.zeros(d), np.full(d, 2.0))
    rng = np.random.default_rng(59 + d)
    xs, ys = 2.0 * rng.random((9, d)), 2.0 * rng.random((6, d))
    a, b = rng.random(9), rng.random(6)
    a, b = a / a.sum(), b / b.sum()
    for k in _contraction_variants(box):
        ref = _plan_contraction(k, xs, ys, np.outer(a, b))
        for values in (None, k.gram(xs, ys)):
            got = k.plan_grad_y(xs, ys, (a, b), values)
            assert got.shape == ys.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), type(k).__name__

def test_plan_grad_wendland_zero_beyond_support():
    box = BoundingBox(np.zeros(2), np.full(2, 4.0))
    k = WendlandPower(box, p=2)
    xs = np.array([[0.0, 0.0], [0.5, 0.0]])
    ys = np.array([[3.0, 3.0], [4.0, 0.0]])
    assert np.array_equal(k.plan_grad_y(xs, ys, np.ones((2, 2))), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Lipschitz metadata
# ---------------------------------------------------------------------------

def _paired_eval(k, xs, ys, chunk=500):
    out = np.empty(xs.shape[0])
    for start in range(0, xs.shape[0], chunk):
        block = slice(start, start + chunk)
        out[block] = np.einsum("ii->i", k.gram(xs[block], ys[block]))
    return out

def test_lipschitz_bound_property(unit_square):
    rng = np.random.default_rng(31)
    n_triples = 10_000
    for k in all_kernels(unit_square):
        xs = rng.random((n_triples, 2))
        xps = rng.random((n_triples, 2))
        ys = rng.random((n_triples, 2))
        lhs = np.abs(_paired_eval(k, xs, ys) - _paired_eval(k, xps, ys))
        rhs = k.lipschitz * np.linalg.norm(xs - xps, axis=1) + 1e-12
        assert np.all(lhs <= rhs)

def test_lipschitz_cost_variants(unit_square):
    rng = np.random.default_rng(37)
    costs = [AbsDistance(unit_square), PowerDistance(unit_square, p=2.0),
             NegatedKernel(Gaussian(unit_square, c=0.7))]
    for c in costs:
        xs = rng.random((100, 2))
        xps = rng.random((100, 2))
        ys = rng.random((100, 2))
        lhs = np.abs(
            np.array([c.eval(x, y) for x, y in zip(xs, ys)])
            - np.array([c.eval(xp, y) for xp, y in zip(xps, ys)])
        )
        rhs = c.lipschitz * np.linalg.norm(xs - xps, axis=1) + 1e-12
        assert np.all(lhs <= rhs)


# ---------------------------------------------------------------------------
# anchor shift and definiteness
# ---------------------------------------------------------------------------

def test_cpd_shift_vanishes_on_anchor(unit_box):
    u = np.array([0.25])
    k = CpdShifted(NegativeDistance(unit_box), anchor=u)
    for y in np.linspace(0, 1, 11):
        assert k.eval(u, [y]) == 0.0
        assert k.eval([y], u) == 0.0

def test_empirical_pd_gaussian(unit_square):
    assert empirical_pd_check(Gaussian(unit_square, c=0.7), 50, seed=0) > -1e-10

def test_empirical_pd_negative_distance(unit_square):
    assert empirical_pd_check(NegativeDistance(unit_square), 50, seed=0) < 0

def test_empirical_pd_cpd_shift(unit_box):
    k = CpdShifted(NegativeDistance(unit_box), anchor=[0.0])
    assert empirical_pd_check(k, 50, seed=0) > -1e-10

def test_empirical_pd_shifted_negative_distance(unit_box):
    assert empirical_pd_check(ShiftedNegativeDistance(unit_box), 100, seed=1) > -1e-10


# ---------------------------------------------------------------------------
# row blocks
# ---------------------------------------------------------------------------

# so large that every matrix below is one block
_ONE_BLOCK = 1 << 40


@pytest.mark.parametrize("n, m", [(203, 37), (203, 1), (1, 37), (1, 1), (9, 5000)])
@pytest.mark.parametrize("cells", [64, kernels._BLOCK_CELLS])
def test_row_blocks_cover_rows_in_multiples_of_eight(monkeypatch, n, m, cells):
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", cells)
    blocks = _row_blocks(n, m)
    assert [r for rows in blocks for r in range(n)[rows]] == list(range(n))
    for rows in blocks:
        assert rows.start % 8 == 0
        height = rows.stop - rows.start
        assert height % 8 == 0 and height >= 8
        assert height * m <= cells or height == 8


def _blocked_and_whole(monkeypatch, evaluate, cells):
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", cells)
    blocked = evaluate()
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", _ONE_BLOCK)
    return blocked, evaluate()


# (203, 37) at 64 cells is 26 blocks of 8 rows, the last of 3; (203, 700) is
# three blocks at the default size
@pytest.mark.parametrize("n, m, cells", [
    (203, 37, 64), (203, 1, 64), (1, 37, 64), (1, 1, 64), (203, 700, kernels._BLOCK_CELLS),
])
def test_blocked_matrices_bitwise_equal_one_block(monkeypatch, unit_square, n, m, cells):
    rng = np.random.default_rng(40)
    xs = rng.random((n, 2))
    ys = rng.random((m, 2))
    box = unit_square
    costs = [AbsDistance(box), PowerDistance(box, p=2), NegatedKernel(Gaussian(box, c=0.7)),
             NegatedKernel(CpdShifted(NegativeDistance(box), anchor=[0.3, 0.8]))]
    for cost in costs:
        blocked, whole = _blocked_and_whole(monkeypatch, lambda: cost.matrix(xs, ys), cells)
        assert blocked.shape == (n, m)
        assert blocked.tobytes() == whole.tobytes(), cost.variant
    gaussian = Gaussian(box, c=0.7)
    blocked, whole = _blocked_and_whole(monkeypatch, lambda: gaussian.gram(xs, ys), cells)
    assert blocked.tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# thread pool
# ---------------------------------------------------------------------------

def _at_widths(monkeypatch, evaluate, widths=(1, 2, 3)):
    """evaluate() with every matrix on the pool, once per pool width."""
    monkeypatch.setattr(kernels, "_PARALLEL_CELLS", 1)
    results = []
    for width in widths:
        monkeypatch.setattr(kernels, "_WIDTH", width)
        results.append(evaluate())
    return results


def test_pooled_matrices_bitwise_equal_at_every_width(monkeypatch, unit_square):
    # 203 x 701 is three row blocks, neither side a multiple of 8
    rng = np.random.default_rng(41)
    xs = rng.random((203, 2))
    ys = rng.random((701, 2))
    box = unit_square
    evaluations = [
        lambda: AbsDistance(box).matrix(xs, ys),
        lambda: NegatedKernel(CpdShifted(NegativeDistance(box), anchor=[0.3, 0.8])).matrix(xs, ys),
        lambda: Gaussian(box, c=0.7).gram(xs, ys),
    ]
    assert len(kernels._row_blocks(203, 701)) > 1
    for evaluate in evaluations:
        one, *pooled = _at_widths(monkeypatch, evaluate)
        for matrix in pooled:
            assert matrix.tobytes() == one.tobytes()


@pytest.mark.parametrize("n", [1, 7, 8, 203, 1501])
@pytest.mark.parametrize("width", [1, 2, 3, 8])
def test_pool_parts_cover_the_range_from_multiples_of_eight(monkeypatch, n, width):
    monkeypatch.setattr(kernels, "_WIDTH", width)
    small = kernels._pool_parts(n, kernels._PARALLEL_CELLS - 1)
    assert small == [slice(0, n)]
    parts = kernels._pool_parts(n, kernels._PARALLEL_CELLS)
    assert [i for part in parts for i in range(n)[part]] == list(range(n))
    assert all(part.start % 8 == 0 for part in parts)
    assert len(parts) <= width


@pytest.mark.parametrize("environ, cpus, width", [
    ({}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
    ({"OMP_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "two"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1.5", "OMP_NUM_THREADS": "-1"}, 2, 1),
])
def test_pool_width_is_cpus_per_blas_thread(environ, cpus, width):
    assert kernels._pool_width(environ, cpus) == width


def test_task_error_reaches_the_caller_with_its_type(monkeypatch):
    monkeypatch.setattr(kernels, "_PARALLEL_CELLS", 1)
    monkeypatch.setattr(kernels, "_WIDTH", 2)
    done = []

    def task(part):
        if part.start == 8:
            raise NotNegatedKernelError(f"part {part.start}")
        done.append(part.start)

    with pytest.raises(NotNegatedKernelError, match="part 8"):
        kernels._run_parts(task, [slice(0, 8), slice(8, 16), slice(16, 24)], 24)
    # the other parts ran to their end before the error was raised
    assert sorted(done) == [0, 16]


def test_fill_parts_of_one_part_returns_computes_own_array():
    whole = np.arange(6.0)
    assert kernels._fill_parts(lambda part: whole, [slice(0, 6)], 6, 6) is whole


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("shape", [(203,), (203, 37)])
def test_fill_parts_bitwise_equal_one_whole_compute(monkeypatch, pooled, shape):
    # inline at width 1; on the pool with every matrix pooled at width 2
    monkeypatch.setattr(kernels, "_PARALLEL_CELLS", 1 if pooled else kernels._PARALLEL_CELLS)
    monkeypatch.setattr(kernels, "_WIDTH", 2 if pooled else 1)
    source = np.random.default_rng(43).random((203, 37))

    def compute(rows):
        block = np.exp(source[rows] * 3.0)
        return np.log(block.sum(axis=1)) if len(shape) == 1 else block

    parts = [slice(start, start + 8) for start in range(0, 203, 8)]
    filled = kernels._fill_parts(compute, parts, source.size, shape)
    whole = compute(slice(None))
    assert filled.shape == shape
    assert filled.tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# JSON construction
# ---------------------------------------------------------------------------

def test_kernel_from_spec_roundtrip(unit_square):
    spec = {
        "variant": "CpdShifted",
        "params": {
            "base": {"variant": "SmoothedNegativeDistance", "params": {"c": 0.05}},
            "anchor": [0.0, 0.0],
        },
    }
    k = kernel_from_spec(spec, unit_square)
    assert isinstance(k, CpdShifted)
    assert isinstance(k.base, SmoothedNegativeDistance)
    rebuilt = kernel_from_spec({"variant": k.variant, "params": k.params()}, unit_square)
    assert rebuilt.eval([0.1, 0.2], [0.9, 0.4]) == k.eval([0.1, 0.2], [0.9, 0.4])

def test_cost_from_spec(unit_square):
    c = cost_from_spec({"variant": "NegatedKernel",
                        "params": {"kernel": {"variant": "Gaussian", "params": {"c": 0.7}}}},
                       unit_square)
    assert isinstance(c, NegatedKernel)
    assert c.eval([0.0, 0.0], [0.0, 0.0]) == -1.0

def test_spectral_kernel_from_spec(unit_box):
    from sinkdiv import SpectralKernel

    k = kernel_from_spec({"variant": "SpectralKernel", "params": {"alpha": [1.0, 0.5]}},
                         unit_box)
    assert isinstance(k, SpectralKernel)
    assert k.eval([0.0], [0.0]) == pytest.approx(2.0, abs=1e-15)

def test_kernel_for_cost(unit_box):
    assert isinstance(kernel_for_cost(AbsDistance(unit_box)), NegativeDistance)
    with pytest.raises(NotNegatedKernelError):
        kernel_for_cost(PowerDistance(unit_box, p=2.0))

def test_pairwise_distances_shape(unit_square):
    rng = np.random.default_rng(2)
    d = pairwise_distances(rng.random((4, 2)), rng.random((6, 2)))
    assert d.shape == (4, 6)
    assert np.all(d >= 0)

@pytest.mark.parametrize("d", [1, 2, 3])
def test_pairwise_distances_bitwise_tensor_formula_and_transpose(d):
    rng = np.random.default_rng(30 + d)
    xs = rng.random((23, d)) * 2.0 - 1.0
    ys = rng.random((17, d)) * 2.0 - 1.0
    diff = xs[:, None, :] - ys[None, :, :]
    tensor = np.sum(diff * diff, axis=2)
    assert np.array_equal(squared_distances(xs, ys), tensor)
    assert np.array_equal(squared_distances(ys, xs).T, tensor)
    dist = pairwise_distances(xs, ys)
    assert np.array_equal(dist, np.sqrt(tensor))
    assert np.array_equal(pairwise_distances(ys, xs).T, dist)


def _build_peak(k, xs, ys) -> float:
    """Peak traced memory of one matrix build, in arrays of the matrix's size."""
    k.gram(xs, ys)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        k.gram(xs, ys)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / (8 * xs.shape[0] * ys.shape[0])

def test_matrix_build_peaks_near_two_matrix_sized_arrays(unit_square):
    # dither's 900 x 50 cost matrix, one row block: the squared distances and
    # one coordinate's differences, then the profile and any negation in
    # place, plus numpy's 64 KiB ufunc buffer (0.18 of the matrix here).
    # CpdShifted adds the sum of its two anchor terms, one more array.
    rng = np.random.default_rng(61)
    xs, ys = rng.random((900, 2)), rng.random((50, 2))
    assert len(_row_blocks(900, 50)) == 1
    for k in _contraction_variants(unit_square):
        bound = 2.4 if isinstance(getattr(k, "kernel", k), CpdShifted) else 2.25
        assert _build_peak(k, xs, ys) <= bound, type(getattr(k, "kernel", k)).__name__

@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("build, name", [
    (lambda box, v: Gaussian(box, c=v), "c"),
    (lambda box, v: InverseMultiquadric(box, c=v), "c"),
    (lambda box, v: InverseMultiquadric(box, p=v), "p"),
    (lambda box, v: WendlandPower(box, p=v), "p"),
    (lambda box, v: ShiftedNegativeDistance(box, C=v), "C"),
    (lambda box, v: SmoothedNegativeDistance(box, c=v), "c"),
    (lambda box, v: PowerDistance(box, p=v), "p"),
    (lambda box, v: CpdShifted(NegativeDistance(box), anchor=[0.5, v]), "anchor"),
    (lambda box, v: SpectralKernel([1.0, v]), "alpha"),
], ids=["Gaussian.c", "InverseMultiquadric.c", "InverseMultiquadric.p", "WendlandPower.p",
        "ShiftedNegativeDistance.C", "SmoothedNegativeDistance.c", "PowerDistance.p",
        "CpdShifted.anchor", "SpectralKernel.alpha"])
def test_non_finite_parameter_raises_naming_it(unit_square, build, name, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        build(unit_square, value)

@pytest.mark.parametrize("value", [1e-300, 1e200])
@pytest.mark.parametrize("build", [
    lambda box, v: Gaussian(box, c=v),
    lambda box, v: InverseMultiquadric(box, c=v),
    lambda box, v: SmoothedNegativeDistance(box, c=v),
], ids=["Gaussian", "InverseMultiquadric", "SmoothedNegativeDistance"])
def test_width_whose_square_underflows_or_overflows_raises_naming_it(unit_square, build, value):
    # each profile uses c^2: 1e-300^2 is 0 and 1e200^2 is inf, which give NaN
    # or infinite kernel values
    with pytest.raises(ValueError, match=r"\bc\^2"):
        build(unit_square, value)

@pytest.mark.parametrize("c, p", [(1e-150, 0.5), (0.01, 200.0), (1e100, 10.0)])
def test_inverse_multiquadric_power_not_finite_and_positive_raises_naming_c_and_p(unit_square, c, p):
    # |h'| peaks near r = 0 at 2p r (c^2)^(-p-1): an overflow there made the
    # Lipschitz bound NaN, and an underflow makes every kernel value 0
    with pytest.raises(ValueError, match=r"\bc = .*\bp = "):
        InverseMultiquadric(unit_square, c=c, p=p)

@pytest.mark.parametrize("alpha", [[], [[1.0, 0.5]], 1.0], ids=["empty", "2-D", "scalar"])
def test_spectral_kernel_rejects_malformed_alpha(alpha):
    with pytest.raises(ValueError, match=r"\balpha\b"):
        SpectralKernel(alpha)

def test_shifted_negative_distance_rejects_a_shift_whose_double_overflows(unit_box, example_pair):
    # a discrepancy adds two Gram double sums of about C each: at C = 1e308
    # they overflowed and the discrepancy was NaN
    with pytest.raises(ValueError, match=r"\bC\b"):
        ShiftedNegativeDistance(unit_box, C=1e308)
    assert math.isfinite(discrepancy(ShiftedNegativeDistance(unit_box, C=8e307),
                                     *example_pair).squared)

def test_gaussian_rejects_a_width_whose_gradient_factor_overflows(unit_box):
    # h'(r)/r = -2 h / c^2 is -2 / c^2 at r = 0; c = 1e-160 has a subnormal
    # square, 2 / c^2 is infinite, and the build warned on overflow
    with pytest.raises(ValueError, match=r"\bc = 1e-160"):
        Gaussian(unit_box, c=1e-160)
    Gaussian(unit_box, c=1e-150)

def test_gaussian_rejects_a_width_too_small_for_its_box():
    # on [0, 2] the derivative's 2 r / c^2 overflowed at r = diam, and the
    # build and the gram warned; on [0, 1] every quotient is finite
    c = 1.1e-154
    with pytest.raises(ValueError, match=r"\bc = 1\.1e-154"):
        Gaussian(BoundingBox([0.0], [2.0]), c=c)
    kernel = Gaussian(BoundingBox([0.0], [1.0]), c=c)
    assert math.isfinite(kernel.lipschitz)
    assert kernel.gram([[0.0]], [[1.0]])[0, 0] == 0.0

@pytest.mark.parametrize("anchor", [[1e308], [1.5], [-1e-9]])
def test_cpd_shift_rejects_an_anchor_outside_the_box(unit_box, anchor):
    # the anchor is a point of the box; at 1e308 its squared distances
    # overflowed and the discrepancy was NaN
    with pytest.raises(ValueError, match=r"\banchor\b"):
        CpdShifted(NegativeDistance(unit_box), anchor=anchor)

def test_spectral_kernel_rejects_alpha_whose_diagonal_doubled_overflows():
    # K(x, x) = alpha_0 + 2 sum alpha_k is the largest value of the kernel
    with pytest.raises(ValueError, match=r"\balpha\b"):
        SpectralKernel([1.0, 1e308])
    with pytest.raises(ValueError, match=r"\balpha\b"):
        SpectralKernel([1e308])

def test_wendland_dimension_guard():
    box = BoundingBox(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        WendlandPower(box, p=2)
    WendlandPower(box, p=3)
