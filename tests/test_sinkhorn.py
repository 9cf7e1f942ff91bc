"""Solver: softmin, Gibbs and log-domain half-steps, fixed point, limits, contraction, diagnostics."""
import math
import multiprocessing
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from sinkdiv import (
    AbsDistance,
    BoundingBox,
    DiscreteMeasure,
    Gaussian,
    InverseMultiquadric,
    NegatedKernel,
    PotentialPair,
    PowerDistance,
    ShiftedNegativeDistance,
    SinkhornConfig,
    dirac,
    epsilon_sweep,
    exact_ot,
    ot_infinity,
    potential_lipschitz_check,
    sinkhorn_divergence,
    softmin,
    solve,
    uniform,
)
from sinkdiv import kernels, sinkhorn
from sinkdiv.errors import DimensionMismatchError, NonFiniteValueError
from sinkdiv.sinkhorn import (
    _fixed_point,
    _half_steps,
    _log_sum_exp,
    _log_weights,
    extend_potentials,
)

from conftest import random_measure


# ---------------------------------------------------------------------------
# softmin operator
# ---------------------------------------------------------------------------

def test_softmin_single_atom_exact(unit_box):
    # integral against a Dirac: T(phi)(x) = c(x, y0) - phi(y0), any epsilon
    cost = AbsDistance(unit_box)
    m = dirac([0.4])
    phi = np.array([0.3])
    for eps in [1e-6, 1e-2, 1.0, 1e4]:
        out = softmin(cost, m, phi, eps, np.array([[0.9]]))
        assert out[0] == pytest.approx(abs(0.9 - 0.4) - 0.3, abs=1e-14)

def test_softmin_constant_exponent_exact(unit_box):
    # phi_j = c(x, y_j) - kappa0 makes the log-sum-exp argument constant
    cost = AbsDistance(unit_box)
    m = uniform(np.array([[0.1], [0.5], [0.8]]))
    x = np.array([[0.3]])
    kappa0 = 0.77
    phi = cost.matrix(x, m.points)[0] - kappa0
    for eps in [1e-4, 1.0, 1e3]:
        out = softmin(cost, m, phi, eps, x)
        assert out[0] == pytest.approx(kappa0, abs=1e-12)

def test_softmin_small_epsilon_approaches_min(unit_box):
    cost = AbsDistance(unit_box)
    m = uniform(np.array([[0.2], [0.9]]))
    phi = np.array([0.05, -0.1])
    x = np.array([[0.0]])
    hard = min(abs(0.0 - 0.2) - 0.05, abs(0.0 - 0.9) + 0.1)
    out = softmin(cost, m, phi, 1e-6, x)
    assert out[0] == pytest.approx(hard, abs=1e-5)

def test_softmin_ignores_zero_weight_atoms(unit_box):
    cost = AbsDistance(unit_box)
    with_zero = DiscreteMeasure(np.array([[0.2], [0.9]]), np.array([1.0, 0.0]))
    just_one = dirac([0.2])
    x = np.array([[0.6]])
    a = softmin(cost, with_zero, np.array([0.3, 5.0]), 0.5, x)
    b = softmin(cost, just_one, np.array([0.3]), 0.5, x)
    assert a[0] == b[0]


def _naive_softmin(c_block, weights, phi, eps):
    # the max-shifted log-sum-exp written out, one query row at a time
    out = np.empty(c_block.shape[0])
    for q, row in enumerate(c_block):
        a = (phi - row) / eps
        top = np.max(a)
        out[q] = -eps * (top + math.log(np.sum(weights * np.exp(a - top))))
    return out


def _with_zero_weight_atoms(rng, box, n, zeros):
    # n random atoms of which the listed ones carry no mass, plus the kept part
    m = random_measure(rng, n, box)
    w = m.weights.copy()
    w[zeros] = 0.0
    w /= w.sum()
    keep = w > 0
    return DiscreteMeasure(m.points, w), DiscreteMeasure(m.points[keep], w[keep]), keep


@pytest.mark.parametrize("eps", [1e-3, 0.1, 10.0])
def test_half_step_matches_naive_logsumexp_both_orientations(unit_square, eps):
    rng = np.random.default_rng(21)
    cost = AbsDistance(unit_square)
    mu = random_measure(rng, 13, unit_square)
    nu = random_measure(rng, 8, unit_square)
    phi, psi = rng.random(13) - 0.5, rng.random(8) - 0.5
    c_matrix = cost.matrix(mu.points, nu.points)
    naive_rows = _naive_softmin(c_matrix, nu.weights, psi, eps)
    naive_cols = _naive_softmin(c_matrix.T, mu.weights, phi, eps)
    # through softmin, which evaluates the cost block itself
    assert np.max(np.abs(softmin(cost, nu, psi, eps, mu.points) - naive_rows)) <= 1e-12
    assert np.max(np.abs(softmin(cost, mu, phi, eps, nu.points) - naive_cols)) <= 1e-12
    # the solver's layout: one K and one scratch buffer, reduced along either axis
    k_matrix = c_matrix / -eps
    scratch = np.empty_like(k_matrix)
    rows = _log_sum_exp(k_matrix, psi / eps + _log_weights(nu.weights), eps, 1, scratch)
    cols = _log_sum_exp(k_matrix, phi / eps + _log_weights(mu.weights), eps, 0, scratch)
    assert np.max(np.abs(rows - naive_rows)) <= 1e-12
    assert np.max(np.abs(cols - naive_cols)) <= 1e-12


def test_log_domain_floor_bitwise_equal_unclamped(unit_box):
    # K = -C/eps spans 1400 (atoms at both ends of [0, 1]), so the half-steps
    # clamp shifted exponents below exp's normal range at _EXP_FLOOR; a
    # zero-weight atom (g = -inf) is clamped too. The clamped terms cannot
    # reach the sum's last bit.
    rng = np.random.default_rng(27)
    eps = 1.0 / 1400.0
    mu, _, _ = _with_zero_weight_atoms(rng, unit_box, 40, [5])
    nu = random_measure(rng, 30, unit_box)
    mu = DiscreteMeasure(np.concatenate([[[0.0]], mu.points[1:]]), mu.weights)
    nu = DiscreteMeasure(np.concatenate([nu.points[:-1], [[1.0]]]), nu.weights)
    k_matrix = AbsDistance(unit_box).matrix(mu.points, nu.points) / -eps
    log_w_mu, log_w_nu = _log_weights(mu.weights), _log_weights(nu.weights)
    t_nu, t_mu, _ = _half_steps(k_matrix.copy(), eps, log_w_mu, log_w_nu)
    phi, psi = rng.random(40) - 0.5, rng.random(30) - 0.5
    for half_step, potential, log_w, axis in [(t_nu, psi, log_w_nu, 1), (t_mu, phi, log_w_mu, 0)]:
        g = potential / eps + log_w
        shifted = k_matrix + (g if axis == 1 else g[:, None])
        top = shifted.max(axis=axis)
        shifted -= np.expand_dims(top, axis)
        # some finite exponents fall below exp's normal range
        assert np.min(shifted[np.isfinite(shifted)]) < -708.0
        unclamped = -eps * (top + np.log(np.exp(shifted).sum(axis=axis)))
        assert np.array_equal(half_step(potential), unclamped)


def _both_half_steps(monkeypatch, c_matrix, eps, log_w_mu, log_w_nu):
    # each form owns the K it is given: the Gibbs one overwrites it with G,
    # whose largest entry is exp(0) = 1
    k_matrix = c_matrix / -eps
    assert float(np.max(k_matrix)) - float(np.min(k_matrix)) <= sinkhorn._GIBBS_MAX_SPAN
    k_gibbs = k_matrix.copy()
    gibbs = _half_steps(k_gibbs, eps, log_w_mu, log_w_nu)[:2]
    assert np.max(k_gibbs) == 1.0
    # no span passes the test, so the same K gets the log-domain form
    monkeypatch.setattr(sinkhorn, "_GIBBS_MAX_SPAN", -math.inf)
    log_domain = _half_steps(k_matrix, eps, log_w_mu, log_w_nu)[:2]
    assert np.array_equal(k_matrix, c_matrix / -eps)
    return gibbs, log_domain


@pytest.mark.parametrize("case", ["zero_weights", "negated_gaussian", "large_eps"])
def test_gibbs_half_steps_match_log_domain_both_orientations(monkeypatch, unit_square, case):
    rng = np.random.default_rng(24)
    cost, eps = AbsDistance(unit_square), 0.05
    mu = random_measure(rng, 13, unit_square)
    nu = random_measure(rng, 8, unit_square)
    if case == "zero_weights":
        mu, _, _ = _with_zero_weight_atoms(rng, unit_square, 13, [0, 6, 12])
        nu, _, _ = _with_zero_weight_atoms(rng, unit_square, 8, [3])
    elif case == "negated_gaussian":
        # c = -k is negative everywhere
        cost = NegatedKernel(Gaussian(unit_square, c=0.4))
    else:
        eps = 1e3
    phi, psi = rng.random(13) - 0.5, rng.random(8) - 0.5
    (t_nu, t_mu), (log_t_nu, log_t_mu) = _both_half_steps(
        monkeypatch, cost.matrix(mu.points, nu.points), eps,
        _log_weights(mu.weights), _log_weights(nu.weights))
    assert np.max(np.abs(t_nu(psi) - log_t_nu(psi))) <= 1e-12
    assert np.max(np.abs(t_mu(phi) - log_t_mu(phi))) <= 1e-12


def _span_problem(span):
    # a cross and a self problem on [0, 1] whose K = -C/eps spans `span`
    box = BoundingBox(np.array([0.0]), np.array([1.0]))
    rng = np.random.default_rng(25)
    mu = DiscreteMeasure.normalized(np.array([[0.0], [0.3], [0.55], [1.0]]), rng.random(4) + 0.1)
    nu = DiscreteMeasure.normalized(np.array([[0.0], [0.2], [0.7], [0.9]]), rng.random(4) + 0.1)
    # both cost matrices range over [0, 1]
    return AbsDistance(box), mu, nu, SinkhornConfig(epsilon=1.0 / span)


@pytest.mark.parametrize("span", [499.0, 501.0])
def test_solve_either_side_of_gibbs_span_matches_log_domain(monkeypatch, span):
    cost, mu, nu, cfg = _span_problem(span)
    problems = [(mu, nu), (mu, mu)]
    solutions = [solve(cost, a, b, cfg) for a, b in problems]
    # the reference runs every solve in the log domain
    monkeypatch.setattr(sinkhorn, "_GIBBS_MAX_SPAN", -math.inf)
    for (a, b), sol in zip(problems, solutions):
        ref = solve(cost, a, b, cfg)
        assert ref.converged and sol.converged
        assert sol.iterations == ref.iterations
        assert sol.value == pytest.approx(ref.value, abs=1e-12)
        assert np.max(np.abs(sol.potentials.phi - ref.potentials.phi)) <= 1e-12
        assert np.max(np.abs(sol.potentials.psi - ref.potentials.psi)) <= 1e-12


def test_small_epsilon_log_domain_solve_raises_no_runtime_warning(example_pair, unit_box):
    # K = -C/eps spans 1e4, far past what G = exp(K - max K) could hold
    mu, nu = example_pair
    cost = AbsDistance(unit_box)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in [(mu, nu), (mu, mu)]:
            sol = solve(cost, a, b, SinkhornConfig(epsilon=1e-4))
            assert sol.converged and np.isfinite(sol.value)


def test_cost_over_epsilon_overflow_raises_naming_epsilon(example_pair, unit_box):
    # -C/eps = (5e307 - |x - y|) / 0.1 is past the largest float: every solve
    # returned a NaN value, flagged unconverged
    mu, nu = example_pair
    cost = NegatedKernel(ShiftedNegativeDistance(unit_box, C=5e307))
    cfg = SinkhornConfig(epsilon=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in [(mu, nu), (mu, mu)]:
            with pytest.raises(NonFiniteValueError, match="epsilon"):
                solve(cost, a, b, cfg)
        with pytest.raises(NonFiniteValueError, match="epsilon"):
            sinkhorn_divergence(cost, mu, nu, cfg)


def test_gibbs_solve_peak_memory_within_four_cost_sized_arrays(unit_square):
    # the peak is at plan extraction, which reading the duality gap forces; G
    # overwrites K, so the fixed point holds one array of the cost's size
    # besides the cost itself
    rng = np.random.default_rng(26)
    n = 600
    mu = random_measure(rng, n, unit_square)
    nu = random_measure(rng, n, unit_square)
    cost = AbsDistance(unit_square)
    cfg = SinkhornConfig(epsilon=0.1, max_iter=30)
    array_bytes = n * n * 8
    # O(n) vectors and the allocator's bookkeeping, far below one n x n array
    slack = array_bytes // 8
    for a, b in [(mu, nu), (mu, mu)]:
        c_matrix = cost.matrix(a.points, b.points)
        tracemalloc.start()
        try:
            solve(cost, a, b, cfg).duality_gap
            _, solve_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _fixed_point(c_matrix, a, b, cfg, np.zeros(n))
            _, fixed_point_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solve_peak <= 4 * array_bytes + slack
        assert fixed_point_peak <= array_bytes + slack


def test_log_domain_solve_peak_memory_within_three_cost_sized_arrays(unit_square):
    # K spans about 1400 at eps = 1e-3, so the half-steps run in the log
    # domain: the cost, K and one scratch buffer, both axes reduced on the one K
    rng = np.random.default_rng(27)
    n = 600
    mu = random_measure(rng, n, unit_square)
    nu = random_measure(rng, n, unit_square)
    cost = AbsDistance(unit_square)
    cfg = SinkhornConfig(epsilon=1e-3, max_iter=5)
    array_bytes = n * n * 8
    slack = array_bytes // 8
    for a, b in [(mu, nu), (mu, mu)]:
        tracemalloc.start()
        try:
            solve(cost, a, b, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * array_bytes + slack


def _eager_extraction(cost, mu, nu, sol):
    """The plan and duality gap as solve built them before extraction was lazy."""
    if math.isinf(sol.potentials.epsilon):
        return np.outer(mu.weights, nu.weights), 0.0
    c_matrix, eps = cost.matrix(mu.points, nu.points), sol.potentials.epsilon
    phi, psi = sol.potentials.phi, sol.potentials.psi
    exponent = (phi[:, None] + psi[None, :] - c_matrix) / eps
    with np.errstate(over="ignore"):
        plan = np.exp(exponent)
        plan *= np.outer(mu.weights, nu.weights)
    primal = float(np.sum(c_matrix * plan) + eps * np.sum(plan * exponent))
    return plan, abs(primal - sol.value)

@pytest.mark.parametrize("eps", [0.05, 1.0, math.inf])
def test_lazy_plan_and_gap_bitwise_equal_to_eager_formula(unit_square, eps):
    rng = np.random.default_rng(31)
    mu = random_measure(rng, 30, unit_square)
    nu = random_measure(rng, 20, unit_square)
    cost = AbsDistance(unit_square)
    for a, b in [(mu, nu), (mu, mu)]:
        sol = solve(cost, a, b, SinkhornConfig(epsilon=eps))
        plan, gap = _eager_extraction(cost, a, b, sol)
        assert np.array_equal(sol.plan.matrix, plan)
        assert sol.duality_gap == gap
        # built once: the plan object is cached
        assert sol.plan is sol.plan

def test_divergence_builds_no_plan(unit_square, monkeypatch):
    from sinkdiv import divergence

    solutions = []

    def recording_solve(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(divergence, "solve", recording_solve)
    rng = np.random.default_rng(32)
    mu = random_measure(rng, 40, unit_square)
    nu = random_measure(rng, 30, unit_square)
    for eps in [0.1, math.inf]:
        solutions.clear()
        cfg = SinkhornConfig(epsilon=eps)
        divergence.sinkhorn_divergence(AbsDistance(unit_square), mu, nu, cfg)
        assert len(solutions) == 3
        # the plan and the gap are each cached, absent until read, and
        # reading the plan builds no gap
        assert not any("plan" in vars(sol) or "duality_gap" in vars(sol) for sol in solutions)
        solutions[0].plan
        assert "plan" in vars(solutions[0]) and "duality_gap" not in vars(solutions[0])

def test_divergence_peak_memory_within_one_solve_and_one_plan(unit_square):
    # one solve's budget is 4 arrays of the cost's size (the test above). Each
    # finished term keeps its cost matrix and no plan, so the last solve's
    # cost and G sit beside two kept matrices: about 4 arrays. Plans built
    # eagerly would put two plans beside that solve's extraction: about 6.
    rng = np.random.default_rng(33)
    n = 600
    mu = random_measure(rng, n, unit_square)
    nu = random_measure(rng, n, unit_square)
    cfg = SinkhornConfig(epsilon=0.1, max_iter=30)
    array_bytes = n * n * 8
    slack = array_bytes // 8
    tracemalloc.start()
    try:
        sinkhorn_divergence(AbsDistance(unit_square), mu, nu, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (4 + 1) * array_bytes + slack


def test_divergence_and_sweep_hold_one_solve_at_a_time(unit_square):
    # each term is read into its value as its solve returns, so no finished
    # term's cost matrix sits beside the next solve: the peak is one solve's
    # cost and G at eps = 0.1, its cost, K and log-domain scratch at 1e-3
    rng = np.random.default_rng(34)
    n = 600
    mu = random_measure(rng, n, unit_square)
    nu = random_measure(rng, n, unit_square)
    cost = AbsDistance(unit_square)
    array_bytes = n * n * 8
    slack = array_bytes // 8

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for eps, arrays in [(0.1, 2), (1e-3, 3)]:
        cfg = SinkhornConfig(epsilon=eps, max_iter=5)
        assert peak(lambda: sinkhorn_divergence(cost, mu, nu, cfg)) <= arrays * array_bytes + slack
    template = SinkhornConfig(epsilon=1.0, max_iter=5)
    assert peak(lambda: epsilon_sweep(cost, mu, nu, epsilons=[1e-3, 0.1], cfg=template)
                ) <= 3 * array_bytes + slack


@pytest.mark.parametrize("eps", [1e-3, 0.1, 10.0])
def test_softmin_zero_weight_atoms_match_dropped(unit_square, eps):
    rng = np.random.default_rng(22)
    cost = AbsDistance(unit_square)
    with_zeros, dropped, keep = _with_zero_weight_atoms(rng, unit_square, 11, [0, 4, 10])
    phi = rng.random(11) - 0.5
    x = rng.random((7, 2))
    a = softmin(cost, with_zeros, phi, eps, x)
    b = softmin(cost, dropped, phi[keep], eps, x)
    assert np.max(np.abs(a - b)) <= 1e-13


@pytest.mark.parametrize("eps", [1e-2, 0.3])
def test_solve_zero_weight_atoms_match_dropped(unit_square, eps):
    rng = np.random.default_rng(23)
    cost = AbsDistance(unit_square)
    cfg = SinkhornConfig(epsilon=eps)
    mu0, mu, keep_mu = _with_zero_weight_atoms(rng, unit_square, 10, [2, 7])
    nu0, nu, keep_nu = _with_zero_weight_atoms(rng, unit_square, 9, [0, 8])
    # the alternating cross problem and the averaged self problem
    cases = [((mu0, nu0), (mu, nu), keep_mu, keep_nu), ((mu0, mu0), (mu, mu), keep_mu, keep_mu)]
    for with_zeros, dropped, ka, kb in cases:
        full = solve(cost, *with_zeros, cfg)
        small = solve(cost, *dropped, cfg)
        assert full.converged and small.converged
        assert full.value == pytest.approx(small.value, abs=1e-10)
        assert np.max(np.abs(full.potentials.phi[ka] - small.potentials.phi)) <= 1e-9
        assert np.max(np.abs(full.potentials.psi[kb] - small.potentials.psi)) <= 1e-9
        # the atoms without mass carry none of the plan
        assert np.all(full.plan.matrix[~ka] == 0.0)
        assert np.all(full.plan.matrix[:, ~kb] == 0.0)
        # potentials agree to the stopping tolerance, the plan to that over eps
        assert np.max(np.abs(full.plan.matrix[np.ix_(ka, kb)] - small.plan.matrix)) <= 1e-8


def test_softmin_infinite_epsilon_is_large_epsilon_limit(unit_square):
    # eps = inf returns the m-average of c(x, .) - phi, the limit of the half-step
    rng = np.random.default_rng(12)
    cost = AbsDistance(unit_square)
    m = random_measure(rng, 9, unit_square)
    phi = rng.random(9) - 0.5
    x = rng.random((6, 2))
    limit = softmin(cost, m, phi, math.inf, x)
    assert np.max(np.abs(limit - softmin(cost, m, phi, 1e8, x))) <= 1e-6
    assert np.allclose(limit, cost.matrix(x, m.points) @ m.weights - phi @ m.weights,
                       rtol=0.0, atol=1e-15)

@pytest.mark.parametrize("eps", [0.1, math.inf])
def test_softmin_row_blocks_bitwise_equal_one_block(monkeypatch, unit_square, eps):
    # 64 cells per block: 203 query rows against 37 atoms run in 26 blocks of
    # 8 rows, the last of 3; small enough that the one-block gemv at eps = inf
    # runs on one BLAS thread
    rng = np.random.default_rng(44)
    m = random_measure(rng, 37, unit_square)
    phi = rng.normal(size=37)
    xs = rng.random((203, 2))
    for cost in [AbsDistance(unit_square), NegatedKernel(Gaussian(unit_square, c=0.7))]:
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", 64)
        blocked = softmin(cost, m, phi, eps, xs)
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", 1 << 40)
        whole = softmin(cost, m, phi, eps, xs)
        assert blocked.tobytes() == whole.tobytes()


_BAD_POTENTIALS = [
    (np.zeros(1), DimensionMismatchError),
    (np.zeros(6), DimensionMismatchError),
    (np.zeros((5, 1)), DimensionMismatchError),
    (np.full(5, np.nan), NonFiniteValueError),
    (np.array([0.1, np.inf, 0.0, 0.2, 0.3]), NonFiniteValueError),
]


@pytest.mark.parametrize("eps", [0.1, math.inf])
@pytest.mark.parametrize("potential, error", _BAD_POTENTIALS)
def test_softmin_and_extension_reject_bad_potential(unit_box, eps, potential, error):
    # a potential runs over the atoms of the measure it is reduced against
    rng = np.random.default_rng(45)
    cost = AbsDistance(unit_box)
    mu = random_measure(rng, 5, unit_box)
    nu = random_measure(rng, 5, unit_box)
    xs = rng.random((4, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="phi"):
            softmin(cost, mu, potential, eps, xs)
        for pair in [PotentialPair(phi=potential, psi=np.zeros(5), epsilon=eps),
                     PotentialPair(phi=np.zeros(5), psi=potential, epsilon=eps)]:
            with pytest.raises(error):
                extend_potentials(cost, mu, nu, pair, xs)


@pytest.mark.parametrize("eps", [0.1, math.inf])
def test_extend_potentials_to_grid_holds_no_grid_by_atoms_matrix(unit_square, eps):
    # a 64^2 grid against 600 atoms: one cost matrix would be 18.75 MiB
    rng = np.random.default_rng(46)
    mu = random_measure(rng, 600, unit_square)
    nu = random_measure(rng, 600, unit_square)
    pair = PotentialPair(phi=rng.normal(size=600), psi=rng.normal(size=600), epsilon=eps)
    grid = unit_square.grid(64)
    tracemalloc.start()
    try:
        extend_potentials(AbsDistance(unit_square), mu, nu, pair, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# solve: toy values
# ---------------------------------------------------------------------------

def test_self_dirac_trivial(unit_box):
    cost = AbsDistance(unit_box)
    m = dirac([0.3])
    sol = solve(cost, m, m, SinkhornConfig(epsilon=0.5))
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert sol.plan.matrix.shape == (1, 1)
    assert sol.plan.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert sol.converged

def test_four_atom_small_epsilon(example_pair, unit_box):
    mu, nu = example_pair
    sol = solve(AbsDistance(unit_box), mu, nu, SinkhornConfig(epsilon=1e-4))
    assert sol.converged
    assert sol.value == pytest.approx(0.1, abs=5e-3)

def test_four_atom_large_epsilon(example_pair, unit_box):
    mu, nu = example_pair
    sol = solve(AbsDistance(unit_box), mu, nu, SinkhornConfig(epsilon=1e3))
    # independent double sum: (0.1 + 0.9 + 0.9 + 0.1) / 4 = 0.5
    assert sol.value == pytest.approx(0.5, abs=1e-3)

def test_not_converged_flagged(example_pair, unit_box):
    mu, nu = example_pair
    rng = np.random.default_rng(0)
    a = random_measure(rng, 20, unit_box)
    b = random_measure(rng, 20, unit_box)
    sol = solve(AbsDistance(unit_box), a, b, SinkhornConfig(epsilon=1e-4, max_iter=50))
    assert not sol.converged
    assert sol.iterations == 50
    assert sol.final_residual > 1e-10
    assert np.isfinite(sol.value)


# ---------------------------------------------------------------------------
# solver soundness on a battery of converged runs
# ---------------------------------------------------------------------------

def _battery(unit_box):
    rng = np.random.default_rng(1)
    cost = AbsDistance(unit_box)
    mu = random_measure(rng, 12, unit_box)
    nu = random_measure(rng, 9, unit_box)
    runs = []
    for eps in [1e-2, 0.1, 1.0, 10.0, 1e3]:
        runs.append(solve(cost, mu, nu, SinkhornConfig(epsilon=eps)))
        runs.append(solve(cost, mu, mu, SinkhornConfig(epsilon=eps)))
    return runs

def test_marginals_within_tolerance(unit_box):
    for sol in _battery(unit_box):
        assert sol.converged
        assert sol.plan.marginal_error() <= 1e-8

def test_duality_gap_at_convergence(unit_box):
    for sol in _battery(unit_box):
        assert sol.duality_gap <= 1e-6

def test_self_duality_gap_second_order(unit_box):
    # the odd entries are the self solves; each ends on the semi-dual of phi,
    # stationary at the fixed point, so its gap is second order in the defect
    # the tolerance leaves
    for sol in _battery(unit_box)[1::2]:
        assert sol.duality_gap <= 1e-12

def _normalized(cost, mu, nu, phi, psi):
    # the shift solve applies: <phi, mu> becomes half the independent-coupling
    # cost; returns the shifted pair and its value
    delta = 0.5 * ot_infinity(cost, mu, nu).value - float(phi @ mu.weights)
    phi, psi = phi + delta, psi - delta
    return phi, psi, float(phi @ mu.weights + psi @ nu.weights)


def _plain_alternation(cost, mu, nu, eps, tol):
    # plain alternation written out with softmin, from psi = 0 until the
    # update of psi is within tol; returns the turns and the normalized pair
    # and value
    psi, turns = np.zeros(len(nu)), 0
    while True:
        turns += 1
        phi = softmin(cost, nu, psi, eps, mu.points)
        psi_new = softmin(cost, mu, phi, eps, nu.points)
        res = 0.5 * float(np.max(psi_new - psi) - np.min(psi_new - psi))
        psi = psi_new
        if res <= tol:
            return (turns, *_normalized(cost, mu, nu, phi, psi))


@pytest.mark.parametrize("eps", [1e-3, 0.1])
def test_self_solve_is_averaged_recursion_ending_on_half_step(unit_box, eps):
    # the averaged update written out with softmin, from psi = 0: the solve's
    # first _PLAIN_ITERATIONS turns are this recursion, so a solve that ends
    # within them (eps = 1e-3, 3 turns) returns its iterate, and one that
    # extrapolates (eps = 0.1, 15 turns) ends near its fixed point
    rng = np.random.default_rng(8)
    cost = AbsDistance(unit_box)
    mu = random_measure(rng, 12, unit_box)
    sol = solve(cost, mu, mu, SinkhornConfig(epsilon=eps))
    assert sol.converged
    plain = sol.iterations <= sinkhorn._PLAIN_ITERATIONS
    assert plain == (eps == 1e-3)
    psi, residuals = np.zeros(len(mu)), []
    # as many turns as the solve, and on to tol 1e-12 if it extrapolated
    while len(residuals) < sol.iterations or not plain and residuals[-1] > 1e-12:
        phi = softmin(cost, mu, psi, eps, mu.points)
        psi_new = 0.5 * (psi + phi)
        residuals.append(0.5 * float(np.max(psi_new - psi) - np.min(psi_new - psi)))
        psi = psi_new
    phi, psi, _ = _normalized(cost, mu, mu, phi, softmin(cost, mu, phi, eps, mu.points))
    first = min(sol.iterations, sinkhorn._PLAIN_ITERATIONS)
    assert np.max(np.abs(sol.residual_history[:first] - residuals[:first])) <= 1e-12
    # the extrapolating solve is 1.7e-11 from the recursion run to tol 1e-12
    close = 1e-12 if plain else 1e-9
    assert np.max(np.abs(sol.potentials.phi - phi)) <= close
    assert np.max(np.abs(sol.potentials.psi - psi)) <= close
    # psi is the half-step of phi, which the shift commutes with
    half_step = softmin(cost, mu, sol.potentials.phi, eps, mu.points)
    assert np.max(np.abs(sol.potentials.psi - half_step)) <= 1e-12

def test_cross_solve_matches_plain_alternation(unit_square):
    # the reference runs to tol 1e-12: at eps = 0.01 plain alternation stopped
    # at 1e-10 is still 1.6e-8 from the fixed point, while the accelerated
    # solve lands 4.8e-10 from it
    rng = np.random.default_rng(11)
    cost = AbsDistance(unit_square)
    mu = random_measure(rng, 25, unit_square)
    nu = random_measure(rng, 35, unit_square)
    for eps in [1e-2, 0.1, 1.0, 10.0, 1e3]:
        sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps))
        assert sol.converged
        _, phi, psi, value = _plain_alternation(cost, mu, nu, eps, 1e-12)
        assert sol.value == pytest.approx(value, abs=1e-12)
        assert np.max(np.abs(sol.potentials.phi - phi)) <= 1e-8
        assert np.max(np.abs(sol.potentials.psi - psi)) <= 1e-8
        # the solve returns the plain image: psi is the half-step of phi
        half_step = softmin(cost, mu, sol.potentials.phi, eps, nu.points)
        assert np.max(np.abs(sol.potentials.psi - half_step)) <= 1e-12

@pytest.mark.parametrize("n, m, eps, share", [(300, 300, 0.1, 0.6), (60, 50, 0.3, 0.9)],
                         ids=["300x300-eps0.1", "60x50-eps0.3"])
def test_overrelaxation_cuts_iterations(unit_square, n, m, eps, share):
    # against plain alternation to the same tol: 21 of 67 turns on the
    # 300 x 300 pair, and 11 of 17 on the 60 x 50 pair, whose plain rate at
    # eps = 0.3 is fast (about 0.29)
    rng = np.random.default_rng(31)
    cost = AbsDistance(unit_square)
    mu = random_measure(rng, n, unit_square)
    nu = random_measure(rng, m, unit_square)
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps))
    turns, _, _, value = _plain_alternation(cost, mu, nu, eps, 1e-10)
    assert sol.converged
    assert sol.iterations <= share * turns
    assert sol.value == pytest.approx(value, abs=1e-12)

def test_anderson_solve_turn_count_on_seed_7_pair(unit_square):
    # pinned so that any change to the loop shows: the over-relaxed
    # alternation it replaced took 29 turns on this pair
    rng = np.random.default_rng(7)
    mu = random_measure(rng, 100, unit_square)
    nu = random_measure(rng, 100, unit_square)
    sol = solve(AbsDistance(unit_square), mu, nu, SinkhornConfig(epsilon=0.1))
    assert sol.converged
    assert sol.iterations == 20

def _relaxed_pair(seed):
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 2
    n, m = rng.integers(5, 60), rng.integers(5, 60)
    box = BoundingBox(np.zeros(dim), np.ones(dim))
    cost = AbsDistance(box) if seed % 3 else PowerDistance(box, p=2.0)
    mu = DiscreteMeasure.normalized(rng.random((n, dim)), rng.random(n) + 1e-3)
    nu = DiscreteMeasure.normalized(rng.random((m, dim)), rng.random(m) + 1e-3)
    return cost, mu, nu


def _relaxed_battery():
    # seeded pairs whose cross solves extrapolate at eps = 0.03 and 0.1, and
    # reject one extrapolated turn at eps = 0.03
    for seed in (9, 14):
        cost, mu, nu = _relaxed_pair(seed)
        for eps in [0.03, 0.1]:
            yield cost, mu, nu, solve(cost, mu, nu, SinkhornConfig(epsilon=eps))


def test_relaxed_history_records_every_kept_turn():
    rejected = 0
    for _, _, _, sol in _relaxed_battery():
        hist = sol.residual_history
        assert sol.converged and sol.final_residual == hist[-1]
        # every kept turn contracts by kappa, the plain turns after a rejection too
        assert np.all(hist[1:] <= sol.kappa * hist[:-1] + 1e-6 * hist[:-1])
        rejected += sol.iterations - hist.size
    assert rejected > 0


def test_relaxed_stop_bounds_the_returned_pairs_defect():
    # as for plain alternation, the final residual bounds the row defect of
    # the returned pair (psi is the half-step of phi), and a further plain
    # turn from it moves psi by no more than kappa times it
    for cost, mu, nu, sol in _relaxed_battery():
        eps, phi, psi = sol.potentials.epsilon, sol.potentials.phi, sol.potentials.psi
        row = softmin(cost, nu, psi, eps, mu.points)
        assert 0.5 * float(np.max(row - phi) - np.min(row - phi)) <= sol.final_residual + 1e-15
        step = softmin(cost, mu, row, eps, nu.points) - psi
        assert 0.5 * float(np.max(step) - np.min(step)) <= sol.kappa * sol.final_residual + 1e-15


def test_cross_stop_certifies_value_on_split_plan(unit_box):
    # the plan of mu = {0, 1} against nu = {0, 0.5} splits into {0} x {0} and
    # {1} x {0.5}, joined only by couplings of order exp(-1 / eps). (mu, nu)
    # lands on the fixed point in 1 turn. (nu, mu) starts with nu's atom 0.5
    # split evenly between 0 and 1 and extrapolates; stopped on its residual
    # alone, its value was half that residual (4.1e-11) below
    cost, eps = AbsDistance(unit_box), 2.0 ** -9
    mu = DiscreteMeasure.normalized(np.array([[0.0], [1.0]]))
    nu = DiscreteMeasure.normalized(np.array([[0.0], [0.5]]))
    cfg = SinkhornConfig(epsilon=eps)
    exact = solve(cost, mu, nu, cfg)
    assert exact.converged and exact.iterations == 1
    sol = solve(cost, nu, mu, cfg)
    assert sol.converged and sol.iterations > sinkhorn._PLAIN_ITERATIONS
    # the dual value is below OT_eps, and certified within tol of it
    assert -1e-15 <= exact.value - sol.value <= cfg.tol
    assert sol.value == pytest.approx(exact.value, abs=1e-12)


def test_max_iter_counts_rejected_turns():
    # the safeguard rejects extrapolated turns of this solve within its first
    # 60 turns (4 of them): they count as iterations, but residual_history
    # records the kept turns only
    cost, mu, nu, _ = _span_problem(499.0)
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=1.0 / 499.0, max_iter=60))
    assert not sol.converged
    assert sol.iterations == 60
    assert sol.residual_history.size < 60
    assert sol.final_residual == sol.residual_history[-1]

def test_warm_start_from_converged_psi_takes_one_plain_turn(unit_square):
    rng = np.random.default_rng(32)
    cost = AbsDistance(unit_square)
    mu = random_measure(rng, 60, unit_square)
    nu = random_measure(rng, 50, unit_square)
    cfg = SinkhornConfig(epsilon=0.1)
    cold = solve(cost, mu, nu, cfg)
    assert cold.iterations > sinkhorn._PLAIN_ITERATIONS
    warm = solve(cost, mu, nu, cfg, psi0=cold.potentials.psi)
    assert warm.converged and warm.iterations == 1
    assert warm.value == pytest.approx(cold.value, abs=1e-12)

def test_diagnostics_keys(unit_square):
    rng = np.random.default_rng(33)
    cost = AbsDistance(unit_square)
    mu = random_measure(rng, 60, unit_square)
    nu = random_measure(rng, 50, unit_square)
    # a self problem, the limit, and a cross solve that ends within the plain turns
    for a, b, eps in [(mu, mu, 0.1), (mu, nu, math.inf), (mu, nu, 10.0)]:
        sol = solve(cost, a, b, SinkhornConfig(epsilon=eps))
        assert sorted(sol.diagnostics()) == [
            "duality_gap", "epsilon", "final_residual", "iterations", "kappa", "value"]

def test_observed_contraction_bounded(unit_box):
    for sol in _battery(unit_box):
        hist = sol.residual_history
        if hist.size < 3:
            continue
        ratios = hist[2:] / hist[1:-1]
        # the averaged self-problem update contracts like (1 + kappa) / 2
        bound = sol.kappa if not np.array_equal(sol.plan.mu.points, sol.plan.nu.points) \
            else 0.5 * (1.0 + sol.kappa)
        assert np.all(ratios <= bound + 1e-6)

def test_safeguard_keeps_each_rate_whatever_the_extrapolation(monkeypatch, unit_box):
    # a stand-in extrapolation that overshoots the plain step, psi + 4 times
    # the last kept residual: each trial whose residual breaks the rate (kappa for a
    # cross, (1 + kappa) / 2 for a self problem) is rejected, and every solve
    # still converges. No extrapolation of a self solve in the other tests is
    # rejected, so this is the test that pins the self rate
    monkeypatch.setattr(sinkhorn, "_extrapolate",
                        lambda images, deltas: images[-1] + 3.0 * deltas[-1])
    rejected = 0
    # the odd entries are the self solves
    for index, sol in enumerate(_battery(unit_box)):
        rate = sol.kappa if index % 2 == 0 else 0.5 * (1.0 + sol.kappa)
        hist = sol.residual_history
        assert sol.converged
        assert np.all(hist[1:] <= (rate + 1e-6) * hist[:-1])
        rejected += sol.iterations - hist.size
    assert rejected > 0

def test_normalization_constraint(unit_box):
    cost = AbsDistance(unit_box)
    rng = np.random.default_rng(2)
    mu = random_measure(rng, 10, unit_box)
    nu = random_measure(rng, 11, unit_box)
    for eps in [1e-2, 1.0, 100.0]:
        sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps))
        limits = ot_infinity(cost, mu, nu)
        assert float(sol.potentials.phi @ mu.weights) == pytest.approx(
            0.5 * limits.value, abs=1e-10
        )

def test_shift_equivariance(unit_box):
    # seeding the iteration at a constant shifts the iterates by opposite
    # constants, which the normalization removes; dithering's warm starts
    # from normalized potentials rely on this
    cost = AbsDistance(unit_box)
    rng = np.random.default_rng(4)
    mu = random_measure(rng, 7, unit_box)
    nu = random_measure(rng, 9, unit_box)
    cfg = SinkhornConfig(epsilon=0.2)
    base = solve(cost, mu, nu, cfg)
    shifted = solve(cost, mu, nu, cfg, psi0=np.full(len(nu), 0.37))
    assert shifted.value == pytest.approx(base.value, abs=1e-10)
    assert np.allclose(shifted.plan.matrix, base.plan.matrix, atol=1e-10)
    assert np.max(np.abs(shifted.potentials.phi - base.potentials.phi)) <= 1e-10
    assert np.max(np.abs(shifted.potentials.psi - base.potentials.psi)) <= 1e-10


_BAD_STARTS = [
    (np.full(4, np.nan), NonFiniteValueError),
    (np.array([0.1, np.inf, 0.0, 0.2]), NonFiniteValueError),
    (np.zeros(1), DimensionMismatchError),
    (np.zeros(3), DimensionMismatchError),
    (np.zeros(5), DimensionMismatchError),
    (np.zeros((4, 1)), DimensionMismatchError),
    (np.float64(0.5), DimensionMismatchError),
]


def test_solve_on_fortran_ordered_cost_matrix_bitwise_equal(unit_square):
    # _fixed_point builds K C-ordered whatever the layout of C, so the
    # products run the same BLAS kernels on either layout
    rng = np.random.default_rng(52)
    cost = AbsDistance(unit_square)
    mu = random_measure(rng, 301, unit_square)
    nu = random_measure(rng, 203, unit_square)
    cfg = SinkhornConfig(epsilon=0.1)
    c_matrix = cost.matrix(mu.points, nu.points)
    start = np.zeros(len(nu))
    c_order = _fixed_point(c_matrix, mu, nu, cfg, start)
    f_order = _fixed_point(np.asfortranarray(c_matrix), mu, nu, cfg, start)
    # phi, psi, iterations, residuals, converged, kappa
    assert f_order[0].tobytes() == c_order[0].tobytes()
    assert f_order[1].tobytes() == c_order[1].tobytes()
    assert f_order[2:] == c_order[2:]


@pytest.mark.parametrize("eps", [0.1, math.inf])
@pytest.mark.parametrize("psi0, error", _BAD_STARTS)
def test_solve_rejects_bad_psi0(unit_box, eps, psi0, error):
    # a 5 x 4 cross problem and a 4 x 4 self problem: psi0 runs over nu
    rng = np.random.default_rng(9)
    cost = AbsDistance(unit_box)
    mu = random_measure(rng, 5, unit_box)
    nu = random_measure(rng, 4, unit_box)
    for a, b in [(mu, nu), (nu, nu)]:
        with pytest.raises(error, match="psi0"):
            solve(cost, a, b, SinkhornConfig(epsilon=eps), psi0=psi0)


# ---------------------------------------------------------------------------
# monotonicity in the regularization strength
# ---------------------------------------------------------------------------

def test_value_monotone_in_epsilon(unit_box):
    cost = AbsDistance(unit_box)
    rng = np.random.default_rng(5)
    mu = random_measure(rng, 10, unit_box)
    nu = random_measure(rng, 10, unit_box)
    values = [
        solve(cost, mu, nu, SinkhornConfig(epsilon=float(e))).value
        for e in np.logspace(-2, 3, 8)
    ]
    assert np.all(np.diff(values) >= -1e-8)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def test_ot_infinity_four_atoms(example_pair, unit_box):
    mu, nu = example_pair
    limits = ot_infinity(AbsDistance(unit_box), mu, nu)
    assert limits.value == pytest.approx(0.5, abs=1e-15)
    assert limits.potentials.phi[0] == pytest.approx(0.25, abs=1e-15)

def test_ot_infinity_self_dirac(unit_box):
    m = dirac([0.3])
    limits = ot_infinity(AbsDistance(unit_box), m, m)
    assert limits.value == 0.0
    assert np.array_equal(limits.potentials.phi, np.zeros(1))
    assert np.array_equal(limits.potentials.psi, np.zeros(1))

def test_ot_infinity_normalization_identity(unit_box):
    rng = np.random.default_rng(6)
    mu = random_measure(rng, 6, unit_box)
    nu = random_measure(rng, 8, unit_box)
    limits = ot_infinity(AbsDistance(unit_box), mu, nu)
    assert float(limits.potentials.phi @ mu.weights) == pytest.approx(
        0.5 * limits.value, abs=1e-14
    )

def _limit_costs(box):
    return [AbsDistance(box), PowerDistance(box, p=2.0), NegatedKernel(Gaussian(box, c=0.4))]

@pytest.mark.parametrize("cost_index", range(3))
def test_ot_infinity_is_the_marginal_average_formula(unit_square, cost_index):
    # the closed-form step of solve reproduces C w_nu - ot/2, C^T w_mu - ot/2
    # and ot = <mu, C w_nu>, with zero-weight atoms, cross and self
    rng = np.random.default_rng(40 + cost_index)
    cost = _limit_costs(unit_square)[cost_index]
    for _ in range(5):
        mu, _, _ = _with_zero_weight_atoms(rng, unit_square, 9, [0, 5])
        nu = random_measure(rng, 12, unit_square)
        for a, b in [(mu, nu), (mu, mu), (nu, nu)]:
            c_matrix = cost.matrix(a.points, b.points)
            ot = float(a.weights @ (c_matrix @ b.weights))
            limits = ot_infinity(cost, a, b)
            assert limits.value == pytest.approx(ot, abs=1e-14)
            assert np.max(np.abs(limits.potentials.phi - (c_matrix @ b.weights - 0.5 * ot))) <= 1e-14
            assert np.max(np.abs(limits.potentials.psi - (c_matrix.T @ a.weights - 0.5 * ot))) <= 1e-14

def test_solve_at_infinity_keeps_its_cost_matrix_and_zero_kappa(unit_square):
    # kappa is 0 even where L / eps is inf / inf (PowerDistance with p < 1);
    # the solution keeps the matrix it solved on, as at every epsilon
    rng = np.random.default_rng(44)
    mu = random_measure(rng, 6, unit_square)
    nu = random_measure(rng, 7, unit_square)
    for cost in [*_limit_costs(unit_square), PowerDistance(unit_square, p=0.5)]:
        for a, b in [(mu, nu), (mu, mu)]:
            sol = solve(cost, a, b, SinkhornConfig(epsilon=math.inf))
            assert sol.kappa == 0.0
            assert np.array_equal(sol.cost_matrix, cost.matrix(a.points, b.points))
            assert np.array_equal(sol.plan.matrix, np.outer(a.weights, b.weights))

def test_divergence_at_infinity_peak_memory_within_two_cost_sized_arrays(unit_square):
    # every solution keeps its cost matrix, but the divergence reads each
    # term's value and drops its solution before the next solve, so the
    # three solves never hold more than one cost matrix and its build
    # temporaries
    rng = np.random.default_rng(45)
    n = 600
    mu = random_measure(rng, n, unit_square)
    nu = random_measure(rng, n, unit_square)
    cost = AbsDistance(unit_square)
    array_bytes = n * n * 8
    tracemalloc.start()
    try:
        sinkhorn_divergence(cost, mu, nu, SinkhornConfig(epsilon=math.inf))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * array_bytes + array_bytes // 8

def test_extended_limit_potentials_match_on_supports(unit_square):
    # the eps = inf pair extends through the limit half-step and reproduces
    # the limit potentials on both supports
    rng = np.random.default_rng(13)
    cost = NegatedKernel(Gaussian(unit_square, c=0.4))
    mu = random_measure(rng, 7, unit_square)
    nu = random_measure(rng, 11, unit_square)
    limits = ot_infinity(cost, mu, nu)
    assert limits.potentials.epsilon == math.inf
    phi_ext, _ = extend_potentials(cost, mu, nu, limits.potentials, mu.points)
    _, psi_ext = extend_potentials(cost, mu, nu, limits.potentials, nu.points)
    assert np.max(np.abs(phi_ext - limits.potentials.phi)) <= 1e-12
    assert np.max(np.abs(psi_ext - limits.potentials.psi)) <= 1e-12

def test_potentials_converge_to_limits(unit_box):
    # asymmetric toy; a mirror-symmetric instance has zero distance at all eps
    cost = AbsDistance(unit_box)
    mu = DiscreteMeasure(np.array([[0.1], [0.5]]), np.array([0.3, 0.7]))
    nu = DiscreteMeasure(np.array([[0.3], [0.95]]), np.array([0.5, 0.5]))
    limits = ot_infinity(cost, mu, nu)
    dists = []
    for eps in [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0]:
        sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps))
        dists.append(float(np.max(np.abs(sol.potentials.phi - limits.potentials.phi))))
    assert all(b <= a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-3

def test_value_converges_to_exact_from_above(unit_box):
    cost = AbsDistance(unit_box)
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(np.array([[0.1], [0.9]]), np.array([0.5, 0.5]))
    exact = exact_ot(cost, mu, nu).value
    values = []
    for eps in [1e-1, 1e-2, 1e-3, 1e-4]:
        sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps))
        assert sol.converged
        values.append(sol.value)
    gaps = np.array(values) - exact
    assert np.all(np.diff(gaps) <= 1e-12)
    assert gaps[-1] >= -1e-9
    assert gaps[-1] <= 1e-3

def test_small_epsilon_soft_dual_feasibility(example_pair, unit_box):
    mu, nu = example_pair
    cost = AbsDistance(unit_box)
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=1e-4))
    c_matrix = cost.matrix(mu.points, nu.points)
    violation = np.max(
        sol.potentials.phi[:, None] + sol.potentials.psi[None, :] - c_matrix
    )
    assert violation <= 1e-2


# ---------------------------------------------------------------------------
# contraction bound and half-step regularity
# ---------------------------------------------------------------------------

def _dirac_against_ends(unit_box, epsilon):
    # delta_0 against {0, 1} under |x - y|: C = [[0, 1]], so span(C) = 1
    cost = AbsDistance(unit_box)
    return solve(cost, dirac([0.0]), uniform([[0.0], [1.0]]), SinkhornConfig(epsilon=epsilon))

def test_kappa_hand_value(unit_box):
    kappa = _dirac_against_ends(unit_box, 1.0).kappa
    assert kappa == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)
    assert kappa == pytest.approx(0.8646647167633873, abs=1e-12)

def test_kappa_limits(unit_box):
    assert _dirac_against_ends(unit_box, 1e12).kappa == pytest.approx(0.0, abs=1e-9)
    assert _dirac_against_ends(unit_box, 1e-3).kappa == 1.0

def test_kappa_bounds_near_coincident_pair_whose_lipschitz_grid_reads_zero(unit_square):
    # the profile drops from 1 to 0 near r = 1e-8, below its Lipschitz grid,
    # so cost.lipschitz reads 0 and 1 - exp(-2 L diam / eps) would be 0, a
    # rate that rejects every extrapolation; from span(C) = 1 kappa is about
    # 1, the solve converges, and every kept residual ratio is within kappa
    rng = np.random.default_rng(2)
    mu = random_measure(rng, 30, unit_square)
    nu = DiscreteMeasure.normalized(mu.points[:25] + 1e-9, rng.random(25) + 1e-3)
    cost = NegatedKernel(InverseMultiquadric(unit_square, c=1.0, p=1e300))
    assert solve(cost, mu, nu, SinkhornConfig(epsilon=0.05)).converged
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=0.2))
    hist = sol.residual_history
    assert sol.converged and 0.0 < sol.kappa < 1.0
    assert np.all(hist[1:] <= (sol.kappa + 1e-6) * hist[:-1])

def test_half_step_inherits_cost_lipschitz(unit_box):
    rng = np.random.default_rng(7)
    m = random_measure(rng, 12, unit_box)
    for cost in [AbsDistance(unit_box), NegatedKernel(Gaussian(unit_box, c=0.4))]:
        phi = rng.normal(size=12)
        pairs = rng.random((1000, 2, 1))
        ratio = potential_lipschitz_check(cost, m, phi, 0.25, pairs)
        assert ratio <= cost.lipschitz + 1e-9

def test_lipschitz_check_rejects_malformed_probe_pairs(unit_box):
    cost, m = AbsDistance(unit_box), dirac([0.4])
    with pytest.raises(DimensionMismatchError, match="probe_pairs"):
        potential_lipschitz_check(cost, m, np.zeros(1), 0.5, [0.1, 0.2])
    with pytest.raises(DimensionMismatchError, match="probe_pairs"):
        potential_lipschitz_check(cost, m, np.zeros(1), 0.5, np.zeros((3, 3, 1)))
    # coincident pairs give no difference quotient
    with pytest.raises(ValueError, match="probe_pairs"):
        potential_lipschitz_check(cost, m, np.zeros(1), 0.5, [[[0.1], [0.1]]])

def test_half_step_range_bound(unit_box):
    cost = AbsDistance(unit_box)
    rng = np.random.default_rng(8)
    m = random_measure(rng, 6, unit_box)
    phi = rng.normal(size=6)
    xs = rng.random((40, 1))
    out = softmin(cost, m, phi, 0.5, xs)
    c_block = cost.matrix(xs, m.points)
    lo = np.min(c_block - phi[None, :], axis=1)
    hi = np.max(c_block - phi[None, :], axis=1)
    assert np.all(out >= lo - 1e-12)
    assert np.all(out <= hi + 1e-12)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_softmin_rejects_non_positive_and_nan(unit_box, epsilon):
    cost = AbsDistance(unit_box)
    with pytest.raises(ValueError, match="epsilon"):
        softmin(cost, dirac([0.4]), np.array([0.3]), epsilon, np.array([[0.9]]))


@pytest.mark.parametrize("field, value", [
    *[(field, value) for field in ["epsilon", "tol"] for value in [0.0, -1.0, math.nan, True]],
    # an infinite tolerance would stop every solve after one turn, flagged converged
    ("tol", math.inf),
    # range() takes no float or bool; --set max_iter=50.0 reaches here as 50
    ("max_iter", 2.5), ("max_iter", 50.0), ("max_iter", True), ("max_iter", np.float64(3.0)),
])
def test_config_rejects_non_positive_and_nan(field, value):
    with pytest.raises(ValueError, match=field):
        SinkhornConfig(**{"epsilon": 1.0, field: value})


# ---------------------------------------------------------------------------
# thread pool
# ---------------------------------------------------------------------------

def _on_pool(monkeypatch, width):
    # every matrix reaches the pool, whatever its size
    monkeypatch.setattr(kernels, "_PARALLEL_CELLS", 1)
    monkeypatch.setattr(kernels, "_WIDTH", width)


@pytest.mark.parametrize("eps", [0.1, math.inf])
def test_pooled_softmin_bitwise_equal_at_every_width(monkeypatch, unit_square, eps):
    # 64 cells per block: 203 query rows against 37 atoms are 26 blocks
    rng = np.random.default_rng(45)
    m = random_measure(rng, 37, unit_square)
    phi = rng.normal(size=37)
    xs = rng.random((203, 2))
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", 64)
    for cost in [AbsDistance(unit_square), NegatedKernel(Gaussian(unit_square, c=0.7))]:
        results = []
        for width in (1, 2, 3):
            _on_pool(monkeypatch, width)
            results.append(softmin(cost, m, phi, eps, xs).tobytes())
        assert results[1] == results[0] and results[2] == results[0]


# eps = 0.1 runs the Gibbs products, 1e-3 the log-domain reductions (K spans
# about 1400), inf the closed-form step
@pytest.mark.parametrize("eps, max_iter", [(0.1, 10_000), (1e-3, 40), (math.inf, 1)])
def test_pooled_solve_bitwise_equal_at_every_width(monkeypatch, unit_square, eps, max_iter):
    rng = np.random.default_rng(46)
    mu = random_measure(rng, 203, unit_square)
    nu = random_measure(rng, 157, unit_square)
    cost = AbsDistance(unit_square)
    cfg = SinkhornConfig(epsilon=eps, max_iter=max_iter)
    for a, b in [(mu, nu), (mu, mu)]:
        results = []
        for width in (1, 2, 3):
            _on_pool(monkeypatch, width)
            sol = solve(cost, a, b, cfg)
            results.append((sol.potentials.phi.tobytes(), sol.potentials.psi.tobytes(),
                            sol.value, sol.iterations, sol.residual_history.tobytes()))
        assert results[1] == results[0] and results[2] == results[0]


def test_matrices_below_parallel_cells_start_no_thread(monkeypatch, unit_square):
    # dither's sizes: the 900 x 900 target self term, 900 x 50 and 50 x 50
    # solves, and a 64^2 grid against 50 atoms
    monkeypatch.setattr(kernels, "_WIDTH", 2)
    monkeypatch.setattr(kernels, "_pool", None)
    rng = np.random.default_rng(47)
    target = random_measure(rng, 900, unit_square)
    atoms = random_measure(rng, 50, unit_square)
    cost = AbsDistance(unit_square)
    cfg = SinkhornConfig(epsilon=0.15)
    assert 900 * 900 < kernels._PARALLEL_CELLS
    before = threading.active_count()
    for a, b in [(target, target), (target, atoms), (atoms, atoms)]:
        solve(cost, a, b, cfg)
    softmin(cost, atoms, np.zeros(50), 0.15, unit_square.grid(64))
    assert threading.active_count() == before
    assert kernels._pool is None


def test_forked_child_runs_pooled_softmin(monkeypatch, unit_square):
    # the child inherits the parent's executor object but none of its
    # threads; it must start its own pool instead of waiting on those
    _on_pool(monkeypatch, 2)
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", 64)
    rng = np.random.default_rng(48)
    m = random_measure(rng, 37, unit_square)
    phi = rng.normal(size=37)
    xs = rng.random((203, 2))
    cost = AbsDistance(unit_square)
    expected = softmin(cost, m, phi, 0.1, xs).tobytes()
    assert kernels._pool is not None
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def child():
        sender.send_bytes(softmin(cost, m, phi, 0.1, xs).tobytes())

    process = context.Process(target=child)
    process.start()
    try:
        assert receiver.poll(60), "the forked child did not answer within 60 s"
        assert receiver.recv_bytes() == expected
        process.join(timeout=60)
        assert not process.is_alive()
        assert process.exitcode == 0
    finally:
        if process.is_alive():
            process.kill()
            process.join()
