"""Solver: softmin, Gibbs and log-domain half-steps, fixed point, limits, contraction, diagnostics."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sinkdiv import (
    AbsDistance,
    BoundingBox,
    DiscreteMeasure,
    Gaussian,
    NegatedKernel,
    PotentialPair,
    PowerDistance,
    SinkhornConfig,
    contraction_estimate,
    dirac,
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


def _both_half_steps(monkeypatch, c_matrix, eps, log_w_mu, log_w_nu):
    # each form owns the K it is given: the Gibbs one overwrites it with G,
    # whose largest entry is exp(0) = 1
    k_matrix = c_matrix / -eps
    assert float(np.max(k_matrix)) - float(np.min(k_matrix)) <= sinkhorn._GIBBS_MAX_SPAN
    k_gibbs = k_matrix.copy()
    gibbs = _half_steps(k_gibbs, eps, log_w_mu, log_w_nu)
    assert np.max(k_gibbs) == 1.0
    # no span passes the test, so the same K gets the log-domain form
    monkeypatch.setattr(sinkhorn, "_GIBBS_MAX_SPAN", -math.inf)
    log_domain = _half_steps(k_matrix, eps, log_w_mu, log_w_nu)
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
        # the plan and gap are one cached extraction, absent until read
        assert not any("_extraction" in vars(sol) for sol in solutions)
        solutions[0].plan
        assert "_extraction" in vars(solutions[0])

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

@pytest.mark.parametrize("eps", [1e-3, 0.1])
def test_self_solve_is_averaged_recursion_ending_on_half_step(unit_box, eps):
    # the averaged update written out with softmin, from psi = 0
    rng = np.random.default_rng(8)
    cost = AbsDistance(unit_box)
    mu = random_measure(rng, 12, unit_box)
    sol = solve(cost, mu, mu, SinkhornConfig(epsilon=eps))
    assert sol.converged
    psi, residuals = np.zeros(len(mu)), []
    for _ in range(sol.iterations):
        phi = softmin(cost, mu, psi, eps, mu.points)
        psi_new = 0.5 * (psi + phi)
        residuals.append(0.5 * float(np.max(psi_new - psi) - np.min(psi_new - psi)))
        psi = psi_new
    psi = softmin(cost, mu, phi, eps, mu.points)
    # the same shift as solve: <phi, mu> becomes half the independent-coupling cost
    delta = 0.5 * ot_infinity(cost, mu, mu).ot_inf - float(phi @ mu.weights)
    assert np.max(np.abs(sol.residual_history - residuals)) <= 1e-12
    assert np.max(np.abs(sol.potentials.phi - (phi + delta))) <= 1e-12
    assert np.max(np.abs(sol.potentials.psi - (psi - delta))) <= 1e-12
    # psi is the half-step of phi, which the shift commutes with
    half_step = softmin(cost, mu, sol.potentials.phi, eps, mu.points)
    assert np.max(np.abs(sol.potentials.psi - half_step)) <= 1e-12

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

def test_normalization_constraint(unit_box):
    cost = AbsDistance(unit_box)
    rng = np.random.default_rng(2)
    mu = random_measure(rng, 10, unit_box)
    nu = random_measure(rng, 11, unit_box)
    for eps in [1e-2, 1.0, 100.0]:
        sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps))
        limits = ot_infinity(cost, mu, nu)
        assert float(sol.potentials.phi @ mu.weights) == pytest.approx(
            0.5 * limits.ot_inf, abs=1e-10
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


@pytest.mark.parametrize("eps", [0.1, math.inf])
def test_solve_on_given_cost_matrix_bitwise_equal(unit_square, eps):
    # a prebuilt matrix is an input, not a switch: cross and self problems
    # return the same bits, and the solution keeps the given array
    rng = np.random.default_rng(51)
    cost = AbsDistance(unit_square)
    mu = random_measure(rng, 9, unit_square)
    nu = random_measure(rng, 6, unit_square)
    cfg = SinkhornConfig(epsilon=eps)
    for a, b in [(mu, nu), (nu, nu)]:
        c_matrix = cost.matrix(a.points, b.points)
        built = solve(cost, a, b, cfg, psi0=np.full(len(b), 0.25))
        given = solve(cost, a, b, cfg, psi0=np.full(len(b), 0.25), cost_matrix=c_matrix)
        assert given.value == built.value
        assert given.iterations == built.iterations
        assert np.array_equal(given.potentials.phi, built.potentials.phi)
        assert np.array_equal(given.potentials.psi, built.potentials.psi)
        assert np.array_equal(given.plan.matrix, built.plan.matrix)
        assert given.duality_gap == built.duality_gap
        if math.isinf(eps):
            assert given.cost_matrix is None
        else:
            assert given.cost_matrix is c_matrix


def _with_entry(c_matrix, value):
    bad = c_matrix.copy()
    bad[0, 1] = value
    return bad


_BAD_COST_MATRICES = {
    "column_short": (lambda c: c[:, :-1], DimensionMismatchError),
    "row_short": (lambda c: c[:-1], DimensionMismatchError),
    "flat": (lambda c: c.ravel(), DimensionMismatchError),
    "three_axes": (lambda c: c[:, :, None], DimensionMismatchError),
    "nan": (lambda c: _with_entry(c, np.nan), NonFiniteValueError),
    "minus_inf": (lambda c: _with_entry(c, -np.inf), NonFiniteValueError),
}


@pytest.mark.parametrize("eps", [0.1, math.inf])
@pytest.mark.parametrize("case", sorted(_BAD_COST_MATRICES))
def test_solve_rejects_bad_cost_matrix(unit_square, eps, case):
    bad, error = _BAD_COST_MATRICES[case]
    rng = np.random.default_rng(52)
    cost = AbsDistance(unit_square)
    mu = random_measure(rng, 5, unit_square)
    nu = random_measure(rng, 4, unit_square)
    for a, b in [(mu, nu), (nu, nu)]:
        with pytest.raises(error, match="cost_matrix"):
            solve(cost, a, b, SinkhornConfig(epsilon=eps),
                  cost_matrix=bad(cost.matrix(a.points, b.points)))


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
    assert limits.ot_inf == pytest.approx(0.5, abs=1e-15)
    assert limits.phi_inf[0] == pytest.approx(0.25, abs=1e-15)

def test_ot_infinity_self_dirac(unit_box):
    m = dirac([0.3])
    limits = ot_infinity(AbsDistance(unit_box), m, m)
    assert limits.ot_inf == 0.0
    assert np.array_equal(limits.phi_inf, np.zeros(1))
    assert np.array_equal(limits.psi_inf, np.zeros(1))

def test_ot_infinity_normalization_identity(unit_box):
    rng = np.random.default_rng(6)
    mu = random_measure(rng, 6, unit_box)
    nu = random_measure(rng, 8, unit_box)
    limits = ot_infinity(AbsDistance(unit_box), mu, nu)
    assert float(limits.phi_inf @ mu.weights) == pytest.approx(
        0.5 * limits.ot_inf, abs=1e-14
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
            assert limits.ot_inf == pytest.approx(ot, abs=1e-14)
            assert np.max(np.abs(limits.phi_inf - (c_matrix @ b.weights - 0.5 * ot))) <= 1e-14
            assert np.max(np.abs(limits.psi_inf - (c_matrix.T @ a.weights - 0.5 * ot))) <= 1e-14

def test_solve_at_infinity_keeps_no_cost_matrix_and_zero_kappa(unit_square):
    # kappa is 0 even where L / eps is inf / inf (PowerDistance with p < 1)
    rng = np.random.default_rng(44)
    mu = random_measure(rng, 6, unit_square)
    nu = random_measure(rng, 7, unit_square)
    for cost in [*_limit_costs(unit_square), PowerDistance(unit_square, p=0.5)]:
        for a, b in [(mu, nu), (mu, mu)]:
            sol = solve(cost, a, b, SinkhornConfig(epsilon=math.inf))
            assert sol.kappa == 0.0
            assert sol.cost_matrix is None
            assert np.array_equal(sol.plan.matrix, np.outer(a.weights, b.weights))

def test_divergence_at_infinity_peak_memory_within_two_cost_sized_arrays(unit_square):
    # no solution keeps its cost matrix at eps = inf, so the three solves
    # never hold more than one cost matrix and its build temporaries
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
    assert np.max(np.abs(phi_ext - limits.phi_inf)) <= 1e-12
    assert np.max(np.abs(psi_ext - limits.psi_inf)) <= 1e-12

def test_potentials_converge_to_limits(unit_box):
    # asymmetric toy; a mirror-symmetric instance has zero distance at all eps
    cost = AbsDistance(unit_box)
    mu = DiscreteMeasure(np.array([[0.1], [0.5]]), np.array([0.3, 0.7]))
    nu = DiscreteMeasure(np.array([[0.3], [0.95]]), np.array([0.5, 0.5]))
    limits = ot_infinity(cost, mu, nu)
    dists = []
    for eps in [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0]:
        sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps))
        dists.append(float(np.max(np.abs(sol.potentials.phi - limits.phi_inf))))
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
# contraction estimate and half-step regularity
# ---------------------------------------------------------------------------

def test_contraction_estimate_hand_value():
    box = BoundingBox(np.array([0.0]), np.array([1.0]))

    class UnitLipschitz(AbsDistance):
        def _lipschitz_bound(self):
            return 1.0

    est = contraction_estimate(UnitLipschitz(box), box, 1.0)
    assert est.kappa == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)
    assert est.kappa == pytest.approx(0.8646647167633873, abs=1e-12)

def test_contraction_estimate_limits(unit_box):
    cost = AbsDistance(unit_box)
    assert contraction_estimate(cost, unit_box, 1e12).kappa == pytest.approx(0.0, abs=1e-9)
    assert contraction_estimate(cost, unit_box, 1e-12).kappa == pytest.approx(1.0, abs=1e-12)

def test_half_step_inherits_cost_lipschitz(unit_box):
    rng = np.random.default_rng(7)
    m = random_measure(rng, 12, unit_box)
    for cost in [AbsDistance(unit_box), NegatedKernel(Gaussian(unit_box, c=0.4))]:
        phi = rng.normal(size=12)
        pairs = rng.random((1000, 2, 1))
        ratio = potential_lipschitz_check(cost, m, phi, 0.25, pairs)
        assert ratio <= cost.lipschitz + 1e-9

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
def test_softmin_and_contraction_estimate_reject_non_positive_and_nan(unit_box, epsilon):
    cost = AbsDistance(unit_box)
    with pytest.raises(ValueError, match="epsilon"):
        softmin(cost, dirac([0.4]), np.array([0.3]), epsilon, np.array([[0.9]]))
    with pytest.raises(ValueError, match="epsilon"):
        contraction_estimate(cost, unit_box, epsilon)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("field", ["epsilon", "tol"])
def test_config_rejects_non_positive_and_nan(field, value):
    with pytest.raises(ValueError, match=field):
        SinkhornConfig(**{"epsilon": 1.0, field: value})
