"""Sinkhorn divergence, infinite-regularization identities, sweeps."""
import math
import warnings

import numpy as np
import pytest

from sinkdiv import (
    AbsDistance,
    CpdShifted,
    DiscreteMeasure,
    Gaussian,
    NegatedKernel,
    NegativeDistance,
    PotentialPair,
    ShiftedNegativeDistance,
    SinkhornConfig,
    dirac,
    discrepancy,
    epsilon_sweep,
    exact_ot,
    ot_infinity,
    potential_lipschitz_check,
    s_infinity,
    sinkhorn_divergence,
    softmin,
    uniform,
    witness_eval,
    witness_from_limits,
    write_sweep_csv,
)
from sinkdiv.divergence import DEFAULT_EPSILONS
from sinkdiv.errors import NonFiniteValueError, NotNegatedKernelError, ZeroDiscrepancyError
from sinkdiv.sinkhorn import extend_potentials

from conftest import random_measure


# ---------------------------------------------------------------------------
# divergence values
# ---------------------------------------------------------------------------

def test_identical_measures_give_zero(unit_box):
    rng = np.random.default_rng(0)
    m = random_measure(rng, 9, unit_box)
    cost = AbsDistance(unit_box)
    for eps in [1e-3, 0.1, 10.0]:
        res = sinkhorn_divergence(cost, m, m, SinkhornConfig(epsilon=eps))
        assert abs(res.s_eps) <= 1e-8
        assert res.converged

def test_two_diracs_large_epsilon_matches_half_squared_discrepancy(unit_box):
    # K = 1 - |x - y|: squared discrepancy of the two diracs is 2
    kernel = ShiftedNegativeDistance(unit_box, C=1.0)
    cost = NegatedKernel(kernel)
    mu, nu = dirac([0.0]), dirac([1.0])
    res = sinkhorn_divergence(cost, mu, nu, SinkhornConfig(epsilon=1e3))
    assert res.s_eps == pytest.approx(1.0, abs=2e-3)

def test_four_atom_small_epsilon_matches_exact_transport(example_pair, unit_box):
    mu, nu = example_pair
    cost = AbsDistance(unit_box)
    res = sinkhorn_divergence(cost, mu, nu, SinkhornConfig(epsilon=1e-4))
    assert res.s_eps == pytest.approx(0.1, abs=5e-3)

def test_recombination_identity(unit_box):
    rng = np.random.default_rng(1)
    mu = random_measure(rng, 8, unit_box)
    nu = random_measure(rng, 6, unit_box)
    res = sinkhorn_divergence(AbsDistance(unit_box), mu, nu, SinkhornConfig(epsilon=0.5))
    assert res.s_eps == pytest.approx(
        res.ot_mu_nu - 0.5 * res.ot_mu_mu - 0.5 * res.ot_nu_nu, abs=1e-12
    )

def test_nonconvergence_labels_the_offending_term(unit_box):
    rng = np.random.default_rng(2)
    mu = random_measure(rng, 15, unit_box)
    nu = random_measure(rng, 15, unit_box)
    res = sinkhorn_divergence(
        AbsDistance(unit_box), mu, nu, SinkhornConfig(epsilon=1e-4, max_iter=20)
    )
    assert not res.converged
    assert res.term_converged["mu_nu"] is False
    assert set(res.term_converged) == {"mu_nu", "mu_mu", "nu_nu"}


# ---------------------------------------------------------------------------
# infinite-regularization identities
# ---------------------------------------------------------------------------

def test_s_infinity_identical_measures(unit_box):
    m = uniform(np.array([[0.2], [0.7]]))
    assert s_infinity(NegatedKernel(Gaussian(unit_box, c=0.5)), m, m) == pytest.approx(
        0.0, abs=1e-14
    )

def test_s_infinity_two_diracs(unit_box):
    cost = NegatedKernel(ShiftedNegativeDistance(unit_box, C=1.0))
    assert s_infinity(cost, dirac([0.0]), dirac([1.0])) == pytest.approx(1.0, abs=1e-14)

def test_s_infinity_requires_kernel_cost(unit_box):
    with pytest.raises(NotNegatedKernelError):
        s_infinity(AbsDistance(unit_box), dirac([0.0]), dirac([1.0]))

def test_s_infinity_equals_limit_combination(unit_box):
    rng = np.random.default_rng(3)
    cost = NegatedKernel(Gaussian(unit_box, c=0.5))
    for _ in range(10):
        mu = random_measure(rng, 7, unit_box)
        nu = random_measure(rng, 9, unit_box)
        combo = (
            ot_infinity(cost, mu, nu).value
            - 0.5 * ot_infinity(cost, mu, mu).value
            - 0.5 * ot_infinity(cost, nu, nu).value
        )
        assert s_infinity(cost, mu, nu) == pytest.approx(combo, abs=1e-12)


# ---------------------------------------------------------------------------
# witness recovered from the limit potentials
# ---------------------------------------------------------------------------

def test_witness_from_limits_hand_case(unit_box):
    kernel = ShiftedNegativeDistance(unit_box, C=1.0)
    grid = np.linspace(0, 1, 21)[:, None]
    w = witness_from_limits(kernel, dirac([0.0]), dirac([1.0]), grid)
    expected = (1.0 - 2.0 * grid[:, 0]) / math.sqrt(2.0)
    assert np.allclose(w, expected, atol=1e-12)

def test_witness_from_limits_matches_witness_eval_pd(unit_box):
    rng = np.random.default_rng(4)
    kernel = Gaussian(unit_box, c=0.5)
    grid = np.linspace(0, 1, 100)[:, None]
    for _ in range(5):
        mu = random_measure(rng, 8, unit_box)
        nu = random_measure(rng, 7, unit_box)
        a = witness_from_limits(kernel, mu, nu, grid)
        b = witness_eval(kernel, mu, nu, grid)
        assert np.max(np.abs(a - b)) <= 1e-9

def test_witness_from_limits_cpd_kernel_reports_against_itself(unit_box):
    # an order-1 kernel runs unshifted: between probability measures the limit
    # formulas give the plain embedding-difference witness as they stand
    rng = np.random.default_rng(5)
    kernel = NegativeDistance(unit_box)
    grid = np.linspace(0, 1, 100)[:, None]
    for _ in range(5):
        mu = random_measure(rng, 8, unit_box)
        nu = random_measure(rng, 9, unit_box)
        a = witness_from_limits(kernel, mu, nu, grid)
        b = witness_eval(kernel, mu, nu, grid)
        assert np.max(np.abs(a - b)) <= 1e-9

def test_witness_from_limits_shifted_kernel_reports_against_base(unit_box):
    rng = np.random.default_rng(6)
    base = NegativeDistance(unit_box)
    shifted = CpdShifted(base, anchor=[0.35])
    grid = np.linspace(0, 1, 100)[:, None]
    for _ in range(5):
        mu = random_measure(rng, 6, unit_box)
        nu = random_measure(rng, 8, unit_box)
        a = witness_from_limits(shifted, mu, nu, grid)
        b = witness_eval(base, mu, nu, grid)
        assert np.max(np.abs(a - b)) <= 1e-9

def test_witness_from_limits_zero_discrepancy(unit_box):
    m = uniform(np.array([[0.2], [0.8]]))
    with pytest.raises(ZeroDiscrepancyError):
        witness_from_limits(Gaussian(unit_box, c=0.5), m, m, np.array([[0.5]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("epsilon", [0.1, math.inf])
def test_non_finite_query_points_raise(unit_box, bad, epsilon):
    # a NaN coordinate would give NaN, an infinite one a RuntimeWarning at
    # finite epsilon and inf at epsilon = inf; each raises before any of that
    kernel = Gaussian(unit_box, c=0.4)
    cost = NegatedKernel(kernel)
    mu, nu = dirac([0.2]), uniform(np.array([[0.5], [0.9]]))
    points = np.array([[0.3], [bad]])
    pair = PotentialPair(phi=np.zeros(1), psi=np.zeros(2), epsilon=epsilon)
    calls = [
        lambda: softmin(cost, nu, np.zeros(2), epsilon, points),
        lambda: extend_potentials(cost, mu, nu, pair, points),
        lambda: potential_lipschitz_check(cost, nu, np.zeros(2), epsilon,
                                          np.stack([points, points[::-1]], axis=1)),
        lambda: witness_eval(kernel, mu, nu, points),
        lambda: witness_from_limits(kernel, mu, nu, points),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NonFiniteValueError, match="non-finite"):
                call()

# ---------------------------------------------------------------------------
# limit witness vs the converged large-epsilon potentials
# ---------------------------------------------------------------------------

def test_large_epsilon_potential_difference_approaches_witness(unit_box):
    kernel = Gaussian(unit_box, c=0.5)
    cost = NegatedKernel(kernel)
    rng = np.random.default_rng(7)
    mu = random_measure(rng, 8, unit_box)
    nu = random_measure(rng, 8, unit_box)
    from sinkdiv import solve
    from sinkdiv.sinkhorn import extend_potentials

    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=4096.0))
    d = discrepancy(kernel, mu, nu).value
    # compare on the source support, where both functions are defined
    limit_w = witness_from_limits(kernel, mu, nu, mu.points)
    phi_ext, psi_ext = extend_potentials(cost, mu, nu, sol.potentials, mu.points)
    assert np.max(np.abs((phi_ext - psi_ext) / d - limit_w)) <= 1e-3


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_sweep():
    box_local = __import__("sinkdiv").BoundingBox(np.array([0.0]), np.array([1.0]))
    cost = AbsDistance(box_local)
    mu = DiscreteMeasure(np.array([[0.1], [0.5]]), np.array([0.3, 0.7]))
    nu = DiscreteMeasure(np.array([[0.3], [0.95]]), np.array([0.5, 0.5]))
    records = epsilon_sweep(cost, mu, nu)
    return cost, mu, nu, records

def test_sweep_row_count_and_terminal(toy_sweep):
    _, _, _, records = toy_sweep
    assert len(records) == 26
    assert math.isinf(records[-1].epsilon)

def test_sweep_ot_nondecreasing(toy_sweep):
    _, _, _, records = toy_sweep
    ot_vals = [r.ot_eps for r in records]
    assert np.all(np.diff(ot_vals) >= -1e-8)

def test_sweep_endpoints_match_oracles(toy_sweep):
    cost, mu, nu, records = toy_sweep
    exact = exact_ot(cost, mu, nu).value
    assert records[0].ot_eps == pytest.approx(exact, abs=5e-3)
    assert records[-1].ot_eps == pytest.approx(ot_infinity(cost, mu, nu).value, abs=1e-12)
    assert abs(records[-2].ot_eps - records[-1].ot_eps) <= 1e-3

def test_sweep_potential_distance_decreasing_on_upper_half(toy_sweep):
    _, _, _, records = toy_sweep
    finite = records[:-1]
    upper = [r.phi_dist_to_inf for r in finite[len(finite) // 2:]]
    assert all(b <= a + 1e-12 for a, b in zip(upper, upper[1:]))
    assert upper[-1] < 1e-3

def test_sweep_s_eps_nonnegative_and_terminal_identity(toy_sweep):
    cost, mu, nu, records = toy_sweep
    for r in records:
        assert r.s_eps >= -1e-8
    # terminal value equals half the squared energy-distance discrepancy
    kernel = NegativeDistance(cost.box)
    assert records[-1].s_eps == pytest.approx(
        0.5 * discrepancy(kernel, mu, nu).squared, abs=1e-12
    )

def test_sweep_observed_s_eps_trend_is_recorded_not_asserted(toy_sweep):
    # the monotone decrease of s_eps is an observation, not a contract; the
    # sweep only has to produce finite values on converged records
    _, _, _, records = toy_sweep
    for r in records:
        if r.converged:
            assert np.isfinite(r.s_eps)

def test_sweep_csv_format(tmp_path, toy_sweep):
    _, _, _, records = toy_sweep
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, records)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,ot_eps,s_eps,phi_dist_inf,psi_dist_inf,iterations"
    assert len(lines) == 27
    assert lines[-1].startswith("inf,")

def test_sweep_rejects_unsorted_grid(unit_box):
    mu = dirac([0.1])
    nu = dirac([0.9])
    with pytest.raises(ValueError):
        epsilon_sweep(AbsDistance(unit_box), mu, nu, epsilons=[1.0, 0.5])

def test_sweep_rejects_empty_grid(unit_box):
    with pytest.raises(ValueError, match="non-empty"):
        epsilon_sweep(AbsDistance(unit_box), dirac([0.1]), dirac([0.9]), epsilons=[])

def test_default_grid_shape():
    assert DEFAULT_EPSILONS.shape == (25,)
    assert DEFAULT_EPSILONS[0] == pytest.approx(1e-4)
    assert DEFAULT_EPSILONS[-1] == pytest.approx(1e3)


# ---------------------------------------------------------------------------
# small-epsilon antisymmetry of the potentials
# ---------------------------------------------------------------------------

def test_small_epsilon_antisymmetry_shared_support(unit_box):
    from sinkdiv import solve

    rng = np.random.default_rng(0)
    xs = np.linspace(0, 1, 15)[:, None]
    mu = DiscreteMeasure.normalized(xs, rng.random(15) + 0.1)
    nu = DiscreteMeasure.normalized(xs, rng.random(15) + 0.1)
    sol = solve(AbsDistance(unit_box), mu, nu,
                SinkhornConfig(epsilon=1e-4, max_iter=100_000))
    assert sol.converged
    assert np.max(np.abs(sol.potentials.phi + sol.potentials.psi)) <= 1e-2
