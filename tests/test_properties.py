"""Property tests of finite and infinite epsilon over random small 1-D and 2-D measures."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sinkdiv import (
    AbsDistance,
    BoundingBox,
    DiscreteMeasure,
    Gaussian,
    NegatedKernel,
    PowerDistance,
    SinkhornConfig,
    exact_ot,
    ot_infinity,
    s_infinity,
    sinkhorn_divergence,
    solve,
)
from sinkdiv.sinkhorn import _is_self_problem

BOXES = {dim: BoundingBox(np.zeros(dim), np.ones(dim)) for dim in (1, 2)}
# built once: each cost precomputes its Lipschitz constant on the box
COSTS = {
    (dim, name): cost
    for dim, box in BOXES.items()
    for name, cost in (
        ("abs", AbsDistance(box)),
        ("gauss", NegatedKernel(Gaussian(box, c=0.5))),
        ("power2", PowerDistance(box, p=2.0)),
    )
}
LIMIT = SinkhornConfig(epsilon=math.inf)
PROPERTY = settings(max_examples=60, deadline=None, database=None)
# each example runs up to nine solves, some of thousands of iterations
FINITE = settings(max_examples=20, deadline=None, database=None)
# K = -C/eps spans up to 1-2 / eps on these boxes, so the small epsilons run
# the log-domain half-steps and the others the Gibbs-kernel products
EPSILONS = st.one_of(st.floats(1e-3, 3e-3), st.floats(0.01, 5.0))


def measures(dim):
    return st.integers(1, 8).flatmap(lambda n: st.builds(
        DiscreteMeasure.normalized,
        arrays(float, (n, dim), elements=st.floats(0.0, 1.0)),
        arrays(float, n, elements=st.floats(1e-3, 1.0)),
    ))


@st.composite
def problems(draw, cost_names=("abs", "gauss")):
    """(cost, mu, nu) on a 1-D or 2-D unit box."""
    dim = draw(st.sampled_from(sorted(BOXES)))
    cost = COSTS[dim, draw(st.sampled_from(cost_names))]
    return cost, draw(measures(dim)), draw(measures(dim))


def permuted(m: DiscreteMeasure, order) -> DiscreteMeasure:
    order = list(order)
    return DiscreteMeasure(m.points[order], m.weights[order])


def s_inf_of(cost, mu, nu) -> float:
    return sinkhorn_divergence(cost, mu, nu, LIMIT).s_eps


@PROPERTY
@given(problems(), st.data())
def test_solve_at_infinity_is_ot_infinity(problem, data):
    cost, mu, nu = problem
    # psi0 has no effect on the limit solution
    psi0 = data.draw(st.none() | arrays(float, len(nu), elements=st.floats(-1.0, 1.0)))
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=math.inf), psi0=psi0)
    limits = ot_infinity(cost, mu, nu)
    assert sol.value == limits.ot_inf
    assert np.array_equal(sol.potentials.phi, limits.phi_inf)
    assert np.array_equal(sol.potentials.psi, limits.psi_inf)
    assert sol.converged and sol.iterations == 0
    assert sol.plan.marginal_error() <= 1e-15


@PROPERTY
@given(problems(cost_names=("gauss",)))
def test_divergence_at_infinity_is_half_squared_discrepancy(problem):
    cost, mu, nu = problem
    assert s_inf_of(cost, mu, nu) == pytest.approx(s_infinity(cost, mu, nu), abs=1e-12)


@PROPERTY
@given(problems(), st.data())
def test_divergence_at_infinity_symmetric_and_permutation_invariant(problem, data):
    cost, mu, nu = problem
    value = s_inf_of(cost, mu, nu)
    assert s_inf_of(cost, nu, mu) == pytest.approx(value, abs=1e-12)
    mu_perm = permuted(mu, data.draw(st.permutations(range(len(mu)))))
    nu_perm = permuted(nu, data.draw(st.permutations(range(len(nu)))))
    assert s_inf_of(cost, mu_perm, nu_perm) == pytest.approx(value, abs=1e-12)


@FINITE
@given(problems(cost_names=("abs", "power2")), EPSILONS, st.data())
def test_finite_epsilon_symmetric_and_permutation_invariant(problem, eps, data):
    cost, mu, nu = problem
    cfg = SinkhornConfig(epsilon=eps)
    pairs = [(mu, nu), (nu, mu)]
    # a permuted copy of mu is not recognized as mu, so for mu = nu the
    # permuted pair runs the alternating instead of the averaged update. Over
    # eps >= 0.01 the two agree to rounding (the self-problem property below);
    # near eps = 1e-3 contraction is slow, and the two iterates, each stopped
    # at the tolerance, still give values up to about 6e-12 apart
    if not _is_self_problem(mu, nu):
        pairs.append((permuted(mu, data.draw(st.permutations(range(len(mu))))),
                      permuted(nu, data.draw(st.permutations(range(len(nu)))))))
    # a solve that hits max_iter (eps near 1e-3 on clustered atoms) is flagged
    # and stops short of the fixed point these properties are about
    first = sinkhorn_divergence(cost, mu, nu, cfg)
    assume(first.converged)
    for a, b in pairs[1:]:
        other = sinkhorn_divergence(cost, a, b, cfg)
        assume(other.converged)
        # ot_mu_nu is OT_eps(a, b)
        assert other.ot_mu_nu == pytest.approx(first.ot_mu_nu, abs=1e-12)
        assert other.s_eps == pytest.approx(first.s_eps, abs=1e-12)


@FINITE
@given(problems(cost_names=("abs", "power2")), st.floats(0.01, 5.0), st.data())
def test_finite_epsilon_self_problem_matches_permuted_copies(problem, eps, data):
    cost, mu, _ = problem
    cfg = SinkhornConfig(epsilon=eps)
    # (mu, mu) runs the averaged update, two permuted copies the alternating one
    first = sinkhorn_divergence(cost, mu, mu, cfg)
    copies = [permuted(mu, data.draw(st.permutations(range(len(mu))))) for _ in range(2)]
    other = sinkhorn_divergence(cost, *copies, cfg)
    assume(first.converged and other.converged)
    assert other.ot_mu_nu == pytest.approx(first.ot_mu_nu, abs=1e-12)
    assert other.s_eps == pytest.approx(first.s_eps, abs=1e-12)


def entropy(m: DiscreteMeasure) -> float:
    """Shannon entropy of the weights."""
    return float(-m.weights @ np.log(m.weights))


@FINITE
@given(problems(cost_names=("abs", "power2")), EPSILONS)
def test_finite_epsilon_value_within_entropy_sandwich(problem, eps):
    # OT_eps = min <C, P> + eps KL(P | mu x nu), and KL(P* | mu x nu) is a
    # mutual information, at most either marginal's entropy, so OT_eps tends
    # to OT_0 from above at rate eps
    cost, mu, nu = problem
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps))
    assume(sol.converged)
    ot_0 = exact_ot(cost, mu, nu).value
    assert ot_0 - 1e-9 <= sol.value <= ot_0 + eps * min(entropy(mu), entropy(nu)) + 1e-9


@FINITE
@given(problems(cost_names=("abs", "power2")), EPSILONS)
def test_finite_epsilon_reruns_bitwise_and_divergence_non_negative(problem, eps):
    cost, mu, nu = problem
    cfg = SinkhornConfig(epsilon=eps)
    divergence = sinkhorn_divergence(cost, mu, nu, cfg)
    # both costs have positive universal Gibbs kernels, so S_eps >= 0 at the
    # fixed point
    assume(divergence.converged)
    assert divergence.s_eps >= -1e-12
    a, b = solve(cost, mu, nu, cfg), solve(cost, mu, nu, cfg)
    assert a.value == b.value
    assert np.array_equal(a.potentials.phi, b.potentials.phi)
    assert np.array_equal(a.potentials.psi, b.potentials.psi)
    assert np.array_equal(a.plan.matrix, b.plan.matrix)
