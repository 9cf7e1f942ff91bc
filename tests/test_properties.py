"""Property tests of the epsilon = inf path over random small 1-D and 2-D measures."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sinkdiv import (
    AbsDistance,
    BoundingBox,
    DiscreteMeasure,
    Gaussian,
    NegatedKernel,
    SinkhornConfig,
    ot_infinity,
    s_infinity,
    sinkhorn_divergence,
    solve,
)

BOXES = {dim: BoundingBox(np.zeros(dim), np.ones(dim)) for dim in (1, 2)}
# built once: each cost precomputes its Lipschitz constant on the box
COSTS = {
    (dim, name): cost
    for dim, box in BOXES.items()
    for name, cost in (("abs", AbsDistance(box)), ("gauss", NegatedKernel(Gaussian(box, c=0.5))))
}
LIMIT = SinkhornConfig(epsilon=math.inf)
PROPERTY = settings(max_examples=60, deadline=None, database=None)


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
@given(problems(), st.booleans(), st.data())
def test_solve_at_infinity_is_ot_infinity(problem, normalize, data):
    cost, mu, nu = problem
    # psi0 and normalize have no effect on the limit solution
    psi0 = data.draw(st.none() | arrays(float, len(nu), elements=st.floats(-1.0, 1.0)))
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=math.inf, normalize=normalize), psi0=psi0)
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
