"""Exact transportation solver and the closed-form 1D distance."""
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sinkdiv
from sinkdiv import (
    AbsDistance,
    dirac,
    dual_feasibility_check,
    exact_ot,
    uniform,
    wasserstein1_1d,
)
from sinkdiv.errors import DimensionMismatchError, SizeExceededError

from conftest import random_measure


# ---------------------------------------------------------------------------
# closed-form 1D distance
# ---------------------------------------------------------------------------

def test_w1_four_atom_instance(example_pair):
    mu, nu = example_pair
    assert wasserstein1_1d(mu, nu) == pytest.approx(0.1, abs=1e-12)

def test_w1_translated_dirac():
    assert wasserstein1_1d(dirac([0.0]), dirac([1.0])) == pytest.approx(1.0, abs=1e-15)

def test_w1_interleaved_uniforms():
    mu = uniform(np.array([[0.0], [0.5]]))
    nu = uniform(np.array([[0.25], [0.75]]))
    # piecewise CDF integration: 0.5*0.25 + 0 + 0.5*0.25
    assert wasserstein1_1d(mu, nu) == pytest.approx(0.25, abs=1e-15)

def test_w1_requires_one_dimension(unit_square):
    mu = dirac([0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        wasserstein1_1d(mu, mu)


# ---------------------------------------------------------------------------
# brute-force oracle: enumerate all spanning-tree basic solutions at 4 x 4
# ---------------------------------------------------------------------------

def _tree_basic_solution(edges, supply, demand):
    """Solve the flow on a spanning tree by leaf elimination; None if not a tree."""
    n, m = len(supply), len(demand)
    nodes = n + m
    adjacency = {v: [] for v in range(nodes)}
    for idx, (i, j) in enumerate(edges):
        adjacency[i].append((n + j, idx))
        adjacency[n + j].append((i, idx))
    # connectivity check (len(edges) == nodes - 1 already)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w, _ in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nodes:
        return None

    balance = np.concatenate([supply, -np.asarray(demand)])
    flows = np.zeros(len(edges))
    degree = {v: len(adjacency[v]) for v in range(nodes)}
    removed_edges = set()
    removed_nodes = set()
    for _ in range(nodes - 1):
        leaf = next(
            v for v in range(nodes) if v not in removed_nodes and degree[v] == 1
        )
        other, idx = next(
            (w, e) for w, e in adjacency[leaf] if e not in removed_edges
        )
        flow = balance[leaf] if leaf < n else -balance[leaf]
        flows[idx] = flow
        balance[leaf] = 0.0
        balance[other] -= flow if other < n else -flow
        removed_edges.add(idx)
        removed_nodes.add(leaf)
        degree[leaf] -= 1
        degree[other] -= 1
    return flows

def brute_force_transport_value(cost_matrix, supply, demand):
    """Minimum cost over all basic feasible solutions of the 4x4 polytope."""
    n, m = cost_matrix.shape
    cells = list(itertools.product(range(n), range(m)))
    best = math.inf
    for edges in itertools.combinations(cells, n + m - 1):
        flows = _tree_basic_solution(edges, supply, demand)
        if flows is None or np.any(flows < -1e-12):
            continue
        value = sum(
            f * cost_matrix[i, j] for f, (i, j) in zip(flows, edges)
        )
        best = min(best, value)
    return best


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------

def test_four_atom_instance_value_and_plan(example_pair, unit_box):
    mu, nu = example_pair
    res = exact_ot(AbsDistance(unit_box), mu, nu)
    assert res.value == pytest.approx(0.1, abs=1e-12)
    # this instance has a unique optimal plan: half at (0, 0.1), half at (1, 0.9)
    assert np.allclose(res.plan.matrix, np.array([[0.5, 0.0], [0.0, 0.5]]), atol=1e-9)

def test_identity_measure_zero_value(unit_square):
    rng = np.random.default_rng(0)
    m = random_measure(rng, 6, unit_square)
    res = exact_ot(AbsDistance(unit_square), m, m)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.plan.marginal_error() <= 1e-9

def test_matches_brute_force_4x4(unit_square):
    rng = np.random.default_rng(1)
    cost = AbsDistance(unit_square)
    for _ in range(5):
        mu = random_measure(rng, 4, unit_square)
        nu = random_measure(rng, 4, unit_square)
        res = exact_ot(cost, mu, nu)
        oracle = brute_force_transport_value(
            cost.matrix(mu.points, nu.points), mu.weights, nu.weights
        )
        assert res.value == pytest.approx(oracle, abs=1e-10)

def test_agrees_with_w1_in_one_dimension(unit_box):
    rng = np.random.default_rng(2)
    for _ in range(10):
        mu = random_measure(rng, 8, unit_box)
        nu = random_measure(rng, 6, unit_box)
        lp = exact_ot(AbsDistance(unit_box), mu, nu).value
        cdf = wasserstein1_1d(mu, nu)
        assert lp == pytest.approx(cdf, abs=1e-10)

def test_certified_dual_pair(unit_square):
    rng = np.random.default_rng(3)
    cost = AbsDistance(unit_square)
    for _ in range(10):
        mu = random_measure(rng, 9, unit_square)
        nu = random_measure(rng, 7, unit_square)
        res = exact_ot(cost, mu, nu)
        violation = dual_feasibility_check(cost, mu, nu, res.phi, res.psi)
        assert violation <= 1e-9
        # strong duality
        assert abs(res.dual_value - res.value) <= 1e-9
        assert res.plan.marginal_error() <= 1e-9

def test_size_cap(unit_box):
    pts = np.zeros((1001, 1))
    big = uniform(pts)
    other = uniform(np.zeros((1000, 1)))
    with pytest.raises(SizeExceededError):
        exact_ot(AbsDistance(unit_box), big, other)

def test_scipy_loaded_only_by_the_exact_solve():
    # a fresh interpreter, so modules other tests imported do not count;
    # the kernels thread pool loads concurrent.futures on first use only
    src = os.path.dirname(os.path.dirname(sinkdiv.__file__))
    code = ("import sys, sinkdiv, sinkdiv.cli\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse', 'concurrent.futures')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# dual feasibility checks with the known optimal potentials of the 1D toy
# ---------------------------------------------------------------------------

def _toy_potential_one(x):
    if 0.0 <= x <= 0.1:
        return 0.1 - x
    if 0.9 <= x <= 1.0:
        return x - 0.9
    return 0.0

def _toy_potential_two(x):
    if 0.0 <= x <= 0.2:
        return 0.2 - x
    if 0.9 <= x <= 1.0:
        return x - 0.9
    return 0.0

def test_zero_potentials_feasible_for_nonnegative_cost(example_pair, unit_box):
    mu, nu = example_pair
    violation = dual_feasibility_check(
        AbsDistance(unit_box), mu, nu, np.zeros(2), np.zeros(2)
    )
    assert violation <= 0.0

@pytest.mark.parametrize("potential", [_toy_potential_one, _toy_potential_two])
def test_toy_potentials_achieve_optimal_value(potential, example_pair, unit_box):
    # both known optimal potentials: pair each with psi = -phi on the target
    # support, check feasibility and equal objective 0.1
    mu, nu = example_pair
    phi = np.array([potential(x) for x in mu.points[:, 0]])
    psi = np.array([-potential(y) for y in nu.points[:, 0]])
    violation = dual_feasibility_check(AbsDistance(unit_box), mu, nu, phi, psi)
    assert violation <= 1e-12
    dual_value = float(phi @ mu.weights + psi @ nu.weights)
    assert dual_value == pytest.approx(0.1, abs=1e-12)
