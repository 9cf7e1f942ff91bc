"""Dithering objective, envelope gradients, and the descent loop."""
import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sinkdiv import (
    AbsDistance,
    BoundingBox,
    CpdShifted,
    DiscreteMeasure,
    Gaussian,
    NegatedKernel,
    NegativeDistance,
    PowerDistance,
    SinkhornConfig,
    SinkhornSolution,
    SmoothedNegativeDistance,
    WendlandPower,
    discrepancy,
    dither,
    gradient,
    halftoning_energy,
    objective,
    sample_grid_density,
    sinkhorn_divergence,
    solve,
    uniform,
)
from sinkdiv import kernels
from sinkdiv.dither import DitherConfig, resolve_cost
from sinkdiv.errors import (
    DimensionMismatchError,
    NonDifferentiablePointError,
    NonFiniteValueError,
    PointOutsideBoxError,
)

# the package exports the dither function under the module's name
dither_module = importlib.import_module("sinkdiv.dither")


@pytest.fixture
def square():
    return BoundingBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def smoothed_cost(box, c=1e-2):
    return NegatedKernel(SmoothedNegativeDistance(box, c=c))


# ---------------------------------------------------------------------------
# cost resolution
# ---------------------------------------------------------------------------

def test_distance_cost_is_smoothed(square):
    cfg = DitherConfig(M=3, epsilon=1.0, cost=AbsDistance(square), smoothing=0.05)
    resolved = resolve_cost(cfg)
    assert isinstance(resolved, NegatedKernel)
    assert isinstance(resolved.kernel, SmoothedNegativeDistance)
    assert resolved.kernel.c == 0.05

def test_smooth_cost_kept(square):
    cost = smoothed_cost(square)
    cfg = DitherConfig(M=3, epsilon=1.0, cost=cost)
    assert resolve_cost(cfg) is cost

@pytest.mark.parametrize("cost", [
    lambda box: NegatedKernel(WendlandPower(box, p=2)),
    lambda box: NegatedKernel(CpdShifted(NegativeDistance(box), box.lower)),
    lambda box: PowerDistance(box, p=0.5),
], ids=["WendlandPower", "CpdShifted(NegativeDistance)", "PowerDistance(0.5)"])
def test_cost_without_gradient_at_coincident_points_rejected(square, cost):
    # the run used to fail only at the first gradient, after the first solves
    cfg = DitherConfig(M=3, epsilon=1.0, cost=cost(square))
    with pytest.raises(NonDifferentiablePointError, match=r"\bcost\b"):
        resolve_cost(cfg)
    target = sample_grid_density(lambda x: 1.0, square, 6)
    with pytest.raises(NonDifferentiablePointError, match=r"\bcost\b"):
        dither(cfg, target)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_epsilon_non_positive_or_nan_rejected(square, value):
    with pytest.raises(ValueError, match="epsilon"):
        DitherConfig(M=2, epsilon=value, cost=AbsDistance(square))

@pytest.mark.parametrize("key, value", [
    # NaN would never meet the gradient tolerance, so every outer step runs
    ("grad_tol", -1e-6), ("grad_tol", math.nan),
    # an infinite tolerance stops every run at step 0, flagged converged
    ("grad_tol", math.inf), ("inner_tol", math.inf),
])
def test_step_and_gradient_tolerance_outside_range_rejected(square, key, value):
    with pytest.raises(ValueError, match=key):
        DitherConfig(M=2, epsilon=1.0, cost=AbsDistance(square), **{key: value})

@pytest.mark.parametrize("key, value", [
    # zero inner iterations score unsolved potentials (a negative S_eps)
    ("inner_max_iter", 0), ("inner_max_iter", -3),
    ("max_outer_iter", -1),
    # range() and numpy's generators take no float or bool, and a budget of
    # 1.5 would run 2 outer steps
    ("M", 2.5), ("M", True), ("max_outer_iter", 1.5), ("max_outer_iter", 3.0),
    ("inner_max_iter", 2.5), ("inner_max_iter", False), ("seed", 1.5), ("seed", True),
    # the smoothed kernel's width: SmoothedNegativeDistance raises on c <= 0
    # and NaN reaches the solver as non-finite coordinates
    ("smoothing", 0.0), ("smoothing", -1.0), ("smoothing", math.nan), ("smoothing", math.inf),
    # the kernel's own rule: a width whose square underflows or overflows
    ("smoothing", 1e-200), ("smoothing", 1e200),
])
def test_iteration_budgets_and_smoothing_outside_range_rejected(square, key, value):
    with pytest.raises(ValueError, match=key):
        DitherConfig(**{"M": 2, key: value}, epsilon=1.0, cost=AbsDistance(square))

def test_integer_fields_take_numpy_integers(square):
    cfg = DitherConfig(M=np.int64(2), epsilon=1.0, cost=AbsDistance(square), seed=np.uint32(3),
                       max_outer_iter=np.int32(4), inner_max_iter=np.int64(5))
    assert (cfg.M, cfg.seed, cfg.max_outer_iter, cfg.inner_max_iter) == (2, 3, 4, 5)
    assert SinkhornConfig(epsilon=1.0, max_iter=np.int64(7)).max_iter == 7

def test_negative_seed_rejected(square):
    # numpy's generators take only non-negative seeds
    with pytest.raises(ValueError, match="seed"):
        DitherConfig(M=2, epsilon=1.0, cost=AbsDistance(square), seed=-1)

def test_zero_outer_budget_accepted(square):
    cfg = DitherConfig(M=2, epsilon=1.0, cost=AbsDistance(square), max_outer_iter=0)
    assert cfg.max_outer_iter == 0

def test_zero_gradient_tolerance_accepted(square):
    assert DitherConfig(M=2, epsilon=1.0, cost=AbsDistance(square), grad_tol=0.0).grad_tol == 0.0


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_zero_at_self_approximation(square):
    rng = np.random.default_rng(0)
    pts = rng.random((4, 2))
    target = uniform(pts)
    for eps in [math.inf, 0.5]:
        cfg = DitherConfig(M=4, epsilon=eps, cost=smoothed_cost(square))
        assert abs(objective(cfg, target, pts)) <= 1e-8

def test_objective_matches_sinkhorn_divergence(square):
    rng = np.random.default_rng(1)
    target = DiscreteMeasure.normalized(rng.random((9, 2)), rng.random(9) + 0.1)
    pos = rng.random((3, 2))
    cost = smoothed_cost(square)
    cfg = DitherConfig(M=3, epsilon=0.7, cost=cost, inner_tol=1e-11)
    direct = sinkhorn_divergence(
        cost, target, uniform(pos), SinkhornConfig(epsilon=0.7, tol=1e-11)
    )
    assert objective(cfg, target, pos) == pytest.approx(direct.s_eps, abs=1e-9)

def test_objective_infinite_matches_halftoning_identity(square):
    rng = np.random.default_rng(2)
    target = DiscreteMeasure.normalized(rng.random((8, 2)), rng.random(8) + 0.1)
    pos = rng.random((3, 2))
    cost = smoothed_cost(square)
    cfg = DitherConfig(M=3, epsilon=math.inf, cost=cost)
    kernel = cost.kernel
    self_term = 0.5 * float(
        target.weights @ kernel.gram(target.points, target.points) @ target.weights
    )
    assert objective(cfg, target, pos) == pytest.approx(
        halftoning_energy(kernel, target, pos) + self_term, abs=1e-10
    )
    assert objective(cfg, target, pos) == pytest.approx(
        0.5 * discrepancy(kernel, target, uniform(pos)).squared, abs=1e-12
    )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_mirror_antisymmetry(square):
    # mirror-placed atoms against a mirror-symmetric target: gradient
    # components reflect accordingly
    target = uniform(np.array([[-0.5, 0.0], [0.5, 0.0]]))
    pos = np.array([[-0.3, 0.0], [0.3, 0.0]])
    for eps in [math.inf, 0.5]:
        cfg = DitherConfig(M=2, epsilon=eps, cost=smoothed_cost(square))
        g = gradient(cfg, target, pos)
        assert g[0, 0] == pytest.approx(-g[1, 0], abs=1e-9)
        assert g[0, 1] == pytest.approx(g[1, 1], abs=1e-9)

def _fd_gradient(cfg, target, pos, h=1e-5):
    g = np.zeros_like(pos)
    for j in range(pos.shape[0]):
        for k in range(pos.shape[1]):
            up = pos.copy()
            up[j, k] += h
            down = pos.copy()
            down[j, k] -= h
            g[j, k] = (objective(cfg, target, up) - objective(cfg, target, down)) / (2 * h)
    return g

@pytest.mark.parametrize("eps", [math.inf, 1.0, 0.1])
def test_gradient_matches_finite_differences(square, eps):
    rng = np.random.default_rng(3)
    for _ in range(4):
        n = int(rng.integers(5, 26))
        m_count = int(rng.integers(1, 6))
        target = DiscreteMeasure.normalized(
            square.lower + 2 * rng.random((n, 2)), rng.random(n) + 0.05
        )
        pos = square.lower + 2 * rng.random((m_count, 2))
        cfg = DitherConfig(M=m_count, epsilon=eps, cost=smoothed_cost(square),
                           inner_tol=1e-12)
        g = gradient(cfg, target, pos)
        fd = _fd_gradient(cfg, target, pos)
        rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel <= 1e-4


# ---------------------------------------------------------------------------
# descent loop
# ---------------------------------------------------------------------------

def test_single_atom_finds_center_of_symmetric_target(square):
    density = lambda x: math.exp(-9.0 * float(x @ x) / 2.0)
    target = sample_grid_density(density, square, 20)
    cfg = DitherConfig(M=1, epsilon=math.inf, cost=AbsDistance(square), seed=3,
                       grad_tol=1e-10, max_outer_iter=200)
    state = dither(cfg, target)
    assert np.max(np.abs(state.positions)) <= 1e-3
    # independent check: dense scan of the one-atom objective
    grid = np.linspace(-0.15, 0.15, 31)
    best = min(
        ((x, y) for x in grid for y in grid),
        key=lambda p: objective(cfg, target, np.array([p])),
    )
    assert np.max(np.abs(np.array(best))) <= 1e-12

def test_energy_trace_monotone(square):
    density = lambda x: math.exp(-9.0 * float(x @ x) / 2.0)
    target = sample_grid_density(density, square, 12)
    cfg = DitherConfig(M=6, epsilon=math.inf, cost=AbsDistance(square), seed=5,
                       max_outer_iter=40)
    state = dither(cfg, target)
    energies = [rec["energy"] for rec in state.trace]
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))
    assert state.energy == energies[-1]

def test_line_search_starts_at_one_and_halves_on_rejection(square):
    # each search tries the unit step first and halves it on each rejection,
    # so it takes 1 + log2(1 / step) trials, every one an energy evaluation
    density = lambda x: math.exp(-9.0 * float(x @ x) / 2.0)
    target = sample_grid_density(density, square, 12)
    cfg = DitherConfig(M=6, epsilon=math.inf, cost=AbsDistance(square), seed=5,
                       max_outer_iter=40)
    state = dither(cfg, target)
    assert len(state.trace) > 1
    trials = [1 - math.log2(rec["step"]) for rec in state.trace[1:]]
    assert all(t == int(t) and t >= 1 for t in trials)
    assert any(t > 1 for t in trials)
    assert state.energy_evaluations == 1 + sum(trials)

@pytest.mark.parametrize("eps, seed", [(0.15, 1), (math.inf, 4)])
def test_clipped_quasi_newton_step_falls_back_to_the_gradient(monkeypatch, square, eps, seed):
    # a clipped trial that is not a descent step clears the memory and the
    # search restarts along -grad; the memory's newest pair survives every
    # step that does not clear it, so its loss marks a restart. The target's
    # 25 atoms fill the corner cell [0.99, 1]^2, where the quasi-Newton steps
    # of the atoms chasing them overshoot the box
    axis = np.linspace(0.99, 1.0, 5)
    target = uniform(np.array([[a, b] for a in axis for b in axis]))
    cfg = DitherConfig(M=2, epsilon=eps, cost=AbsDistance(square), seed=seed, max_outer_iter=60)
    memories = []
    direction = dither_module._quasi_newton_direction

    def recorded(grad, memory):
        memories.append(list(memory))
        return direction(grad, memory)

    monkeypatch.setattr(dither_module, "_quasi_newton_direction", recorded)
    state = dither(cfg, target)
    restarts = sum(1 for old, new in zip(memories, memories[1:])
                   if old and not any(pair is old[-1] for pair in new))
    assert restarts >= 1
    energies = [rec["energy"] for rec in state.trace]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert np.all((square.lower <= state.positions) & (state.positions <= square.upper))
    assert state.converged or state.line_search_failed
    rerun = dither(cfg, target)
    assert np.array_equal(rerun.positions, state.positions)
    assert rerun.trace == state.trace

def test_dither_loads_no_scipy_optimizer():
    # a fresh interpreter, so modules other tests imported do not count
    src = os.path.dirname(os.path.dirname(dither_module.__file__))
    code = ("import math, sys, warnings\n"
            "import numpy as np\n"
            "from sinkdiv import AbsDistance, BoundingBox, dither, uniform\n"
            "from sinkdiv.dither import DitherConfig\n"
            "box = BoundingBox(np.zeros(2), np.ones(2))\n"
            "target = uniform(np.random.default_rng(0).random((20, 2)))\n"
            "for eps in (0.5, math.inf):\n"
            "    dither(DitherConfig(M=2, epsilon=eps, cost=AbsDistance(box), max_outer_iter=5),"
            " target)\n"
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"

def test_infinite_epsilon_descent_with_non_kernel_cost(square):
    # for c = |x - y|^2 the limit of S_eps is the squared distance of the means
    density = lambda x: math.exp(-9.0 * float(x @ x) / 2.0)
    target = sample_grid_density(density, square, 10)
    cfg = DitherConfig(M=4, epsilon=math.inf, cost=PowerDistance(square, p=2.0), seed=4,
                       max_outer_iter=20)
    state = dither(cfg, target)
    energies = [rec["energy"] for rec in state.trace]
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))
    mean_gap = target.weights @ target.points - state.positions.mean(axis=0)
    assert state.energy == pytest.approx(float(mean_gap @ mean_gap), abs=1e-12)
    assert state.energy < 1e-3 * energies[0]

def test_finite_epsilon_descent(square):
    density = lambda x: math.exp(-9.0 * float(x @ x) / 2.0)
    target = sample_grid_density(density, square, 10)
    cfg = DitherConfig(M=4, epsilon=0.5, cost=AbsDistance(square), seed=6,
                       max_outer_iter=25)
    state = dither(cfg, target)
    energies = [rec["energy"] for rec in state.trace]
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))
    assert state.energy < energies[0]

def test_seed_determinism(square):
    density = lambda x: math.exp(-9.0 * float(x @ x) / 2.0)
    target = sample_grid_density(density, square, 10)
    cfg = DitherConfig(M=5, epsilon=math.inf, cost=AbsDistance(square), seed=11,
                       max_outer_iter=30)
    a = dither(cfg, target)
    b = dither(cfg, target)
    assert np.array_equal(a.positions, b.positions)
    assert a.trace == b.trace

def test_sampling_ratio_warning(square):
    target = uniform(np.array([[0.0, 0.0], [0.5, 0.5]]))
    cfg = DitherConfig(M=2, epsilon=math.inf, cost=AbsDistance(square), seed=0,
                       max_outer_iter=1)
    with pytest.warns(UserWarning, match="sampling"):
        dither(cfg, target)

def test_line_search_failure_returns_best_state(square):
    # with a zero gradient tolerance the loop descends to machine precision
    # and the final line search cannot make progress; the failure is recorded
    # and the best state is returned
    target = uniform(np.array([[0.0, 0.0]]))
    cfg = DitherConfig(M=1, epsilon=math.inf, cost=AbsDistance(square), seed=1,
                       grad_tol=0.0, max_outer_iter=500)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = dither(cfg, target)
    assert state.line_search_failed or state.converged
    assert np.isfinite(state.energy)
    energies = [rec["energy"] for rec in state.trace]
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))

def test_at_convergence_gradient_below_tolerance(square):
    density = lambda x: math.exp(-9.0 * float(x @ x) / 2.0)
    target = sample_grid_density(density, square, 15)
    cfg = DitherConfig(M=2, epsilon=math.inf, cost=AbsDistance(square), seed=2,
                       grad_tol=1e-8, max_outer_iter=500)
    state = dither(cfg, target)
    assert state.converged
    assert np.max(np.abs(state.grad)) <= 1e-8

def test_epsilon_below_the_rounding_of_the_potentials_raises_naming_it(square):
    # exp((phi + psi - C) / eps) overflows in the plans, whose contraction
    # then gave a NaN gradient and NaN candidate positions
    target = uniform(np.array([[0.1 * k - 0.95, 0.0] for k in range(20)]))
    cfg = DitherConfig(M=2, epsilon=1e-300, cost=AbsDistance(square), max_outer_iter=1,
                       inner_max_iter=50)
    with pytest.raises(NonFiniteValueError, match="epsilon"):
        dither(cfg, target)

def test_unconverged_inner_solves_counted(square):
    density = lambda x: math.exp(-9.0 * float(x @ x) / 2.0)
    target = sample_grid_density(density, square, 10)
    cfg = DitherConfig(M=4, epsilon=0.15, cost=AbsDistance(square), seed=6,
                       max_outer_iter=5, inner_max_iter=1)
    assert dither(cfg, target).inner_unconverged > 0

@pytest.mark.parametrize("eps", [0.15, math.inf])
def test_default_inner_budget_converges_every_solve(square, eps):
    density = lambda x: math.exp(-9.0 * float(x @ x) / 2.0)
    target = sample_grid_density(density, square, 10)
    cfg = DitherConfig(M=4, epsilon=eps, cost=AbsDistance(square), seed=6, max_outer_iter=10)
    assert dither(cfg, target).inner_unconverged == 0


# ---------------------------------------------------------------------------
# input checks at the entry points
# ---------------------------------------------------------------------------

def _unit_box():
    return BoundingBox(np.zeros(2), np.ones(2))

def _inside_target():
    return sample_grid_density(lambda x: 1.0, _unit_box(), 4)

def _call_entry(entry, target, positions):
    cfg = DitherConfig(M=4, epsilon=0.5, cost=AbsDistance(_unit_box()), max_outer_iter=2)
    if entry == "dither":
        return dither(cfg, target)
    return {"objective": objective, "gradient": gradient}[entry](cfg, target, positions)

_GOOD_POSITIONS = np.array([[0.2, 0.2], [0.8, 0.2], [0.2, 0.8], [0.8, 0.8]])

_BAD_POSITIONS = {
    # outside and seven returned a number before the entry points checked them
    "outside": (np.full((4, 2), 5.0), PointOutsideBoxError),
    "seven": (np.full((7, 2), 0.5), DimensionMismatchError),
    "one_axis": (np.full(4, 0.5), DimensionMismatchError),
    "nan": (np.where(_GOOD_POSITIONS == 0.8, np.nan, _GOOD_POSITIONS), NonFiniteValueError),
}

@pytest.mark.parametrize("entry", ["objective", "gradient"])
@pytest.mark.parametrize("case", sorted(_BAD_POSITIONS))
def test_entry_points_reject_bad_positions(entry, case):
    positions, error = _BAD_POSITIONS[case]
    with pytest.raises(error):
        _call_entry(entry, _inside_target(), positions)

@pytest.mark.filterwarnings("ignore:target has:UserWarning")
@pytest.mark.parametrize("entry", ["dither", "objective", "gradient"])
def test_entry_points_reject_target_outside_the_box(entry):
    target = _inside_target()
    shifted = DiscreteMeasure(target.points + 3.0, target.weights)
    with pytest.raises(PointOutsideBoxError):
        _call_entry(entry, shifted, _GOOD_POSITIONS)

# ---------------------------------------------------------------------------
# energy evaluations and the cost matrices the gradient reads
# ---------------------------------------------------------------------------

def test_energy_evaluations_one_without_steps(square):
    target = sample_grid_density(lambda x: math.exp(-9.0 * float(x @ x) / 2.0), square, 10)
    cfg = DitherConfig(M=4, epsilon=0.5, cost=AbsDistance(square), max_outer_iter=0)
    assert dither(cfg, target).energy_evaluations == 1

@pytest.mark.parametrize("eps", [0.5, math.inf])
def test_energy_evaluations_count_cross_solves(monkeypatch, square, eps):
    # one energy evaluation is one cross solve: the initial one plus every
    # line-search candidate
    target = sample_grid_density(lambda x: math.exp(-9.0 * float(x @ x) / 2.0), square, 10)
    # a seed on which both searches reject candidates, so that they are seen counted
    cfg = DitherConfig(M=4, epsilon=eps, cost=AbsDistance(square), seed=8, max_outer_iter=8)
    cross = []

    def counted(cost, mu, nu, *args, **kwargs):
        cross.append(mu is not nu)
        return solve(cost, mu, nu, *args, **kwargs)

    monkeypatch.setattr(dither_module, "solve", counted)
    state = dither(cfg, target)
    assert state.energy_evaluations == sum(cross)
    assert state.energy_evaluations > len(state.trace)

@pytest.mark.parametrize("eps", [0.5, math.inf])
def test_accepted_iterates_compute_no_distances(monkeypatch, square, eps):
    # one squared-distance matrix for the target's self term and one per cost
    # matrix of an energy evaluation; the gradient reads the evaluation's
    # matrices (pairwise_distances, the distance route, would count too)
    target = sample_grid_density(lambda x: math.exp(-9.0 * float(x @ x) / 2.0), square, 16)
    assert len(target) <= 256  # each matrix is one row block
    cfg = DitherConfig(M=5, epsilon=eps, cost=AbsDistance(square), seed=3, max_outer_iter=12)
    calls = []
    distances = kernels.squared_distances

    def counted(xs, ys):
        calls.append(1)
        return distances(xs, ys)

    monkeypatch.setattr(kernels, "squared_distances", counted)
    state = dither(cfg, target)
    assert len(state.trace) > 1
    assert len(calls) == 1 + 2 * state.energy_evaluations

@pytest.mark.parametrize("eps", [0.15, math.inf])
def test_gradient_solves_no_target_self_term(monkeypatch, square, eps):
    # the gradient reads the cross and self plans only; OT_eps(target,
    # target), constant in the positions, is never solved for it
    target = sample_grid_density(lambda x: math.exp(-9.0 * float(x @ x) / 2.0), square, 30)
    rng = np.random.default_rng(17)
    positions = square.lower + rng.random((50, 2)) * (square.upper - square.lower)
    cfg = DitherConfig(M=50, epsilon=eps, cost=AbsDistance(square))
    shapes = []

    def recorded(cost, mu, nu, *args, **kwargs):
        shapes.append((len(mu), len(nu)))
        assert not (mu is target and nu is target)
        return solve(cost, mu, nu, *args, **kwargs)

    monkeypatch.setattr(dither_module, "solve", recorded)
    gradient(cfg, target, positions)
    assert shapes == [(900, 50), (50, 50)]

@pytest.mark.parametrize("make_cost", [
    AbsDistance,
    lambda box: NegatedKernel(Gaussian(box, c=0.5)),
    lambda box: NegatedKernel(CpdShifted(SmoothedNegativeDistance(box, c=0.05), box.lower)),
    lambda box: PowerDistance(box, p=2.0),
], ids=["smoothed distance", "Gaussian", "CpdShifted", "PowerDistance"])
def test_infinite_epsilon_gradient_builds_no_plan(monkeypatch, square, make_cost):
    # the independent couplings are contracted from the weights: the factor
    # from the cost matrix (smoothed distance, Gaussian), the anchor shift's
    # column sums, and the distance route; no solution's plan is read
    target = sample_grid_density(lambda x: math.exp(-9.0 * float(x @ x) / 2.0), square, 12)
    rng = np.random.default_rng(19)
    positions = square.lower + rng.random((20, 2)) * (square.upper - square.lower)
    cfg = DitherConfig(M=20, epsilon=math.inf, cost=make_cost(square))
    cost, nu_p = resolve_cost(cfg), uniform(positions)
    ref = (cost.plan_grad_y(target.points, positions, np.outer(target.weights, nu_p.weights))
           - cost.plan_grad_y(positions, positions, np.outer(nu_p.weights, nu_p.weights)))

    def no_plan(self):
        raise AssertionError("a dense plan was built")

    monkeypatch.setattr(SinkhornSolution, "plan", property(no_plan))
    got = gradient(cfg, target, positions)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

@pytest.mark.parametrize("eps", [0.15, math.inf])
def test_gradient_matches_pairwise_contraction_of_the_plans(square, eps):
    # the envelope gradient on the criterion-11 target equals the einsum of
    # the per-pair gradients with the cross and self plans
    target = sample_grid_density(lambda x: math.exp(-9.0 * float(x @ x) / 2.0), square, 30)
    rng = np.random.default_rng(17)
    positions = square.lower + rng.random((50, 2)) * (square.upper - square.lower)
    cfg = DitherConfig(M=50, epsilon=eps, cost=AbsDistance(square))
    cost = resolve_cost(cfg)
    config = SinkhornConfig(epsilon=eps, max_iter=cfg.inner_max_iter, tol=cfg.inner_tol)
    nu_p = uniform(positions)
    cross = solve(cost, target, nu_p, config)
    self_p = solve(cost, nu_p, nu_p, config)
    ref = (np.einsum("ij,ijk->jk", cross.plan.matrix,
                     cost.pairwise_grad_y(target.points, positions))
           - np.einsum("ij,ijk->jk", self_p.plan.matrix,
                       cost.pairwise_grad_y(positions, positions)))
    got = gradient(cfg, target, positions)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
