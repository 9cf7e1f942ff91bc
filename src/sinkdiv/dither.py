"""Dithering: approximate a target measure by M equal-weight atoms.

Minimizes the Sinkhorn divergence between the target and the empirical
measure of the atom positions by a projected L-BFGS descent on the bounding
box. Each step searches along d = -H grad, H the inverse-Hessian
approximation of the last _MEMORY accepted steps' pairs (s, y) with s.y > 0
(Nocedal 1980, Math. Comp. 35), trying clip(x + t d) for t = 1, 1/2, 1/4, ...
(_SHRINK) until the Armijo test with constant _ARMIJO holds. A trial whose
clipped displacement is not a descent step clears the memory and restarts
the search along -grad. The gradient is the envelope gradient through the
optimal plans; at infinite regularization those are the independent
couplings, and for a kernel-backed cost the objective is half the squared
discrepancy.

The gradient sum_i P_ij grad_y c(x_i, y_j) is one plan-weighted contraction
per plan (Cost.plan_grad_y), with no (n, m, d) gradient array. An energy
evaluation solves the target-to-positions and positions-to-positions
problems and keeps the two solutions, each with the cost matrix it solved
on. Only the accepted iterates, whose gradient is taken, build their dense
plans, and none builds a duality gap; at infinite regularization the plan is
the independent coupling, the outer product of the weights. The contraction
reads h'(r)/r from each solution's matrix wherever the profile gives it in
closed form (1/C for the smoothed distance cost that replaces kinked costs,
-2h/c^2 for a Gaussian), so an accepted iterate computes no distances. Other
costs take h'(r)/r from the distances.

The public entry points check their inputs once per call: the target
against the cost's box, and given positions for shape (M, d), finiteness
and the box. Line-search candidates are clipped into the box, so the
energy evaluations inside a run check nothing again.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    Cost,
    NegatedKernel,
    NegativeDistance,
    ShiftedNegativeDistance,
    SmoothedNegativeDistance,
    kernel_for_cost,
)
from .errors import (
    DimensionMismatchError,
    NonDifferentiablePointError,
    NonFiniteValueError,
    NotNegatedKernelError,
)
from .measures import DiscreteMeasure, _check_integer, _positive, uniform, validate
from .sinkhorn import SinkhornConfig, SinkhornSolution, solve

# The search's constants, the same for every run. Pairs (s, y) kept for the
# inverse-Hessian approximation: within the 3 to 20 that Nocedal & Wright
# (Numerical Optimization, 7.2) find enough, and each one more costs two
# passes over the (M, d) positions per direction.
_MEMORY = 8
# Trial steps 1, 1/2, 1/4, ...: a failing search reaches the 1e-14 floor in 47 trials.
_SHRINK = 0.5
# The customary Armijo constant (Nocedal & Wright, Numerical Optimization,
# 3.1): positive, so no energy increase is accepted, and small, so nearly
# every step along which the energy falls is.
_ARMIJO = 1e-4


@dataclass(frozen=True)
class DitherConfig:
    """Configuration of one dithering run.

    epsilon may be infinite, where the objective is the limit of S_eps: half
    the squared discrepancy for a kernel-backed cost (c = -K), and defined for
    any cost. Costs with a distance kink at coincident points are replaced by
    the smoothed negative-distance kernel (width `smoothing`, checked by that
    kernel's rule) at resolution time, since the line search needs a gradient
    everywhere; any other cost without a gradient at coincident points is
    rejected. The search's constants are fixed: each step goes along the
    L-BFGS direction of the last _MEMORY = 8 accepted steps, with trial
    steps 1, 1/2, 1/4, ... (_SHRINK) down to 1e-14 and Armijo constant
    _ARMIJO = 1e-4; a clipped trial that is not a descent step clears the
    memory and restarts along the negative gradient from step 1.
    """

    M: int
    epsilon: float
    cost: Cost
    max_outer_iter: int = 500
    grad_tol: float = 1e-6
    seed: int = 0
    inner_tol: float = 1e-9
    inner_max_iter: int = 10_000
    smoothing: float = 1e-2

    def __post_init__(self):
        # zero inner iterations would score unsolved potentials, and numpy's
        # generators take only non-negative seeds
        for name, minimum in (("M", 1), ("max_outer_iter", 0), ("inner_max_iter", 1), ("seed", 0)):
            _check_integer("DitherConfig", name, getattr(self, name), minimum)
        # the positions are one (M, d) array, which numpy must be able to index
        if self.M * self.cost.box.dim > np.iinfo(np.intp).max // 8:
            raise ValueError("DitherConfig requires an (M, d) array numpy can index, "
                             f"got M = {self.M}")
        _positive("DitherConfig", "epsilon", self.epsilon, infinite=True)
        _positive("DitherConfig", "inner_tol", self.inner_tol)
        _positive("DitherConfig", "grad_tol", self.grad_tol, minimum=0)
        _positive("DitherConfig", "smoothing", self.smoothing, squared=True)


@dataclass
class DitherState:
    """Final positions plus the full optimization trace."""

    positions: np.ndarray
    energy: float
    grad: np.ndarray
    trace: list = field(repr=False)
    converged: bool = False
    line_search_failed: bool = False
    #: inner Sinkhorn solves (target self term included) that hit inner_max_iter
    inner_unconverged: int = 0
    #: energy evaluations: the initial one plus every line-search candidate
    energy_evaluations: int = 0


def resolve_cost(cfg: DitherConfig) -> Cost:
    """Replace distance-family costs by the smoothed variant; keep the rest.

    A kept cost with no gradient at coincident points raises
    NonDifferentiablePointError naming the cost, before anything is solved.
    """
    cost = cfg.cost
    try:
        kernel = kernel_for_cost(cost)
    except NotNegatedKernelError:
        kernel = None
    # the distance costs are those whose kernel is a (shifted) negative distance
    if isinstance(kernel, (NegativeDistance, ShiftedNegativeDistance)):
        return NegatedKernel(SmoothedNegativeDistance(cost.box, c=cfg.smoothing))
    if not cost.smooth_at_zero:
        name = cost.variant
        if isinstance(cost, NegatedKernel):
            name += f"({cost.kernel.variant})"
        raise NonDifferentiablePointError(
            f"cost {name} has no gradient at coincident points, which dithering needs")
    return cost


def _check_sampling_ratio(cfg: DitherConfig, target: DiscreteMeasure):
    if len(target) < 10 * cfg.M:
        warnings.warn(
            f"target has {len(target)} atoms for M = {cfg.M}; sampling below 10x "
            "the atom count tends to cluster the dithered measure",
            stacklevel=3,
        )


def _checked_positions(cfg: DitherConfig, positions) -> np.ndarray:
    """positions as an (M, d) float array, finite and inside the cost's box."""
    box = cfg.cost.box
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (cfg.M, box.dim):
        raise DimensionMismatchError(
            f"positions must have shape ({cfg.M}, {box.dim}), got {positions.shape}"
        )
    # the measure raises on a non-finite coordinate, validate on one outside the box
    validate(uniform(positions), box)
    return positions


def objective(cfg: DitherConfig, target: DiscreteMeasure, positions) -> float:
    """S_eps(target, nu_p) for the uniform measure nu_p on the positions.

    At infinite regularization this is the limit of S_eps, which for a
    kernel-backed cost is half the squared discrepancy, target self-term
    included.
    """
    validate(target, cfg.cost.box)
    positions = _checked_positions(cfg, positions)
    return _Run(cfg, target).energy_and_solutions(positions)[0]


def gradient(cfg: DitherConfig, target: DiscreteMeasure, positions) -> np.ndarray:
    """Gradient of the objective in the atom positions, shape (M, d); solves no target self-term."""
    validate(target, cfg.cost.box)
    positions = _checked_positions(cfg, positions)
    run = _Run(cfg, target)
    return _envelope_gradient(run.cost, *run.solutions(positions))


def _envelope_gradient(cost: Cost, cross: SinkhornSolution, self_p: SinkhornSolution) -> np.ndarray:
    # Dual values differentiated only through the cost entries, potentials
    # held fixed at their converged values. The half on the self term cancels
    # because each position appears in both marginals of the self plan, which
    # is symmetric to the stopping tolerance (psi = T(phi) ends the solve).
    # Each plan is contracted on its own solution's points and cost matrix,
    # which give h'(r)/r wherever the profile has it in closed form; other
    # costs recompute the distances. At eps = inf the plan is the independent
    # coupling, which the solution builds as the outer product of the weights.
    def contraction(sol):
        return cost.plan_grad_y(sol.mu.points, sol.nu.points, sol.plan.matrix, sol.cost_matrix)

    # the solve rejects an eps below the rounding of span(C), but the plans'
    # exponents (phi + psi - C) / eps round with the size of C, so a cost far
    # from 0 against its span may still overflow one
    with np.errstate(invalid="ignore", over="ignore"):
        grad = contraction(cross) - contraction(self_p)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteValueError(f"epsilon = {cross.potentials.epsilon!r} is too small")
    return grad


class _Run:
    """Shared state of one dithering run.

    Warm starts, the constant target self-term (solved by the first energy
    evaluation), the count of inner solves that stopped at max_iter and the
    count of energy evaluations.
    """

    def __init__(self, cfg: DitherConfig, target: DiscreteMeasure):
        self.cost = resolve_cost(cfg)
        self.target = target
        self.inner = SinkhornConfig(epsilon=cfg.epsilon, max_iter=cfg.inner_max_iter,
                                    tol=cfg.inner_tol)
        self.unconverged = 0
        self.evaluations = 0
        self.target_term = None
        self.psi_cross = None
        self.phi_self = None

    def _solve(self, mu, nu, psi0):
        solution = solve(self.cost, mu, nu, self.inner, psi0=psi0)
        self.unconverged += not solution.converged
        return solution

    def solutions(self, positions: np.ndarray):
        """(cross, self) at the positions, each with its cost matrix; warm-starts the next call."""
        nu_p = uniform(positions)
        cross = self._solve(self.target, nu_p, self.psi_cross)
        self_p = self._solve(nu_p, nu_p, self.phi_self)
        self.psi_cross = cross.potentials.psi
        self.phi_self = self_p.potentials.phi
        return cross, self_p

    def energy_and_solutions(self, positions: np.ndarray):
        """Energy at the positions and (cross, self)."""
        self.evaluations += 1
        if self.target_term is None:
            # -OT_eps(target, target) / 2, constant in the positions
            self.target_term = -0.5 * self._solve(self.target, self.target, None).value
        cross, self_p = self.solutions(positions)
        return cross.value + self.target_term - 0.5 * self_p.value, (cross, self_p)


def _quasi_newton_direction(grad: np.ndarray, memory: list) -> np.ndarray:
    """-H grad by the L-BFGS two-loop recursion over the kept (s, y) pairs, oldest first.

    H is the inverse-Hessian approximation of the pairs with initial scaling
    s.y / y.y of the newest pair (Nocedal & Wright, Numerical Optimization,
    Algorithm 7.4); an empty memory gives -grad.
    """
    if not memory:
        return -grad
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alpha = rho * float(np.vdot(s, q))
        q -= alpha * y
        alphas.append(alpha)
    s, y, rho = memory[-1]
    q *= 1.0 / (rho * float(np.vdot(y, y)))
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        q += (alpha - rho * float(np.vdot(y, q))) * s
    return -q


def dither(cfg: DitherConfig, target: DiscreteMeasure) -> DitherState:
    """Projected L-BFGS descent with an Armijo line search from seeded positions.

    The search is set out in the module docstring. Stops on the gradient
    tolerance, the outer iteration cap, a step the box absorbs whole along
    -grad (stationary on the boundary, flagged converged), or a line-search
    step underflow (below 1e-14, recorded in the state, not fatal). The
    energy trace is non-increasing by construction.
    """
    validate(target, cfg.cost.box)
    _check_sampling_ratio(cfg, target)
    box = cfg.cost.box
    rng = np.random.default_rng(cfg.seed)
    positions = box.lower + rng.random((cfg.M, box.dim)) * (box.upper - box.lower)

    run = _Run(cfg, target)
    energy, solutions = run.energy_and_solutions(positions)
    grad = _envelope_gradient(run.cost, *solutions)
    grad_norm = float(np.max(np.abs(grad)))
    trace = [{"iter": 0, "energy": energy, "grad_norm": grad_norm, "step": 0.0}]
    converged = grad_norm <= cfg.grad_tol
    failed = False
    # (s, y, 1 / s.y) of the last _MEMORY accepted steps with s.y > 0
    memory = []

    it = 0
    while not converged and it < cfg.max_outer_iter:
        it += 1
        direction = _quasi_newton_direction(grad, memory)
        step = 1.0
        accepted = False
        while step >= 1e-14:
            candidate = np.clip(positions + step * direction, box.lower, box.upper)
            move = candidate - positions
            decrease = float(np.vdot(grad, move))
            if memory and not decrease < 0.0:
                # the projection turned the quasi-Newton step away from descent
                memory.clear()
                direction, step = -grad, 1.0
                continue
            if not np.any(move):
                # projection absorbs the whole step: stationary on the boundary
                converged = True
                break
            cand_energy, cand_solutions = run.energy_and_solutions(candidate)
            if cand_energy <= energy + _ARMIJO * decrease:
                accepted = True
                break
            step *= _SHRINK
        if converged:
            break
        if not accepted:
            failed = True
            break
        cand_grad = _envelope_gradient(run.cost, *cand_solutions)
        grad_change = cand_grad - grad
        curvature = float(np.vdot(move, grad_change))
        if curvature > 0.0:
            memory.append((move, grad_change, 1.0 / curvature))
            del memory[:-_MEMORY]
        positions, energy, grad = candidate, cand_energy, cand_grad
        grad_norm = float(np.max(np.abs(grad)))
        trace.append({"iter": it, "energy": energy, "grad_norm": grad_norm, "step": step})
        converged = grad_norm <= cfg.grad_tol

    return DitherState(
        positions=positions,
        energy=energy,
        grad=grad,
        trace=trace,
        converged=converged,
        line_search_failed=failed,
        inner_unconverged=run.unconverged,
        energy_evaluations=run.evaluations,
    )
