"""Dithering: approximate a target measure by M equal-weight atoms.

Minimizes the Sinkhorn divergence between the target and the empirical
measure of the atom positions, using projected gradient descent with Armijo
backtracking onto the bounding box. The gradient is the envelope gradient
through the optimal plans; at infinite regularization those are the
independent couplings, and for a kernel-backed cost the objective is half the
squared discrepancy.

The gradient sum_i P_ij grad_y c(x_i, y_j) is one plan-weighted contraction
per plan (Cost.plan_grad_y), with no (n, m, d) gradient array. An energy
evaluation solves the target-to-positions and positions-to-positions
problems and keeps the two solutions, each with the cost matrix it solved
on. Only the accepted iterates, whose gradient is taken, build their dense
plans, and the contraction reads h'(r)/r from each solution's matrix
wherever the profile gives it in closed form (1/C for the smoothed distance
cost that replaces kinked costs, -2h/c^2 for a Gaussian), so an accepted
iterate computes no distances. Other costs take h'(r)/r from the distances.

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
    AbsDistance,
    Cost,
    NegatedKernel,
    NegativeDistance,
    PowerDistance,
    ShiftedNegativeDistance,
    SmoothedNegativeDistance,
)
from .errors import DimensionMismatchError
from .measures import DiscreteMeasure, uniform, validate
from .sinkhorn import SinkhornConfig, SinkhornSolution, _check_integer, solve


@dataclass(frozen=True)
class DitherConfig:
    """Configuration of one dithering run.

    epsilon may be infinite, where the objective is the limit of S_eps: half
    the squared discrepancy for a kernel-backed cost (c = -K), and defined for
    any cost. Costs with a distance kink at coincident points are replaced by
    the smoothed negative-distance kernel (width `smoothing`) at resolution
    time, since the line search needs a gradient everywhere.
    """

    M: int
    epsilon: float
    cost: Cost
    max_outer_iter: int = 500
    grad_tol: float = 1e-6
    initial_step: float = 1.0
    backtrack: float = 0.5
    sufficient_decrease: float = 1e-4
    seed: int = 0
    inner_tol: float = 1e-9
    inner_max_iter: int = 10_000
    smoothing: float = 1e-2

    def __post_init__(self):
        for name in ("M", "max_outer_iter", "inner_max_iter", "seed"):
            _check_integer(getattr(self, name), name)
        if self.M < 1:
            raise ValueError("M must be >= 1")
        # written so that NaN fails too
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive (infinity allowed)")
        if not self.inner_tol > 0:
            raise ValueError("inner_tol must be positive")
        # zero inner iterations would score unsolved potentials
        if not self.inner_max_iter >= 1:
            raise ValueError(f"inner_max_iter must be >= 1, got {self.inner_max_iter}")
        if not self.max_outer_iter >= 0:
            raise ValueError(f"max_outer_iter must be >= 0, got {self.max_outer_iter}")
        # numpy's generators take only non-negative seeds
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the width of the smoothed distance kernel that replaces kinked costs
        if not 0.0 < self.smoothing < float("inf"):
            raise ValueError(f"smoothing must be finite and positive, got {self.smoothing}")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")
        # a NaN first step fails the line search at once; an infinite one
        # never shrinks under backtracking
        if not 0.0 < self.initial_step < float("inf"):
            raise ValueError(f"initial_step must be finite and positive, got {self.initial_step}")
        # a factor of 1 or more never shrinks the step, so the line search
        # would not end; a negative Armijo constant accepts energy increases
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError(f"backtrack must lie in (0, 1), got {self.backtrack}")
        if not 0.0 < self.sufficient_decrease < 1.0:
            raise ValueError(f"sufficient_decrease must lie in (0, 1), got {self.sufficient_decrease}")


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
    """Replace distance-family costs by the smoothed variant; keep the rest."""
    cost = cfg.cost
    kinked = (
        isinstance(cost, AbsDistance)
        or (isinstance(cost, PowerDistance) and cost.p == 1.0)
        or (isinstance(cost, NegatedKernel)
            and isinstance(cost.kernel, (NegativeDistance, ShiftedNegativeDistance)))
    )
    return NegatedKernel(SmoothedNegativeDistance(cost.box, c=cfg.smoothing)) if kinked else cost


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
    """Gradient of the objective with respect to the atom positions, shape (M, d)."""
    validate(target, cfg.cost.box)
    positions = _checked_positions(cfg, positions)
    run = _Run(cfg, target)
    return _envelope_gradient(run.cost, *run.energy_and_solutions(positions)[1])


def _envelope_gradient(cost: Cost, cross: SinkhornSolution, self_p: SinkhornSolution) -> np.ndarray:
    # Dual values differentiated only through the cost entries, potentials
    # held fixed at their converged values. The half on the self term cancels
    # because each position appears in both marginals of the self plan, which
    # is symmetric to the stopping tolerance (psi = T(phi) ends the solve).
    # Each plan is contracted on its own solution's points and cost matrix,
    # which give h'(r)/r wherever the profile has it in closed form; other
    # costs recompute the distances.
    def contraction(sol):
        return cost.plan_grad_y(sol.mu.points, sol.nu.points, sol.plan.matrix, sol.cost_matrix)

    return contraction(cross) - contraction(self_p)


class _Run:
    """Shared state of one dithering run.

    Warm starts, the constant target self-term, the count of inner solves
    that stopped at max_iter and the count of energy evaluations.
    """

    def __init__(self, cfg: DitherConfig, target: DiscreteMeasure):
        self.cost = resolve_cost(cfg)
        self.target = target
        self.inner = SinkhornConfig(epsilon=cfg.epsilon, max_iter=cfg.inner_max_iter,
                                    tol=cfg.inner_tol)
        self.unconverged = 0
        self.evaluations = 0
        # -OT_eps(target, target) / 2, constant in the positions
        self.target_term = -0.5 * self._solve(target, target, None).value
        self.psi_cross = None
        self.phi_self = None

    def _solve(self, mu, nu, psi0):
        solution = solve(self.cost, mu, nu, self.inner, psi0=psi0)
        self.unconverged += not solution.converged
        return solution

    def energy_and_solutions(self, positions: np.ndarray):
        """Energy at the positions and (cross, self); warm-starts the next call.

        Each solution keeps the cost matrix it solved on, for the gradient,
        and builds its plan only when the gradient reads it.
        """
        self.evaluations += 1
        nu_p = uniform(positions)
        cross = self._solve(self.target, nu_p, self.psi_cross)
        self_p = self._solve(nu_p, nu_p, self.phi_self)
        self.psi_cross = cross.potentials.psi
        self.phi_self = self_p.potentials.phi
        value = cross.value + self.target_term - 0.5 * self_p.value
        return value, (cross, self_p)


def dither(cfg: DitherConfig, target: DiscreteMeasure) -> DitherState:
    """Projected gradient descent with Armijo backtracking from seeded positions.

    Stops on the gradient tolerance, the outer iteration cap, or a line-search
    step underflow (below 1e-14, recorded in the state, not fatal). The energy
    trace is non-increasing by construction.
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

    it = 0
    last_step = cfg.initial_step
    while not converged and it < cfg.max_outer_iter:
        it += 1
        # start from twice the last accepted step; Armijo backtracking still
        # guards every move, so the trace stays monotone
        step = 2.0 * last_step
        accepted = False
        while step >= 1e-14:
            candidate = np.clip(positions - step * grad, box.lower, box.upper)
            if not np.any(candidate != positions):
                # projection absorbs the whole step: stationary on the boundary
                converged = True
                break
            cand_energy, cand_solutions = run.energy_and_solutions(candidate)
            decrease = float(np.sum(grad * (candidate - positions)))
            if cand_energy <= energy + cfg.sufficient_decrease * decrease:
                accepted = True
                break
            step *= cfg.backtrack
        if converged:
            break
        if not accepted:
            failed = True
            break
        last_step = step
        positions, energy = candidate, cand_energy
        grad = _envelope_gradient(run.cost, *cand_solutions)
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
