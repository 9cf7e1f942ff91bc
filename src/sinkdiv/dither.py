"""Dithering: approximate a target measure by M equal-weight atoms.

Minimizes the Sinkhorn divergence between the target and the empirical
measure of the atom positions, using projected gradient descent with Armijo
backtracking onto the bounding box. The gradient is the envelope gradient
through the optimal plans; at infinite regularization those are the
independent couplings, and for a kernel-backed cost the objective is half the
squared discrepancy.
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
from .measures import DiscreteMeasure, uniform
from .sinkhorn import SinkhornConfig, solve


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
        if self.M < 1:
            raise ValueError("M must be >= 1")
        # written so that NaN fails too
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive (infinity allowed)")
        if not self.inner_tol > 0:
            raise ValueError("inner_tol must be positive")
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


def _inner_config(cfg: DitherConfig) -> SinkhornConfig:
    return SinkhornConfig(
        epsilon=cfg.epsilon,
        max_iter=cfg.inner_max_iter,
        tol=cfg.inner_tol,
        normalize=False,
    )


def objective(cfg: DitherConfig, target: DiscreteMeasure, positions) -> float:
    """S_eps(target, nu_p) for the uniform measure nu_p on the positions.

    At infinite regularization this is the limit of S_eps, which for a
    kernel-backed cost is half the squared discrepancy, target self-term
    included.
    """
    return _Run(cfg, target).energy_and_plans(np.asarray(positions, dtype=float))[0]


def gradient(cfg: DitherConfig, target: DiscreteMeasure, positions) -> np.ndarray:
    """Gradient of the objective with respect to the atom positions, shape (M, d)."""
    run = _Run(cfg, target)
    positions = np.asarray(positions, dtype=float)
    return _envelope_gradient(run.cost, target, positions, *run.energy_and_plans(positions)[1])


def _envelope_gradient(
    cost: Cost,
    target: DiscreteMeasure,
    positions: np.ndarray,
    plan_cross: np.ndarray,
    plan_self: np.ndarray,
) -> np.ndarray:
    # Dual values differentiated only through the cost entries, potentials
    # held fixed at their converged values. The half on the self term cancels
    # because each position appears in both marginals of the symmetric plan.
    grads_cross = cost.pairwise_grad_y(target.points, positions)
    grads_self = cost.pairwise_grad_y(positions, positions)
    # sum_i P_ij grads_ijk one coordinate at a time: several times faster
    # than one three-index einsum, and the same bits
    return np.stack([
        np.einsum("ij,ij->j", plan_cross, grads_cross[:, :, k])
        - np.einsum("ij,ij->j", plan_self, grads_self[:, :, k])
        for k in range(positions.shape[1])
    ], axis=1)


class _Run:
    """Shared state of one dithering run: warm starts and the constant target self-term."""

    def __init__(self, cfg: DitherConfig, target: DiscreteMeasure):
        self.cost = resolve_cost(cfg)
        self.target = target
        self.inner = _inner_config(cfg)
        # -OT_eps(target, target) / 2, constant in the positions
        self.target_term = -0.5 * solve(self.cost, target, target, self.inner).value
        self.psi_cross = None
        self.phi_self = None

    def energy_and_plans(self, positions: np.ndarray):
        """Energy at the positions and the optimal (cross, self) plans; warm-starts the next call."""
        nu_p = uniform(positions)
        cross = solve(self.cost, self.target, nu_p, self.inner, psi0=self.psi_cross)
        self_p = solve(self.cost, nu_p, nu_p, self.inner, psi0=self.phi_self)
        self.psi_cross = cross.potentials.psi
        self.phi_self = self_p.potentials.phi
        value = cross.value + self.target_term - 0.5 * self_p.value
        return value, (cross.plan.matrix, self_p.plan.matrix)


def dither(cfg: DitherConfig, target: DiscreteMeasure) -> DitherState:
    """Projected gradient descent with Armijo backtracking from seeded positions.

    Stops on the gradient tolerance, the outer iteration cap, or a line-search
    step underflow (below 1e-14, recorded in the state, not fatal). The energy
    trace is non-increasing by construction.
    """
    _check_sampling_ratio(cfg, target)
    box = cfg.cost.box
    rng = np.random.default_rng(cfg.seed)
    positions = box.lower + rng.random((cfg.M, box.dim)) * (box.upper - box.lower)

    run = _Run(cfg, target)
    energy, plans = run.energy_and_plans(positions)
    grad = _envelope_gradient(run.cost, target, positions, *plans)
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
            cand_energy, cand_plans = run.energy_and_plans(candidate)
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
        grad = _envelope_gradient(run.cost, target, positions, *cand_plans)
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
    )
