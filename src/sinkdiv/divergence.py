"""Sinkhorn divergence and its limits.

Debiased regularized transport S_eps = OT_eps(mu, nu) - OT_eps(mu, mu)/2
- OT_eps(nu, nu)/2, its identification with half the squared kernel
discrepancy at infinite regularization, the witness function recovered from
the limit potentials, and the regularization sweep harness that produces
plot-ready records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discrepancy import ZERO_DISCREPANCY_TOL
from .discrepancy import discrepancy as kernel_discrepancy
from .errors import NotNegatedKernelError, ZeroDiscrepancyError
from .fileio import atomic_write_text
from .kernels import Cost, CpdShifted, Kernel, NegatedKernel
from .measures import DiscreteMeasure
from .sinkhorn import SinkhornConfig, SinkhornSolution, extend_potentials, ot_infinity, solve

# Default sweep grid: 25 log-spaced values over the active range, plus the
# infinite-regularization terminal record appended by epsilon_sweep.
DEFAULT_EPSILONS = np.logspace(-4, 3, 25)


@dataclass(frozen=True)
class DivergenceResult:
    s_eps: float
    ot_mu_nu: float
    ot_mu_mu: float
    ot_nu_nu: float
    epsilon: float
    term_converged: dict

    @property
    def converged(self) -> bool:
        return all(self.term_converged.values())


@dataclass(frozen=True)
class SweepRecord:
    epsilon: float
    ot_eps: float
    s_eps: float
    phi_dist_to_inf: float
    psi_dist_to_inf: float
    iterations: int
    converged: bool


def sinkhorn_divergence(
    cost: Cost,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cfg: SinkhornConfig,
) -> DivergenceResult:
    """Three solves (cross term by alternation, self terms by symmetric averaging).

    All three use the same regularization and tolerance; non-convergence of a
    term is reported in term_converged rather than raised.
    """
    return _divergence_from_cross(cost, mu, nu, cfg, solve(cost, mu, nu, cfg))


def s_infinity(cost: Cost, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Infinite-regularization divergence, half the squared discrepancy of K = -c.

    Computed by the discrepancy double sums, never by a large-epsilon solve.
    Requires a kernel-backed cost.
    """
    if not isinstance(cost, NegatedKernel):
        raise NotNegatedKernelError("s_infinity requires a NegatedKernel cost")
    return 0.5 * kernel_discrepancy(cost.kernel, mu, nu).squared


def _s_infinity_from_limits(cost: Cost, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """OT_inf combination; algebraically equal to half the squared discrepancy."""
    return (
        ot_infinity(cost, mu, nu).ot_inf
        - 0.5 * ot_infinity(cost, mu, mu).ot_inf
        - 0.5 * ot_infinity(cost, nu, nu).ot_inf
    )


def witness_from_limits(
    kernel: Kernel,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    points,
) -> np.ndarray:
    """Witness function recovered from the infinite-regularization potentials.

    Runs the limit formulas with cost -K~, where K~ is the anchor-shifted
    kernel when the input is conditionally positive definite of order 1
    (anchor at the box's lower corner). The anchor terms are then removed so
    the result is reported against the original kernel; it matches
    witness_eval pointwise.
    """
    if isinstance(kernel, CpdShifted):
        shifted, base, anchor = kernel, kernel.base, kernel.anchor
    elif kernel.cpd_order == 1:
        anchor = kernel.box.lower
        shifted, base = CpdShifted(kernel, anchor), kernel
    else:
        shifted, base, anchor = kernel, None, None

    cost = NegatedKernel(shifted)
    # continuous extensions of the limit potentials to the query points
    phi_inf, psi_inf = extend_potentials(cost, mu, nu, ot_infinity(cost, mu, nu).potentials, points)
    witness = phi_inf - psi_inf

    if base is not None:
        c_mu = float(base.gram(mu.points, anchor[None, :])[:, 0] @ mu.weights)
        c_nu = float(base.gram(nu.points, anchor[None, :])[:, 0] @ nu.weights)
        witness = witness - (c_nu - c_mu)

    norm = kernel_discrepancy(shifted, mu, nu).value
    if norm <= ZERO_DISCREPANCY_TOL:
        raise ZeroDiscrepancyError(f"discrepancy {norm} too small, witness undefined")
    return witness / norm


def sweep_epsilons(epsilons=None) -> np.ndarray:
    """The regularization grid of a sweep: DEFAULT_EPSILONS, or the given values.

    Raises ValueError unless the values form a vector of finite, positive,
    strictly increasing numbers.
    """
    if epsilons is None:
        return DEFAULT_EPSILONS
    values = np.asarray(epsilons, dtype=float)
    if (values.ndim != 1 or not np.all(np.isfinite(values))
            or np.any(values <= 0) or np.any(np.diff(values) <= 0)):
        raise ValueError("epsilons must be finite, positive and strictly increasing")
    return values


def epsilon_sweep(
    cost: Cost,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    epsilons=None,
    cfg: SinkhornConfig | None = None,
) -> list[SweepRecord]:
    """One record per regularization value from independent cold solves.

    The records carry the sup distance of the normalized potentials to their
    infinite-regularization limits; a terminal epsilon = inf record is built
    from the limit formulas (discrepancy path for kernel-backed costs).
    Non-converged solves are flagged per record and the sweep continues.
    """
    eps_values = sweep_epsilons(epsilons)
    template = cfg if cfg is not None else SinkhornConfig(epsilon=1.0)

    limits = ot_infinity(cost, mu, nu)
    records = []
    for eps in eps_values:
        cfg_eps = replace(template, epsilon=float(eps), normalize=True)
        cross = solve(cost, mu, nu, cfg_eps)
        div = _divergence_from_cross(cost, mu, nu, cfg_eps, cross)
        records.append(
            SweepRecord(
                epsilon=float(eps),
                ot_eps=cross.value,
                s_eps=div.s_eps,
                phi_dist_to_inf=float(np.max(np.abs(cross.potentials.phi - limits.phi_inf))),
                psi_dist_to_inf=float(np.max(np.abs(cross.potentials.psi - limits.psi_inf))),
                iterations=cross.iterations,
                converged=div.converged,
            )
        )

    if isinstance(cost, NegatedKernel):
        s_inf = s_infinity(cost, mu, nu)
    else:
        s_inf = _s_infinity_from_limits(cost, mu, nu)
    records.append(
        SweepRecord(
            epsilon=math.inf,
            ot_eps=limits.ot_inf,
            s_eps=s_inf,
            phi_dist_to_inf=0.0,
            psi_dist_to_inf=0.0,
            iterations=0,
            converged=True,
        )
    )
    return records


def _divergence_from_cross(cost, mu, nu, cfg, cross: SinkhornSolution) -> DivergenceResult:
    """Assemble S_eps from a solved cross term plus the two self-term solves."""
    self_mu = solve(cost, mu, mu, cfg)
    self_nu = solve(cost, nu, nu, cfg)
    return DivergenceResult(
        s_eps=cross.value - 0.5 * self_mu.value - 0.5 * self_nu.value,
        ot_mu_nu=cross.value,
        ot_mu_mu=self_mu.value,
        ot_nu_nu=self_nu.value,
        epsilon=cfg.epsilon,
        term_converged={
            "mu_nu": cross.converged,
            "mu_mu": self_mu.converged,
            "nu_nu": self_nu.converged,
        },
    )


SWEEP_CSV_HEADER = "epsilon,ot_eps,s_eps,phi_dist_inf,psi_dist_inf,iterations"


def write_sweep_csv(path, records: list[SweepRecord]):
    """Plot-ready CSV, one row per record, epsilon=inf for the terminal row."""
    lines = [SWEEP_CSV_HEADER]
    for r in records:
        eps = "inf" if math.isinf(r.epsilon) else f"{r.epsilon:.17g}"
        lines.append(
            f"{eps},{r.ot_eps:.17g},{r.s_eps:.17g},"
            f"{r.phi_dist_to_inf:.17g},{r.psi_dist_to_inf:.17g},{r.iterations}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
