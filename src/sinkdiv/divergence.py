"""Sinkhorn divergence and its limits.

Debiased regularized transport S_eps = OT_eps(mu, nu) - OT_eps(mu, mu)/2
- OT_eps(nu, nu)/2, its identification with half the squared kernel
discrepancy at infinite regularization, the witness function recovered from
the limit potentials, and the regularization sweep harness that produces
plot-ready records.

Each term keeps its value and converged flag, not its solution, so a
divergence holds one solve's cost matrix at a time.
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
from .sinkhorn import SinkhornConfig, extend_potentials, ot_infinity, solve

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
    return _divergence_from_cross(cost, mu, nu, cfg, _term(cost, mu, nu, cfg))


def s_infinity(cost: Cost, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Infinite-regularization divergence, half the squared discrepancy of K = -c.

    Computed by the discrepancy double sums, never by a large-epsilon solve.
    Requires a kernel-backed cost.
    """
    if not isinstance(cost, NegatedKernel):
        raise NotNegatedKernelError("s_infinity requires a NegatedKernel cost")
    return 0.5 * kernel_discrepancy(cost.kernel, mu, nu).squared


def witness_from_limits(
    kernel: Kernel,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    points,
) -> np.ndarray:
    """Witness function recovered from the infinite-regularization potentials.

    Extends the ot_infinity potentials of cost -K and divides by D_K; a
    CpdShifted kernel is unwrapped to its base, so the result is reported
    against the base. For probability measures the anchor terms of a shift
    only add a constant to the witness and leave D_K unchanged, so an order-1
    conditionally positive definite kernel needs no shift here. The result
    matches witness_eval pointwise.
    """
    base = kernel.base if isinstance(kernel, CpdShifted) else kernel
    cost = NegatedKernel(base)
    # continuous extensions of the limit potentials to the query points
    phi_inf, psi_inf = extend_potentials(cost, mu, nu, ot_infinity(cost, mu, nu).potentials, points)
    norm = kernel_discrepancy(base, mu, nu).value
    if norm <= ZERO_DISCREPANCY_TOL:
        raise ZeroDiscrepancyError(f"discrepancy {norm} too small, witness undefined")
    return (phi_inf - psi_inf) / norm


def sweep_epsilons(epsilons=None) -> np.ndarray:
    """The regularization grid of a sweep: DEFAULT_EPSILONS, or the given values.

    Raises ValueError unless the values form a non-empty vector of finite,
    positive, strictly increasing numbers.
    """
    if epsilons is None:
        return DEFAULT_EPSILONS
    values = np.asarray(epsilons, dtype=float)
    if (values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values))
            or np.any(values <= 0) or np.any(np.diff(values) <= 0)):
        raise ValueError("epsilons must be non-empty, finite, positive and strictly increasing")
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
    infinite-regularization limits. Every row, the terminal epsilon = inf
    one included, is one cross solve and two self solves. The epsilon = inf
    row runs first, as its cross solve gives the limits (its own distances
    are 0 and it takes 0 iterations), and is emitted last. Non-converged
    solves are flagged per record and the sweep continues.
    """
    eps_values = sweep_epsilons(epsilons)
    template = cfg if cfg is not None else SinkhornConfig(epsilon=1.0)

    limits = None
    records = []
    for eps in [math.inf, *eps_values]:
        cfg_eps = replace(template, epsilon=float(eps))
        cross = solve(cost, mu, nu, cfg_eps)
        pair = cross.potentials
        # the first row's cross solve, at epsilon = inf, gives the limits
        limits = limits or pair
        iterations, cross_term = cross.iterations, (cross.value, cross.converged)
        # the cross solution and its cost matrix go before the self solves
        del cross
        div = _divergence_from_cross(cost, mu, nu, cfg_eps, cross_term)
        records.append(SweepRecord(
            epsilon=float(eps), ot_eps=div.ot_mu_nu, s_eps=div.s_eps,
            phi_dist_to_inf=float(np.max(np.abs(pair.phi - limits.phi))),
            psi_dist_to_inf=float(np.max(np.abs(pair.psi - limits.psi))),
            iterations=iterations, converged=div.converged))
    return records[1:] + records[:1]


def _term(cost, mu, nu, cfg) -> tuple[float, bool]:
    """(value, converged) of one solve; the solution goes when this returns."""
    solution = solve(cost, mu, nu, cfg)
    return solution.value, solution.converged


def _divergence_from_cross(cost, mu, nu, cfg, cross: tuple[float, bool]) -> DivergenceResult:
    """Assemble S_eps from the cross term's (value, converged) and the two self terms."""
    ot_mu_nu, mu_nu = cross
    ot_mu_mu, mu_mu = _term(cost, mu, mu, cfg)
    ot_nu_nu, nu_nu = _term(cost, nu, nu, cfg)
    return DivergenceResult(
        s_eps=ot_mu_nu - 0.5 * ot_mu_mu - 0.5 * ot_nu_nu,
        ot_mu_nu=ot_mu_nu,
        ot_mu_mu=ot_mu_mu,
        ot_nu_nu=ot_nu_nu,
        epsilon=cfg.epsilon,
        term_converged={"mu_nu": mu_nu, "mu_mu": mu_mu, "nu_nu": nu_nu},
    )


SWEEP_CSV_HEADER = "epsilon,ot_eps,s_eps,phi_dist_inf,psi_dist_inf,iterations"


def write_sweep_csv(path, records: list[SweepRecord]):
    """Plot-ready CSV, one row per record, epsilon=inf for the terminal row."""
    lines = [SWEEP_CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.epsilon:.17g},{r.ot_eps:.17g},{r.s_eps:.17g},"
            f"{r.phi_dist_to_inf:.17g},{r.psi_dist_to_inf:.17g},{r.iterations}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
