"""Log-domain Sinkhorn solver for entropically regularized optimal transport.

The softmin half-step, the alternating fixed-point iteration with an
oscillation-norm stopping rule, potential normalization, value/plan/gap
extraction, contraction diagnostics, and the infinite-regularization limit
objects. All exponentials are max-shifted; nothing overflows at either
extreme of the regularization parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact_ot import TransportPlan
from .kernels import Cost
from .measures import BoundingBox, DiscreteMeasure, _as_points


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver configuration.

    tol bounds the oscillation norm (half of max minus min) of successive
    updates of the second potential; normalize pins the additive constant so
    that sum_i phi_i mu_i equals half the independent-coupling cost.
    """

    epsilon: float
    max_iter: int = 10_000
    tol: float = 1e-10
    normalize: bool = True

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class PotentialPair:
    phi: np.ndarray
    psi: np.ndarray
    epsilon: float
    normalized: bool


@dataclass(frozen=True)
class LimitPotentials:
    """Potentials and value of the independent-coupling (epsilon -> infinity) limit."""

    phi_inf: np.ndarray
    psi_inf: np.ndarray
    ot_inf: float

    @property
    def potentials(self) -> PotentialPair:
        """The limit potentials as an epsilon = inf pair, ready for extend_potentials."""
        return PotentialPair(phi=self.phi_inf, psi=self.psi_inf, epsilon=math.inf, normalized=True)


@dataclass(frozen=True)
class ContractionEstimate:
    """Contraction factor 1 - exp(-2 L diam / epsilon) of the softmin half-step."""

    lipschitz: float
    diam: float
    epsilon: float
    kappa: float


@dataclass(frozen=True)
class SinkhornSolution:
    potentials: PotentialPair
    value: float
    plan: TransportPlan
    iterations: int
    final_residual: float
    duality_gap: float
    converged: bool
    kappa: float
    residual_history: np.ndarray = field(repr=False)

    def diagnostics(self) -> dict:
        return {
            "epsilon": self.potentials.epsilon,
            "value": self.value,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "duality_gap": self.duality_gap,
            "kappa": self.kappa,
        }


def _oscillation(values: np.ndarray) -> float:
    return 0.5 * float(np.max(values) - np.min(values))


def _softmin_core(c_block: np.ndarray, weights: np.ndarray, phi: np.ndarray, epsilon: float) -> np.ndarray:
    """-eps log sum_j w_j exp((phi_j - c_qj)/eps) for each query row q.

    Max-shifted over the exponent; zero-weight atoms are excluded from the
    reduction (they carry no mass).
    """
    mask = weights > 0.0
    if not np.all(mask):
        c_block = c_block[:, mask]
        weights = weights[mask]
        phi = phi[mask]
    a = (phi[None, :] - c_block) / epsilon
    a_max = np.max(a, axis=1)
    s = np.sum(weights[None, :] * np.exp(a - a_max[:, None]), axis=1)
    return -epsilon * (a_max + np.log(s))


def softmin(cost: Cost, m: DiscreteMeasure, phi: np.ndarray, epsilon: float, query_points) -> np.ndarray:
    """Softmin half-step T(phi)(x) = -eps log int exp((phi(y) - c(x, y))/eps) dm(y).

    epsilon = math.inf gives the limit of the half-step, the m-average of
    c(x, .) - phi.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    pts = _as_points(query_points)
    c_block = cost.matrix(pts, m.points)
    phi = np.asarray(phi, dtype=float)
    if math.isinf(epsilon):
        return c_block @ m.weights - phi @ m.weights
    return _softmin_core(c_block, m.weights, phi, epsilon)


def ot_infinity(cost: Cost, mu: DiscreteMeasure, nu: DiscreteMeasure) -> LimitPotentials:
    """Independent-coupling cost and the uniform limits of the potentials.

    ot_inf = sum_{ij} c_ij mu_i nu_j; the limit potentials are the marginal
    cost averages shifted so that sum_i phi_i mu_i = ot_inf / 2.
    """
    c_matrix = cost.matrix(mu.points, nu.points)
    row_avg = c_matrix @ nu.weights
    col_avg = c_matrix.T @ mu.weights
    ot_inf = float(mu.weights @ row_avg)
    return LimitPotentials(
        phi_inf=row_avg - 0.5 * ot_inf,
        psi_inf=col_avg - 0.5 * ot_inf,
        ot_inf=ot_inf,
    )


def contraction_estimate(cost: Cost, box: BoundingBox, epsilon: float) -> ContractionEstimate:
    """kappa = 1 - exp(-2 L diam / epsilon) for the cost's Lipschitz constant."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    kappa = 1.0 - float(np.exp(-2.0 * cost.lipschitz * box.diameter / epsilon))
    return ContractionEstimate(
        lipschitz=cost.lipschitz, diam=box.diameter, epsilon=epsilon, kappa=kappa
    )


def potential_lipschitz_check(
    cost: Cost,
    m: DiscreteMeasure,
    phi: np.ndarray,
    epsilon: float,
    probe_pairs,
) -> float:
    """Largest difference quotient of T(phi) over probe point pairs.

    The half-step inherits the cost's Lipschitz constant, so the result is
    bounded by cost.lipschitz up to rounding.
    """
    pairs = np.asarray(probe_pairs, dtype=float)
    first = _as_points(pairs[:, 0])
    second = _as_points(pairs[:, 1])
    t1 = softmin(cost, m, phi, epsilon, first)
    t2 = softmin(cost, m, phi, epsilon, second)
    gaps = np.linalg.norm(first - second, axis=1)
    valid = gaps > 0
    return float(np.max(np.abs(t1[valid] - t2[valid]) / gaps[valid]))


def _is_self_problem(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    if mu is nu:
        return True
    return (
        mu.points.shape == nu.points.shape
        and np.array_equal(mu.points, nu.points)
        and np.array_equal(mu.weights, nu.weights)
    )


def solve(
    cost: Cost,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cfg: SinkhornConfig,
    psi0: np.ndarray | None = None,
) -> SinkhornSolution:
    """Run the Sinkhorn fixed-point iteration to the oscillation-norm tolerance.

    Alternates phi <- T_nu(psi), psi <- T_mu(phi) from psi = 0 (or psi0). A
    self problem (nu identical to mu) switches to the averaged single-potential
    update phi <- (phi + T_mu(phi)) / 2, whose plain alternation can oscillate
    between the two symmetric potentials. Hitting max_iter returns the best
    iterate flagged converged=False rather than aborting.
    """
    eps = cfg.epsilon
    c_matrix = cost.matrix(mu.points, nu.points)
    w_mu, w_nu = mu.weights, nu.weights
    symmetric = _is_self_problem(mu, nu)

    residuals = []
    converged = False
    if symmetric:
        phi = np.zeros(len(mu)) if psi0 is None else np.asarray(psi0, dtype=float).copy()
        iterations = 0
        for iterations in range(1, cfg.max_iter + 1):
            phi_new = 0.5 * (phi + _softmin_core(c_matrix, w_mu, phi, eps))
            res = _oscillation(phi_new - phi)
            residuals.append(res)
            phi = phi_new
            if res <= cfg.tol:
                converged = True
                break
        # polish: two extra averaged steps tighten the self-consistency defect
        # beyond the stopping tolerance, keeping plan marginals at the scale
        # the extraction formula assumes even for small epsilon
        for _ in range(2):
            phi = 0.5 * (phi + _softmin_core(c_matrix, w_mu, phi, eps))
        # the oscillation residual is blind to the constant component of the
        # defect phi - T(phi); shifting by half its midrange removes that
        # component exactly (T(phi - a) = T(phi) + a)
        defect = phi - _softmin_core(c_matrix, w_mu, phi, eps)
        phi = phi - 0.25 * float(np.max(defect) + np.min(defect))
        psi = phi.copy()
    else:
        psi = np.zeros(len(nu)) if psi0 is None else np.asarray(psi0, dtype=float).copy()
        phi = np.zeros(len(mu))
        iterations = 0
        for iterations in range(1, cfg.max_iter + 1):
            phi = _softmin_core(c_matrix, w_nu, psi, eps)
            psi_new = _softmin_core(c_matrix.T, w_mu, phi, eps)
            res = _oscillation(psi_new - psi)
            residuals.append(res)
            psi = psi_new
            if res <= cfg.tol:
                converged = True
                break

    if cfg.normalize:
        # half the independent-coupling cost, as in ot_infinity
        delta = 0.5 * float(w_mu @ (c_matrix @ w_nu)) - float(phi @ w_mu)
        phi = phi + delta
        psi = psi - delta

    value = float(phi @ w_mu + psi @ w_nu)
    exponent = (phi[:, None] + psi[None, :] - c_matrix) / eps
    with np.errstate(over="ignore"):
        plan_matrix = np.exp(exponent) * np.outer(w_mu, w_nu)
    plan = TransportPlan(matrix=plan_matrix, mu=mu, nu=nu)

    # primal value of the extracted plan; its relative-entropy term reuses the
    # exponent, so no logarithms of tiny numbers appear
    primal = float(np.sum(c_matrix * plan_matrix) + eps * np.sum(plan_matrix * exponent))
    duality_gap = abs(primal - value)

    kappa = contraction_estimate(cost, cost.box, eps).kappa
    return SinkhornSolution(
        potentials=PotentialPair(phi=phi, psi=psi, epsilon=eps, normalized=cfg.normalize),
        value=value,
        plan=plan,
        iterations=iterations,
        final_residual=residuals[-1] if residuals else 0.0,
        duality_gap=duality_gap,
        converged=converged,
        kappa=kappa,
        residual_history=np.array(residuals),
    )


def extend_potentials(
    cost: Cost,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    pair: PotentialPair,
    points,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the canonical continuous extensions of (phi, psi) off-support.

    phi extends through the half-step against nu, psi through the half-step
    against mu; a pair with epsilon = inf (LimitPotentials.potentials) extends
    through the limit of the half-step.
    """
    phi_ext = softmin(cost, nu, pair.psi, pair.epsilon, points)
    psi_ext = softmin(cost, mu, pair.phi, pair.epsilon, points)
    return phi_ext, psi_ext
