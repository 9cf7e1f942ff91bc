"""Log-domain Sinkhorn solver for entropically regularized optimal transport.

The softmin half-step, the alternating fixed-point iteration with an
oscillation-norm stopping rule, potential normalization, value/plan/gap
extraction, contraction diagnostics, and the infinite-regularization limit
objects. All exponentials are max-shifted; nothing overflows at either
extreme of the regularization parameter.

A half-step works on K = -C/eps, built once per solve (plus one contiguous
transpose for the alternating update), and on g = phi/eps + log w, which
folds the weights into the potential: log 0 = -inf, so zero-weight atoms drop
out of the sum without a mask. Its n x m passes run in one preallocated
scratch buffer.
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


def _log_weights(weights: np.ndarray) -> np.ndarray:
    """log w with log 0 = -inf, the weight term of g = phi/eps + log w."""
    with np.errstate(divide="ignore"):
        return np.log(weights)


def _softmin_core(k_block: np.ndarray, g: np.ndarray, epsilon: float, out: np.ndarray) -> np.ndarray:
    """-eps log sum_j exp(k_qj + g_j) for each query row q.

    k_block = -C/eps and g = phi/eps + log w, so this is the half-step
    -eps log sum_j w_j exp((phi_j - c_qj)/eps); a zero-weight atom has
    g_j = -inf and adds exp(-inf) = 0. Max-shifted over the exponent. Every
    pass over the block runs in `out` (k_block's shape; k_block itself when
    the caller no longer needs it), so nothing of that size is allocated.
    """
    np.add(k_block, g, out=out)
    row_max = np.max(out, axis=1)
    np.subtract(out, row_max[:, None], out=out)
    np.exp(out, out=out)
    return -epsilon * (row_max + np.log(np.sum(out, axis=1)))


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
    # the block is ours: it becomes K = -C/eps and then the scratch buffer
    k_block = np.divide(c_block, -epsilon, out=c_block)
    return _softmin_core(k_block, phi / epsilon + _log_weights(m.weights), epsilon, out=k_block)


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


def _fixed_point(c_matrix, mu, nu, cfg, psi0):
    """Iterate the half-steps; returns phi, psi, iterations, residuals, converged.

    K, its transpose and the scratch buffer live only in this frame, so they
    are released before the caller extracts the plan.
    """
    eps = cfg.epsilon
    k_matrix = c_matrix / -eps
    scratch = np.empty_like(k_matrix)
    log_w_mu = _log_weights(mu.weights)

    residuals = []
    converged = False
    iterations = 0
    if _is_self_problem(mu, nu):
        def half_step(potential):
            return _softmin_core(k_matrix, potential / eps + log_w_mu, eps, scratch)

        phi = np.zeros(len(mu)) if psi0 is None else np.asarray(psi0, dtype=float).copy()
        for iterations in range(1, cfg.max_iter + 1):
            phi_new = 0.5 * (phi + half_step(phi))
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
            phi = 0.5 * (phi + half_step(phi))
        # the oscillation residual is blind to the constant component of the
        # defect phi - T(phi); shifting by half its midrange removes that
        # component exactly (T(phi - a) = T(phi) + a)
        defect = phi - half_step(phi)
        phi = phi - 0.25 * float(np.max(defect) + np.min(defect))
        psi = phi.copy()
    else:
        # the psi update reduces over rows of K; a contiguous transpose keeps
        # its reads sequential, and the scratch buffer serves both shapes
        k_transposed = np.ascontiguousarray(k_matrix.T)
        scratch_transposed = scratch.reshape(k_transposed.shape)
        log_w_nu = _log_weights(nu.weights)
        psi = np.zeros(len(nu)) if psi0 is None else np.asarray(psi0, dtype=float).copy()
        phi = np.zeros(len(mu))
        for iterations in range(1, cfg.max_iter + 1):
            phi = _softmin_core(k_matrix, psi / eps + log_w_nu, eps, scratch)
            psi_new = _softmin_core(k_transposed, phi / eps + log_w_mu, eps, scratch_transposed)
            res = _oscillation(psi_new - psi)
            residuals.append(res)
            psi = psi_new
            if res <= cfg.tol:
                converged = True
                break
    return phi, psi, iterations, residuals, converged


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
    phi, psi, iterations, residuals, converged = _fixed_point(c_matrix, mu, nu, cfg, psi0)

    if cfg.normalize:
        # half the independent-coupling cost, as in ot_infinity
        delta = 0.5 * float(w_mu @ (c_matrix @ w_nu)) - float(phi @ w_mu)
        phi = phi + delta
        psi = psi - delta

    value = float(phi @ w_mu + psi @ w_nu)
    exponent = (phi[:, None] + psi[None, :] - c_matrix) / eps
    with np.errstate(over="ignore"):
        plan_matrix = np.exp(exponent)
        plan_matrix *= np.outer(w_mu, w_nu)
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
