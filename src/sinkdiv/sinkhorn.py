"""Sinkhorn solver for entropically regularized optimal transport.

The softmin half-step, the alternating fixed-point iteration with an
oscillation-norm stopping rule, potential normalization, value/plan/gap
extraction, contraction diagnostics, and the infinite-regularization limit
objects. All exponentials are max-shifted; nothing overflows at either
extreme of the regularization parameter.

A solve works on K = -C/eps, built once, and on g = phi/eps + log w, which
folds the weights into the potential: log 0 = -inf, so zero-weight atoms drop
out of the sum without a mask. Its half-steps take one of two forms, chosen
per solve by the span max K - min K:

- span <= _GIBBS_MAX_SPAN (moderate eps): K is overwritten by the Gibbs
  kernel G = exp(K - max K), and a half-step is one matrix-vector product,
  -eps (max K + max g + log(G exp(g - max g))), the classical scaling form
  in log coordinates;
- otherwise (small eps, where G would underflow): the log-domain form, a
  max-shifted log-sum-exp per row, whose n x m passes run in one
  preallocated scratch buffer (plus one contiguous transpose of K for the
  alternating update).

Both forms feed the same iteration and give the same iterates up to
rounding.

A solve returns the potentials and the dual value. The solution keeps the
cost matrix the solve built, and builds the dense plan, its primal value and
the duality gap together on first access, so callers that need only the value
(the self terms of a divergence, rejected line-search candidates) never build
an n x m plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exact_ot import TransportPlan
from .kernels import Cost
from .measures import BoundingBox, DiscreteMeasure, _as_points


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver configuration.

    epsilon may be math.inf, the independent-coupling limit. tol bounds the
    oscillation norm (half of max minus min) of successive updates of the
    second potential; normalize pins the additive constant so that
    sum_i phi_i mu_i equals half the independent-coupling cost.
    """

    epsilon: float
    max_iter: int = 10_000
    tol: float = 1e-10
    normalize: bool = True

    def __post_init__(self):
        # written so that NaN fails too
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        # zero iterations would return the unsolved starting potentials
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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
    """Potentials, dual value and convergence record of one solve.

    `plan` and `duality_gap` are built on first access, together, from the
    potentials and the cost matrix the solve kept (cost_matrix; None at
    epsilon = inf, where the plan is the independent coupling and the gap 0).
    """

    potentials: PotentialPair
    value: float
    iterations: int
    final_residual: float
    converged: bool
    kappa: float
    mu: DiscreteMeasure = field(repr=False)
    nu: DiscreteMeasure = field(repr=False)
    cost_matrix: np.ndarray | None = field(repr=False)
    residual_history: np.ndarray = field(repr=False)

    @cached_property
    def _extraction(self) -> tuple[TransportPlan, float]:
        """The plan and the gap between its primal value and the dual value."""
        w_mu, w_nu = self.mu.weights, self.nu.weights
        if self.cost_matrix is None:
            return TransportPlan(matrix=np.outer(w_mu, w_nu), mu=self.mu, nu=self.nu), 0.0
        c_matrix, eps = self.cost_matrix, self.potentials.epsilon
        exponent = (self.potentials.phi[:, None] + self.potentials.psi[None, :] - c_matrix) / eps
        with np.errstate(over="ignore"):
            plan_matrix = np.exp(exponent)
            plan_matrix *= np.outer(w_mu, w_nu)
        # primal value of the extracted plan; its relative-entropy term reuses
        # the exponent, so no logarithms of tiny numbers appear
        primal = float(np.sum(c_matrix * plan_matrix) + eps * np.sum(plan_matrix * exponent))
        return TransportPlan(matrix=plan_matrix, mu=self.mu, nu=self.nu), abs(primal - self.value)

    @property
    def plan(self) -> TransportPlan:
        return self._extraction[0]

    @property
    def duality_gap(self) -> float:
        return self._extraction[1]

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


# Largest span max K - min K of K = -C/eps on which the half-steps run as
# products with G = exp(K - max K). Every entry of G lies in [exp(-span), 1]
# and the shifted weights exp(g - max g) reach 1, so each row or column sum
# is at least exp(-500) ~ 7e-218, a normal float64 (the smallest is
# ~2.2e-308 ~ exp(-708)). A term that underflows is below exp(-208) of that
# sum, for any potential or weight, and the logarithm never sees 0.
_GIBBS_MAX_SPAN = 500.0


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


def _gibbs_half_steps(k_matrix: np.ndarray, k_max: float, eps: float):
    """Row and column half-steps as products with G = exp(K - k_max).

    K becomes G in place. Each step takes g = potential/eps + log w over the
    reduced axis and returns -eps log sum exp(K + g) along it, one gemv with
    no n x m temporary.
    """
    gibbs = np.exp(np.subtract(k_matrix, k_max, out=k_matrix), out=k_matrix)

    def rows(g):
        top = np.max(g)
        return -eps * (k_max + top + np.log(gibbs @ np.exp(g - top)))

    def columns(g):
        top = np.max(g)
        return -eps * (k_max + top + np.log(np.exp(g - top) @ gibbs))

    return rows, columns


def _log_half_steps(k_matrix: np.ndarray, eps: float, with_columns: bool):
    """Row and column half-steps as max-shifted log-sum-exps over K.

    The columns step (None unless asked for) reduces over rows of K; a
    contiguous transpose keeps its reads sequential, and one scratch buffer
    serves both shapes.
    """
    scratch = np.empty_like(k_matrix)

    def rows(g):
        return _softmin_core(k_matrix, g, eps, scratch)

    if not with_columns:
        return rows, None
    k_transposed = np.ascontiguousarray(k_matrix.T)
    scratch_transposed = scratch.reshape(k_transposed.shape)

    def columns(g):
        return _softmin_core(k_transposed, g, eps, scratch_transposed)

    return rows, columns


def _fixed_point(c_matrix, mu, nu, cfg, psi0):
    """Iterate the half-steps; returns phi, psi, iterations, residuals, converged.

    K and whatever the half-steps build from it live only in this frame, so
    they are released before any plan is extracted.
    """
    eps = cfg.epsilon
    k_matrix = c_matrix / -eps
    k_max = float(np.max(k_matrix))
    self_problem = _is_self_problem(mu, nu)
    # a NaN span fails the test and keeps the log domain
    if k_max - float(np.min(k_matrix)) <= _GIBBS_MAX_SPAN:
        rows, columns = _gibbs_half_steps(k_matrix, k_max, eps)
    else:
        rows, columns = _log_half_steps(k_matrix, eps, with_columns=not self_problem)
    log_w_mu = _log_weights(mu.weights)

    residuals = []
    converged = False
    iterations = 0
    if self_problem:
        def half_step(potential):
            return rows(potential / eps + log_w_mu)

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
        log_w_nu = _log_weights(nu.weights)
        psi = np.zeros(len(nu)) if psi0 is None else np.asarray(psi0, dtype=float).copy()
        phi = np.zeros(len(mu))
        for iterations in range(1, cfg.max_iter + 1):
            phi = rows(psi / eps + log_w_nu)
            psi_new = columns(phi / eps + log_w_mu)
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

    epsilon = math.inf returns the limit solution without iterating: the value
    and potentials of ot_infinity (already normalized, so psi0 and normalize
    have no effect) and the independent coupling as the plan.

    The plan and the duality gap are built only when read (SinkhornSolution).
    """
    eps = cfg.epsilon
    if math.isinf(eps):
        limits = ot_infinity(cost, mu, nu)
        return SinkhornSolution(
            potentials=limits.potentials,
            value=limits.ot_inf,
            iterations=0,
            final_residual=0.0,
            converged=True,
            kappa=0.0,
            mu=mu,
            nu=nu,
            cost_matrix=None,
            residual_history=np.array([]),
        )
    c_matrix = cost.matrix(mu.points, nu.points)
    w_mu, w_nu = mu.weights, nu.weights
    phi, psi, iterations, residuals, converged = _fixed_point(c_matrix, mu, nu, cfg, psi0)

    if cfg.normalize:
        # half the independent-coupling cost, as in ot_infinity
        delta = 0.5 * float(w_mu @ (c_matrix @ w_nu)) - float(phi @ w_mu)
        phi = phi + delta
        psi = psi - delta

    return SinkhornSolution(
        potentials=PotentialPair(phi=phi, psi=psi, epsilon=eps, normalized=cfg.normalize),
        value=float(phi @ w_mu + psi @ w_nu),
        iterations=iterations,
        final_residual=residuals[-1] if residuals else 0.0,
        converged=converged,
        kappa=contraction_estimate(cost, cost.box, eps).kappa,
        mu=mu,
        nu=nu,
        cost_matrix=c_matrix,
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
