"""Sinkhorn solver for entropically regularized optimal transport.

The softmin half-step, one solve (a fixed-point loop, alternating for a
cross problem and averaged for a self problem, with an oscillation-norm
stopping rule; at epsilon = inf one exact closed-form alternation, whose
value is the dual value as at every epsilon), value/plan/gap extraction and
contraction diagnostics. All exponentials are max-shifted; nothing overflows
at either extreme of the regularization parameter.

Potentials, unique only up to (phi + c, psi - c), always carry the
normalization sum_i phi_i mu_i = OT_inf / 2, so potentials at different
epsilon compare directly.

A solve works on K = -C/eps, built once, and on g = phi/eps + log w, which
folds the weights into the potential: log 0 = -inf, so zero-weight atoms drop
out of the sum without a mask. Its half-steps take one of two forms, chosen
per solve by the span max K - min K:

- span <= _GIBBS_MAX_SPAN (moderate eps): K is overwritten by the Gibbs
  kernel G = exp(K - max K), and a half-step is one matrix-vector product,
  -eps (max K + max g + log(G exp(g - max g))), the classical scaling form
  in log coordinates;
- otherwise (small eps, where G would underflow): the log-domain form, a
  max-shifted log-sum-exp along either axis of K, whose n x m passes run in
  one preallocated scratch buffer.

Both forms feed the same iteration and give the same iterates up to
rounding.

softmin, the half-step at arbitrary query points (extend_potentials and the
witness), builds and reduces the cost one row block at a time
(kernels._row_blocks), so it never holds a query x atoms matrix. A solve
keeps its dense K.

A solve returns the potentials and the dual value. The solution keeps the
cost matrix the solve built or was given, and builds the dense plan, its
primal value and the duality gap together on first access, so callers that
need only the value (the self terms of a divergence, rejected line-search
candidates) never build an n x m plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NonFiniteValueError
from .exact_ot import TransportPlan
from .kernels import Cost, _row_blocks
from .measures import BoundingBox, DiscreteMeasure, _as_points


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver configuration.

    epsilon may be math.inf, the independent-coupling limit. tol bounds the
    oscillation norm (half of max minus min) of successive updates of the
    second potential.
    """

    epsilon: float
    max_iter: int = 10_000
    tol: float = 1e-10

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


@dataclass(frozen=True)
class LimitPotentials:
    """Potentials and value of the independent-coupling (epsilon -> infinity) limit."""

    phi_inf: np.ndarray
    psi_inf: np.ndarray
    ot_inf: float

    @property
    def potentials(self) -> PotentialPair:
        """The limit potentials as an epsilon = inf pair, ready for extend_potentials."""
        return PotentialPair(phi=self.phi_inf, psi=self.psi_inf, epsilon=math.inf)


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


def _log_sum_exp(k_matrix: np.ndarray, g: np.ndarray, epsilon: float, axis: int,
                 out: np.ndarray) -> np.ndarray:
    """-eps log sum exp(K + g) along `axis` of K, max-shifted.

    K = -C/eps and g = potential/eps + log w runs along the reduced axis, so
    axis 1 gives the half-step -eps log sum_j w_j exp((phi_j - c_qj)/eps) of
    each row q; a zero-weight atom has g_j = -inf and adds exp(-inf) = 0.
    Every pass over K runs in `out` (K's shape; K itself when the caller no
    longer needs it), so nothing of that size is allocated.
    """
    np.add(k_matrix, g if axis == 1 else g[:, None], out=out)
    top = out.max(axis=axis, keepdims=True)
    out -= top
    np.exp(out, out=out)
    return -epsilon * (top.ravel() + np.log(out.sum(axis=axis)))


def softmin(cost: Cost, m: DiscreteMeasure, phi: np.ndarray, epsilon: float, query_points) -> np.ndarray:
    """Softmin half-step T(phi)(x) = -eps log int exp((phi(y) - c(x, y))/eps) dm(y).

    epsilon = math.inf gives the limit of the half-step, the m-average of
    c(x, .) - phi. phi must be a finite vector with one entry per atom of m.

    The query points run in the cost's row blocks (kernels._row_blocks): each
    block of the cost is built and reduced at once, by a log-sum-exp or, at
    epsilon = inf, by block @ w, so memory beyond the result stays at one
    block of about 2^16 cells however many query points there are. Blocks
    start on multiples of 8 rows, where gemv groups rows as it does over the
    whole matrix, so the result has the same bits as one unblocked pass on
    one BLAS thread.
    """
    # written so that NaN fails too
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pts = _as_points(query_points)
    phi = _finite_vector(phi, len(m), "phi")
    weights = m.weights
    if math.isinf(epsilon):
        shift = phi @ weights

        def reduce(c_block):
            return c_block @ weights - shift
    else:
        g = phi / epsilon + _log_weights(weights)

        def reduce(c_block):
            # the block is ours: it becomes K = -C/eps and then the scratch buffer
            k_block = np.divide(c_block, -epsilon, out=c_block)
            return _log_sum_exp(k_block, g, epsilon, 1, k_block)

    out = np.empty(pts.shape[0])
    for rows in _row_blocks(pts.shape[0], len(m)):
        out[rows] = reduce(cost.matrix(pts[rows], m.points))
    return out


def contraction_estimate(cost: Cost, box: BoundingBox, epsilon: float) -> ContractionEstimate:
    """kappa = 1 - exp(-2 L diam / epsilon) for the cost's Lipschitz constant.

    At epsilon = inf, the closed-form step of solve, the half-step maps every
    potential to the same one up to a constant, so kappa is 0 for every cost,
    an infinite L included.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    exponent = 0.0 if math.isinf(epsilon) else -2.0 * cost.lipschitz * box.diameter / epsilon
    kappa = 1.0 - float(np.exp(exponent))
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


def _half_steps(k_matrix: np.ndarray, eps: float, log_w_mu: np.ndarray, log_w_nu: np.ndarray):
    """The half-steps t_nu(psi) = phi and t_mu(phi) = psi over K = -C/eps.

    Each takes a potential and reduces exp(K + potential/eps + log w) along
    the other measure's axis of K. The span max K - min K picks the form:
    within _GIBBS_MAX_SPAN, K becomes G = exp(K - max K) in place and a
    half-step is one gemv with no n x m temporary; beyond it (or on a NaN
    span), a log-sum-exp along either axis of K in one scratch buffer.
    """
    k_max = float(np.max(k_matrix))
    if k_max - float(np.min(k_matrix)) <= _GIBBS_MAX_SPAN:
        gibbs = np.exp(np.subtract(k_matrix, k_max, out=k_matrix), out=k_matrix)

        def reduce(g, axis):
            top = np.max(g)
            shifted = np.exp(g - top)
            sums = gibbs @ shifted if axis == 1 else shifted @ gibbs
            return -eps * (k_max + top + np.log(sums))
    else:
        scratch = np.empty_like(k_matrix)

        def reduce(g, axis):
            return _log_sum_exp(k_matrix, g, eps, axis, scratch)

    def t_nu(psi):
        return reduce(psi / eps + log_w_nu, axis=1)

    def t_mu(phi):
        return reduce(phi / eps + log_w_mu, axis=0)

    return t_nu, t_mu


def _fixed_point(c_matrix, mu, nu, cfg, start):
    """Iterate from psi = start; returns phi, psi, iterations, residuals, converged.

    Each iteration takes phi = t_nu(psi), then psi <- t_mu(phi) (cross) or
    psi <- (psi + phi) / 2 (self), and one stopping rule reads the psi update.
    A self problem ends on psi = t_mu(phi), as alternation does. K and
    whatever the half-steps build from it live only in this frame, so they
    are released before any plan is extracted.
    """
    t_nu, t_mu = _half_steps(c_matrix / -cfg.epsilon, cfg.epsilon,
                             _log_weights(mu.weights), _log_weights(nu.weights))
    averaged = _is_self_problem(mu, nu)

    # SinkhornConfig keeps max_iter >= 1, so the loop binds iterations and phi
    residuals = []
    converged = False
    psi = start
    for iterations in range(1, cfg.max_iter + 1):
        phi = t_nu(psi)
        psi_new = 0.5 * (psi + phi) if averaged else t_mu(phi)
        res = _oscillation(psi_new - psi)
        residuals.append(res)
        psi = psi_new
        if res <= cfg.tol:
            converged = True
            break
    if averaged:
        psi = t_mu(phi)
    return phi, psi, iterations, residuals, converged


def _finite_vector(values, size: int, name: str) -> np.ndarray:
    """values as a float vector, checked to be finite and of length size."""
    vector = np.array(values, dtype=float)
    if vector.shape != (size,):
        raise DimensionMismatchError(f"{name} must have shape ({size},), got {vector.shape}")
    if not np.all(np.isfinite(vector)):
        raise NonFiniteValueError(f"non-finite entry in {name}")
    return vector


def _finite_matrix(values, shape: tuple[int, int]) -> np.ndarray:
    """values as a float matrix, checked to be finite and of the given shape; no copy."""
    matrix = np.asarray(values, dtype=float)
    if matrix.shape != shape:
        raise DimensionMismatchError(f"cost_matrix must have shape {shape}, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise NonFiniteValueError("non-finite entry in cost_matrix")
    return matrix


def solve(
    cost: Cost,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cfg: SinkhornConfig,
    psi0: np.ndarray | None = None,
    cost_matrix: np.ndarray | None = None,
) -> SinkhornSolution:
    """Run the Sinkhorn fixed-point iteration to the oscillation-norm tolerance.

    Alternates phi <- T_nu(psi), psi <- T_mu(phi) from psi = 0 (or psi0). A
    self problem (nu identical to mu), whose plain alternation can oscillate
    between two symmetric potentials, averages instead: psi <- (psi + phi) / 2
    (Feydy et al. 2019). It ends on one plain half-step psi = T_mu(phi), so
    its value <phi, mu> + <psi, mu> is the semi-dual of phi, as for a cross
    problem: stationary at the fixed point, so second order in the remaining
    defect. Hitting max_iter returns the last iterate flagged converged=False
    rather than aborting. The potentials are shifted by opposite constants so
    that sum_i phi_i mu_i is half the independent-coupling cost, which leaves
    the value and the plan unchanged.

    epsilon = math.inf is the closed-form step: the limit half-steps average c
    against the other measure, so one alternation from psi = 0 is exact (phi
    = C w_nu, psi = C^T w_mu - <phi, mu>; no iteration, kappa = 0, the
    independent coupling as the plan), and the value is the dual value.
    psi0 has no effect there; at any epsilon, one that is not a finite vector
    of length len(nu) raises.

    cost_matrix, if given, is cost.matrix(mu.points, nu.points) built by the
    caller, who may read it again (dither's gradient takes h'(r)/r from it);
    the solve then builds none and returns the same result, bit for bit. It
    is checked for shape (len(mu), len(nu)) and finite entries, never
    written, and kept by the solution as given at finite epsilon.

    The plan and the duality gap are built only when read (SinkhornSolution).
    """
    start = np.zeros(len(nu)) if psi0 is None else _finite_vector(psi0, len(nu), "psi0")
    eps = cfg.epsilon
    if cost_matrix is None:
        c_matrix = cost.matrix(mu.points, nu.points)
    else:
        c_matrix = _finite_matrix(cost_matrix, (len(mu), len(nu)))
    w_mu, w_nu = mu.weights, nu.weights
    row_avg = c_matrix @ w_nu
    # half the independent-coupling cost, the normalization <phi, mu>
    half_ot = 0.5 * float(w_mu @ row_avg)
    if math.isinf(eps):
        phi = row_avg
        psi = c_matrix.T @ w_mu - float(phi @ w_mu)
        iterations, residuals, converged = 0, [], True
    else:
        phi, psi, iterations, residuals, converged = _fixed_point(c_matrix, mu, nu, cfg, start)

    delta = half_ot - float(phi @ w_mu)
    phi = phi + delta
    psi = psi - delta

    return SinkhornSolution(
        potentials=PotentialPair(phi=phi, psi=psi, epsilon=eps),
        value=float(phi @ w_mu + psi @ w_nu),
        iterations=iterations,
        final_residual=residuals[-1] if residuals else 0.0,
        converged=converged,
        kappa=contraction_estimate(cost, cost.box, eps).kappa,
        mu=mu,
        nu=nu,
        # the independent coupling at epsilon = inf needs no cost matrix
        cost_matrix=None if math.isinf(eps) else c_matrix,
        residual_history=np.array(residuals),
    )


def ot_infinity(cost: Cost, mu: DiscreteMeasure, nu: DiscreteMeasure) -> LimitPotentials:
    """The epsilon = inf solve, read as the independent-coupling limit.

    ot_inf = sum_ij c_ij mu_i nu_j up to rounding (the dual value); the limit
    potentials are the marginal cost averages with sum_i phi_i mu_i = ot_inf / 2.
    """
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=math.inf))
    pair = sol.potentials
    return LimitPotentials(phi_inf=pair.phi, psi_inf=pair.psi, ot_inf=sol.value)


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
    through the limit of the half-step. Both run through softmin, one row
    block of points at a time, so a grid of any size holds one cost block,
    not a grid x atoms matrix.
    """
    phi_ext = softmin(cost, nu, pair.psi, pair.epsilon, points)
    psi_ext = softmin(cost, mu, pair.phi, pair.epsilon, points)
    return phi_ext, psi_ext
