"""Sinkhorn solver for entropically regularized optimal transport.

The softmin half-step, one solve (a fixed-point loop, a safeguarded
over-relaxed alternation for a cross problem and an averaged update for a
self problem, with an oscillation-norm stopping rule; at epsilon = inf one
exact closed-form alternation, whose value is the dual value as at every
epsilon), value/plan/gap extraction and contraction diagnostics. All
exponentials are max-shifted; nothing overflows at either extreme of the
regularization parameter.

A cross solve alternates plainly for 8 turns, then over-relaxes both
half-steps, phi <- (1 - omega) phi + omega T_nu(psi) and the same for psi,
with omega taken from the observed residual rate and re-read from the
relaxed rate for the whole solve (Thibault, Chizat, Dossal & Papadakis 2021,
Algorithms 14(5); Lehmann, von Renesse, Sambale & Uschmajew 2022, Optim.
Lett.). A relaxed turn's residual bounds the kept pair's distance from a
fixed point as the plain update does, and the turn is kept only while that
residual contracts by kappa, as plain alternation is proven to; the rule is
in _overrelaxed.

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
  one preallocated scratch buffer; its exponents are clamped at _EXP_FLOOR,
  which skips subnormal exponentials and leaves the result's bits as they
  are.

Both forms feed the same iteration and give the same iterates up to
rounding.

softmin, the half-step at arbitrary query points (extend_potentials and the
witness), builds and reduces the cost one row block at a time, so it never
holds a query x atoms matrix. A solve keeps its dense K, and runs G = exp(K
- max K), the products and the log-sum-exps over K in row or column parts.
Both cut and run their parts as the kernels module docstring sets out, and
the bits do not depend on the parts or the pool.

A solve returns the potentials and the dual value. The solution keeps the
cost matrix the solve built, at every epsilon, and builds the dense plan, its
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
from .kernels import Cost, _fill_parts, _pool_parts, _row_blocks, _run_parts
from .measures import DiscreteMeasure, _finite_points


def _check_integer(value, name: str):
    """ValueError naming the field unless value is an int or numpy integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver configuration.

    epsilon may be math.inf, the independent-coupling limit. tol bounds the
    oscillation norm (half of max minus min) of the last update of the
    second potential, plus, after an over-relaxed turn, the part of the row
    step the relaxation carried past the plain one (see solve).
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
        _check_integer(self.max_iter, "max_iter")
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
class SinkhornSolution:
    """Potentials, dual value and convergence record of one solve.

    `plan` and `duality_gap` are built on first access, together, from the
    potentials and cost_matrix, the cost matrix the solve built and ran on
    (at epsilon = inf the plan is the independent coupling and the gap 0).
    omega is the relaxation factor the solve ended with: 1 for a self
    problem, at epsilon = inf and for a cross solve that never relaxed. It
    is not among the diagnostics.
    """

    potentials: PotentialPair
    value: float
    iterations: int
    final_residual: float
    converged: bool
    kappa: float
    mu: DiscreteMeasure = field(repr=False)
    nu: DiscreteMeasure = field(repr=False)
    cost_matrix: np.ndarray = field(repr=False)
    residual_history: np.ndarray = field(repr=False)
    omega: float

    @cached_property
    def _extraction(self) -> tuple[TransportPlan, float]:
        """The plan and the gap between its primal value and the dual value."""
        w_mu, w_nu = self.mu.weights, self.nu.weights
        c_matrix, eps = self.cost_matrix, self.potentials.epsilon
        if math.isinf(eps):
            return TransportPlan(matrix=np.outer(w_mu, w_nu), mu=self.mu, nu=self.nu), 0.0
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

# Floor of the shifted exponents of a log-sum-exp. exp of an argument below
# about -708 is subnormal or takes a slow underflow path, several times the
# cost of a normal one. Each sum holds its max term exp(0) = 1, and a clamped
# term, at most exp(-700) ~ 1e-304, is far below half an ulp of any partial
# sum it meets, so the result has the same bits as without the clamp.
_EXP_FLOOR = -700.0


def _log_sum_exp(k_matrix: np.ndarray, g: np.ndarray, epsilon: float, axis: int,
                 out: np.ndarray) -> np.ndarray:
    """-eps log sum exp(K + g) along `axis` of K, max-shifted.

    K = -C/eps and g = potential/eps + log w runs along the reduced axis, so
    axis 1 gives the half-step -eps log sum_j w_j exp((phi_j - c_qj)/eps) of
    each row q; a zero-weight atom has g_j = -inf and adds exp(_EXP_FLOOR),
    too small to reach the sum's last bit. Every pass over K runs in `out`
    (K's shape; K itself when the caller no longer needs it), so nothing of
    that size is allocated.
    """
    np.add(k_matrix, g if axis == 1 else g[:, None], out=out)
    top = out.max(axis=axis, keepdims=True)
    out -= top
    np.maximum(out, _EXP_FLOOR, out=out)
    np.exp(out, out=out)
    return -epsilon * (top.ravel() + np.log(out.sum(axis=axis)))


def softmin(cost: Cost, m: DiscreteMeasure, phi: np.ndarray, epsilon: float, query_points) -> np.ndarray:
    """Softmin half-step T(phi)(x) = -eps log int exp((phi(y) - c(x, y))/eps) dm(y).

    epsilon = math.inf gives the limit of the half-step, the m-average of
    c(x, .) - phi. phi must be a finite vector with one entry per atom of m.

    The query points run in the cost's row blocks (the part rule is in the
    kernels module docstring): each block of the cost is built and reduced
    at once, by a log-sum-exp or, at epsilon = inf, by block @ w, so memory
    beyond the result stays at one block per thread however many query
    points there are, and the result has the same bits as one unblocked pass
    on one BLAS thread. A non-finite query coordinate raises
    NonFiniteValueError.
    """
    # written so that NaN fails too
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pts = _finite_points(query_points)
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

    n = pts.shape[0]
    return _fill_parts(lambda rows: reduce(cost.matrix(pts[rows], m.points)),
                       _row_blocks(n, len(m)), n * len(m), n)


def contraction_estimate(cost: Cost, epsilon: float) -> float:
    """kappa = 1 - exp(-2 L diam / epsilon), the contraction factor of the softmin half-step.

    L is cost.lipschitz and diam is cost.box.diameter. At epsilon = inf, the
    closed-form step of solve, the half-step maps every potential to the same
    one up to a constant, so kappa is 0 for every cost, an infinite L included.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    exponent = 0.0 if math.isinf(epsilon) else -2.0 * cost.lipschitz * cost.box.diameter / epsilon
    return 1.0 - float(np.exp(exponent))


def potential_lipschitz_check(
    cost: Cost,
    m: DiscreteMeasure,
    phi: np.ndarray,
    epsilon: float,
    probe_pairs,
) -> float:
    """Largest difference quotient of T(phi) over probe point pairs.

    probe_pairs is a (k, 2, d) array of point pairs, at least one of them
    two distinct points. The half-step inherits the cost's Lipschitz
    constant, so the result is bounded by cost.lipschitz up to rounding.
    """
    pairs = np.asarray(probe_pairs, dtype=float)
    if pairs.ndim != 3 or pairs.shape[1] != 2:
        raise DimensionMismatchError(
            f"probe_pairs must be a (k, 2, d) array, got shape {pairs.shape}")
    first, second = pairs[:, 0], pairs[:, 1]
    t1 = softmin(cost, m, phi, epsilon, first)
    t2 = softmin(cost, m, phi, epsilon, second)
    gaps = np.linalg.norm(first - second, axis=1)
    valid = gaps > 0
    if not valid.any():
        raise ValueError("probe_pairs holds no pair of distinct points")
    return float(np.max(np.abs(t1[valid] - t2[valid]) / gaps[valid]))


def _is_self_problem(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    return mu is nu or (
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

    The passes that write or reduce along an axis of K run in the solve's
    parts (the part rule is in the kernels module docstring): rows for
    exp(K - max K) and the reductions along axis 1, columns for those along
    axis 0, so each output entry is one whole reduction and no partial sums
    are added. K must be C-contiguous, as _fixed_point builds it.
    """
    n, m = k_matrix.shape
    cells = n * m
    rows, cols = _pool_parts(n, cells), _pool_parts(m, cells)

    def by_parts(axis, reduce_part):
        # the n (axis 1) or m (axis 0) results, reduce_part(index) giving
        # those of the rows or columns that index selects from K
        if axis == 1:
            return _fill_parts(reduce_part, rows, cells, n)
        return _fill_parts(lambda part: reduce_part((slice(None), part)), cols, cells, m)

    k_max = float(np.max(k_matrix))
    if k_max - float(np.min(k_matrix)) <= _GIBBS_MAX_SPAN:
        def to_gibbs(part):
            block = np.subtract(k_matrix[part], k_max, out=k_matrix[part])
            np.exp(block, out=block)

        _run_parts(to_gibbs, rows, cells)
        gibbs = k_matrix

        def reduce(g, axis):
            top = np.max(g)
            shifted = np.exp(g - top)
            sums = by_parts(axis, lambda index: gibbs[index] @ shifted if axis == 1
                            else shifted @ gibbs[index])
            return -eps * (k_max + top + np.log(sums))
    else:
        scratch = np.empty_like(k_matrix)

        def reduce(g, axis):
            return by_parts(axis, lambda index: _log_sum_exp(
                k_matrix[index], g, eps, axis, scratch[index]))

    def t_nu(psi):
        return reduce(psi / eps + log_w_nu, axis=1)

    def t_mu(phi):
        return reduce(phi / eps + log_w_mu, axis=0)

    return t_nu, t_mu


# Over-relaxation of a cross solve (Thibault, Chizat, Dossal & Papadakis
# 2021; Lehmann, von Renesse, Sambale & Uschmajew 2022). The first
# _PLAIN_ITERATIONS turns are plain; their residuals give the plain rate
# theta = (r_8 / r_4)^(1/4), read after the start-up transient.
_PLAIN_ITERATIONS = 8
# Cap on the first omega - 1, as a share of 1 - theta. The first relaxed
# turn's residual ratio rises above theta by about 1.6 (omega - 1) (seen on
# random pairs at eps from 1e-3 to 0.1), so a larger first step is mostly
# rejected, and near theta = 1 the cap keeps omega plain.
_FIRST_SHARE = 0.5
# Kept relaxed turns between two re-estimates of theta from the relaxed
# rate (Young's relation); the rate is read over the last four of them.
_YOUNG_PERIOD = 6
# A rejected turn halves omega - 1; below this the solve turns plain for good.
# A first omega below it leaves the solve plain, which keeps a fast plain rate
# plain: the optimal omega is below 1.05 for every theta below about 0.18.
_MIN_OMEGA = 1.05


def _optimal_omega(theta: float) -> float:
    """omega = 2 / (1 + sqrt(1 - theta)), the optimum for plain rate theta < 1, below 2."""
    return 2.0 / (1.0 + math.sqrt(1.0 - theta))


def _fixed_point(c_matrix, mu, nu, cfg, start, kappa):
    """Iterate from psi = start; returns phi, psi, iterations, residuals, converged, omega.

    K and whatever the half-steps build from it live only in this frame, so
    they are released before any plan is extracted. A self problem runs
    _averaged, a cross problem _overrelaxed, whose safeguard reads kappa,
    the solution's contraction factor.
    """
    # K is C-contiguous, as _half_steps needs, whatever the layout of C
    t_nu, t_mu = _half_steps(np.divide(c_matrix, -cfg.epsilon, order="C"), cfg.epsilon,
                             _log_weights(mu.weights), _log_weights(nu.weights))
    if _is_self_problem(mu, nu):
        return _averaged(t_nu, t_mu, cfg, start)
    return _overrelaxed(t_nu, t_mu, cfg, start, kappa)


def _averaged(t_nu, t_mu, cfg, start):
    """psi <- (psi + t_nu(psi)) / 2 until the update is within tol, then psi = t_mu(phi).

    Ending on a plain half-step makes the value the semi-dual of phi, as for
    a cross problem. omega is 1: this update is never over-relaxed.
    """
    # SinkhornConfig keeps max_iter >= 1, so the loop binds iterations and phi
    residuals = []
    psi = start
    for iterations in range(1, cfg.max_iter + 1):
        phi = t_nu(psi)
        psi_new = 0.5 * (psi + phi)
        residuals.append(_oscillation(psi_new - psi))
        psi = psi_new
        if residuals[-1] <= cfg.tol:
            break
    return phi, t_mu(phi), iterations, residuals, residuals[-1] <= cfg.tol, 1.0


def _overrelaxed(t_nu, t_mu, cfg, start, kappa):
    """Safeguarded over-relaxed alternation from psi = start.

    Each turn takes phi <- phi + omega (t_nu(psi) - phi), then psi <- psi +
    omega (t_mu(phi) - psi), and keeps the pair (phi, t_mu(phi)), the plain
    image, which the solve returns: the value is the semi-dual of phi, as
    with plain alternation. A turn's residual is the plain map's update
    osc(t_mu(phi) - psi) plus (omega - 1) osc(t_nu(psi) - phi_prev), the
    part of the row step that omega carried past t_nu(psi). t_nu contracts
    the oscillation by kappa <= 1, so the residual bounds the row defect
    osc(t_nu(t_mu(phi)) - phi) of the kept pair, as the plain update does at
    omega = 1. Hence stopping on it (residual within tol) leaves the
    returned pair as close to a fixed point as plain alternation does, and a
    plain turn from a kept pair's image has a residual at most kappa times
    that pair's.

    The first _PLAIN_ITERATIONS turns are plain alternation, bit for bit.
    Then, if the plain rate theta = (r_8 / r_4)^(1/4) is below 1, omega =
    2 / (1 + sqrt(1 - theta)), with omega - 1 capped at _FIRST_SHARE (1 -
    theta); below _MIN_OMEGA the solve stays plain. Every _YOUNG_PERIOD
    kept relaxed turns, for the whole solve, theta is read again from the
    relaxed rate rho of the last four through Young's relation (rho + omega
    - 1)^2 = rho omega^2 theta, when omega - 1 < rho < 1, and omega moves to
    its optimum. Then (omega - 1)^2 < omega - 1 < rho, which keeps theta
    below 1 and so the new omega below 2.

    A relaxed turn is kept only if its residual is at most kappa times the
    last kept one. A turn that fails is rejected: the next starts again
    from the last kept pair's plain image with omega - 1 halved (omega is 1
    for good below _MIN_OMEGA). Plain turns need no test: by the bound
    above they contract by kappa. So `residuals` holds every kept turn, each
    at most kappa times the one before, the last one that of the returned
    pair, and `iterations` counts every turn, rejected ones too.
    """
    residuals = []
    phi = image = None
    psi = start
    omega, relaxed_turns = 1.0, 0
    for iterations in range(1, cfg.max_iter + 1):
        phi_new = t_nu(psi)
        if omega > 1.0:
            step = phi_new - phi
            phi_new = phi + omega * step
        image_new = t_mu(phi_new)
        res = _oscillation(image_new - psi)
        if omega > 1.0:
            res += (omega - 1.0) * _oscillation(step)
            if res > kappa * residuals[-1]:
                psi = image
                omega = 1.0 + 0.5 * (omega - 1.0)
                if omega < _MIN_OMEGA:
                    omega = 1.0
                relaxed_turns = 0
                continue
            psi = psi + omega * (image_new - psi)
            relaxed_turns += 1
        else:
            psi = image_new
        phi, image = phi_new, image_new
        residuals.append(res)
        if res <= cfg.tol:
            break
        if iterations == _PLAIN_ITERATIONS:
            theta = (residuals[-1] / residuals[-5]) ** 0.25
            if theta < 1.0:
                first = min(_optimal_omega(theta), 1.0 + _FIRST_SHARE * (1.0 - theta))
                if first >= _MIN_OMEGA:
                    omega = first
        elif relaxed_turns == _YOUNG_PERIOD:
            relaxed_turns = 0
            rho = (residuals[-1] / residuals[-5]) ** 0.25
            if omega - 1.0 < rho < 1.0:
                theta = (rho + omega - 1.0) ** 2 / (rho * omega ** 2)
                omega = _optimal_omega(theta)
    return phi, image, iterations, residuals, residuals[-1] <= cfg.tol, omega


def _finite_vector(values, size: int, name: str) -> np.ndarray:
    """values as a float vector, checked to be finite and of length size."""
    vector = np.array(values, dtype=float)
    if vector.shape != (size,):
        raise DimensionMismatchError(f"{name} must have shape ({size},), got {vector.shape}")
    if not np.all(np.isfinite(vector)):
        raise NonFiniteValueError(f"non-finite entry in {name}")
    return vector


def solve(
    cost: Cost,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cfg: SinkhornConfig,
    psi0: np.ndarray | None = None,
) -> SinkhornSolution:
    """Run the Sinkhorn fixed-point iteration to the oscillation-norm tolerance.

    A cross problem alternates phi <- T_nu(psi), psi <- T_mu(phi) from psi =
    0 (or psi0), over-relaxed after 8 plain turns with omega read from the
    residual rate, and re-read every 6 kept relaxed turns, while each
    relaxed turn's residual contracts by kappa (_overrelaxed): omega, the
    relaxation factor it ended with, is kept as SinkhornSolution.omega.
    The stopping rule reads the plain map's update osc(T_mu(phi) - psi),
    plus, on a relaxed turn, (omega - 1) times the row step, so it bounds
    the row defect osc(T_nu(psi) - phi) of the returned plain image (phi,
    T_mu(phi)) at every omega. `iterations` counts every
    loop turn, rejected relaxed turns included, while residual_history holds
    every kept turn, each residual at most kappa times the one before, and
    final_residual is that of the returned pair. A self problem (nu
    identical to mu), whose plain alternation can oscillate between two
    symmetric potentials, averages instead: psi <- (psi + phi) / 2 (Feydy et
    al. 2019), never relaxed. It ends on one plain half-step psi =
    T_mu(phi), so its value <phi, mu> + <psi, mu> is the semi-dual of phi,
    as for a cross problem: stationary at the fixed point, so second order
    in the remaining defect. Hitting max_iter returns the last kept iterate
    flagged converged=False rather than aborting. The potentials are
    shifted by opposite constants so that sum_i phi_i mu_i is half the
    independent-coupling cost, which leaves the value and the plan
    unchanged.

    epsilon = math.inf is the closed-form step: the limit half-steps average c
    against the other measure, so one alternation from psi = 0 is exact (phi
    = C w_nu, psi = C^T w_mu - <phi, mu>; no iteration, kappa = 0, omega = 1,
    the independent coupling as the plan), and the value is the dual value.
    psi0 has no effect there; at any epsilon, one that is not a finite vector
    of length len(nu) raises.

    The solution keeps the cost matrix cost.matrix(mu.points, nu.points) the
    solve built, at every epsilon, and builds the plan and the duality gap
    only when read (SinkhornSolution).
    """
    start = np.zeros(len(nu)) if psi0 is None else _finite_vector(psi0, len(nu), "psi0")
    eps = cfg.epsilon
    c_matrix = cost.matrix(mu.points, nu.points)
    w_mu, w_nu = mu.weights, nu.weights
    row_avg = c_matrix @ w_nu
    # half the independent-coupling cost, the normalization <phi, mu>
    half_ot = 0.5 * float(w_mu @ row_avg)
    kappa = contraction_estimate(cost, eps)
    if math.isinf(eps):
        phi = row_avg
        psi = c_matrix.T @ w_mu - float(phi @ w_mu)
        iterations, residuals, converged, omega = 0, [], True, 1.0
    else:
        phi, psi, iterations, residuals, converged, omega = _fixed_point(
            c_matrix, mu, nu, cfg, start, kappa)

    delta = half_ot - float(phi @ w_mu)
    phi = phi + delta
    psi = psi - delta

    return SinkhornSolution(
        potentials=PotentialPair(phi=phi, psi=psi, epsilon=eps),
        value=float(phi @ w_mu + psi @ w_nu),
        iterations=iterations,
        final_residual=residuals[-1] if residuals else 0.0,
        converged=converged,
        kappa=kappa,
        mu=mu,
        nu=nu,
        cost_matrix=c_matrix,
        residual_history=np.array(residuals),
        omega=omega,
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
