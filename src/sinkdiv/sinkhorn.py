"""Sinkhorn solver for entropically regularized optimal transport.

The softmin half-step, one solve (a safeguarded Anderson-accelerated
fixed-point loop with an oscillation-norm stopping rule; at epsilon = inf one
exact closed-form alternation, whose value is the dual value as at every
epsilon), value/plan/gap extraction and the contraction bound kappa. All
exponentials are max-shifted; nothing overflows at either extreme of the
regularization parameter.

A solve iterates F(psi) = T_mu(T_nu(psi)) for a cross problem and F(psi) =
(psi + T_nu(psi)) / 2 for a self problem: 8 plain turns, then Anderson
extrapolation from the last few turns (Walker & Ni 2011, SIAM J. Numer.
Anal. 49), each extrapolated point kept only while its residual contracts as
the plain step is proven to, and the plain step taken otherwise (Zhang,
O'Donoghue & Boyd 2020, SIAM J. Optim. 30). A cross solve stops only once
its value is also certified within tol of OT_eps. The rule is in
_fixed_point.

The proven rate is kappa = 1 - exp(-2 span(C) / eps), span(C) = max C - min
C over the solve's cost matrix: a half-step's Jacobian P is row-stochastic
with P_ij >= exp(-2 span(C) / eps) P_i'j, so osc(T(psi) - T(psi')) <= kappa
osc(psi - psi') (Dobrushin; Franklin & Lorenz 1989, Linear Algebra Appl.
114/115). A cross turn contracts the residual by kappa, an averaged self
turn by (1 + kappa) / 2. This holds for any cost, and for one L-Lipschitz on
the box it is never looser than 1 - exp(-2 L diam(box) / eps).

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
cost matrix the solve built, at every epsilon, and builds the dense plan on
first access and its primal value and duality gap on a later one, so callers
that need only the value (the self terms of a divergence, rejected
line-search candidates) never build an n x m plan, and those that need only
the plan (the dithering gradient) never pay for the gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NonFiniteValueError
from .exact_ot import TransportPlan
from .kernels import Cost, _fill_parts, _pool_parts, _row_blocks, _run_parts
from .measures import DiscreteMeasure, _check_integer, _finite_points, _positive


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver configuration.

    epsilon may be math.inf, the independent-coupling limit. tol bounds the
    oscillation norm (half of max minus min) of the last kept turn's update
    of the second potential and, for a cross problem, the certified gap
    between the value and OT_eps (see solve).
    """

    epsilon: float
    max_iter: int = 10_000
    tol: float = 1e-10

    def __post_init__(self):
        _positive("SinkhornConfig", "epsilon", self.epsilon, infinite=True)
        _positive("SinkhornConfig", "tol", self.tol)
        # zero iterations would return the unsolved starting potentials
        _check_integer("SinkhornConfig", "max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class PotentialPair:
    phi: np.ndarray
    psi: np.ndarray
    epsilon: float


@dataclass(frozen=True)
class SinkhornSolution:
    """Potentials, dual value and convergence record of one solve.

    `plan` and `duality_gap` are each built on first access from the
    potentials and cost_matrix, the cost matrix the solve built and ran on
    (at epsilon = inf the plan is the independent coupling and the gap 0);
    the plan builds no gap, the gap reads the plan.
    kappa = 1 - exp(-2 span(cost_matrix) / eps) bounds each half-step's contraction (0 at inf).
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

    def _exponent(self) -> np.ndarray:
        """(phi_i + psi_j - C_ij) / eps, a fresh n x m array."""
        exponent = np.add.outer(self.potentials.phi, self.potentials.psi)
        exponent -= self.cost_matrix
        exponent /= self.potentials.epsilon
        return exponent

    @cached_property
    def plan(self) -> TransportPlan:
        w_mu, w_nu = self.mu.weights, self.nu.weights
        if math.isinf(self.potentials.epsilon):
            return TransportPlan(matrix=np.outer(w_mu, w_nu), mu=self.mu, nu=self.nu)
        # the exponent becomes the plan in place
        plan_matrix = self._exponent()
        with np.errstate(over="ignore"):
            np.exp(plan_matrix, out=plan_matrix)
            plan_matrix *= np.outer(w_mu, w_nu)
        return TransportPlan(matrix=plan_matrix, mu=self.mu, nu=self.nu)

    @cached_property
    def duality_gap(self) -> float:
        """|primal value of the plan - dual value|."""
        if math.isinf(self.potentials.epsilon):
            return 0.0
        plan_matrix, exponent = self.plan.matrix, self._exponent()
        # the relative-entropy term reuses the exponent, so no logarithms of
        # tiny numbers appear
        primal = float(np.sum(self.cost_matrix * plan_matrix)
                       + self.potentials.epsilon * np.sum(plan_matrix * exponent))
        return abs(primal - self.value)

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
    _positive("softmin", "epsilon", epsilon, infinite=True)
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
    """The half-steps t_nu(psi) = phi and t_mu(phi) = psi over K = -C/eps, and its span.

    Each takes a potential and reduces exp(K + potential/eps + log w) along
    the other measure's axis of K. The span max K - min K picks the form:
    within _GIBBS_MAX_SPAN, K becomes G = exp(K - max K) in place and a
    half-step is one gemv with no n x m temporary; beyond it, a log-sum-exp
    along either axis of K in one scratch buffer. A span that is not finite
    (K overflowed) raises NonFiniteValueError naming epsilon.

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
    span = k_max - float(np.min(k_matrix))
    if not math.isfinite(span):
        # C / eps overflowed (or C holds a NaN): no potential is representable
        raise NonFiniteValueError(f"epsilon = {eps!r} is too small for the cost: "
                                  "C / epsilon overflows")
    if span <= _GIBBS_MAX_SPAN:
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

    return t_nu, t_mu, span


# The first turns are plain, bit for bit as a plain loop: extrapolating from
# the start-up transient gains little, and short solves (warm starts, fast
# rates at large epsilon) end within them with no extrapolation to pay for.
_PLAIN_ITERATIONS = 8
# Residual differences one extrapolation combines (the Anderson memory): a few
# catch the slow modes of the map, and each one more costs a pass over the
# stored residuals and widens the small least-squares solve.
_MEMORY = 5
# A newest residual difference below this share of the residual is rounding
# noise: the residual has stalled (at kappa ~ 1 it can stay within an ulp of
# itself for dozens of turns), so the turn is plain and the memory keeps only
# its newest turn.
_PLATEAU = 1e-6
# Tikhonov term of the least-squares solve, as a share of trace(dR^T dR) +
# |r|^2: it keeps the Gram matrix regular when the differences are nearly
# dependent, and bounds the coefficients, so that no noise direction carries
# the extrapolated point.
_TIKHONOV = 1e-6


def _extrapolate(images: list, deltas: list):
    """The type-II Anderson point from the kept turns' images F(psi_k) and residuals, or None.

    deltas holds the residuals F(psi_k) - psi_k with their means removed, as
    potentials are defined up to a constant. The coefficients gamma minimize
    |r - dR gamma| over the residual differences dR (Tikhonov-regularized),
    and the point is F(psi) - dF gamma (Walker & Ni 2011, SIAM J. Numer.
    Anal. 49). None, for a memory of one turn or a stalled residual, means
    the plain step.
    """
    if len(deltas) < 2:
        return None
    r = deltas[-1]
    newest = r - deltas[-2]
    r_sq = r @ r
    if newest @ newest <= _PLATEAU ** 2 * r_sq:
        return None
    d_r = np.diff(deltas, axis=0)
    gram = d_r @ d_r.T
    gram.flat[::len(gram) + 1] += _TIKHONOV * (gram.trace() + r_sq)
    gamma = np.linalg.solve(gram, d_r @ r)
    return images[-1] - gamma @ np.diff(images, axis=0)


def _fixed_point(c_matrix, mu, nu, cfg, start):
    """Safeguarded Anderson iteration from psi = start; returns phi, psi, iterations, residuals, converged, kappa.

    The rule is set out in solve. Each turn evaluates F at a trial point: the
    plain image of the last kept turn for the first _PLAIN_ITERATIONS turns,
    then the extrapolation from the last _MEMORY + 1 kept turns
    (_extrapolate). kappa, from the span of K that _half_steps returns,
    bounds t_nu and t_mu alike, so a plain turn contracts the residual by
    rate, kappa for a cross and (1 + kappa) / 2 for a self problem. An
    extrapolated trial whose residual exceeds rate times the last kept one
    is rejected: the memory is cleared and the next trial is the last kept
    turn's plain image. A self problem stops on the residual alone: its
    averaged turn builds no pair with one exact marginal whose other
    marginal comes free. A K = -C/eps that overflows raises
    NonFiniteValueError naming epsilon. K and whatever the half-steps build
    from it live only in this frame, so they are released before any plan is
    extracted.
    """
    eps = cfg.epsilon
    # K is C-contiguous, as _half_steps needs, whatever the layout of C; an
    # overflow in it raises there
    with np.errstate(over="ignore"):
        k_matrix = np.divide(c_matrix, -eps, order="C")
    t_nu, t_mu, span = _half_steps(k_matrix, eps, _log_weights(mu.weights),
                                   _log_weights(nu.weights))
    kappa = -math.expm1(-2.0 * span)
    self_problem = _is_self_problem(mu, nu)
    rate = 0.5 * (1.0 + kappa) if self_problem else kappa

    def value_gap(trial, delta):
        # OT_eps is at most this above the value of (T_nu(trial), trial), so
        # above the returned pair's: the semi-dual <T_nu(psi), mu> + <psi, nu>
        # is concave with gradient nu - P^T 1, which sums to 0, its plan's
        # column sums are P^T 1 = nu exp(-delta / eps), and the fixed point's
        # psi, a half-step's output, has osc at most half the span of C
        defect = float(nu.weights @ np.abs(np.expm1(-delta / eps)))
        return defect * (0.5 * eps * span + _oscillation(trial))

    def step(psi):
        phi = t_nu(psi)
        return phi, 0.5 * (psi + phi) if self_problem else t_mu(phi)

    # SinkhornConfig keeps max_iter >= 1, and the first turn is plain and
    # kept, so the loop binds iterations, phi and image
    residuals, images, deltas = [], [], []
    trial, extrapolated, converged = start, False, False
    for iterations in range(1, cfg.max_iter + 1):
        phi_new, image_new = step(trial)
        delta = image_new - trial
        res = _oscillation(delta)
        if extrapolated and res > rate * residuals[-1]:
            images.clear()
            deltas.clear()
            trial, extrapolated = image, False
            continue
        phi, image = phi_new, image_new
        residuals.append(res)
        if res <= cfg.tol and (self_problem or value_gap(trial, delta) <= cfg.tol):
            converged = True
            break
        images.append(image)
        deltas.append(delta - delta.sum() / delta.size)
        del images[:-_MEMORY - 1], deltas[:-_MEMORY - 1]
        trial, extrapolated = image, False
        if iterations >= _PLAIN_ITERATIONS:
            point = _extrapolate(images, deltas)
            if point is None:
                del images[:-1], deltas[:-1]
            else:
                trial, extrapolated = point, True
    psi = t_mu(phi) if self_problem else image
    return phi, psi, iterations, residuals, converged, kappa


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

    A cross problem iterates F(psi) = T_mu(T_nu(psi)) from psi = 0 (or
    psi0); a self problem (nu identical to mu), whose plain alternation can
    oscillate between two symmetric potentials, iterates the averaged map
    F(psi) = (psi + T_nu(psi)) / 2 (Feydy et al. 2019). The first 8 turns
    are plain, psi <- F(psi); after them each turn tries an Anderson
    extrapolation, kept only if its residual osc(F(psi) - psi) is at most
    kappa (a cross problem) or (1 + kappa) / 2 (a self problem) times the
    last kept one, else the solve takes the plain step (_fixed_point);
    kappa = 1 - exp(-2 span(C) / eps) bounds the contraction of osc by a
    half-step, for any cost (module docstring). It
    stops when that residual is at most tol and, for a cross problem, the
    value is certified within tol of OT_eps from the column sums of
    (T_nu(psi), psi): the residual alone leaves a value error of about half
    of it on a plan split into blocks joined by couplings of order
    exp(-Delta/eps). The returned pair is the last kept turn's phi =
    T_nu(psi) and psi' = T_mu(phi), so a cross solve's row defect
    osc(T_nu(psi') - phi) is at most kappa tol. `iterations` counts every
    evaluation of F, rejected extrapolations included, while
    residual_history holds every kept turn, and final_residual is that of
    the returned pair. Hitting max_iter returns the last kept turn flagged
    converged=False rather than aborting. The potentials are shifted by
    opposite constants so that sum_i phi_i mu_i is half the
    independent-coupling cost, which leaves the value and the plan
    unchanged.

    epsilon = math.inf is the closed-form step: the limit half-steps average c
    against the other measure, so one alternation from psi = 0 is exact (phi
    = C w_nu, psi = C^T w_mu - <phi, mu>; no iteration, kappa = 0,
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
    if math.isinf(eps):
        phi = row_avg
        psi = c_matrix.T @ w_mu - float(phi @ w_mu)
        iterations, residuals, converged, kappa = 0, [], True, 0.0
    else:
        phi, psi, iterations, residuals, converged, kappa = _fixed_point(c_matrix, mu, nu, cfg, start)

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
    )


def ot_infinity(cost: Cost, mu: DiscreteMeasure, nu: DiscreteMeasure) -> SinkhornSolution:
    """The epsilon = inf solve, the independent-coupling limit.

    Its value is sum_ij c_ij mu_i nu_j up to rounding (the dual value), and
    its potentials are the marginal cost averages with sum_i phi_i mu_i =
    value / 2: 0 iterations, converged, kappa = 0. A function of its own, so
    that perfbench/spans.py can time the limit apart from the other solves.
    """
    return solve(cost, mu, nu, SinkhornConfig(epsilon=math.inf))


def extend_potentials(
    cost: Cost,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    pair: PotentialPair,
    points,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the canonical continuous extensions of (phi, psi) off-support.

    phi extends through the half-step against nu, psi through the half-step
    against mu; a pair with epsilon = inf (ot_infinity(...).potentials)
    extends through the limit of the half-step. Both run through softmin, one
    row block of points at a time, so a grid of any size holds one cost
    block, not a grid x atoms matrix.
    """
    phi_ext = softmin(cost, nu, pair.psi, pair.epsilon, points)
    psi_ext = softmin(cost, mu, pair.phi, pair.epsilon, points)
    return phi_ext, psi_ext
