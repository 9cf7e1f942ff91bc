"""Property tests of finite and infinite epsilon over random small 1-D and 2-D measures."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sinkdiv import (
    AbsDistance,
    BoundingBox,
    CpdShifted,
    DiscreteMeasure,
    Gaussian,
    InverseMultiquadric,
    NegatedKernel,
    NegativeDistance,
    PowerDistance,
    ShiftedNegativeDistance,
    SmoothedNegativeDistance,
    SpectralKernel,
    WendlandPower,
    SinkhornConfig,
    exact_ot,
    ot_infinity,
    s_infinity,
    sinkhorn_divergence,
    solve,
)
from sinkdiv.dither import DitherConfig, gradient
from sinkdiv.divergence import DEFAULT_EPSILONS
from sinkdiv.kernels import pairwise_distances, squared_distances
from sinkdiv.sinkhorn import _is_self_problem

BOXES = {dim: BoundingBox(np.zeros(dim), np.ones(dim)) for dim in (1, 2)}
# built once: each cost precomputes its Lipschitz constant on the box
COSTS = {
    (dim, name): cost
    for dim, box in BOXES.items()
    for name, cost in (
        ("abs", AbsDistance(box)),
        ("gauss", NegatedKernel(Gaussian(box, c=0.5))),
        ("power2", PowerDistance(box, p=2.0)),
    )
}
LIMIT = SinkhornConfig(epsilon=math.inf)
PROPERTY = settings(max_examples=60, deadline=None, database=None)
# each example runs up to nine solves, some of thousands of iterations
FINITE = settings(max_examples=20, deadline=None, database=None)
# K = -C/eps spans up to 1-2 / eps on these boxes, so the small epsilons run
# the log-domain half-steps and the others the Gibbs-kernel products
EPSILONS = st.one_of(st.floats(1e-3, 3e-3), st.floats(0.01, 5.0))


def measures(dim):
    return st.integers(1, 8).flatmap(lambda n: st.builds(
        DiscreteMeasure.normalized,
        arrays(float, (n, dim), elements=st.floats(0.0, 1.0)),
        arrays(float, n, elements=st.floats(1e-3, 1.0)),
    ))


@st.composite
def problems(draw, cost_names=("abs", "gauss")):
    """(cost, mu, nu) on a 1-D or 2-D unit box."""
    dim = draw(st.sampled_from(sorted(BOXES)))
    cost = COSTS[dim, draw(st.sampled_from(cost_names))]
    return cost, draw(measures(dim)), draw(measures(dim))


def permuted(m: DiscreteMeasure, order) -> DiscreteMeasure:
    order = list(order)
    return DiscreteMeasure(m.points[order], m.weights[order])


def s_inf_of(cost, mu, nu) -> float:
    return sinkhorn_divergence(cost, mu, nu, LIMIT).s_eps


@PROPERTY
@given(problems(), st.data())
def test_solve_at_infinity_is_ot_infinity(problem, data):
    cost, mu, nu = problem
    # psi0 has no effect on the limit solution
    psi0 = data.draw(st.none() | arrays(float, len(nu), elements=st.floats(-1.0, 1.0)))
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=math.inf), psi0=psi0)
    limits = ot_infinity(cost, mu, nu)
    assert sol.value == limits.value
    assert np.array_equal(sol.potentials.phi, limits.potentials.phi)
    assert np.array_equal(sol.potentials.psi, limits.potentials.psi)
    assert sol.converged and sol.iterations == 0
    assert sol.plan.marginal_error() <= 1e-15


@PROPERTY
@given(problems(cost_names=("gauss",)))
def test_divergence_at_infinity_is_half_squared_discrepancy(problem):
    cost, mu, nu = problem
    assert s_inf_of(cost, mu, nu) == pytest.approx(s_infinity(cost, mu, nu), abs=1e-12)


@PROPERTY
@given(problems(), st.data())
def test_divergence_at_infinity_symmetric_and_permutation_invariant(problem, data):
    cost, mu, nu = problem
    value = s_inf_of(cost, mu, nu)
    assert s_inf_of(cost, nu, mu) == pytest.approx(value, abs=1e-12)
    mu_perm = permuted(mu, data.draw(st.permutations(range(len(mu)))))
    nu_perm = permuted(nu, data.draw(st.permutations(range(len(nu)))))
    assert s_inf_of(cost, mu_perm, nu_perm) == pytest.approx(value, abs=1e-12)


@FINITE
@given(problems(cost_names=("abs", "power2")), EPSILONS, st.data())
def test_finite_epsilon_symmetric_and_permutation_invariant(problem, eps, data):
    cost, mu, nu = problem
    cfg = SinkhornConfig(epsilon=eps)
    pairs = [(mu, nu), (nu, mu)]
    # a permuted copy of mu is not recognized as mu, so for mu = nu the
    # permuted pair runs the alternating instead of the averaged update. Over
    # eps >= 0.01 the two agree to rounding (the self-problem property below);
    # near eps = 1e-3 contraction is slow, and the two iterates, each stopped
    # at the tolerance, still give values up to about 6e-12 apart
    if not _is_self_problem(mu, nu):
        pairs.append((permuted(mu, data.draw(st.permutations(range(len(mu))))),
                      permuted(nu, data.draw(st.permutations(range(len(nu)))))))
    # a solve that hits max_iter (eps near 1e-3 on clustered atoms) is flagged
    # and stops short of the fixed point these properties are about
    first = sinkhorn_divergence(cost, mu, nu, cfg)
    assume(first.converged)
    for a, b in pairs[1:]:
        other = sinkhorn_divergence(cost, a, b, cfg)
        assume(other.converged)
        # ot_mu_nu is OT_eps(a, b)
        assert other.ot_mu_nu == pytest.approx(first.ot_mu_nu, abs=1e-12)
        assert other.s_eps == pytest.approx(first.s_eps, abs=1e-12)


@FINITE
@given(problems(cost_names=("abs", "power2")), st.floats(0.01, 5.0), st.data())
def test_finite_epsilon_self_problem_matches_permuted_copies(problem, eps, data):
    cost, mu, _ = problem
    cfg = SinkhornConfig(epsilon=eps)
    # (mu, mu) runs the averaged update, two permuted copies the alternating one
    first = sinkhorn_divergence(cost, mu, mu, cfg)
    copies = [permuted(mu, data.draw(st.permutations(range(len(mu))))) for _ in range(2)]
    other = sinkhorn_divergence(cost, *copies, cfg)
    assume(first.converged and other.converged)
    assert other.ot_mu_nu == pytest.approx(first.ot_mu_nu, abs=1e-12)
    assert other.s_eps == pytest.approx(first.s_eps, abs=1e-12)


def entropy(m: DiscreteMeasure) -> float:
    """Shannon entropy of the weights."""
    return float(-m.weights @ np.log(m.weights))


@FINITE
@given(problems(cost_names=("abs", "power2")), EPSILONS)
def test_finite_epsilon_value_within_entropy_sandwich(problem, eps):
    # OT_eps = min <C, P> + eps KL(P | mu x nu), and KL(P* | mu x nu) is a
    # mutual information, at most either marginal's entropy, so OT_eps tends
    # to OT_0 from above at rate eps
    cost, mu, nu = problem
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps))
    assume(sol.converged)
    ot_0 = exact_ot(cost, mu, nu).value
    assert ot_0 - 1e-9 <= sol.value <= ot_0 + eps * min(entropy(mu), entropy(nu)) + 1e-9


@FINITE
@given(problems(cost_names=("abs", "power2")), EPSILONS)
def test_finite_epsilon_reruns_bitwise_and_divergence_non_negative(problem, eps):
    cost, mu, nu = problem
    cfg = SinkhornConfig(epsilon=eps)
    divergence = sinkhorn_divergence(cost, mu, nu, cfg)
    # both costs have positive universal Gibbs kernels, so S_eps >= 0 at the
    # fixed point
    assume(divergence.converged)
    assert divergence.s_eps >= -1e-12
    a, b = solve(cost, mu, nu, cfg), solve(cost, mu, nu, cfg)
    assert a.value == b.value
    assert np.array_equal(a.potentials.phi, b.potentials.phi)
    assert np.array_equal(a.potentials.psi, b.potentials.psi)
    assert np.array_equal(a.plan.matrix, b.plan.matrix)


@FINITE
@given(problems(), EPSILONS)
def test_kappa_never_looser_than_the_lipschitz_bound_and_bounds_every_kept_turn(problem, eps):
    # kappa = 1 - exp(-2 span(C) / eps), and span(C) <= L diam for a cost
    # that is L-Lipschitz on the box, so the checks that read kappa only get
    # stricter than with the Lipschitz bound. A residual stalled near 1e-11
    # at kappa = 1 moves by rounding, an ulp or two of the potentials, hence
    # the absolute 1e-15
    cost, mu, nu = problem
    for a, b in [(mu, nu), (mu, mu)]:
        sol = solve(cost, a, b, SinkhornConfig(epsilon=eps))
        assert sol.kappa <= 1.0 - math.exp(-2.0 * cost.lipschitz * cost.box.diameter / eps) + 1e-15
        rate = 0.5 * (1.0 + sol.kappa) if _is_self_problem(a, b) else sol.kappa
        hist = sol.residual_history
        assert np.all(hist[1:] <= (rate + 1e-6) * hist[:-1] + 1e-15)


# ---------------------------------------------------------------------------
# the dithering gradient
# ---------------------------------------------------------------------------

@FINITE
@given(problems(), st.sampled_from([0.15, 1.0, math.inf]), st.data())
def test_dithering_gradient_follows_the_order_of_the_atoms(problem, eps, data):
    # permuting the positions permutes the gradient's rows, and permuting the
    # target's atoms leaves it unchanged; the gradient is compared relative to
    # its size or, for one that nearly vanishes, to 1/M, the size of one
    # position's terms of the two contractions
    cost, target, positions = problem
    points = positions.points
    cfg = DitherConfig(M=len(points), epsilon=eps, cost=cost, inner_tol=1e-12)
    grad = gradient(cfg, target, points)
    tol = 1e-10 * max(np.max(np.abs(grad)), 1.0 / len(points))
    order = data.draw(st.permutations(range(len(points))))
    moved = gradient(cfg, target, points[order])
    assert np.max(np.abs(moved - grad[order])) <= tol
    target_order = data.draw(st.permutations(range(len(target))))
    moved = gradient(cfg, permuted(target, target_order), points)
    assert np.max(np.abs(moved - grad)) <= tol


# ---------------------------------------------------------------------------
# epsilon -> 0: the potentials reach the LP's
# ---------------------------------------------------------------------------

def _first_order_spread(mu, nu, plan) -> float:
    """osc(h) for h_i + g_j = log(P_ij / (mu_i nu_j)) on the plan's support.

    On a spanning-tree support, phi_eps - phi_LP = eps h + o(eps) up to a
    constant, since P_ij = mu_i nu_j exp((phi_i + psi_j - c_ij) / eps) on
    every edge; the system has one solution up to that constant.
    """
    rows, cols = np.nonzero(plan > 0)
    edges = np.arange(rows.size)
    incidence = np.zeros((rows.size, len(mu) + len(nu)))
    incidence[edges, rows] = incidence[edges, len(mu) + cols] = 1.0
    logs = np.log(plan[rows, cols] / (mu.weights[rows] * nu.weights[cols]))
    h = np.linalg.lstsq(incidence, logs, rcond=None)[0][:len(mu)]
    return float(np.ptp(h))


def test_potentials_converge_to_the_lp_potential_as_epsilon_falls():
    # a warm chain down the sweep grid; the LP's phi is unique up to a
    # constant when its plan's support is a spanning tree (n + m - 1 entries)
    cost = COSTS[2, "abs"]
    kept = 0
    for seed in range(1, 7):
        rng = np.random.default_rng(seed)
        mu, nu = (DiscreteMeasure.normalized(rng.random((20, 2)), rng.random(20) + 0.1)
                  for _ in range(2))
        lp = exact_ot(cost, mu, nu)
        if np.count_nonzero(lp.plan.matrix > 0) != 39:
            continue
        kept += 1
        spread, psi = {}, None
        for eps in DEFAULT_EPSILONS[::-1]:
            sol = solve(cost, mu, nu, SinkhornConfig(epsilon=float(eps)), psi0=psi)
            assert sol.converged, (seed, eps)
            psi = sol.potentials.psi
            spread[eps] = float(np.ptp(sol.potentials.phi - lp.phi))
        lower = [spread[eps] for eps in DEFAULT_EPSILONS[:13]]
        assert all(a <= b for a, b in zip(lower, lower[1:])), seed
        # the first-order rate: osc = eps osc(h) + o(eps) at the grid's end
        rate = lower[0] / DEFAULT_EPSILONS[0]
        assert rate == pytest.approx(_first_order_spread(mu, nu, lp.plan.matrix), rel=0.1), seed
    assert kept > 0


# ---------------------------------------------------------------------------
# the bits of cost and Gram matrices
# ---------------------------------------------------------------------------

# profiles written in the squared distance s, read from it directly
S_ROUTE = (Gaussian, InverseMultiquadric, SmoothedNegativeDistance)


def _bit_variants(dim):
    """Every kernel and cost variant on the unit box, the wrappers included."""
    box = BoundingBox(np.zeros(dim), np.ones(dim))
    kernels = [
        Gaussian(box, c=0.5), InverseMultiquadric(box, c=0.5, p=1.5),
        WendlandPower(box, p=dim // 2 + 1.5), NegativeDistance(box),
        ShiftedNegativeDistance(box), SmoothedNegativeDistance(box, c=0.05),
        CpdShifted(NegativeDistance(box), box.lower), CpdShifted(Gaussian(box, c=0.5), box.upper / 2),
    ]
    if dim == 1:
        kernels.append(SpectralKernel([1.0, 0.5, 0.25], box))
    costs = [AbsDistance(box), PowerDistance(box, p=0.5), PowerDistance(box, p=1.5),
             PowerDistance(box, p=2.0)]
    return kernels + costs + [NegatedKernel(k) for k in kernels]


BIT_VARIANTS = {dim: _bit_variants(dim) for dim in (1, 2, 3)}


def _profile_of_distances(k, r):
    """The profile h written on the distances r."""
    if isinstance(k, Gaussian):
        return np.exp(-(r * r) / (k.c * k.c))
    if isinstance(k, InverseMultiquadric):
        return (k.c * k.c + r * r) ** (-k.p)
    if isinstance(k, SmoothedNegativeDistance):
        return -np.sqrt(k.c * k.c + r * r)
    if isinstance(k, WendlandPower):
        return np.maximum(1.0 - r, 0.0) ** k.p
    if isinstance(k, NegativeDistance):
        return -r
    if isinstance(k, ShiftedNegativeDistance):
        return k.C - r
    if isinstance(k, SpectralKernel):
        out = np.full_like(r, k.alpha[0])
        for f in range(1, k.alpha.shape[0]):
            out = out + 2.0 * k.alpha[f] * np.cos(2.0 * np.pi * f * r)
        return out
    if isinstance(k, PowerDistance):
        return r ** k.p
    assert isinstance(k, AbsDistance)
    return r


def _reference(k, xs, ys):
    """(h(pairwise_distances), tol): the matrix from the distances, and how far k may be from it.

    The r-route variants take r = sqrt(s) and keep its bits (tol 0). An
    s-route profile is evaluated at s itself, the distance route at
    fl(fl(sqrt(s))^2), which is within 1.5 ulp of s; with the rounding of the
    profile's own operations on both sides that is within 4 ulp of s times
    |dh/ds| = |h'(r)| / (2 r), plus 4 ulp of h.
    """
    if isinstance(k, NegatedKernel):
        values, tol = _reference(k.kernel, xs, ys)
        return -values, tol
    if isinstance(k, CpdShifted):
        u = k.anchor[None, :]
        (kxy, t_xy), (kuu, _), (kuy, t_uy), (kxu, t_xu) = (
            _reference(k.base, a, b) for a, b in ((xs, ys), (u, u), (u, ys), (xs, u)))
        values = (kxy + kuu[0, 0]) - (kuy + kxu)
        tol = t_xy + t_uy + t_xu
        if np.any(tol):
            # the shift's two sums and difference, rounded in each route
            tol = tol + 4 * np.spacing(np.abs(kxy) + np.abs(kuu[0, 0]) + np.abs(kuy) + np.abs(kxu))
        return values, tol
    r = pairwise_distances(xs, ys)
    values = _profile_of_distances(k, r)
    if not isinstance(k, S_ROUTE):
        return values, np.zeros_like(values)
    slope = np.abs(k._grad_scale(r)) / 2
    return values, 4 * np.spacing(squared_distances(xs, ys)) * slope + 4 * np.spacing(np.abs(values))


@st.composite
def point_sets(draw):
    """(dim, xs, ys) of 1-6 points each in the unit box of dimension 1-3."""
    dim = draw(st.sampled_from(sorted(BIT_VARIANTS)))
    coords = st.floats(0.0, 1.0)
    xs = draw(arrays(float, (draw(st.integers(1, 6)), dim), elements=coords))
    ys = draw(arrays(float, (draw(st.integers(1, 6)), dim), elements=coords))
    return dim, xs, ys


@PROPERTY
@given(point_sets())
def test_matrices_keep_their_bits(points):
    # symmetric and pointwise bit for bit; the r-route profiles keep the bits
    # of the distances, the s-route ones agree with them to rounding
    dim, xs, ys = points
    for k in BIT_VARIANTS[dim]:
        name = f"{type(k).__name__}({type(getattr(k, 'kernel', k)).__name__})"
        gram = k.gram(xs, ys)
        assert k.gram(ys, xs).T.tobytes() == gram.tobytes(), name
        for i, j in np.ndindex(gram.shape):
            assert np.float64(k.eval(xs[i], ys[j])).tobytes() == gram[i, j].tobytes(), name
        reference, tol = _reference(k, xs, ys)
        if not np.any(tol):
            assert gram.tobytes() == reference.tobytes(), name
        else:
            assert np.all(np.abs(gram - reference) <= tol), name
