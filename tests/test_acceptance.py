"""Acceptance suite: one test per criterion, one printed status line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
Criterion 9a (the stated Pinsker bound without the factor 2) is expected to
fail: the inequality as printed is false for nearby measures; the classical
bound carries a factor 2; the test prints a counterexample.
"""
import math
import time

import numpy as np
import pytest

from sinkdiv import (
    AbsDistance,
    BoundingBox,
    CpdShifted,
    DiscreteMeasure,
    Gaussian,
    NegatedKernel,
    NegativeDistance,
    ShiftedNegativeDistance,
    SinkhornConfig,
    SpectralKernel,
    dirac,
    discrepancy,
    dither,
    exact_ot,
    gradient,
    kl_divergence,
    objective,
    ot_infinity,
    s_infinity,
    sample_grid_density,
    sinkhorn_divergence,
    solve,
    spectral_discrepancy,
    tv_norm,
    wasserstein1_1d,
    witness_eval,
    witness_from_limits,
)
from sinkdiv.dither import DitherConfig
from sinkdiv.sinkhorn import extend_potentials

BOX_1D = BoundingBox(np.array([0.0]), np.array([1.0]))
BOX_2D = BoundingBox(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

FOUR_ATOM_MU = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
FOUR_ATOM_NU = DiscreteMeasure(np.array([[0.1], [0.9]]), np.array([0.5, 0.5]))

ASYM_MU = DiscreteMeasure(np.array([[0.1], [0.5]]), np.array([0.3, 0.7]))
ASYM_NU = DiscreteMeasure(np.array([[0.3], [0.95]]), np.array([0.5, 0.5]))


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {detail}"


def random_pair(rng, n, box):
    mu = DiscreteMeasure.normalized(
        box.lower + rng.random((n, box.dim)) * (box.upper - box.lower),
        rng.random(n) + 1e-3,
    )
    nu = DiscreteMeasure.normalized(
        box.lower + rng.random((n, box.dim)) * (box.upper - box.lower),
        rng.random(n) + 1e-3,
    )
    return mu, nu


def test_criterion_01_four_atom_reproduction():
    start = time.time()
    cost = AbsDistance(BOX_1D)
    lp = exact_ot(cost, FOUR_ATOM_MU, FOUR_ATOM_NU).value
    cdf = wasserstein1_1d(FOUR_ATOM_MU, FOUR_ATOM_NU)
    sol = solve(cost, FOUR_ATOM_MU, FOUR_ATOM_NU, SinkhornConfig(epsilon=1e-4))
    elapsed = time.time() - start
    ok = (
        abs(lp - 0.1) <= 1e-12
        and abs(cdf - 0.1) <= 1e-12
        and abs(sol.value - 0.1) <= 5e-3
        and elapsed < 1.0
    )
    report(1, ok, f"(lp={lp:.12f}, cdf={cdf:.12f}, eps-value={sol.value:.6f}, {elapsed:.2f}s)")


def test_criterion_02_monotone_in_regularization():
    start = time.time()
    worst = math.inf
    for dim, seed in [(1, 101), (1, 202), (2, 303)]:
        box = BOX_1D if dim == 1 else BOX_2D
        cost = AbsDistance(box)
        mu, nu = random_pair(np.random.default_rng(seed), 20, box)
        values = [
            solve(cost, mu, nu, SinkhornConfig(epsilon=float(e))).value
            for e in np.logspace(-4, 3, 25)
        ]
        worst = min(worst, float(np.min(np.diff(values))))
    elapsed = time.time() - start
    ok = worst >= -1e-8 and elapsed < 30.0
    report(2, ok, f"(smallest increment {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_limits_at_large_regularization():
    cost = AbsDistance(BOX_1D)
    limits = ot_infinity(cost, ASYM_MU, ASYM_NU)
    sol = solve(cost, ASYM_MU, ASYM_NU, SinkhornConfig(epsilon=1024.0))
    gap_1024 = abs(sol.value - limits.value)
    phi_1024 = float(np.max(np.abs(sol.potentials.phi - limits.potentials.phi)))

    grid = np.logspace(-4, 3, 25)
    gaps, dists = [], []
    for eps in grid:
        s = solve(cost, ASYM_MU, ASYM_NU, SinkhornConfig(epsilon=float(eps)))
        gaps.append(abs(s.value - limits.value))
        dists.append(float(np.max(np.abs(s.potentials.phi - limits.potentials.phi))))
    half = len(grid) // 2
    decreasing = all(b <= a for a, b in zip(gaps[half:], gaps[half + 1:])) and all(
        b <= a for a, b in zip(dists[half:], dists[half + 1:])
    )
    ok = gap_1024 <= 1e-3 and phi_1024 <= 1e-3 and decreasing
    report(3, ok, f"(value gap {gap_1024:.2e}, potential gap {phi_1024:.2e}, upper half decreasing {decreasing})")


def test_criterion_04_limit_at_small_regularization():
    cost = AbsDistance(BOX_1D)
    rng = np.random.default_rng(0)
    xs = np.linspace(0, 1, 15)[:, None]
    shared_mu = DiscreteMeasure.normalized(xs, rng.random(15) + 0.1)
    shared_nu = DiscreteMeasure.normalized(xs, rng.random(15) + 0.1)

    ok = True
    details = []
    for mu, nu, max_iter in [
        (FOUR_ATOM_MU, FOUR_ATOM_NU, 10_000),
        (shared_mu, shared_nu, 100_000),
    ]:
        exact = exact_ot(cost, mu, nu).value
        gaps = []
        for eps in [1e-1, 1e-2, 1e-3, 1e-4]:
            sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps, max_iter=max_iter))
            gaps.append(sol.value - exact)
        ok = ok and all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        ok = ok and -1e-9 <= gaps[-1] <= 1e-3
        details.append(f"{gaps[-1]:.2e}")
    report(4, ok, f"(gaps at 1e-4: {', '.join(details)})")


def test_criterion_05_infinite_regularization_identity():
    rng = np.random.default_rng(7)
    kernels = [
        Gaussian(BOX_1D, c=0.5),
        CpdShifted(NegativeDistance(BOX_1D), anchor=[0.0]),
    ]
    worst_solver = 0.0
    worst_algebra = 0.0
    for kernel in kernels:
        cost = NegatedKernel(kernel)
        for _ in range(5):
            mu, nu = random_pair(rng, 10, BOX_1D)
            target = s_infinity(cost, mu, nu)
            div = sinkhorn_divergence(cost, mu, nu, SinkhornConfig(epsilon=1e3))
            worst_solver = max(worst_solver, abs(div.s_eps - target))
            combo = (
                ot_infinity(cost, mu, nu).value
                - 0.5 * ot_infinity(cost, mu, mu).value
                - 0.5 * ot_infinity(cost, nu, nu).value
            )
            worst_algebra = max(worst_algebra, abs(combo - target))
    ok = worst_solver <= 2e-3 and worst_algebra <= 1e-12
    report(5, ok, f"(solver {worst_solver:.2e} <= 2e-3, algebra {worst_algebra:.2e} <= 1e-12)")


def test_criterion_06_kernel_shift_invariance():
    rng = np.random.default_rng(11)
    base = NegativeDistance(BOX_1D)
    plus_c = ShiftedNegativeDistance(BOX_1D, C=2.0)
    anchored = CpdShifted(base, anchor=[0.0])
    worst_d = 0.0
    for _ in range(100):
        mu, nu = random_pair(rng, 8, BOX_1D)
        values = [
            discrepancy(k, mu, nu).squared for k in (base, plus_c, anchored)
        ]
        worst_d = max(worst_d, max(values) - min(values))

    grid = np.linspace(0, 1, 100)[:, None]
    mu, nu = random_pair(rng, 8, BOX_1D)
    w_base = witness_eval(base, mu, nu, grid)
    w_plus = witness_eval(plus_c, mu, nu, grid)
    w_anchored = witness_from_limits(anchored, mu, nu, grid)
    worst_w = max(
        float(np.max(np.abs(w_base - w_plus))),
        float(np.max(np.abs(w_base - w_anchored))),
    )
    ok = worst_d <= 1e-10 and worst_w <= 1e-9
    report(6, ok, f"(squared spread {worst_d:.2e} <= 1e-10, witness spread {worst_w:.2e} <= 1e-9)")


def test_criterion_07_spectral_gram_agreement():
    hand = SpectralKernel([1.0, 1.0])
    mu, nu = dirac([0.0]), dirac([0.5])
    hand_spectral = spectral_discrepancy(hand, mu, nu).squared
    hand_gram = discrepancy(hand, mu, nu).squared

    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        sk = SpectralKernel(rng.random(9))
        a, b = random_pair(rng, 7, BOX_1D)
        worst = max(
            worst,
            abs(spectral_discrepancy(sk, a, b).squared - discrepancy(sk, a, b).squared),
        )
    ok = (
        abs(hand_spectral - 8.0) <= 1e-12
        and abs(hand_gram - 8.0) <= 1e-12
        and worst <= 1e-10
    )
    report(7, ok, f"(hand {hand_spectral:.12f} / {hand_gram:.12f}, worst spread {worst:.2e})")


def test_criterion_08_solver_soundness():
    rng = np.random.default_rng(17)
    cost = AbsDistance(BOX_1D)
    worst_marginal = 0.0
    worst_gap = 0.0
    worst_excess = -math.inf
    checked = 0
    for seed in (1, 2):
        mu, nu = random_pair(np.random.default_rng(seed), 15, BOX_1D)
        for eps in [1e-2, 0.1, 1.0, 10.0, 1e3]:
            sol = solve(cost, mu, nu, SinkhornConfig(epsilon=eps))
            if not sol.converged:
                continue
            checked += 1
            worst_marginal = max(worst_marginal, sol.plan.marginal_error())
            worst_gap = max(worst_gap, sol.duality_gap)
            hist = sol.residual_history
            if hist.size >= 3:
                ratios = hist[2:] / hist[1:-1]
                worst_excess = max(worst_excess, float(np.max(ratios)) - sol.kappa)
    ok = (
        checked >= 8
        and worst_marginal <= 1e-8
        and worst_gap <= 1e-6
        and worst_excess <= 1e-6
    )
    report(
        8,
        ok,
        f"({checked} runs, marginal {worst_marginal:.2e}, gap {worst_gap:.2e}, "
        f"contraction excess {worst_excess:.2e})",
    )


def test_criterion_09a_pinsker_as_stated():
    # As stated the bound has no factor 2; the classical inequality is
    # ||mu - nu||^2 <= 2 KL. Nearby measures violate the factor-free form:
    # mu = (0.6, 0.4), nu = (0.5, 0.5) has tv^2 = 0.04 > KL = 0.0201.
    # This check is implemented faithfully and is expected to fail.
    rng = np.random.default_rng(19)
    pts = rng.random((5, 1))
    violations = 0
    worst = 0.0
    for _ in range(1000):
        mu = DiscreteMeasure.normalized(pts, rng.random(5) + 1e-9)
        nu = DiscreteMeasure.normalized(pts, rng.random(5) + 1e-9)
        kl = kl_divergence(mu, nu)
        tv_sq = tv_norm(mu, nu) ** 2
        if tv_sq > kl + 1e-12:
            violations += 1
            worst = max(worst, tv_sq - kl)
    report(
        "9a",
        violations == 0,
        f"(tv^2 <= KL violated on {violations}/1000 pairs, worst excess {worst:.3f}; "
        "the classical bound tv^2 <= 2 KL holds, see criterion 9b)",
    )


def test_criterion_09b_pinsker_with_classical_constant():
    rng = np.random.default_rng(19)
    pts = rng.random((5, 1))
    ok = True
    for _ in range(1000):
        mu = DiscreteMeasure.normalized(pts, rng.random(5) + 1e-9)
        nu = DiscreteMeasure.normalized(pts, rng.random(5) + 1e-9)
        ok = ok and tv_norm(mu, nu) ** 2 <= 2.0 * kl_divergence(mu, nu) + 1e-12
    report("9b", ok, "(tv^2 <= 2 KL on 1000 random same-support pairs)")


def test_criterion_09c_kl_identity_and_entropy_offset():
    rng = np.random.default_rng(23)
    pts = rng.random((6, 1))
    ok = True
    for _ in range(200):
        m = DiscreteMeasure.normalized(pts, rng.random(6) + 1e-6)
        ok = ok and kl_divergence(m, m) == 0.0

    worst = 0.0
    for _ in range(100):
        w_mu = rng.random(4) + 0.05
        w_mu /= w_mu.sum()
        w_nu = rng.random(5) + 0.05
        w_nu /= w_nu.sum()
        theta = rng.random()
        # couplings: blend of the independent one and a monotone one
        greedy = np.zeros((4, 5))
        rows, cols = w_mu.copy(), w_nu.copy()
        i = j = 0
        while i < 4 and j < 5:
            move = min(rows[i], cols[j])
            greedy[i, j] = move
            rows[i] -= move
            cols[j] -= move
            if rows[i] <= cols[j]:
                i += 1
            else:
                j += 1
        plan = theta * np.outer(w_mu, w_nu) + (1 - theta) * greedy

        grid = np.arange(20, dtype=float)[:, None]
        pi = DiscreteMeasure(grid, plan.ravel())
        prod = DiscreteMeasure(grid, np.outer(w_mu, w_nu).ravel())
        lam = DiscreteMeasure(grid, np.full(20, 1.0 / 20.0))
        lhs = kl_divergence(pi, lam) - kl_divergence(prod, lam)
        worst = max(worst, abs(lhs - kl_divergence(pi, prod)))
    ok = ok and worst <= 1e-10
    report("9c", ok, f"(KL(m, m) = 0; entropy-offset identity within {worst:.2e})")


def test_criterion_10_gradient_gate():
    start = time.time()
    square = BoundingBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    cost = AbsDistance(square)
    rng = np.random.default_rng(29)
    worst = {"inf": 0.0, "finite": 0.0}
    for trial in range(20):
        n = int(rng.integers(5, 26))
        m_count = int(rng.integers(1, 6))
        target = DiscreteMeasure.normalized(
            square.lower + 2 * rng.random((n, 2)), rng.random(n) + 0.05
        )
        pos = square.lower + 2 * rng.random((m_count, 2))
        eps_finite = float(rng.choice([0.1, 0.5, 1.0]))
        for label, eps in [("inf", math.inf), ("finite", eps_finite)]:
            cfg = DitherConfig(M=m_count, epsilon=eps, cost=cost, inner_tol=1e-12)
            grad = gradient(cfg, target, pos)
            fd = np.zeros_like(pos)
            h = 1e-5
            for j in range(m_count):
                for k in range(2):
                    up = pos.copy()
                    up[j, k] += h
                    down = pos.copy()
                    down[j, k] -= h
                    fd[j, k] = (
                        objective(cfg, target, up) - objective(cfg, target, down)
                    ) / (2 * h)
            rel = float(np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12))
            worst[label] = max(worst[label], rel)
    elapsed = time.time() - start
    ok = worst["inf"] <= 1e-4 and worst["finite"] <= 1e-4 and elapsed < 60.0
    report(10, ok, f"(rel err inf {worst['inf']:.2e}, finite {worst['finite']:.2e}, {elapsed:.1f}s)")


def test_criterion_11_desk_scale_dithering():
    start = time.time()
    square = BoundingBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    target = sample_grid_density(
        lambda x: math.exp(-9.0 * float(x @ x) / 2.0), square, 30
    )
    cost = AbsDistance(square)
    budgets = {0.03: 80, 0.15: 150, 1.25: 200, math.inf: 600}
    finals = {}
    monotone = True
    for eps, budget in budgets.items():
        cfg = DitherConfig(M=50, epsilon=eps, cost=cost, seed=7,
                           max_outer_iter=budget, grad_tol=1e-7)
        state = dither(cfg, target)
        energies = [rec["energy"] for rec in state.trace]
        monotone = monotone and all(
            b <= a + 1e-14 for a, b in zip(energies, energies[1:])
        )
        finals[eps] = (energies[0], state.energy)
    elapsed = time.time() - start

    # tenfold reduction asserted on the pure-discrepancy run, as in the
    # module contract; the finite runs bottom out at their own optima
    initial_inf, final_inf = finals[math.inf]
    reduction_ok = final_inf <= 0.1 * initial_inf
    ordering = [finals[e][1] for e in (0.03, 0.15, 1.25, math.inf)]
    ordering_ok = all(a >= b for a, b in zip(ordering, ordering[1:]))
    ok = reduction_ok and monotone and ordering_ok and elapsed < 600.0
    report(
        11,
        ok,
        f"(reduction {final_inf / initial_inf:.3f} <= 0.1, monotone {monotone}, "
        f"ordering {[f'{v:.2e}' for v in ordering]}, {elapsed:.0f}s)",
    )


def test_criterion_12_small_regularization_antisymmetry():
    cost = AbsDistance(BOX_1D)
    rng = np.random.default_rng(0)
    xs = np.linspace(0, 1, 15)[:, None]
    mu = DiscreteMeasure.normalized(xs, rng.random(15) + 0.1)
    nu = DiscreteMeasure.normalized(xs, rng.random(15) + 0.1)
    sol = solve(cost, mu, nu, SinkhornConfig(epsilon=1e-4, max_iter=100_000))
    shared = float(np.max(np.abs(sol.potentials.phi + sol.potentials.psi)))

    sol_toy = solve(cost, FOUR_ATOM_MU, FOUR_ATOM_NU, SinkhornConfig(epsilon=1e-4))
    union = np.concatenate([FOUR_ATOM_MU.points, FOUR_ATOM_NU.points])
    phi_e, psi_e = extend_potentials(cost, FOUR_ATOM_MU, FOUR_ATOM_NU, sol_toy.potentials, union)
    extended = float(np.max(np.abs(phi_e + psi_e)))
    ok = sol.converged and shared <= 1e-2 and extended <= 1e-2
    report(12, ok, f"(shared support {shared:.2e}, extended toy {extended:.2e})")
