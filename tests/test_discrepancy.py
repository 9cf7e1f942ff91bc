"""Discrepancy double sums, witness functions, spectral form, halftoning energy."""
import math
import warnings

import numpy as np
import pytest

from sinkdiv import (
    BoundingBox,
    CpdShifted,
    DiscreteMeasure,
    Gaussian,
    NegativeDistance,
    ShiftedNegativeDistance,
    SpectralKernel,
    dirac,
    discrepancy,
    fourier_coefficients,
    halftoning_energy,
    spectral_discrepancy,
    uniform,
    witness_eval,
)
from sinkdiv.errors import DimensionMismatchError, NonFiniteValueError, ZeroDiscrepancyError

from conftest import random_measure


def brute_force_squared(kernel, mu, nu):
    """Independent double-sum oracle, plain loops."""
    total = 0.0
    for sign, (a, b) in [(1, (mu, mu)), (1, (nu, nu)), (-2, (mu, nu))]:
        acc = 0.0
        for wi, xi in zip(a.weights, a.points):
            for wj, yj in zip(b.weights, b.points):
                acc += wi * wj * kernel.eval(xi, yj)
        total += sign * acc
    return total


def test_identity_measure_zero(unit_square):
    rng = np.random.default_rng(0)
    m = random_measure(rng, 8, unit_square)
    res = discrepancy(Gaussian(unit_square, c=0.5), m, m)
    assert abs(res.squared) <= 1e-12
    assert res.value == 0.0


def test_hand_value_two_diracs(unit_box):
    # K = 1 - |x - y| on [0, 1]: squared = 1 + 1 - 2 * 0 = 2
    k = ShiftedNegativeDistance(unit_box, C=1.0)
    res = discrepancy(k, dirac([0.0]), dirac([1.0]))
    assert res.squared == pytest.approx(2.0, abs=1e-15)
    assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_matches_brute_force(unit_square):
    rng = np.random.default_rng(1)
    k = Gaussian(unit_square, c=0.6)
    for _ in range(5):
        mu = random_measure(rng, 6, unit_square)
        nu = random_measure(rng, 5, unit_square)
        res = discrepancy(k, mu, nu)
        assert res.squared == pytest.approx(brute_force_squared(k, mu, nu), abs=1e-12)


def test_cpd_shift_leaves_squared_unchanged(unit_box):
    rng = np.random.default_rng(2)
    base = NegativeDistance(unit_box)
    shifted = CpdShifted(base, anchor=[0.3])
    for _ in range(20):
        mu = random_measure(rng, 7, unit_box)
        nu = random_measure(rng, 9, unit_box)
        a = brute_force_squared(base, mu, nu)
        b = brute_force_squared(shifted, mu, nu)
        assert a == pytest.approx(b, abs=1e-10)
        assert discrepancy(base, mu, nu).squared == pytest.approx(a, abs=1e-12)
        assert discrepancy(shifted, mu, nu).squared == pytest.approx(b, abs=1e-12)


def test_symmetry_in_arguments(unit_square):
    rng = np.random.default_rng(3)
    k = Gaussian(unit_square, c=0.5)
    for _ in range(10):
        mu = random_measure(rng, 6, unit_square)
        nu = random_measure(rng, 6, unit_square)
        assert discrepancy(k, mu, nu).value == pytest.approx(
            discrepancy(k, nu, mu).value, abs=1e-14
        )


def test_constant_shift_invariance(unit_box):
    rng = np.random.default_rng(4)
    base = NegativeDistance(unit_box)
    plus_c = ShiftedNegativeDistance(unit_box, C=3.7)
    for _ in range(20):
        mu = random_measure(rng, 8, unit_box)
        nu = random_measure(rng, 8, unit_box)
        assert discrepancy(base, mu, nu).squared == pytest.approx(
            discrepancy(plus_c, mu, nu).squared, abs=1e-10
        )


def test_squared_never_far_below_zero_for_pd_kernels(unit_square):
    # cancellation may push the raw square slightly negative; for positive
    # definite kernels it stays above -1e-10 and the value clamps at 0
    rng = np.random.default_rng(9)
    k = Gaussian(unit_square, c=0.5)
    for _ in range(50):
        pts = rng.random((6, 2))
        w = rng.random(6) + 0.1
        mu = DiscreteMeasure.normalized(pts, w)
        nu = DiscreteMeasure.normalized(pts, w * (1 + 1e-14 * rng.random(6)))
        res = discrepancy(k, mu, nu)
        assert res.squared >= -1e-10
        assert res.value >= 0.0


def test_dimension_mismatch(unit_box, unit_square):
    mu = dirac([0.0])
    nu = dirac([0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        discrepancy(Gaussian(unit_square, c=1.0), mu, nu)


# ---------------------------------------------------------------------------
# witness function
# ---------------------------------------------------------------------------

def test_witness_hand_values(unit_box):
    k = ShiftedNegativeDistance(unit_box, C=1.0)
    mu, nu = dirac([0.0]), dirac([1.0])
    grid = np.linspace(0, 1, 11)[:, None]
    w = witness_eval(k, mu, nu, grid)
    expected = (1.0 - 2.0 * grid[:, 0]) / math.sqrt(2.0)
    assert np.allclose(w, expected, atol=1e-14)
    assert w[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

def test_witness_pairing_equals_discrepancy(unit_box):
    k = ShiftedNegativeDistance(unit_box, C=1.0)
    mu, nu = dirac([0.0]), dirac([1.0])
    w_mu = witness_eval(k, mu, nu, mu.points)
    w_nu = witness_eval(k, mu, nu, nu.points)
    paired = float(w_mu @ mu.weights - w_nu @ nu.weights)
    assert paired == pytest.approx(math.sqrt(2.0), abs=1e-14)

def test_witness_pairing_random_instances(unit_square):
    rng = np.random.default_rng(5)
    k = Gaussian(unit_square, c=0.5)
    for _ in range(20):
        mu = random_measure(rng, 6, unit_square)
        nu = random_measure(rng, 7, unit_square)
        d = discrepancy(k, mu, nu).value
        paired = float(
            witness_eval(k, mu, nu, mu.points) @ mu.weights
            - witness_eval(k, mu, nu, nu.points) @ nu.weights
        )
        assert paired == pytest.approx(d, abs=1e-10)

def test_witness_zero_discrepancy(unit_box):
    m = uniform(np.array([[0.2], [0.8]]))
    with pytest.raises(ZeroDiscrepancyError):
        witness_eval(Gaussian(unit_box, c=1.0), m, m, np.array([[0.5]]))


# ---------------------------------------------------------------------------
# spectral form on the torus
# ---------------------------------------------------------------------------

def test_spectral_identity_zero():
    sk = SpectralKernel([1.0, 1.0])
    m = uniform(np.array([[0.1], [0.6]]))
    assert spectral_discrepancy(sk, m, m).squared == pytest.approx(0.0, abs=1e-14)

def test_spectral_hand_instance():
    # alpha_k = 1 for |k| <= 1, delta_0 vs delta_{1/2}: squared = 4 + 0 + 4 = 8
    sk = SpectralKernel([1.0, 1.0])
    mu, nu = dirac([0.0]), dirac([0.5])
    res = spectral_discrepancy(sk, mu, nu)
    assert res.squared == pytest.approx(8.0, abs=1e-12)

def test_spectral_matches_gram_hand_instance():
    # same instance through the explicit kernel K(x,y) = 1 + 2 cos(2 pi (x-y))
    sk = SpectralKernel([1.0, 1.0])
    mu, nu = dirac([0.0]), dirac([0.5])
    gram_sq = discrepancy(sk, mu, nu).squared
    assert gram_sq == pytest.approx(3.0 + 3.0 - 2.0 * (-1.0), abs=1e-12)
    assert spectral_discrepancy(sk, mu, nu).squared == pytest.approx(gram_sq, abs=1e-10)

def test_spectral_matches_gram_random():
    rng = np.random.default_rng(6)
    box = BoundingBox(np.array([0.0]), np.array([1.0]))
    for _ in range(25):
        alpha = rng.random(9)
        sk = SpectralKernel(alpha)
        mu = random_measure(rng, 6, box)
        nu = random_measure(rng, 8, box)
        spectral = spectral_discrepancy(sk, mu, nu).squared
        gram = discrepancy(sk, mu, nu).squared
        assert spectral == pytest.approx(gram, abs=1e-10)

def test_fourier_coefficients_basics():
    m = uniform(np.array([[0.0], [0.25], [0.5], [0.75]]))
    coeffs = fourier_coefficients(m, 4)
    assert coeffs[0] == pytest.approx(1.0, abs=1e-14)
    assert coeffs[-1] == pytest.approx(np.conj(coeffs[1]), abs=1e-14)
    # four equispaced atoms kill every frequency not divisible by 4
    assert abs(coeffs[1]) <= 1e-14
    assert abs(coeffs[4]) == pytest.approx(1.0, abs=1e-12)

def test_fourier_coefficients_max_freq_zero_is_the_mass():
    coeffs = fourier_coefficients(uniform(np.array([[0.1], [0.7]])), np.int64(0))
    assert coeffs.max_freq == 0 and coeffs[0] == pytest.approx(1.0, abs=1e-15)

@pytest.mark.parametrize("max_freq", [-1, 1.5, 2.0, True, "2"])
def test_fourier_coefficients_require_a_non_negative_integer(max_freq):
    with pytest.raises(ValueError, match="integer max_freq >= 0"):
        fourier_coefficients(uniform(np.array([[0.1], [0.7]])), max_freq)


# ---------------------------------------------------------------------------
# halftoning energy
# ---------------------------------------------------------------------------

def test_halftoning_self_approximation(unit_square):
    k = Gaussian(unit_square, c=0.5)
    pts = np.array([[0.1, 0.1], [0.9, 0.2], [0.4, 0.8]])
    target = uniform(pts)
    energy = halftoning_energy(k, target, pts)
    self_term = float(target.weights @ k.gram(pts, pts) @ target.weights)
    assert energy == pytest.approx(-0.5 * self_term, abs=1e-12)

def test_halftoning_single_atom(unit_square):
    k = Gaussian(unit_square, c=0.5)
    x = np.array([0.2, 0.3])
    p = np.array([[0.7, 0.7]])
    energy = halftoning_energy(k, dirac(x), p)
    assert energy == pytest.approx(0.5 * k.eval(p[0], p[0]) - k.eval(x, p[0]), abs=1e-14)

def test_halftoning_rejects_non_finite_positions(unit_square):
    k = Gaussian(unit_square, c=0.4)
    target = uniform([[0.2, 0.2], [0.5, 0.5]])
    # unchecked, a NaN coordinate would give nan and an infinite one a
    # RuntimeWarning; each raises before any of that
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in [math.nan, math.inf]:
            with pytest.raises(NonFiniteValueError, match="non-finite"):
                halftoning_energy(k, target, [[0.3, 0.3], [0.4, bad]])

def test_halftoning_vs_discrepancy_identity(unit_square):
    rng = np.random.default_rng(7)
    k = Gaussian(unit_square, c=0.5)
    for _ in range(10):
        target = random_measure(rng, 9, unit_square)
        pts = rng.random((4, 2))
        energy = halftoning_energy(k, target, pts)
        self_term = float(
            target.weights @ k.gram(target.points, target.points) @ target.weights
        )
        half_sq = 0.5 * discrepancy(k, uniform(pts), target).squared
        assert energy + 0.5 * self_term == pytest.approx(half_sq, abs=1e-12)
