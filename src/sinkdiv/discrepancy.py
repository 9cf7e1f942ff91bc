"""Kernel discrepancy (MMD) between discrete measures.

Double-sum evaluation, the unit-norm witness function, the spectral form for
kernels defined by Fourier coefficients on the 1-torus, and the
attraction-repulsion halftoning energy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ZeroDiscrepancyError, ZeroMassError
from .kernels import Kernel, SpectralKernel
from .measures import DiscreteMeasure, _check_integer, _finite_points

# Below this threshold the witness (division by the RKHS norm) is undefined.
ZERO_DISCREPANCY_TOL = 1e-14


@dataclass(frozen=True)
class DiscrepancyResult:
    """Discrepancy value (the witness norm) and its raw square before clamping."""

    value: float
    squared: float


def discrepancy(kernel: Kernel, mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscrepancyResult:
    """D_K(mu, nu) via the three Gram double sums.

    squared = mu' G_xx mu + nu' G_yy nu - 2 mu' G_xy nu; cancellation can push
    the square a hair below zero, so the value clamps at zero while `squared`
    keeps the raw number.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError(f"dimensions differ: {mu.dim} vs {nu.dim}")
    sq = (
        float(mu.weights @ kernel.gram(mu.points, mu.points) @ mu.weights)
        + float(nu.weights @ kernel.gram(nu.points, nu.points) @ nu.weights)
        - 2.0 * float(mu.weights @ kernel.gram(mu.points, nu.points) @ nu.weights)
    )
    value = float(np.sqrt(max(sq, 0.0)))
    return DiscrepancyResult(value=value, squared=sq)


def witness_unnormalized(kernel: Kernel, mu: DiscreteMeasure, nu: DiscreteMeasure, points) -> np.ndarray:
    """Embedding difference sum_i mu_i K(x_i, t) - sum_j nu_j K(y_j, t) at query points."""
    pts = _finite_points(points)
    return kernel.gram(pts, mu.points) @ mu.weights - kernel.gram(pts, nu.points) @ nu.weights


def witness_eval(kernel: Kernel, mu: DiscreteMeasure, nu: DiscreteMeasure, points) -> np.ndarray:
    """Unit-norm witness function of D_K(mu, nu) evaluated at query points.

    Raises ZeroDiscrepancyError when D_K <= 1e-14.
    """
    d = discrepancy(kernel, mu, nu).value
    if d <= ZERO_DISCREPANCY_TOL:
        raise ZeroDiscrepancyError(f"discrepancy {d} too small, witness undefined")
    return witness_unnormalized(kernel, mu, nu, points) / d


@dataclass(frozen=True)
class FourierCoeffs:
    """Coefficients m_hat_k for k = -max_freq..max_freq of a measure on the 1-torus."""

    values: np.ndarray
    max_freq: int

    def __getitem__(self, k: int) -> complex:
        return complex(self.values[k + self.max_freq])


def fourier_coefficients(m: DiscreteMeasure, max_freq: int) -> FourierCoeffs:
    """m_hat_k = sum_j m_j exp(-2 pi i k x_j) by direct summation, for an integer max_freq >= 0."""
    max_freq = _check_integer("fourier_coefficients", "max_freq", max_freq, 0)
    if m.dim != 1:
        raise DimensionMismatchError("Fourier coefficients require 1-dimensional measures")
    x = m.points[:, 0]
    ks = np.arange(-max_freq, max_freq + 1)
    vals = np.array([np.sum(m.weights * np.exp(-2j * np.pi * k * x)) for k in ks])
    return FourierCoeffs(values=vals, max_freq=max_freq)


def spectral_discrepancy(sk: SpectralKernel, mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscrepancyResult:
    """D_K^2 = sum_{|k| <= N} alpha_k |mu_hat_k - nu_hat_k|^2 on the 1-torus."""
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionMismatchError("spectral discrepancy requires 1-dimensional measures")
    n = sk.max_freq
    mu_hat = fourier_coefficients(mu, n)
    nu_hat = fourier_coefficients(nu, n)
    sq = 0.0
    for k in range(-n, n + 1):
        sq += sk.alpha[abs(k)] * abs(mu_hat[k] - nu_hat[k]) ** 2
    value = float(np.sqrt(max(sq, 0.0)))
    return DiscrepancyResult(value=value, squared=float(sq))


def halftoning_energy(kernel: Kernel, target: DiscreteMeasure, positions) -> float:
    """Attraction-repulsion energy of M equal-weight atoms against a target.

    (1 / 2M^2) sum_{i,j} K(p_i, p_j) - (1 / M) sum_i sum_a w_a K(x_a, p_i);
    equals half the squared discrepancy minus the constant target self-term.
    A non-finite position coordinate raises NonFiniteValueError, and no
    positions raise ZeroMassError.
    """
    pts = _finite_points(positions)
    m_count = pts.shape[0]
    if m_count == 0:
        raise ZeroMassError("halftoning_energy needs at least one position")
    repulsion = float(np.sum(kernel.gram(pts, pts))) / (2.0 * m_count * m_count)
    attraction = float(np.sum(kernel.gram(target.points, pts) * target.weights[:, None])) / m_count
    return repulsion - attraction
