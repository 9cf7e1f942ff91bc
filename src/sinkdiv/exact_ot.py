"""Exact unregularized optimal transport oracles.

A closed-form 1D Wasserstein-1 distance and an exact solver for the discrete
transportation problem, with a feasible dual pair certifying optimality.
Both serve as ground truth for the small-regularization limit elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SizeExceededError
from .kernels import Cost
from .measures import DiscreteMeasure

# Desk-scale cap on the number of plan variables.
MAX_PLAN_SIZE = 1_000_000


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix with its marginals."""

    matrix: np.ndarray
    mu: DiscreteMeasure
    nu: DiscreteMeasure

    def row_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    def marginal_error(self) -> float:
        return float(
            max(
                np.max(np.abs(self.row_sums() - self.mu.weights)),
                np.max(np.abs(self.col_sums() - self.nu.weights)),
            )
        )


@dataclass(frozen=True)
class ExactOTResult:
    """Optimal value, an optimal plan, and a feasible dual pair (phi, psi)."""

    value: float
    plan: TransportPlan
    phi: np.ndarray
    psi: np.ndarray

    @property
    def dual_value(self) -> float:
        return float(self.phi @ self.plan.mu.weights + self.psi @ self.plan.nu.weights)


def wasserstein1_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W_1 for 1D measures with cost |x - y|: integral of |F_mu - F_nu|.

    Evaluated exactly over the sorted merged support breakpoints.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionMismatchError("wasserstein1_1d requires 1-dimensional measures")
    xs = mu.points[:, 0]
    ys = nu.points[:, 0]
    order_x = np.argsort(xs, kind="stable")
    order_y = np.argsort(ys, kind="stable")
    xs_sorted = xs[order_x]
    ys_sorted = ys[order_y]
    all_values = np.sort(np.concatenate([xs_sorted, ys_sorted]), kind="stable")
    deltas = np.diff(all_values)

    cum_x = np.concatenate([[0.0], np.cumsum(mu.weights[order_x])])
    cum_y = np.concatenate([[0.0], np.cumsum(nu.weights[order_y])])
    f_mu = cum_x[np.searchsorted(xs_sorted, all_values[:-1], side="right")]
    f_nu = cum_y[np.searchsorted(ys_sorted, all_values[:-1], side="right")]
    return float(np.sum(np.abs(f_mu - f_nu) * deltas))


def _c_transform(c_matrix: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """psi_j = min_i (c_ij - phi_i)."""
    return np.min(c_matrix - phi[:, None], axis=0)


def exact_ot(cost: Cost, mu: DiscreteMeasure, nu: DiscreteMeasure) -> ExactOTResult:
    """Solve the discrete transportation problem exactly.

    Uses an exact LP method on the transportation polytope; the returned dual
    pair is tightened by a double c-transform so that feasibility
    phi_i + psi_j <= c_ij holds to rounding while keeping the dual value
    optimal. Optimal plans are not unique in general; only values should be
    compared downstream unless uniqueness is known.
    """
    # scipy is loaded here, by the one solve that needs it, not on import
    from scipy import sparse
    from scipy.optimize import linprog

    if mu.dim != nu.dim:
        raise DimensionMismatchError(f"dimensions differ: {mu.dim} vs {nu.dim}")
    n, m = len(mu), len(nu)
    if n * m > MAX_PLAN_SIZE:
        raise SizeExceededError(f"plan size {n * m} exceeds cap {MAX_PLAN_SIZE}")

    c_matrix = cost.matrix(mu.points, nu.points)

    # equality constraints: row sums = mu, column sums = nu
    row_idx = np.repeat(np.arange(n), m)
    col_idx = n + np.tile(np.arange(m), n)
    var_idx = np.arange(n * m)
    a_eq = sparse.coo_matrix(
        (
            np.ones(2 * n * m),
            (np.concatenate([row_idx, col_idx]), np.concatenate([var_idx, var_idx])),
        ),
        shape=(n + m, n * m),
    ).tocsr()
    b_eq = np.concatenate([mu.weights, nu.weights])

    res = linprog(c_matrix.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transportation LP failed: {res.message}")

    plan_matrix = np.maximum(res.x.reshape(n, m), 0.0)
    plan = TransportPlan(matrix=plan_matrix, mu=mu, nu=nu)
    value = float(np.sum(c_matrix * plan_matrix))

    # marginals of the equality constraints, tightened to an exactly feasible
    # c-transform pair (this cannot decrease the dual value)
    marg = np.asarray(res.eqlin.marginals)
    phi = marg[:n].copy()
    psi = _c_transform(c_matrix, phi)
    phi = np.min(c_matrix - psi[None, :], axis=1)
    psi = _c_transform(c_matrix, phi)
    return ExactOTResult(value=value, plan=plan, phi=phi, psi=psi)


def dual_feasibility_check(
    cost: Cost,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    phi: np.ndarray,
    psi: np.ndarray,
) -> float:
    """Largest violation max_{i,j} (phi_i + psi_j - c_ij); feasible iff <= 0."""
    c_matrix = cost.matrix(mu.points, nu.points)
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    return float(np.max(phi[:, None] + psi[None, :] - c_matrix))
