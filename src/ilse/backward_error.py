"""Linearized backward-error estimation for a candidate ILSE solution y.

The first-order optimality conditions of the perturbed problem, linearized
in the perturbation quadruple (E, f, F, g), form an underdetermined system

    J(xi) [vec(E); theta1 f; theta2 vec(F); theta3 g] = rhs(xi)

whose coefficient matrix, for r_y = b - A y, is

    J(xi) = [ I_n (x) (r_y^T S) - A^T S (y^T (x) I_m) | theta1^-1 A^T S | -theta2^-1 (I_n (x) xi^T) | 0            ]
            [ 0                                       | 0               |  theta2^-1 (y^T (x) I_s)  | -theta3^-1 I_s ]

((x) denotes the Kronecker product) and whose right-hand side stacks the
optimality residuals (B^T xi - A^T S r_y, d - B y). The norm of the
minimum-norm solution, rho(xi), estimates the normwise backward error;
this module evaluates it, the closed-form least-squares multiplier that
minimizes the right-hand-side norm, the uniform pseudoinverse bound
tau0 = max(theta3, 1/alpha), and the resulting two-sided bounds.

rho is always computed through an orthogonal factorization of J^T, never
by forming a pseudoinverse: for J^T = Q R the minimum-norm solution norm
equals |R^-T rhs|_2 and the solution itself is Q R^-T rhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .core import (
    IlseProblem,
    RankDeficiencyError,
    WeightScheme,
    BackwardErrorReport,
    apply_signature,
)

# Relative threshold on sigma_min/sigma_max below which J is treated as
# rank deficient (double-precision proxy for the exact-arithmetic claim).
# Badly scaled but numerically sound linearizations reach kappa(J) ~ 1e13
# at condition extremes, so only rounding-level singularity is flagged.
RANK_RTOL = 10.0 * np.finfo(float).eps


@dataclass(frozen=True)
class LinearizationOperator:
    """Dense linearization matrix J together with the multiplier and
    weights it was assembled with.

    J has n + s rows and n*m + m + n*s + s columns; the column blocks act
    on (vec(E), theta1*f, theta2*vec(F), theta3*g) in that order.
    """

    J: np.ndarray
    xi: np.ndarray
    weights: WeightScheme
    m: int
    n: int
    s: int


def _check_candidate(problem: IlseProblem, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.n,):
        raise ValueError(f"candidate y must have length {problem.n}, got shape {y.shape}")
    return y


def _check_multiplier(problem: IlseProblem, xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (problem.s,):
        raise ValueError(f"multiplier must have length {problem.s}, got shape {xi.shape}")
    return xi


def _k_block(problem: IlseProblem, y: np.ndarray) -> np.ndarray:
    """The n x (n*m) block I_n (x) (r_y^T S) - A^T S (y^T (x) I_m).

    Column block j (of width m) is -y_j * A^T S, with r_y^T S added to
    its j-th row.
    """
    m, n = problem.m, problem.n
    r_y = problem.residual(y)
    sr = apply_signature(problem.sig, r_y)
    AtS = apply_signature(problem.sig, problem.A).T
    K = np.empty((n, n * m))
    for j in range(n):
        block = K[:, j * m:(j + 1) * m]
        np.multiply(AtS, -y[j], out=block)
        block[j] += sr
    return K


def linearization_matrix(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> LinearizationOperator:
    """Assemble the dense linearization matrix J at (y, xi)."""
    y = _check_candidate(problem, y)
    xi = _check_multiplier(problem, xi)
    m, n, s = problem.m, problem.n, problem.s
    nm, ns = n * m, n * s

    J = np.zeros((n + s, nm + m + ns + s))
    J[:n, :nm] = _k_block(problem, y)
    J[:n, nm:nm + m] = apply_signature(problem.sig, problem.A).T / w.theta1
    for j in range(n):
        J[j, nm + m + j * s:nm + m + (j + 1) * s] = -xi / w.theta2
    for j in range(n):
        block = J[n:, nm + m + j * s:nm + m + (j + 1) * s]
        np.fill_diagonal(block, y[j] / w.theta2)
    np.fill_diagonal(J[n:, nm + m + ns:], -1.0 / w.theta3)
    return LinearizationOperator(J=J, xi=xi, weights=w, m=m, n=n, s=s)


def rhs_vector(problem: IlseProblem, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Stacked optimality residual (B^T xi - A^T S r_y, d - B y)."""
    y = _check_candidate(problem, y)
    xi = _check_multiplier(problem, xi)
    r_y = problem.residual(y)
    top = problem.B.T @ xi - problem.A.T @ apply_signature(problem.sig, r_y)
    return np.concatenate([top, problem.d - problem.B @ y])


def _min_norm_factor(J: np.ndarray):
    """Economic QR of J^T plus the singular values of J.

    R shares its singular values with J, so the rank check and tau come
    for free from the small triangular factor.
    """
    Q, R = sla.qr(J.T, mode="economic")
    svals = sla.svdvals(R)
    return Q, R, svals


def _require_full_row_rank(svals: np.ndarray) -> None:
    if svals[0] == 0.0 or svals[-1] <= RANK_RTOL * svals[0]:
        raise RankDeficiencyError(
            f"linearization matrix is numerically rank deficient "
            f"(sigma_min={svals[-1]:.3e}, sigma_max={svals[0]:.3e})",
            sigma_min=float(svals[-1]),
        )


def backward_error_estimate(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> float:
    """rho(xi): norm of the minimum-norm solution of J(xi) z = rhs(xi)."""
    op = linearization_matrix(problem, y, xi, w)
    rhs = rhs_vector(problem, y, xi)
    _, R, svals = _min_norm_factor(op.J)
    _require_full_row_rank(svals)
    wvec = sla.solve_triangular(R, rhs, trans="T", lower=False)
    return float(np.linalg.norm(wvec))


def min_norm_perturbation(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> np.ndarray:
    """The minimum-norm stacked perturbation z solving J(xi) z = rhs(xi).

    z stacks (vec(E), theta1 f, theta2 vec(F), theta3 g); its 2-norm is
    exactly the value returned by backward_error_estimate.
    """
    op = linearization_matrix(problem, y, xi, w)
    rhs = rhs_vector(problem, y, xi)
    Q, R, svals = _min_norm_factor(op.J)
    _require_full_row_rank(svals)
    wvec = sla.solve_triangular(R, rhs, trans="T", lower=False)
    return Q @ wvec


def least_squares_multiplier(problem: IlseProblem, y: np.ndarray) -> np.ndarray:
    """The multiplier minimizing |B^T xi - A^T S r_y|_2 (min-norm solution).

    Requires B to have full row rank.
    """
    y = _check_candidate(problem, y)
    r_y = problem.residual(y)
    target = problem.A.T @ apply_signature(problem.sig, r_y)
    xi, _, rank, sv = np.linalg.lstsq(problem.B.T, target, rcond=None)
    if rank < problem.s:
        raise RankDeficiencyError(
            f"constraint matrix is rank deficient (rank {rank} < {problem.s})",
            sigma_min=float(sv[-1]) if len(sv) else 0.0,
        )
    return xi


def _stability_matrix(problem: IlseProblem, y: np.ndarray, w: WeightScheme) -> np.ndarray:
    """The multiplier-independent block [K, theta1^-1 A^T S] of J."""
    AtS = apply_signature(problem.sig, problem.A).T
    return np.hstack([_k_block(problem, y), AtS / w.theta1])


def stability_constant(problem: IlseProblem, y: np.ndarray, w: WeightScheme) -> float:
    """alpha: smallest singular value of the n x (nm + m) block of J that
    does not depend on the multiplier."""
    y = _check_candidate(problem, y)
    return float(sla.svdvals(_stability_matrix(problem, y, w))[-1])


def stability_constant_lower_bound(
    problem: IlseProblem, y: np.ndarray, w: WeightScheme
) -> float:
    """Certified lower bound |r_y|_2 / sqrt(1 + theta1^2 |y|_2^2) on alpha."""
    y = _check_candidate(problem, y)
    r_norm = float(np.linalg.norm(problem.residual(y)))
    return r_norm / math.sqrt(1.0 + w.theta1**2 * float(y @ y))


def pinv_norm_bound(problem: IlseProblem, y: np.ndarray, w: WeightScheme) -> float:
    """tau0 = max(theta3, 1/alpha), a bound on |J(xi)^+|_2 valid for every xi.

    Zeroing the multiplier-dependent column block of J leaves a matrix
    whose row blocks have disjoint column support, so its smallest
    singular value is min(alpha, 1/theta3); removing columns can only
    shrink singular values, whence the uniform bound.
    """
    a = stability_constant(problem, y, w)
    if a <= 0.0 or not math.isfinite(a):
        raise RankDeficiencyError(
            "stability constant alpha is zero; the pseudoinverse bound is infinite",
            sigma_min=a,
        )
    return max(w.theta3, 1.0 / a)


def solution_distance_lower_bound(problem: IlseProblem, y: np.ndarray) -> float:
    """Certified lower bound on |x_exact - y|_2.

    Equals |(B^T xi1 - A^T S r_y, d - B y)|_2 / |[A^T S A; B]|_2; the
    numerator is the optimality residual at the least-squares multiplier
    and the denominator the spectral norm of the stacked sensitivity
    matrix.
    """
    y = _check_candidate(problem, y)
    xi1 = least_squares_multiplier(problem, y)
    num = float(np.linalg.norm(rhs_vector(problem, y, xi1)))
    M = problem.A.T @ apply_signature(problem.sig, problem.A)
    stacked = np.vstack([M, problem.B])
    den = float(sla.svdvals(stacked)[0])
    if den == 0.0:
        return 0.0
    return num / den


def backward_error_bounds(
    problem: IlseProblem,
    y: np.ndarray,
    w: WeightScheme,
    xi0: np.ndarray | None = None,
) -> BackwardErrorReport:
    """Full backward-error report for a candidate y.

    Evaluates rho at the least-squares multiplier (and at xi0 when
    supplied), alpha with its lower bound, tau0, the distance bound, and
    the two-sided bounds on the backward error. The bound machinery needs
    r_y != 0; when r_y = 0 the report is returned with
    bounds_applicable=False and mu_upper/mu_lower set to None.
    """
    y = _check_candidate(problem, y)
    r_y = problem.residual(y)
    r_zero = float(np.linalg.norm(r_y)) == 0.0

    a = stability_constant(problem, y, w)
    a_low = stability_constant_lower_bound(problem, y, w)
    tau0 = pinv_norm_bound(problem, y, w)
    dist = solution_distance_lower_bound(problem, y)

    def try_rho(xi):
        try:
            return backward_error_estimate(problem, y, xi, w)
        except RankDeficiencyError:
            if r_zero:
                return math.nan
            raise

    rho1 = try_rho(least_squares_multiplier(problem, y))
    rho0 = try_rho(_check_multiplier(problem, xi0)) if xi0 is not None else None

    scale = math.sqrt(1.0 / w.theta1**2 + float(y @ y))
    if r_zero or math.isnan(rho1):
        return BackwardErrorReport(
            rho_xi1=rho1,
            rho_xi0=rho0,
            tau0=tau0,
            alpha=a,
            alpha_lower=a_low,
            small_rho_condition=False,
            mu_upper=None,
            mu_lower=None,
            distance_lower=dist,
            bounds_applicable=False,
        )

    condition = 4.0 * tau0 * rho1 * scale < 1.0
    mu_upper = 2.0 * rho1 if condition else None
    mu_lower = 2.0 * rho1 / (1.0 + math.sqrt(1.0 + 4.0 * tau0 * scale * rho1))
    return BackwardErrorReport(
        rho_xi1=rho1,
        rho_xi0=rho0,
        tau0=tau0,
        alpha=a,
        alpha_lower=a_low,
        small_rho_condition=bool(condition),
        mu_upper=mu_upper,
        mu_lower=mu_lower,
        distance_lower=dist,
        bounds_applicable=True,
    )
