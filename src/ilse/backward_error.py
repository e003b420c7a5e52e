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

None of these quantities needs J built out. Write u = y/|y|_2 (u = e_1
when y = 0) and c^2 = |r_y|^2 + |xi|^2/theta2^2. The vec/Kronecker
identities give J J^T = C C^T for the (n+s) x (2m+n+2s) matrix

    C(xi) = [ u (S r_y)^T - |y| A^T S | theta1^-1 A^T S | -theta2^-1 u xi^T | c (I_n - u u^T) | 0              ]
            [ 0                       | 0               | theta2^-1 |y| I_s | 0               | -theta3^-1 I_s ]

Both Gram matrices have the top-left block
(|r_y|^2 + |xi|^2/theta2^2) I_n - y r_y^T A - A^T r_y y^T + |y|^2 A^T A
+ A^T A/theta1^2, the off-diagonal block -y xi^T/theta2^2 and the
bottom-right block (|y|^2/theta2^2 + 1/theta3^2) I_s; in C the rank-one
blocks supply the u u^T part of the scalar term and c (I_n - u u^T) the
rest. Equal Gram matrices mean equal singular values: C has full row rank
exactly when J does, rho = |R^-T rhs|_2 for the triangular factor R of
either transpose, and tau(xi) = 1/sigma_min is the same. The same
reduction maps the multiplier-free block [K, theta1^-1 A^T S] of J to the
n x (2m+n) matrix [u (S r_y)^T - |y| A^T S, theta1^-1 A^T S,
|r_y| (I_n - u u^T)], with the same singular values, so alpha and
tau0 = max(theta3, 1/alpha) come from it. The minimum-norm solution is
z = J^T v for v = (C C^T)^-1 rhs, applied block by block; its E block is
the rank-2 matrix S (r_y v_top^T - A v_top y^T).

One kernel, _min_norm_factor, evaluates rho for backward_error_estimate
and min_norm_perturbation. Per call it computes r_y, S r_y and A^T S
once, gathers C^T, its rows sorted by decreasing norm, into one
Fortran-ordered buffer, factors that buffer in place with LAPACK geqrf,
and solves R^T w = rhs with trtrs, so rho = |w|_2; orgqr forms Q from
the same geqrf output when z is wanted. The rank test needs sigma_min and
sigma_max of R, and a certified pre-test replaces the SVD where it can:
sigma_min(R) >= 1/|R^-1|_F and sigma_max(R) <= |R|_F, so when trtri
inverts R, |R^-1|_F is finite and 1/|R^-1|_F > 100 RANK_RTOL |R|_F, the
singular-value test sigma_min > RANK_RTOL sigma_max holds. The factor
100 (PRETEST_MARGIN) absorbs the rounding in the computed R^-1. In every
other case the SVD of R decides, and a RankDeficiencyError carries its
sigma_min.

linearization_matrix is the one dense builder of J: it assembles the
formula above term by term with Kronecker products, as the reference that
the tests, the property table and the oracle compare C against. Nothing
on the estimator's path calls it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dorgqr, dtrtri, dtrtrs

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

# The rank pre-test skips the SVD only when its certified bound on
# sigma_min/sigma_max clears RANK_RTOL by this factor, a margin for the
# rounding in the computed R^-1.
PRETEST_MARGIN = 100.0


def _check_candidate(problem: IlseProblem, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.n,):
        raise ValueError(f"candidate y must have length {problem.n}, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("candidate y contains non-finite entries")
    return y


def _check_multiplier(problem: IlseProblem, xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (problem.s,):
        raise ValueError(f"multiplier must have length {problem.s}, got shape {xi.shape}")
    if not np.isfinite(xi).all():
        raise ValueError("multiplier xi contains non-finite entries")
    return xi


def linearization_matrix(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> np.ndarray:
    """The dense (n+s) x (nm+m+ns+s) matrix J(xi), assembled term by term
    from the Kronecker formula in the module docstring; its column blocks
    act on (vec(E), theta1 f, theta2 vec(F), theta3 g)."""
    y = _check_candidate(problem, y)
    xi = _check_multiplier(problem, xi)
    m, n, s = problem.m, problem.n, problem.s
    sr = apply_signature(problem.sig, problem.residual(y))
    AtS = apply_signature(problem.sig, problem.A).T

    K = np.kron(np.eye(n), sr[None, :]) - AtS @ np.kron(y[None, :], np.eye(m))
    top = np.hstack([
        K,
        AtS / w.theta1,
        -np.kron(np.eye(n), xi[None, :]) / w.theta2,
        np.zeros((n, s)),
    ])
    bottom = np.hstack([
        np.zeros((s, n * m + m)),
        np.kron(y[None, :], np.eye(s)) / w.theta2,
        -np.eye(s) / w.theta3,
    ])
    return np.vstack([top, bottom])


def rhs_vector(problem: IlseProblem, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Stacked optimality residual (B^T xi - A^T S r_y, d - B y)."""
    y = _check_candidate(problem, y)
    xi = _check_multiplier(problem, xi)
    return _rhs(problem, y, xi, apply_signature(problem.sig, problem.residual(y)))


def _rhs(problem: IlseProblem, y: np.ndarray, xi: np.ndarray, sr: np.ndarray) -> np.ndarray:
    return np.concatenate([problem.B.T @ xi - problem.A.T @ sr, problem.d - problem.B @ y])


def _unit_direction(y: np.ndarray) -> tuple[np.ndarray, float]:
    """u = y/|y| (e_1 when y = 0) and |y|."""
    y_norm = float(np.linalg.norm(y))
    return (y / y_norm if y_norm > 0.0 else np.eye(y.shape[0])[0]), y_norm


def _multiplier_free_blocks(problem: IlseProblem, y: np.ndarray, w: WeightScheme):
    """u, |y|, r_y, S r_y and the n x 2m block [u (S r_y)^T - |y| A^T S, A^T S/theta1]
    that C and the stability matrix share."""
    m, n = problem.m, problem.n
    u, y_norm = _unit_direction(y)
    r_y = problem.residual(y)
    sr = apply_signature(problem.sig, r_y)
    AtS = apply_signature(problem.sig, problem.A).T
    blocks = np.empty((n, 2 * m))
    np.multiply(AtS, -y_norm, out=blocks[:, :m])
    blocks[:, :m] += np.outer(u, sr)
    np.divide(AtS, w.theta1, out=blocks[:, m:])
    return u, y_norm, r_y, sr, blocks


def _sorted_compressed_transpose(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
):
    """(order, C(xi)^T with its rows sorted by decreasing norm, u, S r_y, c):
    row i of the Fortran-ordered matrix is row order[i] of C^T, so geqrf
    factors it in place.

    The top n rows of C are assembled once in natural order, and their
    column norms summed as np.linalg.norm(C, axis=0) sums them, so ties
    break as on the dense C. One gather writes them, sorted, into the
    factored buffer, and the 2s nonzeros of the bottom rows go straight to
    their sorted columns.
    """
    m, n, s = problem.m, problem.n, problem.s
    N = 2 * m + n + 2 * s
    u, y_norm, r_y, sr, blocks = _multiplier_free_blocks(problem, y, w)
    c = math.hypot(float(np.linalg.norm(r_y)), float(np.linalg.norm(xi)) / w.theta2)
    top = np.zeros((n, N))
    top[:, :2 * m] = blocks
    top[:, 2 * m:2 * m + s] = np.outer(u, xi / -w.theta2)
    top[:, 2 * m + s:2 * m + s + n] = c * (np.eye(n) - np.outer(u, u))
    bottom_xi, bottom_g = y_norm / w.theta2, -1.0 / w.theta3
    sq = np.add.reduce(top * top, axis=0)
    sq[2 * m:2 * m + s] += bottom_xi * bottom_xi
    sq[2 * m + s + n:] = bottom_g * bottom_g
    order = np.argsort(-np.sqrt(sq), kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(N)
    C_sorted = np.zeros((n + s, N))
    np.take(top, order, axis=1, out=C_sorted[:n])
    rows = n + np.arange(s)
    C_sorted[rows, pos[2 * m:2 * m + s]] = bottom_xi
    C_sorted[rows, pos[2 * m + s + n:]] = bottom_g
    return order, C_sorted.T, u, sr, c


def _require_full_row_rank(svals: np.ndarray) -> None:
    if svals[0] == 0.0 or svals[-1] <= RANK_RTOL * svals[0]:
        raise RankDeficiencyError(
            f"linearization matrix is numerically rank deficient "
            f"(sigma_min={svals[-1]:.3e}, sigma_max={svals[0]:.3e})",
            sigma_min=float(svals[-1]),
        )


def _certainly_full_rank(R: np.ndarray) -> bool:
    """The rank pre-test on the upper triangle of R: True only when
    sigma_min(R) >= 1/|R^-1|_F exceeds PRETEST_MARGIN * RANK_RTOL * |R|_F
    >= PRETEST_MARGIN * RANK_RTOL * sigma_max(R), so that the
    singular-value test would pass as well."""
    L = np.triu(R).T
    r_fro = float(np.linalg.norm(L))
    L_inv, info = dtrtri(L, lower=1, overwrite_c=1)
    if info != 0:
        return False
    inv_fro = float(np.linalg.norm(L_inv))
    return math.isfinite(inv_fro) and 1.0 / inv_fro > PRETEST_MARGIN * RANK_RTOL * r_fro


def _min_norm_factor(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme, with_q: bool = False
):
    """The rho kernel: the Householder QR of C(xi)^T with its rows sorted by
    decreasing norm, the full-row-rank check on R (whose singular values
    are those of J), and wvec = R^-T rhs(xi), so that rho = |wvec|_2.

    Returns (order, Q or None, wvec, u, S r_y, c), where row i of the
    factored matrix is row order[i] of C^T; min_norm_perturbation maps z
    back with the last three.

    Householder QR is row-wise stable with sorted rows (Cox & Higham, BIT
    1998). At kappa_B = 1e8, where |xi| and |y| reach 1e13 and 1e8,
    unsorted rows gave rho up to 60 times further from a 50-digit referee
    than the dense QR of J^T did; sorted, they give the closer value.
    """
    order, CT, u, sr, c = _sorted_compressed_transpose(problem, y, xi, w)
    qr, tau, _, _ = dgeqrf(CT, lwork=int(dgeqrf_lwork(*CT.shape)[0]), overwrite_a=1)
    R = qr[:CT.shape[1]]
    if not _certainly_full_rank(R):
        _require_full_row_rank(sla.svdvals(np.triu(R)))
    wvec, _ = dtrtrs(qr, _rhs(problem, y, xi, sr), trans=1)
    Q = dorgqr(qr, tau, overwrite_a=1)[0] if with_q else None
    return order, Q, wvec, u, sr, c


def backward_error_estimate(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> float:
    """rho(xi): norm of the minimum-norm solution of J(xi) z = rhs(xi)."""
    y = _check_candidate(problem, y)
    xi = _check_multiplier(problem, xi)
    return float(np.linalg.norm(_min_norm_factor(problem, y, xi, w)[2]))


def min_norm_perturbation(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> np.ndarray:
    """The minimum-norm stacked perturbation z solving J(xi) z = rhs(xi).

    z stacks (vec(E), theta1 f, theta2 vec(F), theta3 g); its 2-norm is
    exactly the value returned by backward_error_estimate.

    z = J^T v for v = (C C^T)^-1 rhs, mapped block by block from the
    minimum-norm solution z_C = Q R^-T rhs = C^T v of C z_C = rhs. For
    M1 the first block of C, z_C stacks a1 = M1^T v_top,
    a2 = S A v_top/theta1, a3 = (|y| v_bot - (u^T v_top) xi)/theta2,
    a4 = c (I - u u^T) v_top and a5 = -v_bot/theta3, and with
    p = (I - u u^T) a4/c:
    E = a1 u^T + S r_y p^T (rank 2), f = a2, F = a3 u^T - xi p^T/theta2,
    g = a5. The map is an isometry on the range of C^T. J sees a
    u-component of a4 magnified by c, so the projection in p is what keeps
    |J z - rhs| at rounding level; forming v and multiplying by J^T instead
    left relative residuals up to 3.5e-10 at kappa_B = 1e8.
    """
    y = _check_candidate(problem, y)
    xi = _check_multiplier(problem, xi)
    m, n, s = problem.m, problem.n, problem.s
    order, Q, wvec, u, sr, c = _min_norm_factor(problem, y, xi, w, with_q=True)
    z_c = np.empty(Q.shape[0])
    z_c[order] = Q @ wvec
    a1, a2, a3, a4, a5 = np.split(z_c, np.cumsum([m, m, s, n]))
    p = (a4 - u * (u @ a4)) / c if c > 0.0 else a4
    E = np.outer(a1, u) + np.outer(sr, p)
    F = np.outer(a3, u) - np.outer(xi, p) / w.theta2
    return np.concatenate([E.ravel(order="F"), a2, F.ravel(order="F"), a5])


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
    """[u (S r_y)^T - |y| A^T S, A^T S/theta1, |r_y| (I_n - u u^T)]: n x (2m + n),
    with the singular values of the multiplier-free block [K, A^T S/theta1] of J."""
    u, _, r_y, _, blocks = _multiplier_free_blocks(problem, y, w)
    deflated = float(np.linalg.norm(r_y)) * (np.eye(problem.n) - np.outer(u, u))
    return np.hstack([blocks, deflated])


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
    # A NaN rho that did not raise (overflow, say) voids the bounds as r_y = 0 does.
    applicable = not (r_zero or math.isnan(rho1))
    condition = applicable and 4.0 * tau0 * rho1 * scale < 1.0
    return BackwardErrorReport(
        rho_xi1=rho1,
        rho_xi0=rho0,
        tau0=tau0,
        alpha=a,
        alpha_lower=a_low,
        small_rho_condition=condition,
        mu_upper=2.0 * rho1 if condition else None,
        mu_lower=(2.0 * rho1 / (1.0 + math.sqrt(1.0 + 4.0 * tau0 * scale * rho1))
                  if applicable else None),
        distance_lower=dist,
        bounds_applicable=applicable,
    )
