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
either transpose, and tau(xi) = 1/sigma_min is the same. At xi = 0 the
block -theta2^-1 (I_n (x) xi^T) of J vanishes, so the top-left block at
xi = 0 is the Gram matrix of the multiplier-free block [K, theta1^-1 A^T S]
of J, whose smallest singular value is alpha; tau0 = max(theta3, 1/alpha).
The minimum-norm solution is z = J^T v for v = (C C^T)^-1 rhs, applied
block by block; its E block is the rank-2 matrix S (r_y v_top^T - A v_top y^T).

Only s + n of C's 2m + n + 2s columns depend on xi, so C^T is factored in
two stages. Stage one, once per (problem, y, w), is the Householder QR
blocks^T = Q0 R0 of the 2m x n transpose of the multiplier-free block
blocks = [u (S r_y)^T - |y| A^T S, theta1^-1 A^T S], with R0 n x n.

Stage two eliminates the multiplier block in closed form. Order C's rows
as (the s multiplier rows, the n top rows). Then each xi column of C,
transposed, is the row [|y|/theta2 e_i^T | -xi_i/theta2 u^T] and each g
column the row [-e_i^T/theta3 | 0]. With rb = hypot(|y|/theta2, 1/theta3),
so that rb^2 = beta = |y|^2/theta2^2 + 1/theta3^2, k = (|y|/theta2)/rb and
h = (1/theta3)/rb, the orthogonal rotation [[k, -h], [h, k]] of each pair
(xi row i, g row i) gives the row [rb e_i^T | X_i] of
X = -k (xi/theta2) u^T and the row -h (xi_i/theta2) [0 | u^T]. One
reflection, whose first row is -xi^T/|xi|, folds the s rows of the second
kind into the single row a [0 | u^T], a = h |xi|/theta2. So

    C^T = Q [rb I_s  X  ]      R_T the triangular factor of the
            [0       R_T],     (2n+1) x n stack [R0; c (I_n - u u^T); a u^T],

for an orthonormal Q built from Q0, the rotations, the reflection and the
stack's own Q_T. This R_full has C C^T (rows reordered) as its Gram matrix,
hence C's singular values, the same rank test and tau(xi). Stage two, per
xi, is the Householder QR of the (2n+1) x n stack, which sees xi only
through t = |xi|/theta2 (c = hypot(|r_y|, t), a = h t), so each rho costs
O(n^3) whatever m and s are. Both stages sort their rows by decreasing
largest magnitude first (_sorted_rows). Solving R_full^T v = (e, rhs_top),
e = d - B y, by blocks gives v1 = e/rb and R_T^T v2 = w with
w = B^T xi - A^T S r_y + y (xi.e)/(theta2^2 beta), formed in the original
basis, so rho = hypot(|v1|, |v2|). At xi = 0 (c = |r_y|, a = 0) the
stack's Gram matrix R0^T R0 + |r_y|^2 (I_n - u u^T) is that top-left
block, so alpha = sigma_min(R_T) at xi = 0, from the same QR as every rho.

Everything that does not depend on xi is built once per (problem, y, w)
into a private, read-only context (_Context, which tells how it is cached
and why that is safe): u and |y|, |r_y|, S r_y, A^T S r_y, e, the
stage-one row order, geqrf's output on the sorted rows (R0 and the
reflectors of Q0), the n x (2n+1) [R0^T, I_n - u u^T, u] with the largest
magnitude of each of its columns (the stage-two sort keys before the
per-xi scales), rb, k and h, v1 = e/rb and |v1|, the stage-two geqrf
workspace size, alpha and |C(0)|_F^2; the unsorted blocks are not kept.
Each public function checks the shapes of y and xi, looks the context up
once and hands it to the kernel. Only a cache miss scans y's entries: a hit
has the shape and the bytes of a y that passed that scan. One sum of
squares gives |xi| and shows that xi is finite (_check_multiplier); where
it overflows, |xi| comes from core._scaled_norm.

One kernel, _min_norm_factor(ctx, xi, |xi|), evaluates rho for
backward_error_estimate and min_norm_perturbation. Per xi it forms t once,
orders the stack's rows by the context's keys times (1, c, a), gathers
those columns of [R0^T, I_n - u u^T, u], scaled, into one Fortran-ordered
buffer, factors that buffer in place with LAPACK geqrf
(_stage_two_factor), forms w in place and solves R_T^T v2 = w with trtrs.
The rank test needs sigma_min and sigma_max of C, and certified pre-tests
replace the SVD where they can. sigma_min >= min(alpha, 1/theta3) at
every xi (pinv_norm_bound), and sigma_max <= |C|_F with
|C(xi)|_F^2 = |C(0)|_F^2 + n t^2, since the block -u xi^T/theta2 adds
t^2 and c (I - u u^T) adds (n-1) t^2. When the first exceeds 100 RANK_RTOL
times the second, sigma_min > RANK_RTOL sigma_max holds; the factor 100
(PRETEST_MARGIN) absorbs the rounding in alpha and |C(0)|_F. The other
way, sigma_min <= rb, the norm of a multiplier row of C, and
sigma_max >= t, the norm of the block -u xi^T/theta2, so past
RANK_RTOL t > PRETEST_MARGIN rb the kernel raises before the QR, which a
t near the overflow threshold would defeat. Else the SVD of the
assembled R_full decides, and a RankDeficiencyError carries its
sigma_min.

min_norm_perturbation maps the minimum-norm solution back through the same
factor: Q_T (orgqr on the stack) takes v2 to the stack's rows, the folded
row's entry omega spreads over the pairs as -omega xi/|xi|, each pair
rotates back, and Q0 takes the R0 rows' entries to C's first 2m columns.

linearization_matrix is the one dense builder of J: it assembles the
formula above term by term with Kronecker products, as the reference that
the tests, the property table and the oracle compare C against. Nothing
on the estimator's path calls it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dorgqr, dtrtrs

from . import solver
from .core import (
    IlseProblem,
    RankDeficiencyError,
    WeightScheme,
    BackwardErrorReport,
    _scaled_norm,
    apply_signature,
)

# Relative threshold on sigma_min/sigma_max below which J is treated as
# rank deficient (double-precision proxy for the exact-arithmetic claim).
# Badly scaled but numerically sound linearizations reach kappa(J) ~ 1e13
# at condition extremes, so only rounding-level singularity is flagged.
RANK_RTOL = 10.0 * np.finfo(float).eps

# The rank pre-test skips the SVD only when its certified bound on
# sigma_min/sigma_max clears RANK_RTOL by this factor, a margin for the
# rounding in the computed alpha and R_T.
PRETEST_MARGIN = 100.0


def _candidate_array(problem: IlseProblem, y: np.ndarray) -> np.ndarray:
    """y as a float array of shape (n,); its entries are tested by
    _check_candidate, or by _context on a cache miss."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.n,):
        raise ValueError(f"candidate y must have length {problem.n}, got shape {y.shape}")
    return y


def _check_candidate(problem: IlseProblem, y: np.ndarray) -> np.ndarray:
    y = _candidate_array(problem, y)
    if not np.isfinite(y).all():
        raise ValueError("candidate y contains non-finite entries")
    return y


def _check_multiplier(problem: IlseProblem, xi: np.ndarray):
    """(xi, |xi|_2): xi as a float array of shape (s,) and its _norm. A
    finite fast sum of squares already shows that every entry is finite,
    so the entries are scanned only where that sum is not."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (problem.s,):
        raise ValueError(f"multiplier must have length {problem.s}, got shape {xi.shape}")
    xi_norm = _norm(xi)
    if not math.isfinite(xi_norm) and not np.isfinite(xi).all():
        raise ValueError("multiplier xi contains non-finite entries")
    return xi, xi_norm


def linearization_matrix(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> np.ndarray:
    """The dense (n+s) x (nm+m+ns+s) matrix J(xi), assembled term by term
    from the Kronecker formula in the module docstring; its column blocks
    act on (vec(E), theta1 f, theta2 vec(F), theta3 g)."""
    y = _check_candidate(problem, y)
    xi, _ = _check_multiplier(problem, xi)
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
    """Stacked optimality residual (B^T xi - A^T S r_y, d - B y), the two
    blocks of solver.normal_equation_residuals at (y, xi)."""
    y = _check_candidate(problem, y)
    xi, _ = _check_multiplier(problem, xi)
    return np.concatenate(solver.normal_equation_residuals(problem, y, xi))


def _norm(v: np.ndarray) -> float:
    """|v|_2 of a vector, as np.linalg.norm computes it (sqrt of v.dot(v)),
    without its dispatch; core._scaled_norm where that sum overflows, so a
    finite v has a finite norm unless |v|_2 itself is out of range. np.vdot
    gives the bits of v.dot(v) without numpy's overflow warning."""
    sq = np.vdot(v, v)
    return math.sqrt(sq) if math.isfinite(sq) else _scaled_norm(v)


def _multiplier_free_blocks(problem: IlseProblem, y: np.ndarray, w: WeightScheme):
    """u, |y|, r_y, S r_y and the n x 2m block [u (S r_y)^T - |y| A^T S, A^T S/theta1]
    of C that does not depend on xi, whose transpose stage one factors."""
    m, n = problem.m, problem.n
    y_norm = float(np.linalg.norm(y))
    u = y / y_norm if y_norm > 0.0 else np.eye(1, n)[0]
    r_y = problem.residual(y)
    sr = apply_signature(problem.sig, r_y)
    AtS = apply_signature(problem.sig, problem.A).T
    blocks = np.empty((n, 2 * m))
    np.multiply(AtS, -y_norm, out=blocks[:, :m])
    blocks[:, :m] += np.outer(u, sr)
    np.divide(AtS, w.theta1, out=blocks[:, m:])
    return u, y_norm, r_y, sr, blocks


def _sorted_rows(MT: np.ndarray):
    """(order, M): the rows of M, given as its C-ordered transpose MT, sorted
    by decreasing largest magnitude with ties in their original order. Row
    i of the Fortran-ordered M is row order[i], so geqrf factors it in place.

    Householder QR is row-wise stable with its rows sorted this way (Cox &
    Higham, BIT 1998), so both stages of the rho kernel sort their rows
    here. At kappa_B = 1e8, where |xi| and |y| reach 1e13 and 1e8, unsorted
    rows gave rho up to 60 times further from a 50-digit referee than the
    dense QR of J^T did. With both stages sorted by row 2-norm instead, rho
    on the 40 referee instances at kappa_A = kappa_B = 1e8 (TINY and
    m = 10 n, both eps, seeds 0-9) was 27% further from the referee in
    geometric mean.
    """
    order = (-np.abs(MT).max(axis=0)).argsort(kind="stable")
    # np.take gathers into a C-ordered array; MT[:, order] comes out
    # Fortran-ordered, and geqrf would copy its transpose.
    return order, np.take(MT, order, axis=1).T


class _Context:
    """What rho(xi), z and alpha need from (problem, y, w) but not from xi.

    sr is S r_y, which z's E block reuses. order0 is _sorted_rows' order of
    the rows of the 2m x n block blocks^T, and qr0, tau0 are geqrf's output
    on the sorted rows: R0 in the upper triangle of qr0[:n], Q0 in the
    reflectors below it. top is the n x (2n+1) [R0^T, I_n - u u^T, u]: the
    transposed stage-two stack [R0; c (I - u u^T); a u^T]^T before the
    per-xi scales c and a. row_max holds the largest magnitude of each
    column of top, from which _stage_two_stack keys its sort: rounding to
    nearest is monotone and symmetric, so for a finite scale s >= 0,
    max_i |fl(x_i s)| = fl(s max_i |x_i|), and row_max times the row
    scales (1, c, a) is bitwise the key _sorted_rows takes of the scaled
    stack. rb = sqrt(beta), k = (|y|/theta2)/rb and h = (1/theta3)/rb
    eliminate the multiplier rows (module docstring); k^2 + h^2 = 1.
    v1 = e/rb, the multiplier-row block of R_full^-T (e, rhs_top), is the
    same at every xi; v1_norm is its norm. alpha is sigma_min of the
    stack's factor at xi = 0, and the rank pre-test's bound
    min(alpha, 1/theta3); fro0_sq = |C(0)|_F^2 = s beta + |R_T(0)|_F^2
    from the same factor, to which each xi adds n t^2
    (module docstring).

    A context is read-only once built: __init__ sets every attribute,
    alpha included, and makes the arrays unwriteable. _context caches the
    last one built, keyed by the problem object (by identity, sound because
    a problem's arrays are read-only), the bytes of y (so a y changed in
    place misses) and w. The cache keeps that one problem alive, and every
    value is the same floating-point operation on the same inputs as
    without it, so no output bit depends on a hit. A caller keeps the
    context whose key it checked, so a thread that replaces the cached one
    meanwhile cannot mix two keys; alternating threads only make it miss.
    """

    __slots__ = ("problem", "w", "y_bytes", "u", "y_norm", "r_norm", "sr", "AtSr", "e",
                 "order0", "qr0", "tau0", "top", "row_max", "rb", "k", "h", "v1", "v1_norm",
                 "lwork", "alpha", "fro0_sq")

    def __init__(self, problem: IlseProblem, y: np.ndarray, w: WeightScheme):
        m, n = problem.m, problem.n
        self.problem, self.w, self.y_bytes = problem, w, y.tobytes()
        # Through the module attribute, so a patched builder is seen.
        self.u, self.y_norm, r_y, self.sr, blocks = _multiplier_free_blocks(problem, y, w)
        self.r_norm = float(np.linalg.norm(r_y))
        self.AtSr = problem.A.T @ self.sr
        self.e = problem.d - problem.B @ y
        # The unsorted blocks are dropped before geqrf factors the sorted
        # rows in place.
        self.order0, stage_one = _sorted_rows(blocks)
        del blocks
        self.qr0, self.tau0, _, _ = dgeqrf(stage_one, int(dgeqrf_lwork(2 * m, n)[0]), 1)
        self.top = np.empty((n, 2 * n + 1))
        self.top[:, :n] = np.triu(self.qr0[:n]).T
        self.top[:, n:2 * n] = np.eye(n) - np.outer(self.u, self.u)
        self.top[:, 2 * n] = self.u
        self.row_max = np.abs(self.top).max(axis=0)
        self.rb = math.hypot(self.y_norm / w.theta2, 1.0 / w.theta3)
        self.k, self.h = self.y_norm / w.theta2 / self.rb, 1.0 / w.theta3 / self.rb
        self.v1 = self.e / self.rb
        self.v1_norm = _norm(self.v1)
        self.lwork = int(dgeqrf_lwork(2 * n + 1, n)[0])
        R = np.triu(_stage_two_factor(self, 0.0)[1][:n])
        self.alpha = float(sla.svdvals(R)[-1])
        self.fro0_sq = problem.s * self.rb * self.rb + float(np.vdot(R, R))
        for a in (self.u, self.sr, self.AtSr, self.e, self.order0, self.qr0, self.tau0, self.top,
                  self.row_max, self.v1):
            a.flags.writeable = False


# The one-entry cache of _context (see _Context).
_last_context: _Context | None = None


def _context(problem: IlseProblem, y: np.ndarray, w: WeightScheme) -> _Context:
    """The context of (problem, y, w) for a y from _candidate_array: the
    cached one when its key matches, else a new one, built once y passes
    _check_candidate, which replaces it (see _Context). A hit needs no
    scan of y's entries: y has shape (n,) and the bytes of a y that passed
    one."""
    global _last_context
    ctx = _last_context
    if ctx is None or ctx.problem is not problem or ctx.w != w or ctx.y_bytes != y.tobytes():
        ctx = _last_context = _Context(problem, _check_candidate(problem, y), w)
    return ctx


def _stage_two_stack(ctx: _Context, t: float):
    """(order, the stage-two stack with its rows sorted by _sorted_rows, c):
    row i of the Fortran-ordered (2n+1) x n matrix is row order[i] of
    [R0; c (I - u u^T); a u^T] at t = |xi|/theta2, c = hypot(|r_y|, t) and
    a = h t, so geqrf factors it in place. The stack sees xi only through t.
    Its sort keys are ctx.row_max times the row scales (see _Context).
    """
    n = ctx.problem.n
    c = math.hypot(ctx.r_norm, t)
    scale = np.ones(2 * n + 1)
    scale[n:2 * n] = c
    scale[2 * n] = ctx.h * t
    order = (-(ctx.row_max * scale)).argsort(kind="stable")
    stack = ctx.top.take(order, axis=1)
    stack *= scale.take(order)
    return order, stack.T, c


def _stage_two_factor(ctx: _Context, t: float):
    """(order, qr, tau, c): _stage_two_stack(ctx, t) with geqrf's output on
    the stack, factored in place; the one QR of the stage-two stack."""
    order, stack, c = _stage_two_stack(ctx, t)
    qr, tau, _, _ = dgeqrf(stack, ctx.lwork, 1)
    return order, qr, tau, c


def _full_factor(ctx: _Context, xi: np.ndarray, R: np.ndarray) -> np.ndarray:
    """R_full = [rb I_s, X; 0, R_T], X = -k (xi/theta2) u^T, from the upper
    triangle of R's first n rows: the triangular factor of C^T with C's
    multiplier rows first, which has C's singular values."""
    s, n = xi.shape[0], R.shape[1]
    F = np.zeros((s + n, s + n))
    np.fill_diagonal(F[:s, :s], ctx.rb)
    np.multiply.outer(xi / -ctx.w.theta2, ctx.k * ctx.u, out=F[:s, s:])
    F[s:, s:] = np.triu(R[:n])
    return F


def _require_full_row_rank(svals: np.ndarray) -> None:
    if svals[0] == 0.0 or svals[-1] <= RANK_RTOL * svals[0]:
        raise RankDeficiencyError(
            f"linearization matrix is numerically rank deficient "
            f"(sigma_min={svals[-1]:.3e}, sigma_max={svals[0]:.3e})",
            sigma_min=float(svals[-1]),
        )


def _certainly_full_rank(ctx: _Context, t: float) -> bool:
    """The rank pre-test at t = |xi|/theta2: True only when the uniform bound
    sigma_min >= min(alpha, 1/theta3) exceeds PRETEST_MARGIN * RANK_RTOL *
    |C|_F >= PRETEST_MARGIN * RANK_RTOL * sigma_max, with
    |C|_F^2 = |C(0)|_F^2 + n t^2, so that the singular-value test would
    pass too."""
    fro = math.sqrt(ctx.fro0_sq + ctx.problem.n * t * t)
    return min(ctx.alpha, 1.0 / ctx.w.theta3) > PRETEST_MARGIN * RANK_RTOL * fro


def _min_norm_factor(ctx: _Context, xi: np.ndarray, xi_norm: float):
    """The rho kernel at xi, with xi_norm = |xi|_2 from _check_multiplier:
    the Householder QR of the sorted stage-two stack, the full-row-rank
    check on R_full (whose singular values are those of J), and
    R_full^-T (e, rhs_top) in its two blocks, ctx.v1 = e/rb and
    v2 = R_T^-T w, so that rho = hypot(|v1|, |v2|).

    Returns (order, qr, tau, v2, c): _stage_two_factor's output with v2;
    min_norm_perturbation maps z back with them.
    """
    t = xi_norm / ctx.w.theta2
    # Certainly rank deficient (module docstring), and so large a t could
    # overflow geqrf.
    if RANK_RTOL * t > PRETEST_MARGIN * ctx.rb:
        raise RankDeficiencyError(
            f"linearization matrix is numerically rank deficient "
            f"(sigma_min <= {ctx.rb:.3e}, sigma_max >= |xi|/theta2 = {t:.3e})",
            sigma_min=ctx.rb,
        )
    order, qr, tau, c = _stage_two_factor(ctx, t)
    if not _certainly_full_rank(ctx, t):
        _require_full_row_rank(sla.svdvals(_full_factor(ctx, xi, qr)))
    # w = B^T xi - A^T S r_y + y (xi.e)/(theta2^2 beta), in the original basis.
    w = ctx.problem.B.T @ xi
    w -= ctx.AtSr
    w += (ctx.k * (xi @ ctx.v1) / ctx.w.theta2) * ctx.u
    v2, _ = dtrtrs(qr, w, 0, 1)
    return order, qr, tau, v2, c


def backward_error_estimate(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> float:
    """rho(xi): norm of the minimum-norm solution of J(xi) z = rhs(xi)."""
    ctx = _context(problem, _candidate_array(problem, y), w)
    xi, xi_norm = _check_multiplier(problem, xi)
    return math.hypot(ctx.v1_norm, _norm(_min_norm_factor(ctx, xi, xi_norm)[3]))


def min_norm_perturbation(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> np.ndarray:
    """The minimum-norm stacked perturbation z solving J(xi) z = rhs(xi).

    z stacks (vec(E), theta1 f, theta2 vec(F), theta3 g); its 2-norm is
    exactly the value returned by backward_error_estimate.

    z = J^T v for v = (C C^T)^-1 rhs, mapped block by block from the
    minimum-norm solution z_C = C^T v of C z_C = rhs, which the module
    docstring's factor of C^T gives from v1 and v2. For M1 the first block
    of C, z_C stacks a1 = M1^T v_top, a2 = S A v_top/theta1,
    a3 = (|y| v_bot - (u^T v_top) xi)/theta2, a4 = c (I - u u^T) v_top and
    a5 = -v_bot/theta3, and with p = (I - u u^T) a4/c:
    E = a1 u^T + S r_y p^T (rank 2), f = a2, F = a3 u^T - xi p^T/theta2,
    g = a5. The map is an isometry on the range of C^T. J sees a
    u-component of a4 magnified by c, so the projection in p is what keeps
    |J z - rhs| at rounding level; forming v and multiplying by J^T instead
    left relative residuals up to 3.5e-10 at kappa_B = 1e8.
    """
    m, n = problem.m, problem.n
    ctx = _context(problem, _candidate_array(problem, y), w)
    xi, xi_norm = _check_multiplier(problem, xi)
    order, qr, tau, v2, c = _min_norm_factor(ctx, xi, xi_norm)
    u, v1, sr = ctx.u, ctx.v1, ctx.sr
    z_stack = np.empty(2 * n + 1)
    z_stack[order] = dorgqr(qr, tau, overwrite_a=1)[0] @ v2
    # The folded row's entry spreads over the second rows of the rotated
    # pairs along -xi/|xi|; each pair then rotates back to (a3, a5).
    z2 = (xi / xi_norm) * -z_stack[2 * n] if xi_norm > 0.0 else np.zeros_like(xi)
    a3 = ctx.k * v1 + ctx.h * z2
    a5 = ctx.k * z2 - ctx.h * v1
    # The R0 rows' share of z_stack maps back to C's first 2m columns
    # through Q0, whose rows are in the stage-one order.
    a12 = np.empty(2 * m)
    a12[ctx.order0] = dorgqr(ctx.qr0, ctx.tau0)[0] @ z_stack[:n]
    a1, a2 = a12[:m], a12[m:]
    a4 = z_stack[n:2 * n]
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


def stability_constant(problem: IlseProblem, y: np.ndarray, w: WeightScheme) -> float:
    """alpha: smallest singular value of the n x (nm + m) block of J that
    does not depend on the multiplier: sigma_min of the stage-two factor at
    xi = 0 (module docstring), held by the context of (problem, y, w)."""
    return _context(problem, _candidate_array(problem, y), w).alpha


def stability_constant_lower_bound(
    problem: IlseProblem, y: np.ndarray, w: WeightScheme
) -> float:
    """Certified lower bound |r_y|_2 / sqrt(1 + theta1^2 |y|_2^2) on alpha,
    computed without the context that alpha comes from."""
    y = _check_candidate(problem, y)
    # _norm and np.vdot give the bits of np.linalg.norm and y @ y without
    # an overflow warning, and _norm stays finite where |r_y|^2 overflows.
    r_norm = _norm(problem.residual(y))
    try:
        total = 1.0 + w.theta1**2 * float(np.vdot(y, y))
    except OverflowError:  # theta1**2 is out of range
        total = math.inf
    if math.isfinite(total):
        return r_norm / math.sqrt(total)
    # theta1 |y| can be in range where its square is not
    return r_norm / math.hypot(1.0, w.theta1 * _norm(y))


def pinv_norm_bound(problem: IlseProblem, y: np.ndarray, w: WeightScheme) -> float:
    """tau0 = max(theta3, 1/alpha), a bound on |J(xi)^+|_2 valid for every xi.

    Zeroing the multiplier-dependent column block of J leaves a matrix
    whose row blocks have disjoint column support, so its smallest
    singular value is min(alpha, 1/theta3); removing columns of a wide
    matrix can only shrink its singular values (J J^T loses a positive
    semidefinite term), so sigma_min(J(xi)) >= min(alpha, 1/theta3) = 1/tau0
    at every xi. The rho kernel's rank pre-test reads the same bound.
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
    return _distance_lower_bound(problem, y, least_squares_multiplier(problem, y))


def _distance_lower_bound(problem: IlseProblem, y: np.ndarray, xi1: np.ndarray) -> float:
    """solution_distance_lower_bound with its least-squares multiplier xi1 given.

    sigma_max([A^T S A; B]) is scale sqrt(lambda_max) of the n x n Gram
    matrix of the stack divided by scale, its largest magnitude. Only the
    top eigenvalue is needed, and forming the Gram matrix costs it no
    relative accuracy, so no SVD is taken.
    """
    num = float(np.linalg.norm(rhs_vector(problem, y, xi1)))
    stacked = np.vstack([problem.A.T @ apply_signature(problem.sig, problem.A), problem.B])
    scale = float(np.abs(stacked).max())
    if scale == 0.0:
        return 0.0
    stacked /= scale
    n = problem.n
    top = float(sla.eigvalsh(stacked.T @ stacked, subset_by_index=[n - 1, n - 1])[0])
    return num / (scale * math.sqrt(top))


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
    a = stability_constant(problem, y, w)
    r_zero = _context(problem, y, w).r_norm == 0.0
    a_low = stability_constant_lower_bound(problem, y, w)
    tau0 = pinv_norm_bound(problem, y, w)
    xi1 = least_squares_multiplier(problem, y)
    dist = _distance_lower_bound(problem, y, xi1)

    def try_rho(xi):
        try:
            return backward_error_estimate(problem, y, xi, w)
        except RankDeficiencyError:
            if r_zero:
                return math.nan
            raise

    rho1 = try_rho(xi1)
    rho0 = try_rho(xi0) if xi0 is not None else None

    try:
        scale = math.sqrt(1.0 / w.theta1**2 + float(y @ y))
    except (OverflowError, ZeroDivisionError):  # theta1**2 is out of range
        scale = math.hypot(1.0 / w.theta1, float(np.linalg.norm(y)))
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
