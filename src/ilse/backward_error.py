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

    C^T = Q M(xi),   M(xi) = [rb I_s  X              ]
                             [0       R0             ]
                             [0       c (I_n - u u^T)]
                             [0       a u^T          ]

for the (s + 2n + 1) x (s + n) matrix M(xi) and an orthonormal Q built
from Q0, the rotations and the reflection, so M^T M is C C^T with C's
rows reordered and M has C's singular values.

M sees xi only through X and t = |xi|/theta2 (c = hypot(|r_y|, t), a = h t).
Solving against M's triangular factor by blocks, with e = d - B y, gives
v1 = e/rb and a v2 with |v2|^2 = w^T G(t)^-1 w, where G(t) is the Gram
matrix of the (2n+1) x n stack [R0; c (I_n - u u^T); a u^T] in M's last
n columns and w = B^T xi - A^T S r_y + y (xi.e)/(theta2^2 beta), formed in
the original basis; rho = hypot(|v1|, |v2|).

That quadratic form needs no factor of the stack. Take the SVD
R0 = P diag(sigma) V^T once per context and write z = V^T u (|z| = 1),
d_i = sigma_i^2 + c^2 and gamma = c^2 - a^2 = |r_y|^2 + k^2 t^2 >= 0. Then
G(t) = V (D - gamma z z^T) V^T, a diagonal minus a rank-one matrix, and
for w_hat = V^T w Sherman-Morrison gives

    w^T G^-1 w = sum w_hat_i^2/d_i + gamma (sum z_i w_hat_i/d_i)^2 / sum z_i^2 (sigma_i^2 + a^2)/d_i,

O(n^2) per xi. Every term is non-negative: the denominator is
1 - gamma z^T D^-1 z with |z|^2 = 1 put in, so that it does not cancel.
sigma, c, a and w_hat are divided by kappa = max(sigma_max, c) before they
are squared (the form is invariant under that scaling), so that a y or
xi whose squares are out of range still gives a finite rho. w_hat must
be V^T applied to the w formed in the original basis: combining V^T B^T
and V^T A^T S r_y, rotated beforehand, lost up to 8.6e-5 at eps = 1e-12.

At xi = 0 (c = |r_y|, a = 0) G is the top-left block of the Gram
matrices, so alpha^2 is the smallest eigenvalue of
diag(sigma^2 + |r_y|^2) - |r_y|^2 z z^T, a rank-one downdate, the
smallest root of its secular equation (Golub, SIAM Rev. 1973; Bunch,
Nielsen & Sorensen, Numer. Math. 1978). It lies in
[sigma_p^2, sigma_p^2 + |r_y|^2] for the smallest sigma_p whose z_p is
not zero. _secular_alpha solves for mu = alpha^2 - sigma_p^2 >= 0 when
the root lies in the lower half of that interval and for
tau = sigma_p^2 + |r_y|^2 - alpha^2 > 0, the distance to the pole, when it
lies in the upper half, as Gu & Eisenstat (SIMAX 1994) shift the origin
to the nearer end; alpha^2 = sigma_p^2 + mu then never cancels. A z_i
whose weight |r_y|^2 z_i^2 is negligible deflates: sigma_i^2 + |r_y|^2 is
an eigenvalue, and alpha^2 is the least of those and the root. Tied
sigmas need nothing: their poles coincide and their weights add. r_y = 0
gives alpha = sigma_min(R0).

Everything that does not depend on xi is built once per (problem, y, w)
into a private, read-only context (_Context, which tells how it is cached
and why that is safe): u and |y|, |r_y|, S r_y, A^T S r_y, e, the
stage-one row order, geqrf's output on the sorted rows (R0 and the
reflectors of Q0), the SVD's V^T and scaled sigma^2, z, rb, k and h,
v1 = e/rb and |v1|, alpha and |C(0)|_F^2; the unsorted blocks are not
kept. Each public function checks the shapes of y and xi, looks the
context up once and hands it to the kernel. Only a cache miss scans y's
entries: a hit has the shape and the bytes of a y that passed that scan.
A^T S r_y and e do not depend on w, so least_squares_multiplier and the
distance bound read them from a context built for (problem, y) under any
weights (_residual_blocks): a report forms each once.
Every norm of user data here is core._norm: |xi|, |y|, |r_y|, |v1|, the
distance bound's residual norm, and the hypot of norms that makes
alpha_lower and the report's scale sqrt(theta1^-2 + |y|^2), so no square
of a weight or a norm is formed. A finite _norm(xi) also shows that xi is
finite (_check_multiplier); where its sum of squares overflows, _norm
takes the scaled norm, so no norm overflows unless it is out of range.

The kernel, _rhs_top(ctx, xi, |xi|), runs the rank test and forms w;
_stage_two_norm turns w into sqrt(w^T G^-1 w). The rank test needs
sigma_min and sigma_max of C, and certified pre-tests replace the SVD
where they can. sigma_min >= min(alpha, 1/theta3) at every xi
(pinv_norm_bound; the context keeps this bound), and sigma_max <= |C|_F with
|C(xi)|_F^2 = |C(0)|_F^2 + n t^2 and |C(0)|_F^2 = s beta + |R0|_F^2
+ (n-1) |r_y|^2, since the block -u xi^T/theta2 adds t^2 and
c (I - u u^T) adds (n-1) t^2. When the first exceeds 100 RANK_RTOL times
the second, sigma_min > RANK_RTOL sigma_max holds; the factor 100
(PRETEST_MARGIN) absorbs the rounding in alpha and |C(0)|_F. The other
way, sigma_min <= rb, the norm of a multiplier row of C, and
sigma_max >= t, the norm of the block -u xi^T/theta2, so past
RANK_RTOL t > PRETEST_MARGIN rb the kernel raises before it scales
anything, which a t near the overflow threshold would defeat. Else the
SVD of the unfactored M(xi) decides (_fallback_matrix), and a
RankDeficiencyError carries its sigma_min. Its message names a weight
whose block of J outweighs the unweighted one (_rank_error), since a
weight far out of scale with the data fails the test by itself.

w is formed as B^T xi, minus A^T S r_y, plus the rank-one term, in that
order, so that its first two terms have the bits of rhs_vector's top
block, which the extended-precision referee (tests/test_referee.py)
takes as exact; tests/test_backward_error.py pins this. The affine form
(B^T + (k/theta2) u v1^T) xi - A^T S r_y rounds the folded matrix
before the product, and at xi1, where the residual cancels, it put rho
up to 1.1e-5 from the referee (m = 12, kappa_B = 1e8, eps = 1e-12) and
failed 14 of the referee's 16 rho tests.

One rho on a cached context costs about a dozen numpy calls on arrays of
length n (one n x n and one n x s product among them) and no LAPACK
call, about 9.5 us at (m, n, s) = (40, 20, 4) on one core, nearly all of
it call overhead. So the kernel keeps its scalar work in Python floats,
calls the array methods (x.dot(y) has the bits of x @ y and np.vdot and
less dispatch), and reads from the context B^T, the pre-test's bound
min(alpha, 1/theta3) and PRETEST_MARGIN rb. Where c <= sigma_max,
kappa = sigma_max and _stage_two_norm uses the context's scaled squares
as they are; only a larger c rescales them.

min_norm_perturbation is the one function that factors the stack: it
builds [R0; c (I - u u^T); a u^T] in its natural order, sorts its rows
with _sorted_rows and factors them with geqrf. The stack's Q takes
v2 = R^-T w to the stack's rows, the folded row's entry omega spreads
over the pairs as -omega xi/|xi|, each pair rotates back, and Q0 takes
the R0 rows' entries to C's first 2m columns. Both Q are applied by their
reflectors (ormqr), never formed. (z = stack G^-1 w is
the same vector in exact arithmetic, but over the 280 cases of the
compressed_matches_kron row at suite seeds 0-19 it left J z - rhs at up
to 1.3e-8 relative, where the factor leaves 3.8e-16.)

linearization_matrix is the one dense builder of J: it assembles the
formula above term by term with Kronecker products, as the reference that
the tests, the property table and the oracle compare C against. Nothing
on the estimator's path calls it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dgesdd, dtrtrs

from . import solver
from .core import (
    IlseError,
    IlseProblem,
    RankDeficiencyError,
    WeightScheme,
    BackwardErrorReport,
    _norm,
    apply_signature,
)

# Relative threshold on sigma_min/sigma_max below which J is treated as
# rank deficient (double-precision proxy for the exact-arithmetic claim).
# Badly scaled but numerically sound linearizations reach kappa(J) ~ 1e13
# at condition extremes, so only rounding-level singularity is flagged.
RANK_RTOL = 10.0 * float(np.finfo(float).eps)

# The rank pre-test skips the SVD only when its certified bound on
# sigma_min/sigma_max clears RANK_RTOL by this factor, a margin for the
# rounding in the computed alpha and |C(0)|_F.
PRETEST_MARGIN = 100.0
_PRETEST_RTOL = PRETEST_MARGIN * RANK_RTOL


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


def _out_of_range(y_norm: float) -> IlseError:
    return IlseError(f"|y| = {y_norm:.6e} puts the linearization out of floating-point range")


def _multiplier_free_blocks(problem: IlseProblem, y: np.ndarray, w: WeightScheme):
    """u, |y|, r_y, S r_y and the n x 2m block [u (S r_y)^T - |y| A^T S, A^T S/theta1]
    of C that does not depend on xi, whose transpose stage one factors.

    Where r_y or the first block is out of floating-point range, an
    IlseError names |y|: the linearization at y cannot be represented."""
    m, n = problem.m, problem.n
    y_norm = _norm(y)
    u = y / y_norm if y_norm > 0.0 else np.eye(1, n)[0]
    AtS = apply_signature(problem.sig, problem.A).T
    blocks = np.empty((n, 2 * m))
    try:
        with np.errstate(over="raise"):
            r_y = problem.residual(y)
            sr = apply_signature(problem.sig, r_y)
            np.multiply(AtS, -y_norm, out=blocks[:, :m])
            blocks[:, :m] += np.outer(u, sr)
    except FloatingPointError:
        raise _out_of_range(y_norm) from None
    np.divide(AtS, w.theta1, out=blocks[:, m:])
    return u, y_norm, r_y, sr, blocks


def _sorted_rows(MT: np.ndarray):
    """(order, M): the rows of M, given as its C-ordered transpose MT, sorted
    by decreasing largest magnitude with ties in their original order. Row
    i of the Fortran-ordered M is row order[i], so geqrf factors it in place.

    Householder QR is row-wise stable with its rows sorted this way (Cox &
    Higham, BIT 1998), so stage one and min_norm_perturbation's stack sort
    their rows here. At kappa_B = 1e8, where |xi| and |y| reach 1e13 and
    1e8, unsorted rows gave rho up to 60 times further from a 50-digit
    referee than the dense QR of J^T did. With both sorted by row 2-norm
    instead, rho on the 40 referee instances at kappa_A = kappa_B = 1e8
    (TINY and m = 10 n, both eps, seeds 0-9) was 27% further from the
    referee in geometric mean.
    """
    order = (-np.abs(MT).max(axis=0)).argsort(kind="stable")
    # np.take gathers into a C-ordered array; MT[:, order] comes out
    # Fortran-ordered, and geqrf would copy its transpose.
    return order, np.take(MT, order, axis=1).T


# Where |r_y|^2 z_i^2 (with sigma_max or |r_y| scaled to 1) is below this,
# _secular_alpha drops z_i: its share of alpha^2 is second order in it,
# far below the rounding of any alpha the rank test accepts, and every
# 1/(delta + tau) and its square stay finite.
_NEGLIGIBLE = 1e-140

# A cap on the secular iterations. Newton's steps are monotone from the
# start the solver takes (the functions are concave): at most 13 steps on
# the acceptance grid's 120 contexts and on 2000 random downdates. The
# cap only bounds a loop that rounding keeps alive.
_SECULAR_STEPS = 60

_EPS = float(np.finfo(float).eps)


def _secular_alpha(sigma: np.ndarray, z: np.ndarray, r_norm: float) -> float:
    """alpha = sqrt(lambda_min(diag(sigma^2 + r^2) - r^2 z z^T)) for the
    singular values sigma of R0 (in decreasing order), z = V^T u and
    r = |r_y| (module docstring).

    With kappa = max(sigma_max, r) scaled to 1, rho = r^2 and, over the
    z_i that do not deflate, delta_i = sigma_i^2 - sigma_p^2 >= 0 for the
    smallest of their sigmas, sigma_p, the secular equation in
    mu = lambda - sigma_p^2 and tau = rho - mu reads

        F = sum z_i^2 (delta_i - mu)/(delta_i + tau) = 0,

    which is |z|^2 - rho sum z_i^2/(delta_i + tau) without the
    cancellation of the 1. F decreases in mu, from F >= 0 at mu = 0 to a
    pole at tau = 0. Below mu = rho/2 Newton runs on F in mu from
    mu = rho/2, with tau = rho - mu exact to rounding; above it Newton runs
    on 1/sum z_i^2/(delta_i + tau) = rho/|z|^2 in tau, exactly linear near
    the pole, from the tangent bound tau >= rho z_pole^2/|z|^2. Both are
    concave, so both iterations approach the root from one side."""
    if r_norm == 0.0:
        return float(sigma[-1])
    kappa = max(float(sigma[0]), r_norm)
    s = sigma / kappa
    rho = (r_norm / kappa) ** 2
    z2 = z * z
    live = z2 * rho > _NEGLIGIBLE
    # A deflated z_i leaves the eigenvalue s_i^2 + rho.
    lam = float(np.min(s[~live] ** 2)) + rho if not live.all() else math.inf
    if live.any():
        s, z2 = s[live], z2[live]
        sp = float(s[-1])
        delta = (s - sp) * (s + sp)
        half = 0.5 * rho
        if not delta.any():
            # Every live pole is tied with sigma_p: F = -|z|^2 mu/tau.
            mu = 0.0
        elif float(np.vdot(z2, (delta - half) / (delta + half))) < 0.0:
            mu = half
            for _ in range(_SECULAR_STEPS):
                inv = 1.0 / (delta + (rho - mu))
                q = z2 * inv
                f = float(np.vdot(q, delta - mu))
                if f >= 0.0:
                    break
                step = f / (rho * float(np.vdot(q, inv)))
                mu = max(mu + step, 0.0)
                if -step <= _EPS * (sp * sp + mu):
                    break
        else:
            target = rho / float(z2.sum())
            tau = target * float(z2[delta == 0.0].sum())
            for _ in range(_SECULAR_STEPS):
                inv = 1.0 / (delta + tau)
                q = z2 * inv
                wt = float(q.sum())
                gap = target * wt - 1.0
                if gap <= 0.0:
                    break
                step = gap * wt / float(np.vdot(q, inv))
                tau = min(tau + step, half)
                if step <= _EPS * tau:
                    break
            mu = rho - tau
        lam = min(lam, sp * sp + mu)
    return kappa * math.sqrt(lam)


class _Context:
    """What rho(xi), z and alpha need from (problem, y, w) but not from xi.

    sr is S r_y, which z's E block reuses. order0 is _sorted_rows' order of
    the rows of the 2m x n block blocks^T, and qr0, tau0 are geqrf's output
    on the sorted rows: R0 in the upper triangle of qr0[:n], Q0 in the
    reflectors below it. VT = V^T and sigma_max come from gesdd's SVD
    R0 = P diag(sigma) V^T, and z = V^T u (module docstring); z2 = z^2,
    s_sq = (sigma/sigma_max)^2 and z2s = z2 s_sq are rho's scaled squares at
    kappa = sigma_max, which a larger c rescales by (sigma_max/c)^2.
    rb = sqrt(beta), k = (|y|/theta2)/rb and h = (1/theta3)/rb eliminate
    the multiplier rows (module docstring); k^2 + h^2 = 1. v1 = e/rb, the
    multiplier-row block of rho's solve, is the same at every xi; v1_norm is
    its norm. alpha is _secular_alpha's root, sigma_floor = min(alpha,
    1/theta3) the rank pre-test's bound on sigma_min, rb_margin =
    PRETEST_MARGIN rb its threshold for a certain rank deficiency, and
    fro0_sq = |C(0)|_F^2 = s beta + |R0|_F^2 + (n-1) |r_y|^2, to which each
    xi adds n t^2 (module docstring). n, theta2 and BT = B^T (a view) save
    the kernel an attribute chain per xi.

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

    __slots__ = ("problem", "w", "y_bytes", "n", "theta2", "BT", "u", "y_norm", "r_norm", "sr",
                 "AtSr", "e", "order0", "qr0", "tau0", "sigma_max", "VT", "z", "z2", "s_sq", "z2s",
                 "rb", "k", "h", "v1", "v1_norm", "alpha", "sigma_floor", "rb_margin", "fro0_sq")

    def __init__(self, problem: IlseProblem, y: np.ndarray, w: WeightScheme):
        m, n = problem.m, problem.n
        self.problem, self.w, self.y_bytes = problem, w, y.tobytes()
        self.n, self.theta2, self.BT = n, w.theta2, problem.B.T
        # Through the module attribute, so a patched builder is seen.
        self.u, self.y_norm, r_y, self.sr, blocks = _multiplier_free_blocks(problem, y, w)
        self.r_norm = _norm(r_y)
        try:
            with np.errstate(over="raise"):
                self.AtSr = problem.A.T @ self.sr
                self.e = problem.d - problem.B @ y
        except FloatingPointError:
            raise _out_of_range(self.y_norm) from None
        # The unsorted blocks are dropped before geqrf factors the sorted
        # rows in place.
        self.order0, stage_one = _sorted_rows(blocks)
        del blocks
        self.qr0, self.tau0, _, _ = dgeqrf(stage_one, int(dgeqrf_lwork(2 * m, n)[0]), 1)
        _, sigma, self.VT, info = dgesdd(np.triu(self.qr0[:n]), 1, 0, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"gesdd did not converge on R0 (info {info})")
        self.sigma_max = float(sigma[0])
        self.z = self.VT @ self.u
        self.z2 = self.z * self.z
        self.s_sq = (sigma / self.sigma_max) ** 2 if self.sigma_max > 0.0 else np.zeros(n)
        self.z2s = self.z2 * self.s_sq
        self.rb = math.hypot(self.y_norm / w.theta2, 1.0 / w.theta3)
        self.k, self.h = self.y_norm / w.theta2 / self.rb, 1.0 / w.theta3 / self.rb
        self.v1 = self.e / self.rb
        self.v1_norm = _norm(self.v1)
        self.alpha = _secular_alpha(sigma, self.z, self.r_norm)
        self.sigma_floor = min(self.alpha, 1.0 / w.theta3)
        self.rb_margin = PRETEST_MARGIN * self.rb
        # np.vdot and Python floats go to inf without an overflow warning,
        # and an infinite bound only sends the pre-test to the SVD.
        self.fro0_sq = (problem.s * self.rb * self.rb + float(np.vdot(sigma, sigma))
                        + (n - 1) * self.r_norm * self.r_norm)
        for a in (self.u, self.sr, self.AtSr, self.e, self.order0, self.qr0, self.tau0, self.VT,
                  self.z, self.z2, self.s_sq, self.z2s, self.v1):
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
    if (ctx is None or ctx.problem is not problem or (ctx.w is not w and ctx.w != w)
            or ctx.y_bytes != y.tobytes()):
        ctx = _last_context = _Context(problem, _check_candidate(problem, y), w)
    return ctx


def _stack_transpose(ctx: _Context, t: float) -> np.ndarray:
    """The n x (2n+1) transpose [R0^T, c (I - u u^T), a u] of the stage-two
    stack [R0; c (I - u u^T); a u^T] at t = |xi|/theta2, with
    c = hypot(|r_y|, t) and a = h t."""
    n, u = ctx.problem.n, ctx.u
    MT = np.empty((n, 2 * n + 1))
    MT[:, :n] = np.triu(ctx.qr0[:n]).T
    np.multiply(np.eye(n) - np.outer(u, u), math.hypot(ctx.r_norm, t), out=MT[:, n:2 * n])
    np.multiply(u, ctx.h * t, out=MT[:, 2 * n])
    return MT


def _fallback_matrix(ctx: _Context, xi: np.ndarray, t: float) -> np.ndarray:
    """M(xi) = [rb I_s, X; 0, stack], X = -k (xi/theta2) u^T: the
    (s + 2n + 1) x (s + n) matrix with C C^T (multiplier rows first) as
    its Gram matrix, hence C's singular values (module docstring)."""
    s, n = xi.shape[0], ctx.problem.n
    M = np.zeros((s + 2 * n + 1, s + n))
    np.fill_diagonal(M[:s, :s], ctx.rb)
    np.multiply.outer(xi / -ctx.w.theta2, ctx.k * ctx.u, out=M[:s, s:])
    M[s:, s:] = _stack_transpose(ctx, t).T
    return M


def _full_row_rank(svals: np.ndarray) -> bool:
    """The singular-value rank test on svals, in decreasing order."""
    return not (svals[0] == 0.0 or svals[-1] <= RANK_RTOL * svals[0])


def _rank_error(ctx: _Context, xi_norm: float, detail: str, sigma_min: float) -> RankDeficiencyError:
    """The error of a failed rank test at |xi| = xi_norm; detail states the
    singular values the test read.

    A weight out of scale with the data fails the test by itself (at
    theta1 = 1e-200 on unit-scaled data sigma_max is 1e200), so the
    Frobenius norms of J's weighted blocks, |A|_F/theta1,
    max(|y| sqrt(s), |xi| sqrt(n))/theta2 and sqrt(s)/theta3, are compared
    with |K|_F, where |K|_F^2 = |u (S r_y)^T - |y| A^T S|_F^2 + (n-1) |r_y|^2
    (module docstring); the message names the weight of a largest block.
    """
    problem, w = ctx.problem, ctx.w
    n, s = problem.n, problem.s
    AtS = apply_signature(problem.sig, problem.A).T
    k_norm = math.hypot(_norm(np.outer(ctx.u, ctx.sr) - ctx.y_norm * AtS),
                        math.sqrt(n - 1) * ctx.r_norm)
    weighted = {
        "theta1": _norm(problem.A) / w.theta1,
        "theta2": max(ctx.y_norm * math.sqrt(s), xi_norm * math.sqrt(n)) / w.theta2,
        "theta3": math.sqrt(s) / w.theta3,
    }
    weight = max(weighted, key=weighted.get)
    message = f"linearization matrix is numerically rank deficient ({detail})"
    if weighted[weight] > k_norm:
        message += (f"; the block scaled by 1/{weight} is the largest (Frobenius norm "
                    f"{weighted[weight]:.3e}, against {k_norm:.3e} for the unweighted block): "
                    f"rescaling {weight} may help")
    return RankDeficiencyError(message, sigma_min=sigma_min)


def _certainly_full_rank(ctx: _Context, t: float) -> bool:
    """The rank pre-test at t = |xi|/theta2: True only when the uniform bound
    sigma_min >= min(alpha, 1/theta3) exceeds PRETEST_MARGIN * RANK_RTOL *
    |C|_F >= PRETEST_MARGIN * RANK_RTOL * sigma_max, with
    |C|_F^2 = |C(0)|_F^2 + n t^2, so that the singular-value test would
    pass too."""
    return ctx.sigma_floor > _PRETEST_RTOL * math.sqrt(ctx.fro0_sq + ctx.n * t * t)


def _rhs_top(ctx: _Context, xi: np.ndarray, xi_norm: float):
    """(w, t) at xi, with xi_norm = |xi|_2 from _check_multiplier, once C(xi)
    passes the full-row-rank test (module docstring):
    w = B^T xi - A^T S r_y + y (xi.e)/(theta2^2 beta), in the original
    basis, and t = |xi|/theta2. The terms are added in this order so that
    the first two keep rhs_vector's bits, which the referee takes as exact;
    folding the rank-one term into B^T failed it (module docstring)."""
    t = xi_norm / ctx.theta2
    # Certainly rank deficient (module docstring), and so large a t could
    # overflow the scaled solve.
    if RANK_RTOL * t > ctx.rb_margin:
        raise _rank_error(ctx, xi_norm, f"sigma_min <= {ctx.rb:.3e}, "
                          f"sigma_max >= |xi|/theta2 = {t:.3e}", ctx.rb)
    if not _certainly_full_rank(ctx, t):
        svals = sla.svdvals(_fallback_matrix(ctx, xi, t))
        if not _full_row_rank(svals):
            raise _rank_error(ctx, xi_norm, f"sigma_min={svals[-1]:.3e}, sigma_max={svals[0]:.3e}",
                              float(svals[-1]))
    w = ctx.BT.dot(xi)
    w -= ctx.AtSr
    w += (ctx.k * xi.dot(ctx.v1) / ctx.theta2) * ctx.u
    return w, t


def _stage_two_norm(ctx: _Context, w: np.ndarray, t: float) -> float:
    """sqrt(w^T G(t)^-1 w) by Sherman-Morrison in the SVD basis of R0, with
    sigma, c, a and w_hat = V^T w divided by kappa = max(sigma_max, c)
    before they are squared (module docstring)."""
    c = math.hypot(ctx.r_norm, t)
    if c <= ctx.sigma_max:
        # kappa = sigma_max, so the context's squares are already scaled.
        kappa, ratio_sq, s_sq = ctx.sigma_max, 1.0, ctx.s_sq
    else:
        kappa = c
        ratio_sq = (ctx.sigma_max / kappa) ** 2
        s_sq = ctx.s_sq * ratio_sq
    cs, a_s, r_s, kt = c / kappa, ctx.h * t / kappa, ctx.r_norm / kappa, ctx.k * t / kappa
    # 1/d_i, d_i = (sigma_i/kappa)^2 + (c/kappa)^2
    inv = 1.0 / (s_sq + cs * cs)
    den = ratio_sq * float(ctx.z2s.dot(inv)) + a_s * a_s * float(ctx.z2.dot(inv))
    w_hat = ctx.VT.dot(w)
    w_hat /= kappa
    wd = w_hat * inv
    zw = float(ctx.z.dot(wd))
    return math.sqrt(float(w_hat.dot(wd)) + (r_s * r_s + kt * kt) * zw * zw / den)


def backward_error_estimate(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> float:
    """rho(xi): norm of the minimum-norm solution of J(xi) z = rhs(xi)."""
    ctx = _context(problem, _candidate_array(problem, y), w)
    xi, xi_norm = _check_multiplier(problem, xi)
    return math.hypot(ctx.v1_norm, _stage_two_norm(ctx, *_rhs_top(ctx, xi, xi_norm)))


def min_norm_perturbation(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> np.ndarray:
    """The minimum-norm stacked perturbation z solving J(xi) z = rhs(xi).

    z stacks (vec(E), theta1 f, theta2 vec(F), theta3 g); its 2-norm is
    rho(xi), the value backward_error_estimate returns, to rounding.

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
    w_top, t = _rhs_top(ctx, xi, xi_norm)
    order, stack = _sorted_rows(_stack_transpose(ctx, t))
    qr, tau, _, _ = dgeqrf(stack, int(dgeqrf_lwork(2 * n + 1, n)[0]), 1)
    v2, _ = dtrtrs(qr, w_top, 0, 1)
    u, v1, sr = ctx.u, ctx.v1, ctx.sr
    z_stack = np.empty(2 * n + 1)
    z_stack[order] = _q_times(qr, tau, v2)
    # The folded row's entry spreads over the second rows of the rotated
    # pairs along -xi/|xi|; each pair then rotates back to (a3, a5).
    z2 = (xi / xi_norm) * -z_stack[2 * n] if xi_norm > 0.0 else np.zeros_like(xi)
    a3 = ctx.k * v1 + ctx.h * z2
    a5 = ctx.k * z2 - ctx.h * v1
    # The R0 rows' share of z_stack maps back to C's first 2m columns
    # through Q0, whose rows are in the stage-one order.
    a12 = np.empty(2 * m)
    a12[ctx.order0] = _q_times(ctx.qr0, ctx.tau0, z_stack[:n])
    a1, a2 = a12[:m], a12[m:]
    a4 = z_stack[n:2 * n]
    c = math.hypot(ctx.r_norm, t)
    p = (a4 - u * (u @ a4)) / c if c > 0.0 else a4
    E = np.outer(a1, u) + np.outer(sr, p)
    F = np.outer(a3, u) - np.outer(xi, p) / w.theta2
    return np.concatenate([E.ravel(order="F"), a2, F.ravel(order="F"), a5])


def _q_times(qr: np.ndarray, tau: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Q [v; 0] for the geqrf reflectors (qr, tau) of a tall matrix, applied
    by solver._apply_q (ormqr): Q is never formed."""
    c = np.zeros((qr.shape[0], 1), order="F")
    c[:v.shape[0], 0] = v
    return solver._apply_q(qr, tau, c, "N")[:, 0]


def _residual_blocks(problem: IlseProblem, y: np.ndarray):
    """(A^T S r_y, d - B y) for a y from _candidate_array. Neither depends
    on w, so a context built for (problem, y) under any weights holds them;
    without one they are formed by the same operations, once y passes
    _check_candidate. Either way they have the bits of rhs_vector's terms."""
    ctx = _last_context
    if ctx is not None and ctx.problem is problem and ctx.y_bytes == y.tobytes():
        return ctx.AtSr, ctx.e
    y = _check_candidate(problem, y)
    return problem.A.T @ apply_signature(problem.sig, problem.residual(y)), problem.d - problem.B @ y


def least_squares_multiplier(problem: IlseProblem, y: np.ndarray) -> np.ndarray:
    """The multiplier minimizing |B^T xi - A^T S r_y|_2 (min-norm solution).

    Requires B to have full row rank.
    """
    AtSr, _ = _residual_blocks(problem, _candidate_array(problem, y))
    xi, _, rank, sv = np.linalg.lstsq(problem.B.T, AtSr, rcond=None)
    if rank < problem.s:
        raise RankDeficiencyError(
            f"constraint matrix is rank deficient (rank {rank} < {problem.s})",
            sigma_min=float(sv[-1]) if len(sv) else 0.0,
        )
    return xi


def stability_constant(problem: IlseProblem, y: np.ndarray, w: WeightScheme) -> float:
    """alpha: smallest singular value of the n x (nm + m) block of J that
    does not depend on the multiplier: the root of a secular equation in the
    SVD basis of R0 (module docstring), held by the context of (problem, y, w)."""
    return _context(problem, _candidate_array(problem, y), w).alpha


def stability_constant_lower_bound(
    problem: IlseProblem, y: np.ndarray, w: WeightScheme
) -> float:
    """Certified lower bound |r_y|_2 / sqrt(1 + theta1^2 |y|_2^2) on alpha,
    computed without the context that alpha comes from."""
    y = _check_candidate(problem, y)
    return _norm(problem.residual(y)) / math.hypot(1.0, w.theta1 * _norm(y))


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
    AtSr, e = _residual_blocks(problem, y)
    num = _norm(np.concatenate([problem.B.T @ xi1 - AtSr, e]))
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

    scale = math.hypot(1.0 / w.theta1, _norm(y))
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
