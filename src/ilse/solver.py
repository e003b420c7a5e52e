"""Well-posedness checks and direct solution of the ILSE problem, whose
optimality conditions are the symmetric augmented system

    [ 0    0    B ] [ lam ]   [ d ]
    [ 0    S    A ] [ s   ] = [ b ]
    [ B^T  A^T  0 ] [ x   ]   [ 0 ]

with s = S r, r = b - A x and lam = -xi. The coefficient matrix is
invertible exactly when B has full row rank and A^T S A is positive
definite on the null space of B.

One analysis per problem object (_analyse) serves check_well_posedness
and the checked solve_ilse. It factors B^T = Q R once and never forms
Q. Both of its Householder QRs, of B^T and of A Z, run on LAPACK's
dgeqrt, the recursive blocked QR of Elmroth & Gustavson (IBM J. Res.
Dev. 2000), in blocks of nb = min(32, k) of its k = min(rows, cols)
columns; each block is factored by recursion in level-3 BLAS, where
geqrf's panels run in level 2. dgeqrt stores the reflectors below the
diagonal as geqrf does, and the diagonal of each triangular block
factor T holds geqrf's tau of that block, so ormqr, orgqr and trtrs read
the factors as they read geqrf's. One route serves every size, though
at 50 x 20 and 100 x 30 dgeqrt takes about 24 and 40 us against
geqrf's 7 and 18 us (one core of an Intel Xeon), about 2% of a
paper-size trial. The rank test on the s x s R is
certified without an SVD where it can be: sigma_max(R) <= |R|_F and
sigma_min(R) = 1/|R^-1|_2 >= 1/|R^-1|_F (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed.), so the test passes when
1/(|R|_F |R^-1|_F), with R^-1 from LAPACK's trtri, clears the rank
tolerance by PRETEST_MARGIN. Where that is inconclusive, the singular
values of R decide. The null-space basis Z = Q [0; I] comes from
applying the reflectors to the last n-s columns of the identity (ormqr).
It then factors A Z = Qa Ra and forms W = Qa^T S Qa (Chandrasekaran, Gu
& Sayed, SIMAX 1998; Bojanczyk, Higham & Patel, BIT 2003) from one
dsyrk over the smaller sign block of Qa: Qa has orthonormal columns, so
Qp^T Qp + Qq^T Qq = I and W = I - 2 Qq^T Qq = 2 Qp^T Qp - I. By
Sylvester's law of inertia, Z^T A^T S A Z = Ra^T W Ra is positive
definite exactly when Ra is nonsingular and W is positive definite.
A^T S A is never formed, so the verdict does not square kappa_A, and
|W|_2 <= 1 whatever kappa_A is. lambda_min(W) comes from one call of
LAPACK's syevr with the workspace scipy's eigvalsh queries, so it has
eigvalsh's bits. On a well-posed problem the same factors give the
solution, its multiplier and its residual. The problem object keeps the
report and that (x, xi, r), not the factors.

solve_ilse has two routes. A checked solve takes (x, xi) from that
analysis: K is never assembled. An unchecked solve assembles K bitwise
symmetric, so its C-ordered buffer is also its Fortran array: LAPACK's
getrf factors it in place and getrs solves with the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dgemm, dsyrk
from scipy.linalg.lapack import (
    dgeqrf_lwork,
    dgeqrt,
    dgetrf,
    dgetrs,
    dorgqr,
    dormqr,
    dsyevr,
    dsyevr_lwork,
    dsysv,
    dsysv_lwork,
    dtrcon,
    dtrtri,
    dtrtrs,
)

from .core import (
    IllPosedProblemError,
    IlseError,
    IlseProblem,
    IlseSolution,
    _norm,
    apply_signature,
)

_EPS = np.finfo(float).eps

# A certified rank pre-test skips the SVD only when its bound on
# sigma_min/sigma_max clears the rank tolerance by this factor, which
# covers the rounding of the quantities the bound is computed from and of
# the SVD it stands in for. backward_error's pre-test on J shares it.
PRETEST_MARGIN = 100.0

# Where a _norm of N entries is at least this, its sum of squares is a
# normal float, and the squares that underflow change it by a relative
# N u at most; a smaller _norm may have lost most of its value.
_NORM_MIN = math.sqrt(np.finfo(float).tiny)

# Instance-dict key of an IlseProblem's well-posedness memo: the tuple
# (report, x, xi, r) of _analyse, with x, xi and r None on an ill-posed
# problem.
_MEMO_KEY = "_well_posedness_memo"


@dataclass(frozen=True)
class WellPosednessReport:
    """Outcome of the two existence/uniqueness conditions.

    rank_ok compares the s-th singular value of B with rank_tolerance times
    the largest. With Z an orthonormal basis of the null space of B and
    A Z = Qa Ra, min_projected_eig is the smallest eigenvalue of
    W = Qa^T S Qa and ra_rcond is the reciprocal condition number of Ra;
    both are +inf when the null space is trivial. projected_pd_ok is
    min_projected_eig > pd_tolerance and ra_rcond > ra_tolerance. The
    tolerances used are recorded so the booleans can be re-derived;
    check_well_posedness states them.
    """

    rank_ok: bool
    projected_pd_ok: bool
    min_projected_eig: float
    rank_tolerance: float
    pd_tolerance: float
    ra_rcond: float
    ra_tolerance: float

    @property
    def well_posed(self) -> bool:
        return self.rank_ok and self.projected_pd_ok


def _signed_gram(Q: np.ndarray, p: int) -> np.ndarray:
    """Upper triangle of W = Q^T S Q, with S = diag(I_p, -I_q), for a Q
    with orthonormal columns, as a Fortran array whose strict lower
    triangle is zero. Q's row blocks Qp and Qq satisfy
    Qp^T Qp + Qq^T Qq = I, so one dsyrk over the smaller block gives W:
    W = I - 2 Qq^T Qq when q <= p, else 2 Qp^T Qp - I. A block without
    rows is skipped, so W = I exactly at q = 0 and -I at p = 0. Each
    entry is off from the two-block Qp^T Qp - Qq^T Qq by about the
    departure of Q^T Q from I, of order m eps for Q from orgqr."""
    k = Q.shape[1]
    rows, alpha, diagonal = (Q[p:], -2.0, 1.0) if Q.shape[0] - p <= p else (Q[:p], 2.0, -1.0)
    W = np.zeros((k, k), order="F")
    np.fill_diagonal(W, diagonal)
    if rows.shape[0]:
        W = dsyrk(alpha, rows.T, beta=1.0, c=W, overwrite_c=1)
    return W


def _householder_qr(a: np.ndarray, overwrite_a: int) -> tuple[np.ndarray, np.ndarray]:
    """(qr, tau) of geqrf for a rows x cols a, from LAPACK's dgeqrt with
    nb = min(32, k) and k = min(rows, cols) >= 1. The reflectors and R
    are stored as geqrf stores them; tau[j] is the diagonal entry of the
    block factor T of the block that holds column j, which dgeqrt keeps
    at T[j % nb, j]."""
    nb = min(32, *a.shape)
    qr, t, _ = dgeqrt(nb, a, overwrite_a)
    j = np.arange(t.shape[1])
    return qr, t[j % nb, j]


def check_well_posedness(problem: IlseProblem) -> WellPosednessReport:
    """Verify rank(B) = s and positive definiteness of A^T S A on N(B).

    One Householder QR of B^T and one of A Z serve both tests, each from
    LAPACK's dgeqrt with geqrf's tau read from the diagonals of its block
    factors T, and neither Q nor A^T S A is formed:
    - the rank test compares the s-th singular value of the s x s R
      against rank_tolerance * sigma_max(R), with rank_tolerance =
      max(s, n) eps. A certificate decides it without an SVD where it
      can: with R^-1 from LAPACK's dtrtri, 1/(|R|_F |R^-1|_F) <=
      sigma_min/sigma_max, and when it exceeds PRETEST_MARGIN *
      rank_tolerance the test passes. When dtrtri meets a zero pivot, a
      norm is out of range (|R|_F or |R^-1|_F under _NORM_MIN, or the
      product not finite) or the bound is under the margin, svdvals(R)
      decides. So every rank_ok is the singular-value test's;
    - Z is the reflectors applied to [0; I_{n-s}], A Z = Qa Ra, and
      W = Qa^T S Qa comes from one dsyrk over the smaller of the p and q
      row blocks of Qa, as I - 2 Qq^T Qq or 2 Qp^T Qp - I.
      Z^T A^T S A Z = Ra^T W Ra is positive definite exactly when W is
      and Ra is nonsingular, so projected_pd_ok asks for both:
      - min_projected_eig = lambda_min(W) > pd_tolerance = m eps, from
        LAPACK's dsyevr. Qa has orthonormal columns, so each entry of W
        is formed to about m eps whatever kappa_A is, and |W|_2 <= 1. A
        W that is not finite (A Z out of floating-point range) gives nan
        and fails;
      - ra_rcond, LAPACK's dtrcon estimate of the reciprocal 1-norm
        condition number of Ra, > ra_tolerance = m eps. That is the
        numerical-rank test of the m x (n-s) A Z, with a constant of
        order its dimension.
    At s = 0, Z = I and A Z = A; at s = n the null space is trivial and
    min_projected_eig and ra_rcond are +inf. Always returns a report;
    nothing is raised here.

    The analysis runs once per problem object: its result is kept in the
    instance __dict__ (the way functools.cached_property keeps a value)
    and the same frozen report is returned on every later call. On a
    well-posed problem the memo also holds the solution x, multiplier xi
    and residual r = b - A x that the checked solve_ilse returns,
    read-only, of lengths n, s and m, inf or nan where they are out of
    floating-point range, which the solve then reports; the factors are
    not kept. The problem's arrays are
    read-only copies, so the memo cannot go stale.
    oracle.well_posedness_reference recomputes the verdict from the full Q
    and the projection Z^T A^T S A Z.
    """
    if _MEMO_KEY not in problem.__dict__:
        problem.__dict__[_MEMO_KEY] = _analyse(problem)
    return problem.__dict__[_MEMO_KEY][0]


def _analyse(
    problem: IlseProblem,
) -> tuple[WellPosednessReport, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """(report, x, xi, r) of check_well_posedness; x, xi and the residual
    r = b - A x are None unless the problem is well posed.

    With B^T = [Q1 Q2] [R; 0], B x = d fixes x_p = Q1 R^-T d, and
    x = x_p + Z z with Z = Q2. The stationarity condition
    Z^T A^T S (b - A x) = 0 reads Ra^T W Ra z = Ra^T Qa^T S (b - A x_p);
    Ra is nonsingular on a well-posed problem, so W (Ra z) =
    Qa^T S (b - A x_p). W is solved by LAPACK's sysv (Bunch-Kaufman), then
    Ra z by trtrs. The multiplier is xi = R^-1 Q1^T A^T S r with
    r = b - A x. At s = 0, A Z = A and x = z; at s = n, Z is empty and
    x = x_p.
    """
    A, b, sig = problem.A, problem.b, problem.sig
    m, n, s = problem.m, problem.n, problem.s
    k = n - s
    rank_tolerance = float(max(s, n) * _EPS)
    pd_tolerance = ra_tolerance = float(m * _EPS)
    rank_ok = True
    if s:
        qr, tau = _householder_qr(problem.B.T, 0)
        # Where the certificate passes, |R|_F |R^-1|_F < 1/(PRETEST_MARGIN
        # max(s, n) eps). The computed inverse of a triangular R is off by
        # a relative amount of order s u kappa(R) (u = eps/2), so under
        # 1/200 here, and each norm adds about s u: sigma_min/sigma_max of
        # R exceeds about 99 max(s, n) eps. svdvals(R) errs by a modest
        # multiple of s u sigma_max, so the singular-value test would pass.
        R = np.triu(qr[:s])
        R_inv, info = dtrtri(R)
        r_norm, inv_norm = _norm(R), _norm(R_inv)
        if not (info == 0 and min(r_norm, inv_norm) >= _NORM_MIN
                and r_norm * inv_norm * (PRETEST_MARGIN * rank_tolerance) < 1.0):
            sv = sla.svdvals(R)
            rank_ok = bool(sv[0] > 0.0 and sv[s - 1] > rank_tolerance * sv[0])
    min_eig = ra_rcond = math.inf
    if k:
        if s:
            Z = np.zeros((n, k), order="F")
            np.fill_diagonal(Z[s:], 1.0)
            Z = _apply_q(qr, tau, Z, "N")
        AZ = dgemm(1.0, A.T, Z, trans_a=1) if s else np.array(A, order="F")
        qa, tau_a = _householder_qr(AZ, 1)
        Ra = np.triu(qa[:k])
        Qa = dorgqr(qa, tau_a, int(dgeqrf_lwork(m, k)[0]), 1)[0]
        W = _signed_gram(Qa, sig.p)
        ev_lwork, ev_liwork, _ = dsyevr_lwork(k)
        # dsyevr's positional flags: no vectors, range "I", upper, vl, vu,
        # il = iu = 1, abstol 0. A W that is not finite (A Z out of range)
        # ends in info > 0, whose w[0] is no eigenvalue.
        w, _, _, _, info = dsyevr(W, 0, "I", 0, 0.0, 1.0, 1, 1, 0.0, int(ev_lwork), ev_liwork)
        min_eig = math.nan if info else float(w[0])
        ra_rcond = float(dtrcon(Ra)[0])
    report = WellPosednessReport(
        rank_ok=rank_ok,
        projected_pd_ok=bool(min_eig > pd_tolerance and ra_rcond > ra_tolerance),
        min_projected_eig=min_eig,
        rank_tolerance=rank_tolerance,
        pd_tolerance=pd_tolerance,
        ra_rcond=ra_rcond,
        ra_tolerance=ra_tolerance,
    )
    if not report.well_posed:
        return report, None, None, None

    # A well-posed problem can have an x or xi out of floating-point range;
    # it is left inf or nan here, and the checked solve_ilse names it.
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.zeros(n)
        if s:
            # x_p = Q [R^-T d; 0]; trtrs reads the s x s R in qr's top rows.
            x_p = np.zeros((n, 1), order="F")
            x_p[:s, 0] = dtrtrs(qr, problem.d, 0, 1)[0]
            x = _apply_q(qr, tau, x_p, "N")[:, 0]
        if k:
            rhs = Qa.T @ apply_signature(sig, b - A @ x)
            v = dsysv(W, rhs, int(dsysv_lwork(k)[0]), overwrite_a=1)[2]
            z = dtrtrs(Ra, v)[0]
            x = x + Z @ z if s else z
        r = b - A @ x
        xi = np.zeros(0)
        if s:
            g = (A.T @ apply_signature(sig, r))[:, None]
            xi = dtrtrs(qr, _apply_q(qr, tau, g, "T")[:s, 0])[0]
    x.flags.writeable = xi.flags.writeable = r.flags.writeable = False
    return report, x, xi, r


def assemble_augmented(problem: IlseProblem) -> tuple[np.ndarray, np.ndarray]:
    """Build the order-(s+m+n) augmented matrix and right-hand side (d, b, 0).

    Unknown ordering is (lam, s, x). Assembly is exactly symmetric: the
    (B, B^T) and (A, A^T) blocks are written from the same floats, so the
    returned matrix equals its transpose bitwise. With s = 0 the lam block
    is empty and K is the augmented matrix of plain indefinite least
    squares.
    """
    m, n, s = problem.m, problem.n, problem.s
    order = s + m + n
    K = np.zeros((order, order))
    K[:s, s + m:] = problem.B
    K[s + m:, :s] = problem.B.T
    np.fill_diagonal(K[s:s + m, s:s + m], problem.sig.diagonal())
    K[s:s + m, s + m:] = problem.A
    K[s + m:, s:s + m] = problem.A.T
    rhs = np.concatenate([problem.d, problem.b, np.zeros(n)])
    return K, rhs


def solve_ilse(problem: IlseProblem, check_well_posed: bool = True) -> IlseSolution:
    """Solve the ILSE problem; the check decides the route.

    A checked solve (the default) runs the well-posedness check, or reuses
    the problem's memo when check_well_posedness has already computed it
    (a problem from gen_ilse_instance carries one), and returns the x and
    xi that the check's analysis solved for on the null space of B, from
    the same QR factors of B^T and A Z that its verdict read: no
    order-(s+m+n) matrix is formed, and on a memoized problem no factor
    is computed again. Raises IllPosedProblemError if the check fails, and
    an IlseError naming x, xi or the residual when the problem is well
    posed but that quantity is out of floating-point range (A and b scaled
    by 1e154 put xi there).

    check_well_posed=False skips the check and returns the stationary
    point of the augmented system whenever it is invertible, by LU
    factorization: the symmetric K from assemble_augmented is handed to
    LAPACK's dgetrf as K.T, the Fortran-ordered view of the same matrix,
    and factored in place; dgetrs then solves with the factors. The
    experiment pipeline uses this for perturbed problems, where a
    perturbation of conditioning-extreme data can push the projected
    quadratic form indefinite at rounding level while the augmented system
    stays comfortably solvable. This route keeps its bits on purpose:
    every candidate y that the experiments and the benchmark's reference
    values evaluate comes from it, and a y that moves by rounding moves
    the estimate at eps = 1e-12 beyond those values' 1e-8 tolerance. It
    raises IllPosedProblemError when the factorization meets an exactly
    singular pivot.

    A problem with s = 0 is solved as plain indefinite least squares: x
    solves A^T S A x = A^T S b and xi is empty. On either route the
    residual r is b - A x formed from the returned x (a checked solve
    reads the one its analysis formed for xi) and s_vec = S r, so the
    stored fields satisfy their defining identities exactly.
    """
    if check_well_posed:
        report = check_well_posedness(problem)
        if not report.well_posed:
            raise IllPosedProblemError(
                "problem is not well posed: "
                f"rank_ok={report.rank_ok}, projected_pd_ok={report.projected_pd_ok} "
                f"(lambda_min(W) {report.min_projected_eig:.3e}, rcond(Ra) {report.ra_rcond:.3e})"
            )
        x, xi, r = problem.__dict__[_MEMO_KEY][1:]
        for name, v in (("solution x", x), ("multiplier xi", xi), ("residual b - A x", r)):
            if not np.isfinite(v).all():
                raise IlseError(f"the {name} of this well-posed problem is out of floating-point range")
    else:
        x, xi = _augmented_solve(problem)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
            raise IllPosedProblemError("solve produced non-finite values")
        r = problem.b - problem.A @ x
    return IlseSolution(x=x, xi=xi, lam=-xi, r=r, s_vec=apply_signature(problem.sig, r))


def _augmented_solve(problem: IlseProblem) -> tuple[np.ndarray, np.ndarray]:
    """(x, xi) from the in-place LU of the augmented K (solve_ilse)."""
    K, rhs = assemble_augmented(problem)
    lu, piv, _ = dgetrf(K.T, overwrite_a=1)
    if np.any(np.diag(lu) == 0.0):
        raise IllPosedProblemError("augmented matrix is numerically singular")
    u, _ = dgetrs(lu, piv, rhs, overwrite_b=1)
    s, m = problem.s, problem.m
    return u[s + m:], -u[:s]


def _apply_q(qr: np.ndarray, tau: np.ndarray, c: np.ndarray, trans: str) -> np.ndarray:
    """Q c (trans "N") or Q^T c (trans "T") for the reflectors (qr, tau)
    of _householder_qr and a Fortran-ordered n x k c, overwritten."""
    lwork = int(dormqr("L", trans, qr, tau, c, -1, overwrite_c=1)[1][0])
    return dormqr("L", trans, qr, tau, c, lwork, overwrite_c=1)[0]


def normal_equation_residuals(
    problem: IlseProblem, x: np.ndarray, xi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the first-order optimality system at (x, xi).

    Returns r1 = B^T xi - A^T S (b - A x) of length n and r2 = d - B x of
    length s; both vanish at the exact solution and multiplier.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x must have length {problem.n}")
    if xi.shape != (problem.s,):
        raise ValueError(f"xi must have length {problem.s}")
    r = problem.b - problem.A @ x
    r1 = problem.B.T @ xi - problem.A.T @ apply_signature(problem.sig, r)
    r2 = problem.d - problem.B @ x
    return r1, r2
