"""Well-posedness checks and direct solution of the ILSE problem, whose
optimality conditions are the symmetric augmented system

    [ 0    0    B ] [ lam ]   [ d ]
    [ 0    S    A ] [ s   ] = [ b ]
    [ B^T  A^T  0 ] [ x   ]   [ 0 ]

with s = S r, r = b - A x and lam = -xi. The coefficient matrix is
invertible exactly when B has full row rank and A^T S A is positive
definite on the null space of B.

One analysis per problem object (_analyse) serves check_well_posedness
and the checked solve_ilse. It factors B^T = Q R once with LAPACK's
geqrf and never forms Q: the rank test reads the singular values of the
s x s R, and the null-space basis Z = Q [0; I] comes from applying the
reflectors to the last n-s columns of the identity (ormqr). It then
factors A Z = Qa Ra and forms W = Qa^T S Qa (Chandrasekaran, Gu & Sayed,
SIMAX 1998; Bojanczyk, Higham & Patel, BIT 2003). By Sylvester's law of
inertia, Z^T A^T S A Z = Ra^T W Ra is positive definite exactly when Ra
is nonsingular and W is positive definite. A^T S A is never formed, so
the verdict does not square kappa_A, and |W|_2 <= 1 whatever kappa_A is.
On a well-posed problem the same factors give the solution and its
multiplier. The problem object keeps the report and that (x, xi), not
the factors.

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
    dgeqrf,
    dgeqrf_lwork,
    dgetrf,
    dgetrs,
    dorgqr,
    dormqr,
    dsysv,
    dsysv_lwork,
    dtrcon,
    dtrtrs,
)

from .core import (
    IllPosedProblemError,
    IlseProblem,
    IlseSolution,
    apply_signature,
)

_EPS = np.finfo(float).eps

# Instance-dict key of an IlseProblem's well-posedness memo: the tuple
# (report, x, xi) of _analyse, with x and xi None on an ill-posed problem.
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


def _signed_gram(A: np.ndarray, p: int) -> np.ndarray:
    """Upper triangle of A^T S A as a Fortran array, from one dsyrk over
    the p rows of A with sign +1 and one over the rest with sign -1; a
    sign block without rows is skipped. The strict lower triangle is
    zero."""
    n = A.shape[1]
    M = np.zeros((n, n), order="F")
    for rows, sign in ((A[:p], 1.0), (A[p:], -1.0)):
        if rows.shape[0]:
            M = dsyrk(sign, rows.T, beta=1.0, c=M, overwrite_c=1)
    return M


def check_well_posedness(problem: IlseProblem) -> WellPosednessReport:
    """Verify rank(B) = s and positive definiteness of A^T S A on N(B).

    One Householder QR of B^T (geqrf) and one of A Z serve both tests, and
    neither Q nor A^T S A is formed:
    - the rank test compares the s-th singular value of the s x s R
      against rank_tolerance * sigma_max(R), with rank_tolerance =
      max(s, n) eps;
    - Z is the reflectors applied to [0; I_{n-s}], A Z = Qa Ra, and
      W = Qa^T S Qa comes from two dsyrk calls over the p and q row blocks
      of Qa. Z^T A^T S A Z = Ra^T W Ra is positive definite exactly when
      W is and Ra is nonsingular, so projected_pd_ok asks for both:
      - min_projected_eig = lambda_min(W) > pd_tolerance = m eps. Qa has
        orthonormal columns, so each entry of W is formed to about m eps
        whatever kappa_A is, and |W|_2 <= 1;
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
    well-posed problem the memo also holds the solution x and multiplier
    xi that the checked solve_ilse returns, read-only, of lengths n and s;
    the factors are not kept. The problem's arrays are read-only copies,
    so the memo cannot go stale. oracle.well_posedness_reference recomputes
    the verdict from the full Q and the projection Z^T A^T S A Z.
    """
    if _MEMO_KEY not in problem.__dict__:
        problem.__dict__[_MEMO_KEY] = _analyse(problem)
    return problem.__dict__[_MEMO_KEY][0]


def _analyse(
    problem: IlseProblem,
) -> tuple[WellPosednessReport, np.ndarray | None, np.ndarray | None]:
    """(report, x, xi) of check_well_posedness; x and xi are None unless
    the problem is well posed.

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
        qr, tau, _, _ = dgeqrf(problem.B.T, lwork=int(dgeqrf_lwork(n, s)[0]))
        sv = sla.svdvals(np.triu(qr[:s]))
        rank_ok = bool(sv[0] > 0.0 and sv[s - 1] > rank_tolerance * sv[0])
    min_eig = ra_rcond = math.inf
    if k:
        if s:
            Z = np.zeros((n, k), order="F")
            np.fill_diagonal(Z[s:], 1.0)
            Z = _apply_q(qr, tau, Z, "N")
        AZ = dgemm(1.0, A.T, Z, trans_a=1) if s else np.array(A, order="F")
        lwork = int(dgeqrf_lwork(m, k)[0])
        qa, tau_a, _, _ = dgeqrf(AZ, lwork, 1)
        Ra = np.triu(qa[:k])
        Qa = dorgqr(qa, tau_a, lwork, 1)[0]
        W = _signed_gram(Qa, sig.p)
        min_eig = float(sla.eigvalsh(W, lower=False, subset_by_index=[0, 0])[0])
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
        return report, None, None

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
    xi = np.zeros(0)
    if s:
        g = (A.T @ apply_signature(sig, b - A @ x))[:, None]
        xi = dtrtrs(qr, _apply_q(qr, tau, g, "T")[:s, 0])[0]
    x.flags.writeable = xi.flags.writeable = False
    return report, x, xi


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
    is computed again. Raises IllPosedProblemError if the check fails.

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
    residual r and the signed residual s_vec are recomputed from x so the
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
        x, xi = problem.__dict__[_MEMO_KEY][1:]
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
    """Q c (trans "N") or Q^T c (trans "T") for the geqrf reflectors
    (qr, tau) and a Fortran-ordered n x k c, overwritten."""
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
