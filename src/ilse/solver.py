"""Well-posedness checks and direct solution of the ILSE problem, whose
optimality conditions are the symmetric augmented system

    [ 0    0    B ] [ lam ]   [ d ]
    [ 0    S    A ] [ s   ] = [ b ]
    [ B^T  A^T  0 ] [ x   ]   [ 0 ]

with s = S r, r = b - A x and lam = -xi. The coefficient matrix is
invertible exactly when B has full row rank and A^T S A is positive
definite on the null space of B.

The check factors B^T = Q R once with LAPACK's geqrf and never forms Q:
the rank test reads the singular values of the s x s R, and the
null-space basis Z = Q [0; I] comes from applying the reflectors to the
last n-s columns of the identity (ormqr). A^T S A is formed once, as two
symmetric rank-k updates over the p and q row blocks of A, and serves
both the projection Z^T A^T S A Z and the tolerance eps |A^T S A|_F. The
well-posedness report is computed once per problem object and kept on
it, with geqrf's factors of B^T.

solve_ilse has two routes. A checked solve reuses those factors and
solves on the null space of B: a QR of the m x (n-s) A Z and an
(n-s) x (n-s) indefinite solve with W = Qa^T S Qa, so that A^T S A is
never formed and K is never assembled. An unchecked solve assembles K
bitwise symmetric, so its C-ordered buffer is also its Fortran array:
LAPACK's getrf factors it in place and getrs solves with the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dgemm, dsymm, dsyrk
from scipy.linalg.lapack import (
    dgeqrf,
    dgeqrf_lwork,
    dgetrf,
    dgetrs,
    dlantr,
    dorgqr,
    dormqr,
    dsysv,
    dsysv_lwork,
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
# (report, qr, tau) of check_well_posedness.
_MEMO_KEY = "_well_posedness_memo"


@dataclass(frozen=True)
class WellPosednessReport:
    """Outcome of the two existence/uniqueness conditions.

    min_projected_eig is the smallest eigenvalue of Z^T (A^T S A) Z for an
    orthonormal null-space basis Z of B; it is +inf when the null space is
    trivial. projected_pd_ok is min_projected_eig > pd_tolerance, with
    pd_tolerance = eps |A^T S A|_F; rank_ok compares the s-th singular
    value of B with rank_tolerance times the largest. The tolerances used
    are recorded so the booleans can be re-derived.
    """

    rank_ok: bool
    projected_pd_ok: bool
    min_projected_eig: float
    rank_tolerance: float
    pd_tolerance: float

    @property
    def well_posed(self) -> bool:
        return self.rank_ok and self.projected_pd_ok


def _signed_gram(A: np.ndarray, p: int) -> np.ndarray:
    """Upper triangle of M = A^T S A as an n x n Fortran array, from one
    dsyrk over the p rows of A with sign +1 and one over the q rows with
    sign -1; a sign block without rows is skipped. The strict lower
    triangle is zero."""
    n = A.shape[1]
    M = np.zeros((n, n), order="F")
    for rows, sign in ((A[:p], 1.0), (A[p:], -1.0)):
        if rows.shape[0]:
            M = dsyrk(sign, rows.T, beta=1.0, c=M, overwrite_c=1)
    return M


def _symmetric_frobenius(upper: np.ndarray) -> float:
    """|M|_F of the symmetric M whose upper triangle ``upper`` holds.

    With U the upper triangle and D the diagonal, |M|_F^2 = 2 |U|_F^2 -
    |D|_F^2; both norms are taken scaled (LAPACK's dlantr, math.hypot),
    so the result overflows only where |M|_F itself does.
    """
    u = float(dlantr("F", upper))
    if u == 0.0:
        return 0.0
    return u * math.sqrt(2.0 - (math.hypot(*upper.diagonal()) / u) ** 2)


def _null_space_basis(qr: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Z = Q [0; I_{n-s}] for the geqrf factors (qr, tau) of the n x s B^T:
    the reflectors applied to the last n-s columns of the identity."""
    n, s = qr.shape
    Z = np.zeros((n, n - s), order="F")
    np.fill_diagonal(Z[s:], 1.0)
    return _apply_q(qr, tau, Z, "N")


def check_well_posedness(problem: IlseProblem) -> WellPosednessReport:
    """Verify rank(B) = s and positive definiteness of A^T S A on N(B).

    One Householder QR of B^T (geqrf) serves both tests, and Q is never
    formed:
    - the rank test compares the s-th singular value of the s x s R
      against rank_tolerance * sigma_max(R), with rank_tolerance =
      max(s, n) * eps;
    - the null-space basis Z is the reflectors applied to [0; I_{n-s}].
    M = A^T S A is formed once, as two dsyrk calls over the p and q row
    blocks of A. The projected matrix Z^T M Z must have its smallest
    eigenvalue above pd_tolerance = eps |M|_F. That tolerance is never
    below eps |M|_2 and at most sqrt(n) times it, and it needs no
    eigenvalues of M. At s = 0, Z = I and the test reads M itself; at
    s = n the null space is trivial and min_projected_eig is +inf. Always
    returns a report; nothing is raised here.

    The report is computed once per problem object: it is kept in the
    instance __dict__ (the way functools.cached_property keeps a value)
    and the same frozen report is returned on every later call. The memo
    also holds geqrf's output (qr, tau) on B^T, read-only and of the size
    of B, which the checked solve of solve_ilse reuses; Z is not kept.
    The problem's arrays are read-only copies, so the kept report cannot
    go stale. oracle.well_posedness_reference recomputes the report from
    the full Q and the full spectrum of M.
    """
    if _MEMO_KEY in problem.__dict__:
        return problem.__dict__[_MEMO_KEY][0]
    n, s = problem.n, problem.s
    rank_tolerance = float(max(s, n) * _EPS)
    M = _signed_gram(problem.A, problem.sig.p)
    pd_tolerance = float(_EPS * _symmetric_frobenius(M))

    qr = tau = None
    if s == 0:
        rank_ok = True
        min_eig = float(sla.eigvalsh(M, lower=False)[0])
    else:
        qr, tau, _, _ = dgeqrf(problem.B.T, lwork=int(dgeqrf_lwork(n, s)[0]))
        sv = sla.svdvals(np.triu(qr[:s]))
        rank_ok = bool(sv[0] > 0.0 and sv[s - 1] > rank_tolerance * sv[0])
        if s == n:
            min_eig = math.inf
        else:
            Z = _null_space_basis(qr, tau)
            proj = dgemm(1.0, Z, dsymm(1.0, M, Z), trans_a=1)
            proj = 0.5 * (proj + proj.T)
            min_eig = float(sla.eigvalsh(proj)[0])
        qr.flags.writeable = tau.flags.writeable = False

    report = WellPosednessReport(
        rank_ok=rank_ok,
        projected_pd_ok=bool(min_eig > pd_tolerance),
        min_projected_eig=min_eig,
        rank_tolerance=rank_tolerance,
        pd_tolerance=pd_tolerance,
    )
    problem.__dict__[_MEMO_KEY] = (report, qr, tau)
    return report


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
    (a problem from gen_ilse_instance carries one), and then solves on the
    null space of B with the check's QR of B^T (_null_space_solve): no
    order-(s+m+n) matrix is formed. Raises IllPosedProblemError if the
    check fails or the reduced system meets an exactly zero pivot.

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
                f"(min projected eigenvalue {report.min_projected_eig:.3e})"
            )
        x, xi = _null_space_solve(problem, *problem.__dict__[_MEMO_KEY][1:])
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


def _null_space_solve(
    problem: IlseProblem, qr: np.ndarray | None, tau: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """(x, xi) of a well-posed problem from the geqrf factors (qr, tau) of
    B^T = [Q1 Q2] [R; 0], None at s = 0 (Chandrasekaran, Gu & Sayed, SIMAX
    1998; Bojanczyk, Higham & Patel, BIT 2003).

    B x = d fixes x_p = Q1 R^-T d, and x = x_p + Z z with Z = Q2 rebuilt by
    _null_space_basis. With A Z = Qa Ra (geqrf, then orgqr for the
    m x (n-s) Qa) and W = Qa^T S Qa from two dsyrk calls over the p and q
    row blocks of Qa (_signed_gram), the stationarity condition
    Z^T A^T S (b - A x) = 0 reads Ra^T W Ra z = Ra^T Qa^T S (b - A x_p);
    Ra is nonsingular on a well-posed problem, so W (Ra z) =
    Qa^T S (b - A x_p). W is solved by LAPACK's sysv (Bunch-Kaufman), which
    does not need W definite, then Ra z by trtrs. |W|_2 <= 1 whatever
    kappa_A is, and A^T S A is never formed, so kappa_A is not squared.
    The multiplier is xi = R^-1 Q1^T A^T S r with r = b - A x. At s = 0,
    A Z = A and x = z; at s = n, Z is empty and x = x_p.
    """
    A, b, sig = problem.A, problem.b, problem.sig
    m, n, s = problem.m, problem.n, problem.s
    k = n - s
    x = np.zeros(n)
    if s:
        # x_p = Q [R^-T d; 0]; trtrs reads the s x s R in qr's top rows.
        x_p = np.zeros((n, 1), order="F")
        x_p[:s, 0] = _triangular_solve(qr, problem.d, trans=1)
        x = _apply_q(qr, tau, x_p, "N")[:, 0]
    if k:
        Z = _null_space_basis(qr, tau) if s else None
        AZ = dgemm(1.0, A.T, Z, trans_a=1) if s else np.array(A, order="F")
        lwork = int(dgeqrf_lwork(m, k)[0])
        qa, tau_a, _, _ = dgeqrf(AZ, lwork, 1)
        Ra = np.triu(qa[:k])
        Qa = dorgqr(qa, tau_a, lwork, 1)[0]
        W = _signed_gram(Qa, sig.p)
        rhs = Qa.T @ apply_signature(sig, b - A @ x)
        _, _, v, info = dsysv(W, rhs, int(dsysv_lwork(k)[0]), overwrite_a=1)
        if info > 0:
            raise IllPosedProblemError("reduced matrix W = Qa^T S Qa is exactly singular")
        z = _triangular_solve(Ra, v)
        x = x + Z @ z if s else z
    if not s:
        return x, np.zeros(0)
    g = (A.T @ apply_signature(sig, b - A @ x))[:, None]
    return x, _triangular_solve(qr, _apply_q(qr, tau, g, "T")[:s, 0])


def _triangular_solve(a: np.ndarray, v: np.ndarray, trans: int = 0) -> np.ndarray:
    """T^-1 v (trans=0) or T^-T v (trans=1) for the upper triangle T of
    the leading k x k block of the n x k a; IllPosedProblemError on an
    exactly zero diagonal entry."""
    x, info = dtrtrs(a, v, 0, trans)
    if info > 0:
        raise IllPosedProblemError("triangular factor of the null-space solve is exactly singular")
    return x


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
