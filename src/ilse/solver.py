"""Well-posedness checks and direct solution of the ILSE problem through
its symmetric augmented system

    [ 0    0    B ] [ lam ]   [ d ]
    [ 0    S    A ] [ s   ] = [ b ]
    [ B^T  A^T  0 ] [ x   ]   [ 0 ]

with s = S r, r = b - A x and lam = -xi. The coefficient matrix is
invertible exactly when B has full row rank and A^T S A is positive
definite on the null space of B.

K is assembled bitwise symmetric, so its C-ordered buffer is also its
Fortran array: LAPACK's getrf factors it in place and getrs solves with
the factors. The well-posedness report is computed once per problem
object and kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .core import (
    IllPosedProblemError,
    IlseProblem,
    IlseSolution,
    apply_signature,
)

_EPS = np.finfo(float).eps

# Instance-dict key of an IlseProblem's well-posedness report.
_REPORT_KEY = "_well_posedness_report"


@dataclass(frozen=True)
class WellPosednessReport:
    """Outcome of the two existence/uniqueness conditions.

    min_projected_eig is the smallest eigenvalue of Z^T (A^T S A) Z for an
    orthonormal null-space basis Z of B; it is +inf when the null space is
    trivial. The tolerances used are recorded so the booleans can be
    re-derived.
    """

    rank_ok: bool
    projected_pd_ok: bool
    min_projected_eig: float
    rank_tolerance: float
    pd_tolerance: float

    @property
    def well_posed(self) -> bool:
        return self.rank_ok and self.projected_pd_ok


def check_well_posedness(problem: IlseProblem) -> WellPosednessReport:
    """Verify rank(B) = s and positive definiteness of A^T S A on N(B).

    The rank test compares the s-th singular value of B against
    rank_tolerance * sigma_max(B) with rank_tolerance = max(s, n) * eps.
    The null-space basis Z is taken from the full orthogonal
    factorization of B^T (last n-s columns of Q), and the projected
    matrix Z^T A^T S A Z must have smallest eigenvalue above
    pd_tolerance = eps * |A^T S A|_2. Always returns a report; nothing is
    raised here.

    The report is computed once per problem object: it is kept in the
    instance __dict__ (the way functools.cached_property keeps a value)
    and the same frozen report is returned on every later call. The
    problem's arrays are read-only copies, so the kept report cannot go
    stale.
    """
    if _REPORT_KEY in problem.__dict__:
        return problem.__dict__[_REPORT_KEY]
    A, B, sig = problem.A, problem.B, problem.sig
    n, s = problem.n, problem.s
    rank_tolerance = float(max(s, n) * _EPS)

    if s == 0:
        rank_ok = True
        Z = np.eye(n)
    else:
        sv = sla.svdvals(B)
        rank_ok = bool(sv[0] > 0.0 and sv[s - 1] > rank_tolerance * sv[0])
        Q, _ = sla.qr(B.T, mode="full")
        Z = Q[:, s:]

    M = A.T @ apply_signature(sig, A)
    pd_tolerance = float(_EPS * np.max(np.abs(sla.eigvalsh(M)))) if n > 0 else float(_EPS)

    if Z.shape[1] == 0:
        min_eig = np.inf
    else:
        proj = Z.T @ M @ Z
        proj = 0.5 * (proj + proj.T)
        min_eig = float(sla.eigvalsh(proj)[0])

    report = WellPosednessReport(
        rank_ok=rank_ok,
        projected_pd_ok=bool(min_eig > pd_tolerance),
        min_projected_eig=min_eig,
        rank_tolerance=rank_tolerance,
        pd_tolerance=pd_tolerance,
    )
    problem.__dict__[_REPORT_KEY] = report
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
    """Solve the ILSE problem by LU factorization of the augmented system.

    The symmetric K from assemble_augmented is handed to LAPACK's dgetrf
    as K.T, the Fortran-ordered view of the same matrix, and factored in
    place; dgetrs then solves with the factors. The check reuses the
    problem's report when check_well_posedness has already computed it (a
    problem from gen_ilse_instance carries one). A problem with s = 0 is
    solved as plain indefinite least squares: x solves A^T S A x = A^T S b
    and xi is empty.

    Raises IllPosedProblemError if the well-posedness check fails or the
    factorization meets an exactly singular pivot. The residual r and the
    signed residual s_vec are recomputed from x so the stored fields
    satisfy their defining identities exactly.

    check_well_posed=False skips the eigenvalue test and returns the
    stationary point of the augmented system whenever it is invertible;
    the experiment pipeline uses this for perturbed problems, where a
    perturbation of conditioning-extreme data can push the projected
    quadratic form indefinite at rounding level while the augmented
    system stays comfortably solvable.
    """
    if check_well_posed:
        report = check_well_posedness(problem)
        if not report.well_posed:
            raise IllPosedProblemError(
                "problem is not well posed: "
                f"rank_ok={report.rank_ok}, projected_pd_ok={report.projected_pd_ok} "
                f"(min projected eigenvalue {report.min_projected_eig:.3e})"
            )

    K, rhs = assemble_augmented(problem)
    lu, piv, _ = lapack.dgetrf(K.T, overwrite_a=1)
    if np.any(np.diag(lu) == 0.0):
        raise IllPosedProblemError("augmented matrix is numerically singular")
    u, _ = lapack.dgetrs(lu, piv, rhs, overwrite_b=1)
    if not np.all(np.isfinite(u)):
        raise IllPosedProblemError("augmented solve produced non-finite values")

    s = problem.s
    m = problem.m
    lam = u[:s]
    x = u[s + m:]
    r = problem.b - problem.A @ x
    return IlseSolution(x=x, xi=-lam, lam=lam, r=r, s_vec=apply_signature(problem.sig, r))


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
