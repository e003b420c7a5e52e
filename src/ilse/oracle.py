"""Independent verification paths for the backward-error machinery.

Everything here is deliberately redundant with the main implementation:
the estimate is recomputed from the dense Kronecker-built J
(backward_error.linearization_matrix) instead of the compressed C, the
minimum-norm solve is redone through the normal equations of the
transposed system, the uniform pseudoinverse bound is recomputed from an
explicit SVD, the minimization over multipliers is done numerically
with a derivative-free method, and the well-posedness report is redone
from a full orthogonal factor and the full spectrum of A^T S A. These
paths exist so the closed-form and factored routes in backward_error and
solver can be cross-checked, never to replace them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .core import (
    IlseProblem,
    OptimizationError,
    RankDeficiencyError,
    WeightScheme,
    apply_signature,
)
from .backward_error import (
    RANK_RTOL,
    backward_error_estimate,
    least_squares_multiplier,
    linearization_matrix,
    rhs_vector,
)
from .solver import WellPosednessReport

_EPS = np.finfo(float).eps


def well_posedness_reference(problem: IlseProblem) -> WellPosednessReport:
    """The well-posedness report from the full n x n orthogonal factor of
    B^T and the full spectrum of A^T S A, recomputed on every call.

    Q comes from sla.qr(B^T, mode="full"), Z is its last n-s columns,
    M = A^T S A is one gemm, and pd_tolerance = eps |M|_2 = eps max |eig(M)|.
    solver.check_well_posedness states its tolerance as eps |M|_F, which
    lies between eps |M|_2 and sqrt(n) eps |M|_2, so where min_projected_eig
    clears the larger tolerance it clears this one too.
    """
    A, B, sig = problem.A, problem.B, problem.sig
    n, s = problem.n, problem.s
    rank_tolerance = float(max(s, n) * _EPS)
    if s == 0:
        rank_ok = True
        Z = np.eye(n)
    else:
        Q, R = sla.qr(B.T, mode="full")
        sv = sla.svdvals(R[:s])
        rank_ok = bool(sv[0] > 0.0 and sv[s - 1] > rank_tolerance * sv[0])
        Z = Q[:, s:]
    M = A.T @ apply_signature(sig, A)
    pd_tolerance = float(_EPS * np.max(np.abs(sla.eigvalsh(M))))
    if Z.shape[1] == 0:
        min_eig = np.inf
    else:
        proj = Z.T @ M @ Z
        proj = 0.5 * (proj + proj.T)
        min_eig = float(sla.eigvalsh(proj)[0])
    return WellPosednessReport(
        rank_ok=rank_ok,
        projected_pd_ok=bool(min_eig > pd_tolerance),
        min_projected_eig=min_eig,
        rank_tolerance=rank_tolerance,
        pd_tolerance=pd_tolerance,
    )


def estimate_via_normal_equations(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> float:
    """rho(xi) through rhs^T (J J^T)^-1 rhs on a Kronecker-built J.

    Squares the conditioning, so only trustworthy on benign instances;
    that is exactly what makes it a useful cross-check for the QR path.
    """
    J = linearization_matrix(problem, y, xi, w)
    rhs = rhs_vector(problem, y, xi)
    G = J @ J.T
    wvec = sla.solve(0.5 * (G + G.T), rhs, assume_a="pos")
    return math.sqrt(max(float(rhs @ wvec), 0.0))


def pinv_norm_bound_via_svd(problem: IlseProblem, y: np.ndarray, w: WeightScheme) -> float:
    """tau0 recomputed as the explicit pseudoinverse norm.

    Assembles the linearization with the multiplier-dependent column block
    zeroed out and returns 1/sigma_min from a dense SVD of the full
    (n+s) x (nm+m+ns+s) matrix.
    """
    n, s = problem.n, problem.s
    M = linearization_matrix(problem, y, np.zeros(s), w)
    M[:, n * problem.m + problem.m:n * problem.m + problem.m + n * s] = 0.0
    svals = sla.svdvals(M)
    smin = float(svals[-1])
    if smin <= 0.0:
        raise RankDeficiencyError("zeroed linearization is singular", sigma_min=smin)
    return 1.0 / smin


def linearization_pinv_norm(
    problem: IlseProblem, y: np.ndarray, xi: np.ndarray, w: WeightScheme
) -> float:
    """tau(xi) = 1 / sigma_min(J(xi)), the pseudoinverse norm of J, from a
    dense SVD of the Kronecker-built J."""
    svals = sla.svdvals(linearization_matrix(problem, y, xi, w))
    if svals[-1] <= RANK_RTOL * svals[0]:
        raise RankDeficiencyError("linearization is rank deficient", sigma_min=float(svals[-1]))
    return float(1.0 / svals[-1])


def estimate_on_grid(
    problem: IlseProblem, y: np.ndarray, w: WeightScheme,
    lo: float, hi: float, step: float,
) -> tuple[float, float]:
    """Exhaustive 1-D scan of rho over scalar multipliers in [lo, hi].

    Only valid for s = 1. Returns (xi_best, rho_best). Brute force by
    design: this is the reference the optimizer is checked against. J and
    rhs are affine in the multiplier t, so J(t) J(t)^T = G0 + t G1 + t^2 G2
    from J at t = 0 and t = 1, and one batched solve of the system of
    estimate_via_normal_equations, an (n+1) x (n+1) matrix per point,
    evaluates the whole grid.
    """
    if problem.s != 1:
        raise ValueError("grid scan requires a single constraint (s = 1)")
    (J0, r0), (J1, r1) = ((linearization_matrix(problem, y, x, w), rhs_vector(problem, y, x))
                          for x in (np.zeros(1), np.ones(1)))
    dJ, dr = J1 - J0, r1 - r0
    cross = J0 @ dJ.T
    ts = np.arange(lo, hi + 0.5 * step, step)
    t = ts[:, None, None]
    rhs = r0 + t[:, 0] * dr
    G = J0 @ J0.T + t * (cross + cross.T) + (t * t) * (dJ @ dJ.T)
    wvec = np.linalg.solve(G, rhs[..., None])[..., 0]
    rhos = np.sqrt(np.maximum(np.einsum("ij,ij->i", rhs, wvec), 0.0))
    best = int(np.argmin(rhos))
    return float(ts[best]), float(rhos[best])


# Nelder-Mead budget per multiplier dimension, shared by the start points;
# relative stopping tolerance of each search; random start points.
_EVALS_PER_DIMENSION = 200
_SEARCH_TOL = 1e-8
_RANDOM_STARTS = 3


@dataclass(frozen=True)
class MinimizeResult:
    """Best multiplier found, its estimate value, the total number of
    estimate evaluations, and whether any start converged."""

    xi_star: np.ndarray
    rho_star: float
    iterations: int
    converged: bool


def minimize_estimate(
    problem: IlseProblem,
    y: np.ndarray,
    w: WeightScheme,
    xi0: np.ndarray | None = None,
    seed: int = 0,
) -> MinimizeResult:
    """Numerically minimize rho over multipliers with multi-start Nelder-Mead.

    Starting points are the least-squares multiplier, optionally xi0, and
    _RANDOM_STARTS random Gaussian points. A budget of 200 evaluations per
    multiplier dimension is split over the start points and does not cap
    the total number of rho evaluations: each start point costs one
    evaluation of its own plus a Nelder-Mead search of at most
    max(200 s // number_of_start_points, 2s + 4) evaluations. So a search
    with xi0 at s = 4 makes 5 x (1 + 160) = 805 evaluations. Each search
    stops once its values and points agree to a relative _SEARCH_TOL.
    Trial points where the linearization is rank deficient are skipped.
    The result never exceeds rho at the least-squares multiplier, ties
    between starts resolve to the earlier start, and fixed seeds give
    bitwise-identical output. At s = 0 there is nothing to search: the
    result is rho at the empty multiplier after one evaluation.
    """
    # Imported here, not at module level: scipy.optimize adds about 20 MB
    # of resident memory and 0.2 s to every `import ilse`, and this search
    # is its only user.
    from scipy.optimize import minimize as _nelder_mead

    y = np.asarray(y, dtype=float)
    s = problem.s

    xi1 = least_squares_multiplier(problem, y)
    points = [xi1]
    if xi0 is not None:
        points.append(np.asarray(xi0, dtype=float))
    rng = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
    spread = 1.0 + float(np.linalg.norm(xi1))
    for _ in range(_RANDOM_STARTS):
        points.append(spread * rng.standard_normal(s))

    evals = 0
    failures = 0

    def objective(xi):
        nonlocal evals, failures
        evals += 1
        try:
            return backward_error_estimate(problem, y, xi, w)
        except RankDeficiencyError:
            failures += 1
            return math.inf

    best_rho = math.inf
    best_xi = xi1
    converged = False
    budget_per_start = max(_EVALS_PER_DIMENSION * max(s, 1) // len(points), 2 * s + 4)
    for x0 in points:
        f0 = objective(x0)
        if f0 < best_rho:
            best_rho, best_xi = f0, np.array(x0, dtype=float)
        if s == 0:
            # rho does not depend on an empty multiplier: one evaluation is the minimum.
            converged = True
            break
        if not math.isfinite(f0):
            continue
        res = _nelder_mead(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": budget_per_start,
                "fatol": _SEARCH_TOL * max(f0, 1e-300),
                "xatol": _SEARCH_TOL * (1.0 + float(np.linalg.norm(x0))),
                "disp": False,
            },
        )
        if res.success:
            converged = True
        if math.isfinite(res.fun) and res.fun < best_rho:
            best_rho, best_xi = float(res.fun), np.array(res.x, dtype=float)

    if not math.isfinite(best_rho):
        raise OptimizationError(
            f"every trial point failed ({failures} rank-deficient evaluations)"
        )
    return MinimizeResult(
        xi_star=best_xi, rho_star=best_rho, iterations=evals, converged=converged
    )
