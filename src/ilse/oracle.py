"""Independent verification paths for the backward-error machinery.

Everything here is deliberately redundant with the main implementation:
the estimate is recomputed from the dense Kronecker-built J
(backward_error.linearization_matrix) instead of the compressed C, the
minimum-norm solve is redone through the normal equations of the
transposed system, the uniform pseudoinverse bound is recomputed from an
explicit SVD, the minimization over multipliers is done numerically
with a derivative-free method, and the well-posedness report is redone
from a full orthogonal factor and the projection of A^T S A. Where the
problem is plain least squares, ls_backward_error gives the exact
backward error in closed form, ground truth for the estimate. These
paths exist so the closed-form and factored routes in backward_error and
solver can be cross-checked, never to replace them.

The derivative-free method is _nelder_mead, the fixed-coefficient
Nelder-Mead simplex search, written here with scipy's iterates bit for
bit, so that the package needs no scipy.optimize: importing it would add
about 20 MB of resident memory to every process that searches.
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
    B^T and the projection of A^T S A, recomputed on every call.

    Q comes from sla.qr(B^T, mode="full"), Z is its last n-s columns,
    M = A^T S A is one gemm, min_projected_eig is the smallest eigenvalue
    of Z^T M Z, and pd_tolerance = eps |M|_2 = eps max |eig(M)|. ra_rcond
    is sigma_min/sigma_max of A Z from its singular values, against
    ra_tolerance = 0. The verdict therefore squares kappa_A, where
    solver.check_well_posedness reads lambda_min(W) for A Z = Qa Ra and
    W = Qa^T S Qa against m eps, and the rank of Ra against m eps. Since
    Z^T M Z = Ra^T W Ra, the two verdicts agree wherever this
    min_projected_eig lies outside the rounding of forming M, about
    n eps |M|_F + m eps |A|_F^2; inside it the check's is the one that
    rounding does not decide.
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
        min_eig = ra_rcond = np.inf
    else:
        proj = Z.T @ M @ Z
        proj = 0.5 * (proj + proj.T)
        min_eig = float(sla.eigvalsh(proj)[0])
        sv = sla.svdvals(A @ Z)
        ra_rcond = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
    return WellPosednessReport(
        rank_ok=rank_ok,
        projected_pd_ok=bool(min_eig > pd_tolerance and ra_rcond > 0.0),
        min_projected_eig=min_eig,
        rank_tolerance=rank_tolerance,
        pd_tolerance=pd_tolerance,
        ra_rcond=ra_rcond,
        ra_tolerance=0.0,
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


def ls_backward_error(problem: IlseProblem, y: np.ndarray, w: WeightScheme) -> float:
    """The exact normwise backward error of y for a problem that is plain
    least squares (s = 0 and q = 0, so S = I): the smallest |[E, theta1 f]|_F
    for which y solves min |(b + f) - (A + E) x|_2, the weighting of the
    estimate at s = 0. Its closed form (Walden, Karlson & Sun, Numer. Linear
    Algebra Appl. 1995; Higham, ASNA 2nd ed., Thm. 20.5) is

        mu(y) = min(phi, sigma_min([A, phi (I - r r^T/|r|^2)])),
        phi = theta1 |r| / sqrt(1 + theta1^2 |y|^2),  r = b - A y,

    the ground truth that rho and the bounds built on it are checked
    against where it applies."""
    if problem.s != 0 or problem.sig.q != 0:
        raise ValueError(f"a plain least-squares problem needs s = 0 and q = 0, got "
                         f"s = {problem.s} and q = {problem.sig.q}")
    y = np.asarray(y, dtype=float)
    r = problem.residual(y)
    r_norm = float(np.linalg.norm(r))
    if r_norm == 0.0:
        return 0.0
    phi = w.theta1 * r_norm / math.hypot(1.0, w.theta1 * float(np.linalg.norm(y)))
    q = r / r_norm
    P = np.eye(problem.m) - np.outer(q, q)
    return min(phi, float(sla.svdvals(np.hstack([problem.A, phi * P]))[-1]))


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


class _BudgetSpent(Exception):
    """The evaluation budget of a _nelder_mead search is spent."""


def _nelder_mead(func, x0, maxfev: int, xatol: float, fatol: float):
    """Minimize func from x0 with the Nelder-Mead simplex method (Nelder &
    Mead, Comput. J. 1965); returns (x, fun, nfev, success).

    The iterates are bitwise those of scipy.optimize.minimize(func, x0,
    method="Nelder-Mead", options={"maxfev": maxfev, "xatol": xatol,
    "fatol": fatol}), the variant without bounds, adaptive coefficients or
    callback, which tests/test_oracle.py compares against:
    - reflection 1, expansion 2, contraction 1/2, shrink 1/2: from the
      centroid xbar of the best N vertices and the worst vertex w, the
      trial points are 2 xbar - w, 3 xbar - 2 w, 1.5 xbar - 0.5 w and
      0.5 xbar + 0.5 w, and a shrink moves each vertex v to
      v0 + 0.5 (v - v0), with scipy's roundings;
    - vertex k of the start simplex is x0 with entry k scaled by 1.05, or
      set to 0.00025 where it is zero;
    - func gets a copy of each point, and the budget is checked before
      each evaluation. When it is spent the step stops where it is, a
      shrink part-way through included, and the simplex is sorted once
      more;
    - vertices are sorted by np.argsort of their values, NaN included;
    - the search stops once every value lies within fatol of the best and
      every vertex within xatol of the best in each entry.
    x is the best vertex, fun is np.min of the vertex values (NaN when one
    is NaN), and success means that the stopping test was met while budget
    was left.

    A step of minimize_estimate's searches costs about as much as the rho
    it evaluates, nearly all of it numpy's per-call overhead on arrays of
    s entries. So the loop calls the array methods argsort, take, max and
    copy, which give the bits of scipy's np.argsort, np.take, np.max and
    np.copy with less dispatch; reads the best and worst vertices once per
    step and the vertex values as Python floats, which compare as the
    float64 entries do, NaN included; tests the values part of the stopping
    test on those floats first, which fails on most steps, so the vertex
    spread is formed only when it passes; and copies each point only as
    func receives it.
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return func(x.copy())

    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        sim[k + 1] = x0
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(N + 1, np.inf)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts the start simplex twice. argsort is not stable, and past
    # 16 values with NaN among them the second sort can reorder ties.
    for _ in range(2):
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)

    while nfev < maxfev:
        try:
            best, worst = sim[0], sim[-1]
            values = fsim.tolist()
            f_best, f_next, f_worst = values[0], values[-2], values[-1]
            if (all(abs(f_best - v) <= fatol for v in values[1:])
                    and abs(sim[1:] - best).max() <= xatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = 2.0 * xbar - worst
            fxr = f(xr)
            shrink = False
            if fxr < f_best:
                xe = 3.0 * xbar - 2.0 * worst
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < f_next:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < f_worst:
                xc = 1.5 * xbar - 0.5 * worst
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = 0.5 * xbar + 0.5 * worst
                fxcc = f(xcc)
                if fxcc < f_worst:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = best + 0.5 * (sim[j] - best)
                    fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    return sim[0], fsim.min(), nfev, nfev < maxfev


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
    evaluation of its own plus a _nelder_mead search (coefficients 1, 2,
    1/2, 1/2; scipy's iterates, without scipy.optimize) of at most
    max(200 s // number_of_start_points, 2s + 4) evaluations. So a search
    with xi0 at s = 4 makes 5 x (1 + 160) = 805 evaluations. Each search
    stops once its values and points agree to a relative _SEARCH_TOL.
    Trial points where the linearization is rank deficient are skipped.
    The result never exceeds rho at the least-squares multiplier, ties
    between starts resolve to the earlier start, and fixed seeds give
    bitwise-identical output. At s = 0 there is nothing to search: the
    result is rho at the empty multiplier after one evaluation.
    """
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
        x, fun, _, success = _nelder_mead(
            objective,
            x0,
            maxfev=budget_per_start,
            xatol=_SEARCH_TOL * (1.0 + float(np.linalg.norm(x0))),
            fatol=_SEARCH_TOL * max(f0, 1e-300),
        )
        converged = converged or success
        if math.isfinite(fun) and fun < best_rho:
            best_rho, best_xi = float(fun), np.array(x, dtype=float)

    if not math.isfinite(best_rho):
        raise OptimizationError(
            f"every trial point failed ({failures} rank-deficient evaluations)"
        )
    return MinimizeResult(
        xi_star=best_xi, rho_star=best_rho, iterations=evals, converged=converged
    )
