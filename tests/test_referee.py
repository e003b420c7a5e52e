"""Extended-precision referee for rho and alpha, and for the two routes of
solve_ilse.

rho(xi)^2 = rhs^T (J J^T)^-1 rhs is evaluated at 50 significant digits on
the Kronecker-built J, and alpha^2 as the smallest eigenvalue of the
top-left block of J J^T at xi = 0 in the closed form of the
backward_error module docstring, both from the same double-precision y,
xi, r_y and rhs that both double-precision routes read. The referee
therefore measures only the linear algebra: the compressed factorization
the estimator uses, and the dense J it replaced. Run with ``pytest -s`` to
see the errors.

The solve referee solves the augmented system K u = rhs of
solver.assemble_augmented, u = (lam, s, x), by a 40-digit LU
(mpmath.lu_solve) and rounds u* to double.
"""

from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from ilse import WeightScheme, apply_signature, backward_error as be, properties
from ilse import gen_ilse_instance, solve_ilse
from ilse.solver import assemble_augmented

DIGITS = 50
SEEDS = (0, 1, 2)
# The compressed route's error may exceed the dense route's by this factor,
# or reach FLOOR, whichever is larger. rho is checked at the points an
# oracle search passes: the least-squares multiplier xi1, 1e-3 xi1 and 0.
# Measured on the 48 TINY and TALL instances at those three points (144
# rhos), with the closed form in the SVD basis of R0: at most 1.2e-12 for
# the compressed route against 2.8e-11 for the dense one. alpha, the
# secular root in that basis: at most 5.0e-13, against 3.2e-12 from the
# SVD of the dense J's multiplier-free block.
FACTOR = 2.0
FLOOR = 1e-12
# m = 10 n: the shape where the stage-one QR of the estimator compresses
# most, 120 multiplier-free rows of C^T into 6.
TALL = replace(properties.TINY, m=60, p=35, q=25)


def _mp(a):
    return np.vectorize(mpmath.mpf, otypes=[object])(a)


def referee_rhos(problem, y, xis, w) -> list:
    """rho at each multiplier in xis. J J^T is summed over J's column
    blocks: the blocks that do not depend on xi, (vec(E), theta1 f) and
    theta3 g, give the same term at every xi, formed once."""
    m, n, s = problem.m, problem.n, problem.s
    with mpmath.workdps(DIGITS):
        eye = lambda k: _mp(np.eye(k))
        AtS = _mp(apply_signature(problem.sig, problem.A).T)
        sr = _mp(apply_signature(problem.sig, problem.residual(y)))
        y_mp = _mp(y)
        t1, t2, t3 = (mpmath.mpf(t) for t in (w.theta1, w.theta2, w.theta3))
        K = np.kron(eye(n), sr[None, :]) - AtS @ np.kron(y_mp[None, :], eye(m))
        fixed = np.vstack([
            np.hstack([K, AtS / t1, _mp(np.zeros((n, s)))]),
            np.hstack([_mp(np.zeros((s, n * m + m))), -eye(s) / t3]),
        ])
        gram_fixed = fixed @ fixed.T
        rhos = []
        for xi in xis:
            J_xi = np.vstack([-np.kron(eye(n), _mp(xi)[None, :]) / t2, np.kron(y_mp[None, :], eye(s)) / t2])
            rhs = mpmath.matrix(be.rhs_vector(problem, y, xi).tolist())
            v = mpmath.lu_solve(mpmath.matrix((gram_fixed + J_xi @ J_xi.T).tolist()), rhs)
            rhos.append(mpmath.sqrt(sum(rhs[i] * v[i] for i in range(n + s))))
        return rhos


def referee_alpha(problem, y, w) -> mpmath.mpf:
    """sqrt of the smallest eigenvalue of |r_y|^2 I_n - y r_y^T A - A^T r_y y^T
    + |y|^2 A^T A + A^T A/theta1^2."""
    with mpmath.workdps(DIGITS):
        A = mpmath.matrix(problem.A.tolist())
        r = mpmath.matrix(problem.residual(y).tolist())
        y_mp = mpmath.matrix(y.tolist())
        AtA, Atr = A.T * A, A.T * r
        gram = ((r.T * r)[0] * mpmath.eye(problem.n) - y_mp * Atr.T - Atr * y_mp.T
                + ((y_mp.T * y_mp)[0] + 1 / mpmath.mpf(w.theta1) ** 2) * AtA)
        return mpmath.sqrt(min(mpmath.eigsy(gram, eigvals_only=True)))


def dense_rho(problem, y, xi, w) -> float:
    """rho through the QR of the dense J^T, the route the estimator replaced."""
    J = be.linearization_matrix(problem, y, xi, w)
    R = sla.qr(J.T, mode="economic")[1]
    return float(np.linalg.norm(sla.solve_triangular(R, be.rhs_vector(problem, y, xi), trans="T")))


def dense_alpha(problem, y, xi, w) -> float:
    """alpha as the smallest singular value of the dense J's multiplier-free block."""
    J = be.linearization_matrix(problem, y, xi, w)
    return float(sla.svdvals(J[:problem.n, :problem.n * problem.m + problem.m])[-1])


def _check_against_referee(dims, kappa_a, kappa_b, eps):
    dims = replace(dims, kappa_a=kappa_a, kappa_b=kappa_b)
    w = WeightScheme()
    for seed in SEEDS:
        problem, _, _, psol = properties.solved_case(dims, eps, seed)
        y = psol.x
        xi1 = be.least_squares_multiplier(problem, y)
        label = f"referee m={dims.m} kappa_A={kappa_a:.0e} kappa_B={kappa_b:.0e} eps={eps:.0e} seed={seed}"
        points = {"xi1": xi1, "1e-3 xi1": 1e-3 * xi1, "0": np.zeros_like(xi1)}
        for (point, xi), exact in zip(points.items(), referee_rhos(problem, y, points.values(), w)):
            err_compressed = float(abs(be.backward_error_estimate(problem, y, xi, w) - exact) / exact)
            err_dense = float(abs(dense_rho(problem, y, xi, w) - exact) / exact)
            print(f"{label} xi={point}: rho compressed {err_compressed:.2e}, dense {err_dense:.2e}")
            assert err_compressed <= max(FACTOR * err_dense, FLOOR), point
        exact_alpha = referee_alpha(problem, y, w)
        err_alpha = float(abs(be.stability_constant(problem, y, w) - exact_alpha) / exact_alpha)
        err_alpha_dense = float(abs(dense_alpha(problem, y, xi1, w) - exact_alpha) / exact_alpha)
        print(f"{label}: alpha compressed {err_alpha:.2e}, dense {err_alpha_dense:.2e}")
        assert err_alpha <= max(FACTOR * err_alpha_dense, FLOOR)


def _over_cells(test):
    """Parametrize test over the eight (kappa_A, kappa_B, eps) cells."""
    for name, values in (("kappa_a", [1e2, 1e8]), ("kappa_b", [1e2, 1e8]), ("eps", [1e-6, 1e-12])):
        test = pytest.mark.parametrize(name, values)(test)
    return test


@_over_cells
def test_compressed_rho_is_as_accurate_as_dense(kappa_a, kappa_b, eps):
    _check_against_referee(properties.TINY, kappa_a, kappa_b, eps)


@_over_cells
def test_compressed_rho_is_as_accurate_as_dense_at_a_tall_shape(kappa_a, kappa_b, eps):
    _check_against_referee(TALL, kappa_a, kappa_b, eps)


SOLVE_DIGITS = 40
SOLVE_SEEDS = range(10)


def referee_solution(problem) -> np.ndarray:
    """u* = (lam, s, x) of K u = rhs by a SOLVE_DIGITS-digit LU, rounded to double."""
    K, rhs = assemble_augmented(problem)
    with mpmath.workdps(SOLVE_DIGITS):
        u = mpmath.lu_solve(mpmath.matrix(K.tolist()), mpmath.matrix(rhs.tolist()))
        return np.array([float(v) for v in u])


@pytest.mark.parametrize("kappa_b", [1e2, 1e8])
@pytest.mark.parametrize("kappa_a", [1e2, 1e8])
def test_both_solve_routes_are_within_the_backward_stable_bound(kappa_a, kappa_b):
    """|u - u*|_2 <= N eps kappa_2(K) |u|_2 for each route, N = s + m + n.

    u - u* = K^-1 r with r = K u - rhs, so |u - u*| <= eta kappa_2(K) |u|
    exactly, for the normwise backward error eta = |r| / (|K|_2 |u|) of the
    computed u. A backward-stable solve has eta <= c eps with a modest c;
    the bound takes c = N. The null-space route is backward stable for the
    problem's data (Bojanczyk, Higham & Patel, BIT 2003) and the LU of K,
    without element growth, for K. Over these 40 TINY instances the largest
    error is about 0.2 eps kappa_2(K) |u| for either route, so the bound
    holds with a margin near 100. x and xi errors are printed relative to
    their own norms: xi, a small block of u, can be far less accurate.
    """
    eps = float(np.finfo(float).eps)
    for seed in SOLVE_SEEDS:
        problem, _ = gen_ilse_instance(replace(properties.TINY, kappa_a=kappa_a, kappa_b=kappa_b, seed=seed))
        K, _ = assemble_augmented(problem)
        sv = sla.svdvals(K)
        u_star = referee_solution(problem)
        s, m = problem.s, problem.m
        x_star, xi_star = u_star[s + m:], -u_star[:s]
        line = []
        for name, checked in (("null-space", True), ("LU", False)):
            sol = solve_ilse(problem, check_well_posed=checked)
            u = np.concatenate([sol.lam, sol.s_vec, sol.x])
            err = np.linalg.norm(u - u_star)
            bound = K.shape[0] * eps * (sv[0] / sv[-1]) * np.linalg.norm(u)
            line.append(f"{name} x {np.linalg.norm(sol.x - x_star) / np.linalg.norm(x_star):.1e} "
                        f"xi {np.linalg.norm(sol.xi - xi_star) / np.linalg.norm(xi_star):.1e} "
                        f"u {err / bound:.1e} of bound")
            assert err <= bound, (name, seed)
        print(f"solve referee kappa_A={kappa_a:.0e} kappa_B={kappa_b:.0e} seed={seed}: " + "; ".join(line))
