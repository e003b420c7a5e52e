"""Extended-precision referee for rho and alpha.

rho(xi)^2 = rhs^T (J J^T)^-1 rhs is evaluated at 50 significant digits on
the Kronecker-built J, and alpha^2 as the smallest eigenvalue of the
top-left block of J J^T at xi = 0 in the closed form of the
backward_error module docstring, both from the same double-precision y,
xi, r_y and rhs that both double-precision routes read. The referee
therefore measures only the linear algebra: the compressed factorization
the estimator uses, and the dense J it replaced. Run with ``pytest -s`` to
see the errors.
"""

from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from ilse import WeightScheme, apply_signature, backward_error as be, properties

DIGITS = 50
SEEDS = (0, 1, 2)
# The compressed route's error may exceed the dense route's by this factor,
# or reach FLOOR, whichever is larger. Measured on the 24 TINY instances
# with the one-stage QR of C^T: at most 2.8e-13 for the compressed route
# against 7.9e-12 for the dense one; the compressed error is above twice
# the dense one only below 3e-13. alpha over the 48 TINY and TALL
# instances: at most 5.1e-13 from the stage-two factor at xi = 0, against
# 3.2e-12 from the SVD of the dense J's multiplier-free block.
FACTOR = 2.0
FLOOR = 1e-12
# m = 10 n: the shape where the stage-one QR of the estimator compresses
# most, 120 multiplier-free rows of C^T into 6.
TALL = replace(properties.TINY, m=60, p=35, q=25)


def _mp(a):
    return np.vectorize(mpmath.mpf, otypes=[object])(a)


def referee_rho(problem, y, xi, w) -> mpmath.mpf:
    m, n, s = problem.m, problem.n, problem.s
    with mpmath.workdps(DIGITS):
        eye = lambda k: _mp(np.eye(k))
        AtS = _mp(apply_signature(problem.sig, problem.A).T)
        sr = _mp(apply_signature(problem.sig, problem.residual(y)))
        y_mp, xi_mp = _mp(y), _mp(xi)
        t1, t2, t3 = (mpmath.mpf(t) for t in (w.theta1, w.theta2, w.theta3))
        K = np.kron(eye(n), sr[None, :]) - AtS @ np.kron(y_mp[None, :], eye(m))
        J = np.vstack([
            np.hstack([K, AtS / t1, -np.kron(eye(n), xi_mp[None, :]) / t2, _mp(np.zeros((n, s)))]),
            np.hstack([_mp(np.zeros((s, n * m + m))), np.kron(y_mp[None, :], eye(s)) / t2, -eye(s) / t3]),
        ])
        rhs = mpmath.matrix(be.rhs_vector(problem, y, xi).tolist())
        v = mpmath.lu_solve(mpmath.matrix((J @ J.T).tolist()), rhs)
        return mpmath.sqrt(sum(rhs[i] * v[i] for i in range(n + s)))


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
        xi = be.least_squares_multiplier(problem, y)
        exact = referee_rho(problem, y, xi, w)
        err_compressed = float(abs(be.backward_error_estimate(problem, y, xi, w) - exact) / exact)
        err_dense = float(abs(dense_rho(problem, y, xi, w) - exact) / exact)
        exact_alpha = referee_alpha(problem, y, w)
        err_alpha = float(abs(be.stability_constant(problem, y, w) - exact_alpha) / exact_alpha)
        err_alpha_dense = float(abs(dense_alpha(problem, y, xi, w) - exact_alpha) / exact_alpha)
        print(f"referee m={dims.m} kappa_A={kappa_a:.0e} kappa_B={kappa_b:.0e} eps={eps:.0e} seed={seed}: "
              f"rho compressed {err_compressed:.2e}, dense {err_dense:.2e}; "
              f"alpha compressed {err_alpha:.2e}, dense {err_alpha_dense:.2e}")
        assert err_compressed <= max(FACTOR * err_dense, FLOOR)
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
