#!/usr/bin/env python3
"""Solving an equality-constrained indefinite least squares problem.

Walks through the smallest interesting instance by hand, then a generated
one at a realistic size, showing the augmented system, the solution
bundle, the residual checks that tell you the solve is trustworthy, and
how far the default null-space solve lies from the LU of the augmented
system.
"""

import numpy as np

from ilse import (
    IlseProblem,
    SignatureMatrix,
    check_well_posedness,
    normal_equation_residuals,
    residual_gamma,
    solve_ilse,
)
from ilse.solver import assemble_augmented
from ilse.testgen import GenParams, gen_ilse_instance

np.set_printoptions(precision=4, suppress=True)

# ---------------------------------------------------------------------------
# A 2x1 problem small enough to verify on paper:
#   minimize (b - A x)^T diag(1, -1) (b - A x)   subject to  x = 0
# ---------------------------------------------------------------------------
tiny = IlseProblem(
    A=np.array([[1.0], [0.0]]),
    b=np.array([1.0, 1.0]),
    B=np.array([[1.0]]),
    d=np.array([0.0]),
    sig=SignatureMatrix(1, 1),
)

report = check_well_posedness(tiny)
print("tiny problem well posed?", report.well_posed)

K, rhs = assemble_augmented(tiny)
print("augmented matrix (unknowns ordered lam, s, x):")
print(K)
print("right-hand side:", rhs)

sol = solve_ilse(tiny)
print("x  =", sol.x, "   (constraint forces x = 0)")
print("xi =", sol.xi, "  (multiplier balancing the indefinite residual)")
print("r  =", sol.r, " and the signed residual s =", sol.s_vec)

r1, r2 = normal_equation_residuals(tiny, sol.x, sol.xi)
print("optimality residuals:", r1, r2, "(both zero at the exact solution)")

# ---------------------------------------------------------------------------
# A generated instance: 100x50 with 20 constraints and signature (60, 40).
# The generator guarantees well-posedness and reports the achieved
# condition number of A (the signature-orthogonal factor shifts it away
# from the nominal target).
# ---------------------------------------------------------------------------
params = GenParams(m=100, n=50, s=20, p=60, q=40, kappa_a=1e4, kappa_b=1e2, seed=7)
problem, achieved_kappa = gen_ilse_instance(params)
print(f"\ngenerated instance: nominal kappa_A = {params.kappa_a:.0e}, "
      f"achieved = {achieved_kappa:.3e}")

# The verdict reads W = Qa^T S Qa for A Z = Qa Ra, with Z a basis of the
# null space of B: Z^T A^T S A Z = Ra^T W Ra is positive definite exactly
# when W is and Ra is nonsingular. |W|_2 <= 1 whatever kappa_A is.
report = check_well_posedness(problem)
print(f"lambda_min(W) = {report.min_projected_eig:.3e} (tolerance {report.pd_tolerance:.1e}), "
      f"rcond(Ra) = {report.ra_rcond:.3e} (tolerance {report.ra_tolerance:.1e})")

sol = solve_ilse(problem)
gamma = residual_gamma(problem, sol)
r1, r2 = normal_equation_residuals(problem, sol.x, sol.xi)
print(f"relative augmented residual gamma = {gamma:.3e}")

# The checked solve above took x and xi from the check's factors of B^T
# and A Z; the unchecked route factors the whole augmented matrix by LU.
# Both are backward stable, so they agree to rounding times conditioning.
lu = solve_ilse(problem, check_well_posed=False)
print(f"null-space x vs LU x: relative distance "
      f"{np.linalg.norm(sol.x - lu.x) / np.linalg.norm(lu.x):.3e}")
print(f"optimality residual norms = {np.linalg.norm(r1):.3e}, {np.linalg.norm(r2):.3e}")
print(f"|x| = {np.linalg.norm(sol.x):.3e}, |r| = {np.linalg.norm(sol.r):.3e}")

# The indefinite objective at the solution can be negative; that is the
# point of the signature matrix.
value = float(sol.r @ (np.concatenate([sol.r[:60], -sol.r[60:]])))
print(f"objective value r^T S r = {value:.6f}")
