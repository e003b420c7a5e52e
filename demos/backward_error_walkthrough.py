#!/usr/bin/env python3
"""Certifying a candidate solution with the linearized backward-error machinery.

Given a candidate y for a constrained indefinite least squares problem,
the question is: how large a perturbation of (A, b, B, d) would make y
exactly optimal? The linearized estimate answers it through the
minimum-norm solution of an underdetermined system built from Kronecker
blocks. This script perturbs a problem, solves the perturbed version, and
asks the machinery how far the perturbed solution is from optimal for the
original data.
"""

import numpy as np

from ilse import (
    WeightScheme,
    backward_error_bounds,
    backward_error_estimate,
    least_squares_multiplier,
    mu_one,
    gen_perturbation,
    perturbed_problem,
    solution_distance_lower_bound,
    solve_ilse,
)
from ilse.backward_error import min_norm_perturbation
from ilse.testgen import GenParams, gen_ilse_instance

w = WeightScheme()  # unit weights on all data blocks

params = GenParams(m=100, n=50, s=20, p=60, q=40, kappa_a=1e2, kappa_b=1e2, seed=21)
problem, _ = gen_ilse_instance(params)
exact = solve_ilse(problem)

eps = 1e-6
pert = gen_perturbation(problem, eps, seed=22)
y = solve_ilse(perturbed_problem(problem, pert)).x
print(f"injected perturbation magnitude mu_1 = {mu_one(pert):.3e}")
print(f"candidate distance from the exact solution |x - y| = "
      f"{np.linalg.norm(exact.x - y):.3e}")

# The closed-form multiplier minimizing the optimality-residual norm, and
# the estimate at it.
xi1 = least_squares_multiplier(problem, y)
rho = backward_error_estimate(problem, y, xi1, w)
print(f"\nlinearized backward-error estimate rho(xi1) = {rho:.3e}")

# The estimate is the norm of an actual perturbation direction; unpack it.
z = min_norm_perturbation(problem, y, xi1, w)
nm, m, ns = problem.n * problem.m, problem.m, problem.n * problem.s
blocks = np.split(z, [nm, nm + m, nm + m + ns])
labels = ["vec(E)", "f", "vec(F)", "g"]
for label, block in zip(labels, blocks):
    print(f"  |{label:6s}| = {np.linalg.norm(block):.3e}")

# The full report adds the uniform pseudoinverse bound, the two-sided
# bounds, and a certified lower bound on the distance to the solution.
report = backward_error_bounds(problem, y, w, xi0=exact.xi)
print(f"\nalpha = {report.alpha:.4f} (certified lower bound {report.alpha_lower:.4f})")
print(f"tau0 = {report.tau0:.4f}")
print(f"small-estimate condition holds? {report.small_rho_condition}")
print(f"backward error bounded above by  {report.mu_upper:.3e}")
print(f"indicative lower value           {report.mu_lower:.3e}")
print(f"certified distance lower bound   {report.distance_lower:.3e}")
print(f"(true distance                   {np.linalg.norm(exact.x - y):.3e})")

# Sanity: at the exact solution everything collapses to zero.
clean = backward_error_bounds(problem, exact.x, w)
print(f"\nat the exact solution: rho(xi1) = {clean.rho_xi1:.2e}, "
      f"distance bound = {clean.distance_lower:.2e}")
