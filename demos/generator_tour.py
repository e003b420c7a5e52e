#!/usr/bin/env python3
"""Tour of the seeded test-matrix generators.

Everything is a pure function of its seed (Philox streams), so any matrix
shown here is reproducible bit for bit.
"""

import numpy as np
import scipy.linalg as sla

from ilse import SignatureMatrix, gen_sigma_orthogonal
from ilse.testgen import (
    GenParams,
    gen_conditioned_matrix,
    gen_geometric_diagonal,
    gen_ilse_instance,
    gen_random_orthogonal,
)

np.set_printoptions(precision=4, suppress=True)

# Random orthogonal factors come from chained Householder reflectors.
Q = gen_random_orthogonal(5, seed=1)
print("random orthogonal, |Q^T Q - I|_max =", np.max(np.abs(Q.T @ Q - np.eye(5))))

# Signature-orthogonal factors preserve the indefinite form
# Q^T diag(I_p, -I_q) Q = diag(I_p, -I_q). The mixed-sign planes use
# hyperbolic rotations (cosh/sinh), whose angle bound controls how far
# the factor strays from orthogonality.
for hyper_bound in (0.0, 1.0, 2.0):
    Q = gen_sigma_orthogonal(6, 4, seed=2, hyper_bound=hyper_bound)
    S = np.diag(SignatureMatrix(6, 4).diagonal())
    residual = np.max(np.abs(Q.T @ S @ Q - S))
    print(f"hyper_bound={hyper_bound}: form residual {residual:.2e}, "
          f"|Q|_2 = {sla.svdvals(Q)[0]:.3f}")

# Singular-value ladders decay geometrically between 1 and 1/kappa.
print("\nladder for kappa = 1e4:", np.diag(gen_geometric_diagonal(6, 6, 1e4)))

# Conditioned rectangular matrices hit their condition number on the nose.
B = gen_conditioned_matrix(4, 10, 1e6, seed=3)
sv = sla.svdvals(B)
print(f"conditioned 4x10 matrix: |B|_2 = {sv[0]:.6f}, cond = {sv[0] / sv[-1]:.4e}")

# Full instances combine the three factors; the achieved condition number
# of A is reported because the signature-orthogonal factor is not an
# isometry.
for kappa_a in (1e2, 1e4, 1e8):
    params = GenParams(m=100, n=50, s=20, p=60, q=40,
                       kappa_a=kappa_a, kappa_b=1e2, seed=4)
    problem, achieved = gen_ilse_instance(params)
    print(f"nominal kappa_A = {kappa_a:.0e} -> achieved {achieved:.3e}, "
          f"|A|_2 = {sla.svdvals(problem.A)[0]:.6f}")

# With hyper_bound = 0 the factor is orthogonal and nominal = achieved.
params = GenParams(m=100, n=50, s=20, p=60, q=40,
                   kappa_a=1e4, kappa_b=1e2, seed=4, hyper_bound=0.0)
_, achieved = gen_ilse_instance(params)
print(f"hyper_bound = 0: achieved kappa_A = {achieved:.6e} (matches nominal)")
