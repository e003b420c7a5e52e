"""Domain types and elementary operations for the equality-constrained
indefinite least squares (ILSE) problem

    min_x (b - A x)^T S (b - A x)   subject to   B x = d,

where S = diag(I_p, -I_q) is a signature matrix. This module holds the
value types shared by the solver, the backward-error machinery, the test
generators and the experiment harness, plus the norms everything else is
built on: _norm, the package's one norm of user data, which does not
overflow where the norm itself is in range, and the weighted perturbation
norm built from it. All types are immutable after construction and every
function is pure, so instances can be shared freely across threads.
backward_error keeps one module-level cache, of the multiplier-free part
of the linearization for the last (problem, y, w); backward_error._Context
says why it is invisible in output and safe under threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


class IlseError(Exception):
    """Base class for numerical failures raised by this package."""


class IllPosedProblemError(IlseError):
    """The problem violates the existence/uniqueness conditions."""


class RankDeficiencyError(IlseError):
    """A matrix that must have full (row) rank is numerically rank deficient.

    Carries ``sigma_min``, the offending smallest singular value.
    """

    def __init__(self, message: str, sigma_min: float = 0.0):
        super().__init__(message)
        self.sigma_min = float(sigma_min)


class GenerationError(IlseError):
    """Random instance generation failed repeatedly (ill-posed draws)."""


class OptimizationError(IlseError):
    """Derivative-free minimization could not evaluate any trial point."""


def _frozen(a, dtype=float):
    """Return a C-contiguous, read-only float array copy of ``a``."""
    out = np.array(a, dtype=dtype, copy=True, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SignatureMatrix:
    """The diagonal matrix diag(I_p, -I_q), stored as the pair (p, q).

    Never materialized: products are implemented as sign flips on the last
    q entries, which is O(m) with identical semantics. Applying it twice
    is the identity.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be nonnegative, got p={self.p}, q={self.q}")

    @property
    def m(self) -> int:
        return self.p + self.q

    def diagonal(self) -> np.ndarray:
        """The length-(p+q) vector of +-1 diagonal entries."""
        d = np.ones(self.m)
        d[self.p:] = -1.0
        return d


def apply_signature(sig: SignatureMatrix, v: np.ndarray) -> np.ndarray:
    """Multiply by the signature matrix: negate the last q entries (rows).

    Accepts a vector of length p+q or a matrix with p+q rows; a fresh
    array is returned either way.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[0] != sig.m:
        raise ValueError(
            f"signature matrix of order {sig.m} applied to array with leading dimension {v.shape[0]}"
        )
    out = v.copy()
    out[sig.p:] = -out[sig.p:]
    return out


@dataclass(frozen=True)
class IlseProblem:
    """The data quadruple (A, b, B, d) plus its signature matrix.

    Shapes: A is m x n with m >= n >= 1, b has length m, B is s x n with
    s <= n, d has length s, and sig.p + sig.q = m. All entries must be
    finite. Arrays are copied and marked read-only.

    The problem may carry its WellPosednessReport, with the solution and
    multiplier of a well-posed problem, kept once by
    solver.check_well_posedness in the instance __dict__. It is not a
    field: ==, repr and dataclasses.replace ignore it, and a replaced or
    perturbed problem starts without one.
    """

    A: np.ndarray
    b: np.ndarray
    B: np.ndarray
    d: np.ndarray
    sig: SignatureMatrix

    def __post_init__(self):
        A = _frozen(self.A)
        b = _frozen(self.b)
        B = _frozen(self.B)
        d = _frozen(self.d)
        if A.ndim != 2:
            raise ValueError("A must be a matrix")
        m, n = A.shape
        if n == 0:
            raise ValueError(f"A must have at least one column, got shape {A.shape}")
        if m < n:
            raise ValueError(f"need m >= n, got A of shape {A.shape}")
        if b.shape != (m,):
            raise ValueError(f"b must have length {m}, got shape {b.shape}")
        if B.ndim != 2 or B.shape[1] != n:
            raise ValueError(f"B must have {n} columns, got shape {B.shape}")
        s = B.shape[0]
        if s > n:
            raise ValueError(f"need s <= n, got s={s}, n={n}")
        if d.shape != (s,):
            raise ValueError(f"d must have length {s}, got shape {d.shape}")
        if self.sig.m != m:
            raise ValueError(f"signature matrix has order {self.sig.m}, expected {m}")
        for name, arr in (("A", A), ("b", b), ("B", B), ("d", d)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "d", d)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def s(self) -> int:
        return self.B.shape[0]

    def residual(self, x: np.ndarray) -> np.ndarray:
        """b - A x for a candidate x."""
        return self.b - self.A @ np.asarray(x, dtype=float)


@dataclass(frozen=True)
class IlseSolution:
    """Solution bundle: x, multipliers xi (and lam = -xi), residual
    r = b - A x, and s_vec = S r.

    The stored r is recomputed from (b, A, x), so r == b - A @ x bitwise,
    s_vec is an exact sign flip of r, and lam is an exact negation of xi.
    """

    x: np.ndarray
    xi: np.ndarray
    lam: np.ndarray
    r: np.ndarray
    s_vec: np.ndarray

    def __post_init__(self):
        for name in ("x", "xi", "lam", "r", "s_vec"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class WeightScheme:
    """Strictly positive weights (theta1, theta2, theta3) applied to the
    right-hand-side perturbation f, the constraint-matrix perturbation F,
    and the constraint right-hand-side perturbation g respectively."""

    theta1: float = 1.0
    theta2: float = 1.0
    theta3: float = 1.0

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not (v > 0.0) or not math.isfinite(v)):
                raise ValueError(f"{name} must be a strictly positive finite number, got {v!r}")
            object.__setattr__(self, name, float(v))


@dataclass(frozen=True)
class PerturbationQuadruple:
    """Perturbations (E, f, F, g) of (A, b, B, d), dimension-conforming."""

    E: np.ndarray
    f: np.ndarray
    F: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        E = _frozen(self.E)
        f = _frozen(self.f)
        F = _frozen(self.F)
        g = _frozen(self.g)
        if E.ndim != 2 or F.ndim != 2 or f.ndim != 1 or g.ndim != 1:
            raise ValueError("E, F must be matrices and f, g vectors")
        if f.shape[0] != E.shape[0]:
            raise ValueError("f must conform to the rows of E")
        if g.shape[0] != F.shape[0]:
            raise ValueError("g must conform to the rows of F")
        if E.shape[1] != F.shape[1]:
            raise ValueError("E and F must have the same number of columns")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "g", g)

    def conforms_to(self, problem: IlseProblem) -> bool:
        return self.E.shape == problem.A.shape and self.F.shape == problem.B.shape


def weighted_perturbation_norm(pert: PerturbationQuadruple, w: WeightScheme) -> float:
    """Frobenius norm of the weighted block matrix [E, theta1*f; theta2*F, theta3*g].

    The hypot of the weighted block norms, so no square of a weight or of a
    block is formed: the result is inf only where the norm itself is.
    """
    return math.hypot(_norm(pert.E), w.theta1 * _norm(pert.f),
                      w.theta2 * _norm(pert.F), w.theta3 * _norm(pert.g))


def _norm(a: np.ndarray) -> float:
    """|a|_2 of a vector, |a|_F of a matrix: the package's one norm of user data.

    Where the sum of squares np.vdot(a, a) is finite, its square root, which
    has the bits of np.linalg.norm(a) without its dispatch or its overflow
    warning. Otherwise the scaled norm big |a / big|_F, with big the largest
    magnitude in a, whose squares cannot overflow (Blue, ACM TOMS 1978). So
    a finite a has a finite norm unless the norm itself is out of range.
    """
    sq = np.vdot(a, a)
    if math.isfinite(sq):
        return math.sqrt(sq)
    big = float(np.max(np.abs(a), initial=0.0))
    if not math.isfinite(big):
        return big
    a = a / big
    return big * math.sqrt(np.vdot(a, a))


def perturbed_problem(problem: IlseProblem, pert: PerturbationQuadruple) -> IlseProblem:
    """The problem (A+E, b+f, B+F, d+g) with the same signature matrix."""
    if not pert.conforms_to(problem):
        raise ValueError("perturbation does not conform to the problem dimensions")
    return IlseProblem(
        problem.A + pert.E,
        problem.b + pert.f,
        problem.B + pert.F,
        problem.d + pert.g,
        problem.sig,
    )


@dataclass(frozen=True)
class BackwardErrorReport:
    """Certified backward-error quantities for a candidate solution y.

    rho_xi1 is the linearized estimate evaluated at the least-squares
    multiplier; rho_xi0 the same at a caller-supplied multiplier (usually
    the unperturbed one). tau0 = max(theta3, 1/alpha) bounds the
    pseudoinverse norm of the linearization uniformly in the multiplier;
    alpha_lower is its certified lower bound |r_y| / sqrt(1 + theta1^2 |y|^2).

    When 4 * tau0 * rho_xi1 * sqrt(theta1^-2 + |y|^2) < 1 (the
    ``small_rho_condition``), mu_upper = 2 * rho_xi1 bounds the true
    backward error from above. mu_lower evaluates the theoretical
    lower-bound formula at rho_xi1; because the formula is monotone in its
    argument and rho_xi1 only upper-bounds the optimal estimate, mu_lower
    is indicative rather than certified. distance_lower is a certified
    lower bound on the distance from y to the exact solution.

    bounds_applicable is False when r_y = 0, where the bound theory does
    not apply; mu_upper/mu_lower are then None. rho_xi0 is None when no
    multiplier was supplied. ``ilse backward-error`` prints the fields in
    this order.
    """

    rho_xi1: float
    rho_xi0: float | None
    tau0: float
    alpha: float
    alpha_lower: float
    small_rho_condition: bool
    mu_upper: float | None
    mu_lower: float | None
    distance_lower: float
    bounds_applicable: bool
