"""Seeded generators for ILSE test problems.

A is built as Q D U with Q signature-orthogonal (Q^T S Q = S), D a
rectangular diagonal whose values decay geometrically from 1 to 1/kappa,
and U random orthogonal, then normalized to unit spectral norm. Because Q
is generally not orthogonal, the achieved condition number of A differs
from the nominal ladder ratio and is measured and returned. B gets
prescribed singular values the same way; b and d are standard Gaussian.

All randomness flows through the counter-based Philox generator keyed by
64-bit seeds; sub-streams are derived with fixed XOR constants, so every
generator is a pure, bitwise-reproducible function of its arguments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dgemm

from .core import GenerationError, IlseProblem, PerturbationQuadruple, SignatureMatrix, _norm
from .solver import check_well_posedness

_MASK64 = (1 << 64) - 1

# Stream ids for sub-seed derivation (seed XOR stream). Nested derivations
# stack XORs, so instance-level and factor-level ids must stay disjoint.
_STREAM_Q_PLUS = 0x9E3779B97F4A7C15
_STREAM_Q_MINUS = 0xC2B2AE3D27D4EB4F
_STREAM_ROTATIONS = 0x165667B19E3779F9
_STREAM_U = 0xD6E8FEB86659FD93
_STREAM_B_LEFT = 0xA24BAED4963EE407
_STREAM_B_RIGHT = 0x9FB21C651E98DF25
_STREAM_SIGMA = 0x94D049BB133111EB
_STREAM_B_MAT = 0xBF58476D1CE4E5B9
_STREAM_RHS_B = 0x2545F4914F6CDD1D
_STREAM_RHS_D = 0x7FB5D329728EA185
_STREAM_RETRY = 0xD1342543DE82EF95


def subseed(seed: int, stream: int) -> int:
    """Derive a 64-bit sub-seed as seed XOR stream-id."""
    return (int(seed) ^ int(stream)) & _MASK64


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


@dataclass(frozen=True)
class GenParams:
    """Dimensions, conditioning targets and seed for one generated instance.

    hyper_bound caps the modulus of the hyperbolic rotation angles used in
    the signature-orthogonal factor; 0 makes that factor orthogonal.
    """

    m: int
    n: int
    s: int
    p: int
    q: int
    kappa_a: float
    kappa_b: float
    seed: int
    hyper_bound: float = 1.0

    def __post_init__(self):
        for name in ("m", "n", "s", "p", "q"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, least in (("n", 1), ("s", 0), ("p", 0), ("q", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("kappa_a", "kappa_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        _check_hyper_bound(self.hyper_bound)
        if self.p + self.q != self.m:
            raise ValueError(f"p + q must equal m: {self.p} + {self.q} != {self.m}")
        if self.m < self.n:
            raise ValueError(f"need m >= n, got m={self.m}, n={self.n}")
        if self.s > self.n:
            raise ValueError(f"need s <= n, got s={self.s}, n={self.n}")
        if self.kappa_a < 1.0 or self.kappa_b < 1.0:
            raise ValueError("condition targets must be >= 1")


def _check_hyper_bound(hyper_bound: float) -> None:
    if not 0.0 <= hyper_bound < math.inf:
        raise ValueError(f"hyper_bound must be finite and >= 0, got {hyper_bound}")


def gen_random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Random n x n orthogonal matrix: n-1 Gaussian Householder reflectors
    applied to the identity (Stewart, SIAM J. Numer. Anal. 1980). Reflector
    k takes the next n - k Gaussians of the stream, drawn for several
    reflectors at a time.

    Each reflector's rank-one update rows -= v g^T, with g = (2/vv) rows^T v,
    is one in-place dgemm of inner dimension 1 on rows^T. With K = 1 every
    entry gets one rounded product v_i g_j, an exact negation and one
    rounded addition: the arithmetic of numpy's outer product and
    subtraction, so the bits do not depend on which BLAS is linked. The
    gemv v^T rows stays on numpy, whose summation order the bits do depend
    on. f2py silently copies a `c` that is not Fortran-contiguous, and the
    update is then lost; rows = Q[k:] is a block of whole rows of the
    C-ordered Q, so rows.T is always Fortran-contiguous.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    Q = np.eye(n)
    draws, start = np.empty(0), 0
    for k in range(n - 1):
        if start == draws.size:
            # The next r reflectors' Gaussians, at most 8n values, in one
            # call: Philox yields the same stream as one call per reflector,
            # with fewer calls and a buffer far smaller than Q.
            r = min(max(1, 8 * n // (n - k)), n - 1 - k)
            draws, start = rng.standard_normal(r * (n - k) - r * (r - 1) // 2), 0
        v = draws[start:start + n - k]
        start += n - k
        v[0] += math.copysign(math.sqrt(v.dot(v)), v[0])  # sign choice avoids cancellation
        vv = v.dot(v)
        if vv == 0.0:
            continue
        rows = Q[k:]
        g = v.dot(rows)
        g *= 2.0 / vv
        # rows^T += -1 g v^T + 1 rows^T, in place; the flags trans_a = 0,
        # trans_b = 0, overwrite_c = 1 are positional, which f2py parses faster.
        dgemm(-1.0, g[:, None], v[None, :], 1.0, rows.T, 0, 0, 1)
    return Q


# Past this order of Q the waves' fancy-indexed gathers and scatters over
# strided columns cost more than the calls they save: at order 200 the
# waves took 0.27-0.36 ms against the loop's 0.54-0.95 ms, at order 1000
# 21-29 ms against 10-13 ms (one pinned core of an Intel Xeon).
_WAVE_MAX_ORDER = 200


def _rotate(Q: np.ndarray, p: int, q: int, seed: int, hyper_bound: float) -> None:
    """Apply min(p, q) random hyperbolic rotations to the columns of Q, in place.

    Rotation r draws a column i < p, a column p <= j < p + q and an angle
    t in [-hyper_bound, hyper_bound], in that order, and maps (Q_i, Q_j) to
    (c Q_i + s Q_j, s Q_i + c Q_j) with c = cosh(t), s = sinh(t). Each new
    column is formed from its own pair alone, so rotations on disjoint pairs
    commute exactly. Up to order _WAVE_MAX_ORDER, rotation r therefore joins
    the wave after the last one that touched i or j, and each wave is one
    gather and one scatter of its columns; larger Q takes the rotations one
    at a time. Every column meets its rotations in draw order with the
    roundings of one rotation at a time, so Q has the same bits either way.
    """
    rng = _rng(seed)
    rotations = [(int(rng.integers(0, p)), p + int(rng.integers(0, q)),
                  float(rng.uniform(-hyper_bound, hyper_bound))) for _ in range(min(p, q))]
    if p + q > _WAVE_MAX_ORDER:
        for i, j, t in rotations:
            c, s = np.cosh(t), np.sinh(t)
            col_i, col_j = Q[:, i].copy(), Q[:, j].copy()
            Q[:, i] = c * col_i + s * col_j
            Q[:, j] = s * col_i + c * col_j
        return
    last = [-1] * (p + q)  # the wave of the last rotation on each column
    waves = []  # per wave: its i columns, j columns, cosh and sinh
    for i, j, t in rotations:
        wave = max(last[i], last[j]) + 1
        last[i] = last[j] = wave
        if wave == len(waves):
            waves.append(([], [], [], []))
        for entries, value in zip(waves[wave], (i, j, np.cosh(t), np.sinh(t))):
            entries.append(value)
    for i, j, c, s in waves:
        cols = Q[:, i + j]
        col_i, col_j = cols[:, :len(i)], cols[:, len(i):]
        c, s = np.array(c), np.array(s)
        Q[:, i + j] = np.hstack([c * col_i + s * col_j, s * col_i + c * col_j])


def gen_sigma_orthogonal(p: int, q: int, seed: int, hyper_bound: float = 1.0,
                         cols: int | None = None) -> np.ndarray:
    """Random Q of order p+q with Q^T diag(I_p, -I_q) Q = diag(I_p, -I_q),
    or its first cols columns (all of them when cols is None).

    Construction: a block-diagonal pair of random orthogonal factors,
    min(p, q) hyperbolic plane rotations with angles uniform in
    [-hyper_bound, hyper_bound] on random mixed-sign planes, and a second
    block-diagonal orthogonal pair. Each hyperbolic rotation preserves the
    indefinite form through cosh^2 - sinh^2 = 1, and block-diagonal
    orthogonal factors commute with the signature matrix, so the identity
    holds by construction.

    The first cols columns have the bits of the full Q's. When cols <= p,
    the q x q block of the second factor only reaches the columns left
    out, so it is not drawn and stays the identity; the product with that
    factor stays full width, since a gemm restricted to fewer columns need
    not round the same way.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    _check_hyper_bound(hyper_bound)
    m = p + q
    cols = m if cols is None else cols
    if not 0 <= cols <= m:
        raise ValueError(f"cols must be in [0, p + q], got {cols}")

    def block(seed_p, seed_q, with_q):
        M = np.eye(m)
        if p > 0:
            M[:p, :p] = gen_random_orthogonal(p, seed_p)
        if q > 0 and with_q:
            M[p:, p:] = gen_random_orthogonal(q, seed_q)
        return M

    Q = block(subseed(seed, _STREAM_Q_PLUS), subseed(seed, _STREAM_Q_MINUS), True)
    _rotate(Q, p, q, subseed(seed, _STREAM_ROTATIONS), hyper_bound)
    right = block(subseed(seed, _STREAM_Q_PLUS ^ _STREAM_U), subseed(seed, _STREAM_Q_MINUS ^ _STREAM_U),
                  cols > p)
    return (Q @ right)[:, :cols]


def _check_kappa(kappa: float) -> None:
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")


def gen_geometric_diagonal(rows: int, cols: int, kappa: float) -> np.ndarray:
    """rows x cols matrix whose diagonal decreases geometrically from 1 to 1/kappa."""
    _check_kappa(kappa)
    if rows < cols or cols < 1:
        raise ValueError(f"need rows >= cols >= 1, got {rows} x {cols}")
    D = np.zeros((rows, cols))
    np.fill_diagonal(D, _ladder(cols, kappa))
    return D


def _ladder(cols: int, kappa: float) -> np.ndarray:
    """The diagonal of gen_geometric_diagonal: kappa^(-j/(cols-1)) for
    j < cols, or [1] when cols = 1."""
    if cols == 1:
        return np.ones(1)
    return kappa ** (-np.arange(cols) / (cols - 1))


def gen_conditioned_matrix(s: int, n: int, kappa: float, seed: int) -> np.ndarray:
    """s x n matrix with unit spectral norm and singular values decaying
    geometrically to 1/kappa (condition number exactly kappa). At s = 0 it
    is the empty 0 x n matrix, and no random number is drawn; kappa is
    checked either way."""
    if s > n:
        raise ValueError(f"need s <= n, got s={s}, n={n}")
    _check_kappa(kappa)
    if s == 0:
        return np.zeros((0, n))
    U = gen_random_orthogonal(s, subseed(seed, _STREAM_B_LEFT))
    V = gen_random_orthogonal(n, subseed(seed, _STREAM_B_RIGHT))
    D = gen_geometric_diagonal(n, s, kappa).T
    return U @ D @ V.T


def gen_ilse_instance(params: GenParams) -> tuple[IlseProblem, float]:
    """Generate a well-posed instance; returns it with the achieved
    condition number of A.

    Ill-posed draws (possible at extreme conditioning) are regenerated
    from a derived sub-seed, up to 10 attempts. With no constraints
    (s = 0) the whole of A^T S A must be positive definite, not only its
    projection on the null space of B. A = Q D U with Q^T S Q = S, so
    A^T S A = U^T D^T S D U, which is positive definite exactly when
    p >= n: with p < n every draw is ill posed, and the error then says
    so. At kappa_a beyond 1/eps, A Z is numerically rank deficient in
    every draw whatever the shape.
    """
    ladder = _ladder(params.n, params.kappa_a)
    for attempt in range(10):
        seed = params.seed if attempt == 0 else subseed(params.seed, _STREAM_RETRY * attempt)
        Q = gen_sigma_orthogonal(params.p, params.q, subseed(seed, _STREAM_SIGMA), params.hyper_bound,
                                 params.n)
        U = gen_random_orthogonal(params.n, subseed(seed, _STREAM_U))
        # Q D U with D = gen_geometric_diagonal(m, n, kappa_a): each entry of
        # Q D is one product plus exact zeros, so scaling the first n
        # columns of Q by the ladder gives its bits.
        A = (Q * ladder) @ U
        sv = sla.svdvals(A)
        A = A / sv[0]
        B = gen_conditioned_matrix(params.s, params.n, params.kappa_b, subseed(seed, _STREAM_B_MAT))
        b = _rng(subseed(seed, _STREAM_RHS_B)).standard_normal(params.m)
        d = _rng(subseed(seed, _STREAM_RHS_D)).standard_normal(params.s)
        problem = IlseProblem(A, b, B, d, SignatureMatrix(params.p, params.q))
        if check_well_posedness(problem).well_posed:
            achieved = float(sv[0] / sv[-1])
            return problem, achieved
    cause = "; with no constraints (s = 0) A^T S A must be positive definite, which needs p >= n"
    cause = cause if params.s == 0 and params.p < params.n else ""
    raise GenerationError(
        f"no well-posed instance after 10 attempts (seed={params.seed}, "
        f"kappa_a={params.kappa_a:g}, kappa_b={params.kappa_b:g}){cause}"
    )


def gen_perturbation(problem: IlseProblem, eps: float, seed: int) -> PerturbationQuadruple:
    """Gaussian perturbation quadruple at magnitude eps.

    E and F are eps times standard Gaussian matrices; the right-hand-side
    perturbations are additionally scaled by |b|_2 and |d|_2.
    """
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    rng = _rng(seed)
    m, n, s = problem.m, problem.n, problem.s
    E = eps * rng.standard_normal((m, n))
    f = eps * _norm(problem.b) * rng.standard_normal(m)
    F = eps * rng.standard_normal((s, n))
    g = eps * _norm(problem.d) * rng.standard_normal(s)
    return PerturbationQuadruple(E=E, f=f, F=F, g=g)
