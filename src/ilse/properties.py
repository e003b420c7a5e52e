"""The property table: every invariant that ``ilse verify`` and the test
suite check, each coded once.

A row (Property) pairs one check with the family of instances it runs on.
A family names its instance count, dimensions, perturbation size and
seeds: instance k is built from sub-seed ``seed ^ (family.seed + k)`` of
the suite seed, and auxiliary draws (random weights, multipliers,
perturbation directions, search seeds) from offset ``family.aux``. At
the default suite seed 0 the rows behind acceptance criteria 3-7 and 9
therefore draw exactly the instances those criteria always used. A check
returns an Outcome: pass, fail with a detail, or skip when a precondition
such as r_y != 0 is unmet.

``ilse verify`` prints run_row's line for every row of TABLE, and the
test suite parametrizes one test over the same TABLE.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np
import scipy.linalg as sla

from . import backward_error as be
from . import oracle
from .core import (
    IlseProblem,
    PerturbationQuadruple,
    RankDeficiencyError,
    SignatureMatrix,
    WeightScheme,
    apply_signature,
    perturbed_problem,
    weighted_perturbation_norm,
)
from .harness import ExperimentConfig, mu_one, parse_experiment_csv, residual_gamma, run_experiment, run_trial
from .solver import assemble_augmented, check_well_posedness, normal_equation_residuals, solve_ilse
from .testgen import (
    GenParams,
    gen_geometric_diagonal,
    gen_ilse_instance,
    gen_perturbation,
    gen_sigma_orthogonal,
    subseed,
)

SMALL = GenParams(m=24, n=12, s=5, p=14, q=10, kappa_a=50.0, kappa_b=100.0, seed=0)
TINY = GenParams(m=12, n=6, s=3, p=7, q=5, kappa_a=30.0, kappa_b=50.0, seed=0)
PAPER = GenParams(m=100, n=50, s=20, p=60, q=40, kappa_a=1e2, kappa_b=1e2, seed=0)
ALPHA_DIMS = GenParams(m=20, n=8, s=3, p=12, q=8, kappa_a=50.0, kappa_b=100.0, seed=0)
SEARCH_DIMS = GenParams(m=16, n=8, s=5, p=10, q=6, kappa_a=50.0, kappa_b=100.0, seed=0)

# Agreement of the compressed linearization with the Kronecker-built J:
# singular values relative to sigma_max(J), rho and alpha relative to the
# dense values, and the residual of min_norm_perturbation's z in J z = rhs
# relative to sigma_max(J) |z| + |rhs|. Suite seeds 0-19 of the row (280
# cases) reached 1.2e-14, 2.5e-10, 8.4e-12 and 3.8e-16. The rho and alpha
# maxima fall at kappa_B = 1e8, where the dense route is the less accurate
# one (tests/test_referee.py).
COMPRESSED_RTOL = {"singular values": 1e-13, "rho": 1e-8, "alpha": 1e-9, "min-norm residual": 1e-13}


@dataclass(frozen=True)
class Suite:
    """Dimensions, weights and seed for the rows whose family leaves them open."""

    dims: GenParams = SMALL
    weights: WeightScheme = WeightScheme()
    seed: int = 0

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "Suite":
        """The dimensions, first kappa pair, weights and base seed of a config."""
        return cls(dims=config.gen_params(config.kappa_a_list[0], config.kappa_b_list[0]),
                   weights=config.weights, seed=config.base_seed)


@dataclass(frozen=True)
class Family:
    """``count`` instances yielded in order by ``draw(family, suite)``.

    dims=None means the suite's dimensions.
    """

    draw: Callable[["Family", Suite], Iterator]
    count: int
    seed: int = 0
    aux: int = 0
    dims: GenParams | None = None
    eps: float = 1e-4

    def params(self, suite: Suite) -> GenParams:
        return self.dims if self.dims is not None else suite.dims

    def instance_seed(self, suite: Suite, k: int) -> int:
        return subseed(suite.seed, self.seed + k)

    def aux_seed(self, suite: Suite, k: int = 0) -> int:
        return subseed(suite.seed, self.aux + k)


@dataclass(frozen=True)
class Outcome:
    """ok is None when the instance is skipped; value is the checked
    quantity, kept for the row's summary."""

    ok: bool | None
    detail: str = ""
    value: float | None = None


SKIP_ZERO_RESIDUAL = Outcome(None, "precondition unmet: r_y = 0")


@dataclass(frozen=True)
class Property:
    name: str
    check: Callable[..., Outcome]
    family: Family
    summary: Callable[[list[float]], str] | None = None


_ROWS: list[Property] = []


def _row(name: str, family: Family, summary=None):
    """Decorator: make a check into a Property row of TABLE, in definition order."""
    def make(check):
        _ROWS.append(Property(name, check, family, summary))
        return _ROWS[-1]
    return make


@dataclass
class RowResult:
    name: str
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    detail: str = ""
    values: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def add(self, outcome: Outcome) -> None:
        if outcome.value is not None:
            self.values.append(outcome.value)
        if outcome.ok:
            self.passed += 1
            return
        if outcome.ok is None:
            self.skipped += 1
        else:
            self.failed += 1
        if outcome.detail and outcome.detail not in self.detail and len(self.detail) < 500:
            self.detail += ("; " if self.detail else "") + outcome.detail

    def line(self) -> str:
        line = (f"[{'PASS' if self.ok else 'FAIL'}] {self.name}: "
                f"passed={self.passed} failed={self.failed} skipped={self.skipped}")
        return f"{line} ({self.detail})" if self.detail else line


def _raised(k: int, exc: Exception) -> Outcome:
    return Outcome(False, f"instance {k}: {type(exc).__name__}: {exc}")


def run_row(prop: Property, suite: Suite) -> RowResult:
    """Check every instance of the row's family.

    An exception from a check fails that instance and the row goes on; an
    exception while drawing an instance fails it and ends the row, since
    the family cannot go past it.
    """
    result = RowResult(prop.name)
    instances = prop.family.draw(prop.family, suite)
    for k in range(prop.family.count):
        try:
            instance = next(instances)
        except Exception as exc:
            result.add(_raised(k, exc))
            break
        try:
            outcome = prop.check(instance)
        except Exception as exc:
            outcome = _raised(k, exc)
        result.add(outcome)
    if prop.summary is not None and result.values:
        result.detail = "; ".join(filter(None, (prop.summary(result.values), result.detail)))
    return result


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _close(got: float, want: float, rtol: float) -> Outcome:
    """|got - want| <= rtol * max(1, |want|), as pytest.approx(want, rel=rtol)."""
    return Outcome(abs(got - want) <= rtol * max(1.0, abs(want)), f"{got!r} vs {want!r}")


def solved_case(dims: GenParams, eps: float, seed: int):
    """Generate from ``seed``, solve, perturb at ``eps`` and solve the
    perturbed problem, whose x serves as candidate y.

    Returns (problem, exact solution, perturbation, perturbed solution).
    """
    problem, _ = gen_ilse_instance(replace(dims, seed=subseed(seed, 0xACCE)))
    sol = solve_ilse(problem)
    pert = gen_perturbation(problem, eps, subseed(seed, 0x5EED))
    psol = solve_ilse(perturbed_problem(problem, pert), check_well_posed=False)
    return problem, sol, pert, psol


def _feasible_quadruple(problem, y, xi0, seed, scale=1e-4) -> PerturbationQuadruple:
    """A perturbation in the literal feasibility set for (y, xi0).

    E and F are random at the given scale; g closes the constraint
    equation and f solves the optimality equation of the perturbed data in
    the least-squares sense (exact when A + E has full column rank).
    """
    rng = _philox(seed)
    E = scale * rng.standard_normal(problem.A.shape)
    F = scale * rng.standard_normal(problem.B.shape)
    g = (problem.B + F) @ y - problem.d
    Ae = problem.A + E
    target = (problem.B + F).T @ xi0 - Ae.T @ apply_signature(problem.sig, problem.b - Ae @ y)
    f, *_ = np.linalg.lstsq(apply_signature(problem.sig, Ae).T, target, rcond=None)
    return PerturbationQuadruple(E=E, f=f, F=F, g=g)


def _cases(fam: Family, suite: Suite, count: int | None = None):
    for k in range(fam.count if count is None else count):
        yield solved_case(fam.params(suite), fam.eps, fam.instance_seed(suite, k))


def _problems(fam, suite):
    for k in range(fam.count):
        yield gen_ilse_instance(replace(fam.params(suite), seed=fam.instance_seed(suite, k)))[0]


def _signed_vectors(fam, suite):
    rng = _philox(fam.aux_seed(suite))
    for _ in range(fam.count):
        p, q = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        sig = SignatureMatrix(p if p + q else 1, q)
        yield sig, rng.standard_normal(sig.m)


def _quadruples(fam, suite):
    """Random quadruples of random size, weights exp(U(-2, 2)) and a scale c."""
    rng = _philox(fam.aux_seed(suite))
    for _ in range(fam.count):
        m, n, s = int(rng.integers(2, 7)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        pert = PerturbationQuadruple(
            E=rng.standard_normal((m, n)), f=rng.standard_normal(m),
            F=rng.standard_normal((s, n)), g=rng.standard_normal(s),
        )
        yield pert, WeightScheme(*np.exp(rng.uniform(-2, 2, size=3))), float(rng.uniform(-4, 4))


def _multipliers(fam, suite):
    """Ten multipliers per case, N(0, I) * U(0.1, 5) from one stream."""
    rng = np.random.default_rng(fam.aux_seed(suite))
    for problem, _, _, psol in _cases(fam, suite, fam.count // 10):
        for _ in range(10):
            xi = rng.standard_normal(problem.s) * float(rng.uniform(0.1, 5.0))
            yield problem, psol.x, xi, suite.weights


def _null_space_probes(fam, suite):
    """Cases with a random vector to project onto the null space of J."""
    rng = _philox(fam.aux_seed(suite))
    for problem, _, _, psol in _cases(fam, suite):
        m, n, s = problem.m, problem.n, problem.s
        yield problem, psol.x, suite.weights, rng.standard_normal(n * m + m + n * s + s)


# Shapes beside the conditioning grid: (m, n, s, p, q) and whether y = 0.
_EDGE_SHAPES = (
    ((12, 6, 3, 7, 5), True),
    ((4, 1, 1, 3, 1), False),
    ((8, 4, 4, 5, 3), False),
    ((6, 3, 2, 0, 6), False),
    ((6, 3, 2, 6, 0), False),
    ((6, 3, 0, 4, 2), False),
)


def _linearization_cases(fam, suite):
    """Candidates from perturbed solves with kappa_A, kappa_B in {1e2, 1e8}
    and eps in {1e-6, 1e-12}, at the least-squares multiplier; then Gaussian
    data at the edge shapes y = 0, n = 1, s = n, p = 0, q = 0 and s = 0
    with a Gaussian multiplier. Weights are exp(U(-1, 1))."""
    rng = _philox(fam.aux_seed(suite))
    grid = [(ka, kb, eps) for ka in (1e2, 1e8) for kb in (1e2, 1e8) for eps in (1e-6, 1e-12)]
    for k, (ka, kb, eps) in enumerate(grid):
        dims = replace(fam.params(suite), kappa_a=ka, kappa_b=kb)
        problem, _, _, psol = solved_case(dims, eps, fam.instance_seed(suite, k))
        w = WeightScheme(*np.exp(rng.uniform(-1, 1, size=3)))
        yield problem, psol.x, be.least_squares_multiplier(problem, psol.x), w
    for (m, n, s, p, q), zero_y in _EDGE_SHAPES:
        problem = IlseProblem(
            A=rng.standard_normal((m, n)), b=rng.standard_normal(m),
            B=rng.standard_normal((s, n)), d=rng.standard_normal(s), sig=SignatureMatrix(p, q),
        )
        y = np.zeros(n) if zero_y else rng.standard_normal(n)
        yield problem, y, rng.standard_normal(s), WeightScheme(*np.exp(rng.uniform(-1, 1, size=3)))


def _generated_shapes(dims: GenParams) -> list[dict]:
    """Changes to dims for generated instances: kappa_A, kappa_B in
    {1e2, 1e8}, then s = 0, s = n, q = 0 and p = 0 (with s = n, since a
    negative definite A^T S A has no well-posed draw otherwise)."""
    shapes = [dict(kappa_a=ka, kappa_b=kb) for ka in (1e2, 1e8) for kb in (1e2, 1e8)]
    return shapes + [dict(s=0), dict(s=dims.n), dict(p=dims.m, q=0), dict(s=dims.n, p=0, q=dims.m)]


def _well_posedness_cases(fam, suite):
    """Generated instances at the _generated_shapes; then Gaussian data at
    the edge shapes, which are ill posed in some draws (every p = 0 draw
    with s < n), and Gaussian data whose B repeats a row, which fails the
    rank test."""
    dims = fam.params(suite)
    for k, change in enumerate(_generated_shapes(dims)):
        yield gen_ilse_instance(replace(dims, seed=fam.instance_seed(suite, k), **change))[0]
    rng = _philox(fam.aux_seed(suite))
    for (m, n, s, p, q), _ in _EDGE_SHAPES:
        yield IlseProblem(
            A=rng.standard_normal((m, n)), b=rng.standard_normal(m),
            B=rng.standard_normal((s, n)), d=rng.standard_normal(s), sig=SignatureMatrix(p, q),
        )
    B = rng.standard_normal((dims.s, dims.n))
    B[-1] = B[0]
    yield IlseProblem(A=rng.standard_normal((dims.m, dims.n)), b=rng.standard_normal(dims.m), B=B,
                      d=rng.standard_normal(dims.s), sig=SignatureMatrix(dims.p, dims.q))


def _route_cases(fam, suite):
    """Generated instances that cycle through the _generated_shapes, n = 1
    and n = 1 with s = 0."""
    dims = fam.params(suite)
    shapes = _generated_shapes(dims) + [dict(m=4, n=1, s=1, p=3, q=1), dict(m=4, n=1, s=0, p=3, q=1)]
    for k in range(fam.count):
        change = shapes[k % len(shapes)]
        yield gen_ilse_instance(replace(dims, seed=fam.instance_seed(suite, k), **change))[0]


def _rank_threshold_cases(fam, suite):
    """The _linearization_cases, then cases around the rank threshold:
    candidates at kappa_A in {1e2, 1e8}, kappa_B = 1e8 and eps = 1e-12 with
    the least-squares multiplier scaled by 1, 1e3, 1e6 and 1e9, which takes
    sigma_min/sigma_max of C from about 1e-5 to below 1e-20; y = 0 with
    b = 0, so r_y = 0, at the zero and at a Gaussian multiplier; and a
    candidate at xi = 0 with theta3 = 1e-3, where sigma_min(C) = min(alpha, rb)
    is alpha < 1/theta3, so the row's bound check meets alpha itself."""
    yield from _linearization_cases(fam, suite)
    rng = _philox(fam.aux_seed(suite, 1))
    for k, ka in enumerate((1e2, 1e2, 1e2, 1e8, 1e8, 1e8)):
        dims = replace(fam.params(suite), kappa_a=ka, kappa_b=1e8)
        problem, _, _, psol = solved_case(dims, 1e-12, fam.instance_seed(suite, 100 + k))
        xi1 = be.least_squares_multiplier(problem, psol.x)
        for scale in (1.0, 1e3, 1e6, 1e9):
            yield problem, psol.x, scale * xi1, WeightScheme()
    m, n, s, p, q = 12, 6, 3, 7, 5
    for _ in range(2):
        problem = IlseProblem(
            A=rng.standard_normal((m, n)), b=np.zeros(m),
            B=rng.standard_normal((s, n)), d=rng.standard_normal(s), sig=SignatureMatrix(p, q),
        )
        yield problem, np.zeros(n), np.zeros(s), WeightScheme()
        yield problem, np.zeros(n), rng.standard_normal(s), WeightScheme()
    problem, _, _, psol = solved_case(fam.params(suite), 1e-6, fam.instance_seed(suite, 200))
    yield problem, psol.x, np.zeros(problem.s), WeightScheme(theta3=1e-3)


def _random_weight_cases(fam, suite):
    """Cases with weights exp(U(-1.5, 1.5)) from one stream."""
    rng = np.random.default_rng(fam.aux_seed(suite))
    for problem, _, _, psol in _cases(fam, suite):
        yield problem, psol.x, WeightScheme(*np.exp(rng.uniform(-1.5, 1.5, size=3)))


def _theta1_cases(fam, suite):
    """Cases with theta1 cycling through 0.1, 1, 10."""
    for k, (problem, _, _, psol) in enumerate(_cases(fam, suite)):
        yield problem, psol.x, WeightScheme(theta1=(0.1, 1.0, 10.0)[k % 3])


def _constructed(fam, suite):
    """Cases with a feasible perturbation for (y, exact multiplier)."""
    for k, (problem, sol, _, psol) in enumerate(_cases(fam, suite)):
        quad = _feasible_quadruple(problem, psol.x, sol.xi, subseed(fam.aux_seed(suite, k), 0xFEA5))
        yield problem, sol, psol.x, quad, suite.weights


def _lower_bound_arguments(fam, suite):
    rng = _philox(fam.aux_seed(suite))
    for _ in range(fam.count):
        a = float(np.exp(rng.uniform(-3, 3)))
        t1, t2 = sorted(np.exp(rng.uniform(-10, 2, size=2)))
        yield a, t1, t2


def _searches(fam, suite):
    """Cases whose constraint count cycles through 1..s, with a search seed each."""
    dims = fam.params(suite)
    for k in range(fam.count):
        problem, sol, _, psol = solved_case(
            replace(dims, s=1 + k % dims.s), fam.eps, fam.instance_seed(suite, k)
        )
        yield problem, sol, psol.x, suite.weights, fam.aux_seed(suite, k)


def _sigma_orthogonal_args(fam, suite):
    rng = _philox(fam.aux_seed(suite))
    for k in range(fam.count):
        p, q = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        yield p, q, fam.instance_seed(suite, k), float(rng.uniform(0, 2))


def _ladder_args(fam, suite):
    rng = _philox(fam.aux_seed(suite))
    for _ in range(fam.count):
        yield int(rng.integers(2, 13)), float(np.exp(rng.uniform(0.1, 9)))


def _directions(fam, suite):
    """A problem and a unit perturbation direction, with three eps pairs each."""
    for k in range(fam.count // 3):
        problem, _ = gen_ilse_instance(replace(fam.params(suite), seed=fam.instance_seed(suite, k)))
        direction = gen_perturbation(problem, 1.0, fam.aux_seed(suite, k))
        for e1, e2 in ((1e-6, 1e-8), (1e-8, 1e-10), (1e-6, 1e-10)):
            yield problem, direction, suite.weights, e1, e2


def _experiment_rows(fam, suite):
    """The rows of one experiment run at eps 1e-6, with their parsed csv records."""
    d = fam.params(suite)
    config = ExperimentConfig(
        m=d.m, n=d.n, s=d.s, p=d.p, q=d.q,
        kappa_a_list=(d.kappa_a,), kappa_b_list=(d.kappa_b,), eps_list=(1e-6,),
        trials_per_cell=fam.count, base_seed=fam.instance_seed(suite, 0),
    )
    rows, table = run_experiment(config)
    records = parse_experiment_csv(table)
    for k, row in enumerate(rows):
        yield config, row, records[k] if len(records) == len(rows) else None


_QUADRUPLES = Family(_quadruples, count=50, aux=13)
_PAPER_PROBLEMS = Family(_problems, count=5, seed=101, dims=PAPER)
_NE_PROBLEMS = Family(_problems, count=10, seed=211, dims=replace(SMALL, kappa_a=100.0, kappa_b=1000.0))
_CONSTRUCTED = Family(_constructed, count=200, seed=3000, aux=3500)
_SIGMA_ORTHOGONAL = Family(_sigma_orthogonal_args, count=20, seed=701, aux=17)
_EXPERIMENT = Family(_experiment_rows, count=4, seed=999, dims=SMALL)


def _ratio_summary(ratios: list[float]) -> str:
    return (f"ratio min={min(ratios):.3f} median={statistics.median(ratios):.3f} "
            f"max={max(ratios):.3f}")


@_row("core: signature application is an involution", Family(_signed_vectors, count=50, aux=11))
def involution(case):
    sig, v = case
    return Outcome(np.array_equal(apply_signature(sig, apply_signature(sig, v)), v))


@_row("core: weighted norm is absolutely homogeneous", _QUADRUPLES)
def homogeneous(case):
    pert, w, c = case
    scaled = PerturbationQuadruple(E=c * pert.E, f=c * pert.f, F=c * pert.F, g=c * pert.g)
    return _close(weighted_perturbation_norm(scaled, w), abs(c) * weighted_perturbation_norm(pert, w), 1e-12)


@_row("core: weighted norm squared splits into block terms", _QUADRUPLES)
def block_split(case):
    pert, w, _ = case
    explicit = (
        np.sum(pert.E**2) + w.theta1**2 * np.sum(pert.f**2)
        + w.theta2**2 * np.sum(pert.F**2) + w.theta3**2 * np.sum(pert.g**2)
    )
    return _close(weighted_perturbation_norm(pert, w) ** 2, float(explicit), 1e-12)


@_row("solver: augmented matrix is exactly symmetric", _PAPER_PROBLEMS)
def symmetric(problem):
    K, _ = assemble_augmented(problem)
    return Outcome(np.array_equal(K, K.T))


@_row("solver: augmented relative residual <= 1e-12 at paper dims", _PAPER_PROBLEMS)
def small_residual(problem):
    gamma = residual_gamma(problem, solve_ilse(problem))
    return Outcome(gamma <= 1e-12, f"gamma={gamma:.2e}")


@_row("solver: normal-equation residual scales with the data", _NE_PROBLEMS)
def normal_equations(problem):
    sol = solve_ilse(problem)
    r1, r2 = normal_equation_residuals(problem, sol.x, sol.xi)
    bound = 1e-10 * (np.linalg.norm(problem.A) * np.linalg.norm(problem.b) + np.linalg.norm(problem.B))
    return Outcome(math.hypot(np.linalg.norm(r1), np.linalg.norm(r2)) <= bound)


@_row("solver: repeated solves are bitwise identical", _NE_PROBLEMS)
def solves_repeat(problem):
    a, b = solve_ilse(problem), solve_ilse(problem)
    return Outcome(all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("x", "xi", "r")))


@_row(
    "solver: checked null-space solve agrees with the unchecked LU",
    Family(_route_cases, count=20, seed=1900, dims=TINY),
    summary=lambda ratios: f"largest distance {max(ratios):.2e} of its bound",
)
def routes_agree(problem):
    """Two checks: the checked route's residual_gamma is at most N eps,
    N = s + m + n (it is backward stable), and its u = (lam, s_vec, x)
    lies within 2 N eps kappa_2(K) |u| of the unchecked LU's. For any u,
    u - K^-1 rhs = K^-1 (K u - rhs), so |u - K^-1 rhs| <= eta kappa_2(K) |u|
    with eta = |K u - rhs| / (|K|_2 |u|), the normwise backward error; a
    backward-stable route has eta <= c eps, and the row takes c = N for
    both routes (Higham, Accuracy and Stability, ch. 7). Over suite seeds
    0-9, residual_gamma reached 0.06 N eps and the distance 4.2e-2 of its
    bound; kappa_2(K) reaches 7e14 at kappa_B = 1e8, where the distance
    bound says little and the residual test carries the row."""
    K, _ = assemble_augmented(problem)
    eps = float(np.finfo(float).eps)
    N = K.shape[0]
    checked, lu = solve_ilse(problem), solve_ilse(problem, check_well_posed=False)
    u, u_lu = (np.concatenate([sol.lam, sol.s_vec, sol.x]) for sol in (checked, lu))
    gamma = residual_gamma(problem, checked)
    sv = sla.svdvals(K)
    bound = 2 * N * eps * float(sv[0] / sv[-1]) * max(float(np.linalg.norm(u)), float(np.linalg.norm(u_lu)))
    ratio = float(np.linalg.norm(u - u_lu)) / bound
    return Outcome(gamma <= N * eps and ratio <= 1.0,
                   f"residual_gamma {gamma:.2e}, distance {ratio:.2e} of its bound", ratio)


@_row(
    "solver: well-posedness check agrees with the full-Q reference",
    Family(_well_posedness_cases, count=15, seed=1700, aux=1750, dims=TINY),
    summary=lambda gaps: f"largest Ostrowski gap {max(gaps):.2e} of the band",
)
def well_posedness_matches_reference(problem):
    """The rank verdict of oracle.well_posedness_reference, and its
    projected_pd_ok wherever its min_projected_eig lies outside its own
    rounding band [-band, band], band = n eps |M|_F + dM. dM = 2 m eps
    |A|_F^2 bounds |M - M'|_F for M = A^T S A formed by gemm and exactly,
    since each entry is within m eps (|A|^T |A|)_ij of the exact one. An
    instance inside the band whose verdicts differ is skipped and named.
    Also Ostrowski's theorem: Z^T M Z = Ra^T W Ra, so the reference's
    min_projected_eig lies between sigma_min(A Z)^2 lambda_min(W) and
    sigma_max(A Z)^2 lambda_min(W), to within band; the gap is its
    distance outside that interval, over band."""
    got = check_well_posedness(problem)
    ref = oracle.well_posedness_reference(problem)
    eps = float(np.finfo(float).eps)
    m, n, s = problem.m, problem.n, problem.s
    M = problem.A.T @ apply_signature(problem.sig, problem.A)
    band = n * eps * float(np.linalg.norm(M)) + 2 * m * eps * float(np.linalg.norm(problem.A)) ** 2
    if math.isinf(got.min_projected_eig) or math.isinf(ref.min_projected_eig):
        gap = 0.0 if got.min_projected_eig == ref.min_projected_eig else math.inf
    else:
        Q = sla.qr(problem.B.T, mode="full")[0] if s else np.eye(n)
        sv = sla.svdvals(problem.A @ Q[:, s:])
        lo, hi = sorted((sv[-1] ** 2 * got.min_projected_eig, sv[0] ** 2 * got.min_projected_eig))
        gap = max(lo - ref.min_projected_eig, ref.min_projected_eig - hi, 0.0) / band
    checks = {
        "rank_ok differs": got.rank_ok == ref.rank_ok,
        "Ostrowski's bound fails": gap <= 1.0,
    }
    failed = ", ".join(k for k, ok in checks.items() if not ok)
    if not failed and got.projected_pd_ok != ref.projected_pd_ok:
        if abs(ref.min_projected_eig) > band:
            failed = "projected_pd_ok differs"
        else:
            return Outcome(None, f"verdicts differ inside the reference's rounding band at "
                                 f"min_projected_eig {ref.min_projected_eig:.2e} (band {band:.2e})", gap)
    return Outcome(not failed, failed, gap)


@_row(
    "estimate: linearization has full row rank when r_y != 0",
    Family(_multipliers, count=1000, seed=5000, aux=909),
)
def full_row_rank(case):
    problem, y, xi, w = case
    if float(np.linalg.norm(problem.residual(y))) == 0.0:
        return SKIP_ZERO_RESIDUAL
    sv = sla.svdvals(be.linearization_matrix(problem, y, xi, w))
    ratio = float(sv[-1] / sv[0])
    return Outcome(sv[-1] > 1e-10 * sv[0], f"sigma ratio {ratio:.2e}", ratio)


@_row(
    "estimate: min-norm solution solves the system and is minimal",
    Family(_null_space_probes, count=50, seed=301, aux=19),
)
def min_norm(case):
    problem, y, w, v = case
    xi1 = be.least_squares_multiplier(problem, y)
    z = be.min_norm_perturbation(problem, y, xi1, w)
    J = be.linearization_matrix(problem, y, xi1, w)
    rhs = be.rhs_vector(problem, y, xi1)
    Q, _ = sla.qr(J.T, mode="economic")
    checks = {
        "residual above 1e-10": np.linalg.norm(J @ z - rhs)
        <= 1e-10 * (np.linalg.norm(J) * np.linalg.norm(z) + np.linalg.norm(rhs)),
        "a null-space shift shrank z": np.linalg.norm(z)
        <= np.linalg.norm(z + v - Q @ (Q.T @ v)) * (1 + 1e-12),
        "|z| differs from rho": _close(
            np.linalg.norm(z), be.backward_error_estimate(problem, y, xi1, w), 1e-12
        ).ok,
    }
    return Outcome(all(checks.values()), ", ".join(k for k, ok in checks.items() if not ok))


@_row(
    "estimate: compressed linearization matches the Kronecker-built J",
    Family(_linearization_cases, count=14, seed=1500, aux=1550, dims=TINY),
)
def compressed_matches_kron(case):
    problem, y, xi, w = case
    J = be.linearization_matrix(problem, y, xi, w)
    sv_J = sla.svdvals(J)
    ctx = be._context(problem, y, w)
    sv_C = sla.svdvals(be._full_factor(ctx, xi, be._min_norm_factor(ctx, xi, be._norm(xi))[1]))
    rhs = be.rhs_vector(problem, y, xi)
    R = sla.qr(J.T, mode="economic")[1]
    rho_J = float(np.linalg.norm(sla.solve_triangular(R, rhs, trans="T")))
    alpha_J = float(sla.svdvals(J[:problem.n, :problem.n * problem.m + problem.m])[-1])
    z = be.min_norm_perturbation(problem, y, xi, w)
    errors = {
        "singular values": float(np.max(np.abs(sv_C - sv_J))) / sv_J[0],
        "rho": abs(be.backward_error_estimate(problem, y, xi, w) - rho_J) / rho_J,
        "alpha": abs(be.stability_constant(problem, y, w) - alpha_J) / alpha_J,
        "min-norm residual": float(np.linalg.norm(J @ z - rhs))
        / (sv_J[0] * float(np.linalg.norm(z)) + float(np.linalg.norm(rhs))),
    }
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errors.items())
    return Outcome(all(errors[k] <= tol for k, tol in COMPRESSED_RTOL.items()), detail, errors["rho"])


@_row(
    "estimate: rank pre-test agrees with the SVD test",
    Family(_rank_threshold_cases, count=43, seed=1500, aux=1550, dims=TINY),
    summary=lambda accepted: f"pre-test skipped the SVD in {int(sum(accepted))} of {len(accepted)}",
)
def rank_pretest(case):
    """The bound the pre-test rests on, sigma_min >= min(alpha, 1/theta3),
    holds to RANK_RTOL sigma_max on the assembled R_full, and wherever the
    pre-test accepts full row rank, the singular-value test accepts it too."""
    problem, y, xi, w = case
    ctx = be._context(problem, y, w)
    t = np.linalg.norm(xi) / w.theta2
    accepted = be._certainly_full_rank(ctx, t)
    svals = sla.svdvals(be._full_factor(ctx, xi, be._stage_two_factor(ctx, t)[1]))
    if not svals[-1] >= min(ctx.alpha, 1.0 / w.theta3) - be.RANK_RTOL * svals[0]:
        return Outcome(False, f"sigma_min {svals[-1]:.3e} below min(alpha, 1/theta3)", float(accepted))
    try:
        be._require_full_row_rank(svals)
    except RankDeficiencyError as exc:
        return Outcome(not accepted, f"pre-test accepted what the SVD rejects: {exc}", float(accepted))
    return Outcome(True, value=float(accepted))


@_row(
    "estimate: least-squares multiplier minimizes the residual norm",
    Family(_multipliers, count=100, seed=351, aux=23),
)
def multiplier_minimizes(case):
    problem, y, xi, _ = case
    base = np.linalg.norm(be.rhs_vector(problem, y, be.least_squares_multiplier(problem, y)))
    return Outcome(base <= np.linalg.norm(be.rhs_vector(problem, y, xi)) * (1 + 1e-12))


@_row(
    "estimate: closed-form tau0 matches the explicit pseudoinverse norm",
    Family(_random_weight_cases, count=100, seed=1000, aux=303, dims=TINY, eps=1e-3),
)
def tau0_closed_form(case):
    problem, y, w = case
    closed = be.pinv_norm_bound(problem, y, w)
    explicit = oracle.pinv_norm_bound_via_svd(problem, y, w)
    rel = abs(closed - explicit) / explicit
    return Outcome(rel <= 1e-8, f"closed={closed:.6e} svd={explicit:.6e}", rel)


@_row(
    "estimate: alpha respects its certified lower bound",
    Family(_theta1_cases, count=1000, seed=2000, eps=1e-3, dims=ALPHA_DIMS),
)
def alpha_lower_bound(case):
    problem, y, w = case
    if float(np.linalg.norm(problem.residual(y))) == 0.0:
        return SKIP_ZERO_RESIDUAL
    alpha = be.stability_constant(problem, y, w)
    return Outcome(alpha >= be.stability_constant_lower_bound(problem, y, w) * (1 - 1e-12))


@_row("estimate: feasible perturbations satisfy the consistency inequality", _CONSTRUCTED)
def consistency(case):
    problem, sol, y, quad, w = case
    lam = weighted_perturbation_norm(quad, w)
    rho0 = be.backward_error_estimate(problem, y, sol.xi, w)
    tau0 = be.pinv_norm_bound(problem, y, w)
    bound = (lam + tau0 * math.sqrt(1.0 / w.theta1**2 + float(y @ y)) * lam**2) * (1 + 1e-8)
    return Outcome(rho0 <= bound, f"rho0={rho0:.3e} bound={bound:.3e}", rho0 / bound)


@_row("estimate: distance lower bound never exceeds the true distance", _CONSTRUCTED)
def distance_bound(case):
    problem, sol, y, _, _ = case
    return Outcome(be.solution_distance_lower_bound(problem, y) <= np.linalg.norm(sol.x - y) * (1 + 1e-12))


@_row("estimate: lower-bound formula is nondecreasing", Family(_lower_bound_arguments, count=200, aux=29))
def lower_bound_monotone(case):
    a, t1, t2 = case
    f = lambda t: 2 * t / (1 + math.sqrt(1 + 4 * a * t))
    return Outcome(f(t1) <= f(t2) * (1 + 1e-14))


@_row(
    "oracle: minimizer never exceeds the estimate at its start",
    Family(_searches, count=50, seed=4000, aux=4100, dims=SEARCH_DIMS),
    summary=_ratio_summary,
)
def minimizer_below_start(case):
    problem, sol, y, w, seed = case
    rho1 = be.backward_error_estimate(problem, y, be.least_squares_multiplier(problem, y), w)
    result = oracle.minimize_estimate(problem, y, w, xi0=sol.xi, seed=seed)
    return Outcome(
        result.rho_star <= rho1 * (1 + 1e-12) and result.iterations > 0,
        f"rho_star={result.rho_star:.6e} rho(xi1)={rho1:.6e}",
        rho1 / max(result.rho_star, 1e-300) if rho1 > 0 else None,
    )


@_row(
    "oracle: minimization is bitwise reproducible under a fixed seed",
    Family(_searches, count=8, seed=501, aux=601, dims=TINY),
)
def search_repeats(case):
    problem, sol, y, w, seed = case
    a = oracle.minimize_estimate(problem, y, w, xi0=sol.xi, seed=seed)
    b = oracle.minimize_estimate(problem, y, w, xi0=sol.xi, seed=seed)
    return Outcome(
        a.rho_star == b.rho_star and np.array_equal(a.xi_star, b.xi_star)
        and a.iterations == b.iterations and a.converged == b.converged
    )


@_row("testgen: generated factors preserve the indefinite form", _SIGMA_ORTHOGONAL)
def signature_preserved(case):
    p, q, seed, hb = case
    Q = gen_sigma_orthogonal(p, q, seed, hb)
    S = np.diag(SignatureMatrix(p, q).diagonal())
    return Outcome(np.max(np.abs(Q.T @ S @ Q - S)) <= 1e-12 * (p + q))


@_row("testgen: generators are bitwise reproducible", _SIGMA_ORTHOGONAL)
def generator_repeats(case):
    p, q, seed, hb = case
    return Outcome(np.array_equal(gen_sigma_orthogonal(p, q, seed, hb), gen_sigma_orthogonal(p, q, seed, hb)))


@_row("testgen: geometric ladder is strictly decreasing", Family(_ladder_args, count=20, aux=31))
def ladder_decreasing(case):
    cols, kappa = case
    return Outcome(bool(np.all(np.diff(np.diag(gen_geometric_diagonal(cols, cols, kappa))) < 0)))


@_row("testgen: emitted instances pass the well-posedness check", Family(_problems, count=10, seed=801))
def well_posed(problem):
    return Outcome(check_well_posedness(problem).well_posed)


def _rho_at(problem, direction, eps, w):
    scaled = PerturbationQuadruple(
        E=eps * direction.E, f=eps * direction.f, F=eps * direction.F, g=eps * direction.g
    )
    y = solve_ilse(perturbed_problem(problem, scaled)).x
    return be.backward_error_estimate(problem, y, be.least_squares_multiplier(problem, y), w)


@_row(
    "harness: estimate scales linearly with the perturbation size",
    Family(_directions, count=15, seed=901, aux=951),
)
def scales_linearly(case):
    problem, direction, w, e1, e2 = case
    observed = _rho_at(problem, direction, e1, w) / _rho_at(problem, direction, e2, w)
    expected = e1 / e2
    return Outcome(expected / 10 <= observed <= expected * 10, f"ratio {observed:.2e} vs {expected:.2e}")


@_row("harness: mu_1 equals the weighted norm at unit weights", _QUADRUPLES)
def mu_one_unit_weights(case):
    pert, _, _ = case
    return Outcome(mu_one(pert) == weighted_perturbation_norm(pert, WeightScheme()))


@_row("harness: csv emission round-trips", _EXPERIMENT)
def csv_round_trip(case):
    _, row, record = case
    numbers = (row.eps, row.kappa_a, row.kappa_b, row.gamma, row.gamma_bar,
               row.mu_1, row.rho_xi1, row.rho_xi0, row.tau0)
    expected = [float(f"{x:.5e}") for x in numbers] + [row.condition_flag, row.seed]
    return Outcome(record is not None and list(record.values()) == expected,
                   "parsed values differ from emitted values")


@_row("harness: rows replay exactly from their recorded seed", _EXPERIMENT)
def row_replays(case):
    config, row, _ = case
    again = run_trial(config.gen_params(row.kappa_a_nominal, row.kappa_b), row.eps, config.weights, row.seed)
    return Outcome(all(getattr(again, f) == getattr(row, f) for f in ("mu_1", "rho_xi1", "gamma", "kappa_a")))


TABLE: tuple[Property, ...] = tuple(_ROWS)
