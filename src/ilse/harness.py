"""End-to-end experiment pipeline, experiment tables and problem files.

A trial generates an instance, solves it, injects a scaled Gaussian
perturbation, solves the perturbed problem, and evaluates the injected
perturbation magnitude mu_1 against the linearized backward-error
estimate of the perturbed solution, together with the relative residuals
of both augmented solves. Trials are pure functions of their seed, so
experiment tables are bitwise reproducible and rows can be replayed
individually.

This module also owns the on-disk formats: whitespace matrix files
(first line "rows cols", then row-major entries), problem bundles
(directory with files A, b, B, d, sig), and the csv/markdown/json
experiment tables. ``COLUMNS`` is the one list of table columns, each a
(column name, ExperimentRow field) pair: the csv header, the cells of
every format and the csv parser are all read off it. ``to_json`` writes
every JSON output, the CLI's included. The invariants that
``ilse verify`` checks live in ``ilse.properties``.
"""

from __future__ import annotations

import json
import math
import numbers
import statistics
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import backward_error as be
from .core import (
    IlseError,
    IlseProblem,
    IlseSolution,
    PerturbationQuadruple,
    SignatureMatrix,
    WeightScheme,
    apply_signature,
    perturbed_problem,
    weighted_perturbation_norm,
)
from .solver import solve_ilse
from .testgen import GenParams, gen_ilse_instance, gen_perturbation, subseed

# The experiment table: (column name, ExperimentRow field) in csv order. The
# json rows carry these columns, then _JSON_EXTRA.
COLUMNS = (
    ("eps", "eps"), ("kappa_A", "kappa_a"), ("kappa_B", "kappa_b"), ("gamma", "gamma"),
    ("gamma_bar", "gamma_bar"), ("mu_1", "mu_1"), ("rho_xi1", "rho_xi1"), ("rho_xi0", "rho_xi0"),
    ("tau0", "tau0"), ("condition_flag", "condition_flag"), ("seed", "seed"),
)
_JSON_EXTRA = (("kappa_A_nominal", "kappa_a_nominal"), ("failed", "failed"), ("reason", "reason"))
CSV_HEADER = ",".join(name for name, _ in COLUMNS)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_STREAM_TRIAL_GEN = 0x8CB92BA72F3D8DD7
_STREAM_TRIAL_PERT = 0x3C6EF372FE94F82B


# ---------------------------------------------------------------------------
# Per-trial quantities
# ---------------------------------------------------------------------------

def mu_one(pert: PerturbationQuadruple) -> float:
    """Unweighted Frobenius norm of the block perturbation [E, f; F, g].

    The experimental stand-in for the backward error: the magnitude of
    the perturbation that was actually injected.
    """
    return weighted_perturbation_norm(pert, WeightScheme())


def residual_gamma(problem: IlseProblem, sol: IlseSolution) -> float:
    """Relative residual of the augmented system at a solution bundle.

    |K u - rhs|_2 / (|K|_F |u|_2 + |rhs|_2) with u = (lam, s_vec, x),
    for the augmented matrix K and right-hand side (d, b, 0) of
    ``solver.assemble_augmented``. K is never built: block by block,
    K u - rhs = (B x - d, S s_vec + A x - b, B^T lam + A^T s_vec) and
    |K|_F^2 = 2 |B|_F^2 + m + 2 |A|_F^2.
    """
    A, B = problem.A, problem.B
    residual = np.concatenate([
        B @ sol.x - problem.d,
        apply_signature(problem.sig, sol.s_vec) + A @ sol.x - problem.b,
        B.T @ sol.lam + A.T @ sol.s_vec,
    ])
    K_norm = math.sqrt(2.0 * np.linalg.norm(B) ** 2 + problem.m + 2.0 * np.linalg.norm(A) ** 2)
    u = np.concatenate([sol.lam, sol.s_vec, sol.x])
    den = float(K_norm * np.linalg.norm(u) + np.linalg.norm(np.concatenate([problem.d, problem.b])))
    return float(np.linalg.norm(residual)) / den if den > 0.0 else 0.0


@dataclass(frozen=True)
class ExperimentRow:
    """One trial's worth of results.

    kappa_a is the achieved condition number of the generated A (the
    nominal target is kept separately); kappa_b is nominal. Failed trials
    carry NaN numerics plus a reason and are never silently retried.
    """

    eps: float
    kappa_a: float
    kappa_b: float
    gamma: float
    gamma_bar: float
    mu_1: float
    rho_xi1: float
    rho_xi0: float
    tau0: float
    condition_flag: bool
    seed: int
    kappa_a_nominal: float
    failed: bool = False
    reason: str = ""


def run_trial(params: GenParams, eps: float, w: WeightScheme, seed: int) -> ExperimentRow:
    """Generate, solve, perturb, re-solve, and evaluate one trial.

    The estimate is always computed against the ORIGINAL problem with the
    perturbed solve's solution as candidate. Failures (ill-posed draws at
    extreme conditioning, rank-deficient linearizations) produce a failed
    row instead of raising.
    """
    def failed_row(reason: str) -> ExperimentRow:
        nan = math.nan
        return ExperimentRow(
            eps=eps, kappa_a=nan, kappa_b=params.kappa_b, gamma=nan, gamma_bar=nan,
            mu_1=nan, rho_xi1=nan, rho_xi0=nan, tau0=nan, condition_flag=False,
            seed=seed, kappa_a_nominal=params.kappa_a, failed=True, reason=reason,
        )

    try:
        gen_params = replace(params, seed=subseed(seed, _STREAM_TRIAL_GEN))
        problem, achieved = gen_ilse_instance(gen_params)
        # gen_ilse_instance only returns instances that passed check_well_posedness.
        sol = solve_ilse(problem, check_well_posed=False)
        gamma = residual_gamma(problem, sol)

        pert = gen_perturbation(problem, eps, subseed(seed, _STREAM_TRIAL_PERT))
        pproblem = perturbed_problem(problem, pert)
        # The candidate is the stationary point of the perturbed augmented
        # system; at conditioning extremes the perturbed projected form can
        # go indefinite at rounding level, which must not void the trial.
        psol = solve_ilse(pproblem, check_well_posed=False)
        gamma_bar = residual_gamma(pproblem, psol)

        report = be.backward_error_bounds(problem, psol.x, w, xi0=sol.xi)
    except (IlseError, np.linalg.LinAlgError) as exc:
        return failed_row(f"{type(exc).__name__}: {exc}")

    return ExperimentRow(
        eps=eps,
        kappa_a=achieved,
        kappa_b=params.kappa_b,
        gamma=gamma,
        gamma_bar=gamma_bar,
        mu_1=mu_one(pert),
        rho_xi1=report.rho_xi1,
        rho_xi0=report.rho_xi0 if report.rho_xi0 is not None else math.nan,
        tau0=report.tau0,
        condition_flag=report.small_rho_condition,
        seed=seed,
        kappa_a_nominal=params.kappa_a,
    )


# ---------------------------------------------------------------------------
# Experiment grid
# ---------------------------------------------------------------------------

def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# What a config field of each declared type accepts, and its name in an error.
_CONFIG_TYPES = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "float": (_is_number, "a number"),
    "tuple[float, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
                          "a list of numbers"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "WeightScheme": (lambda v: isinstance(v, WeightScheme), "a WeightScheme"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid specification for an experiment table.

    Each field is checked against its declared type, so a wrongly typed
    value (a config file's "3" or 1.5 trials, say) raises a ValueError
    that names its key.
    """

    m: int = 100
    n: int = 50
    s: int = 20
    p: int = 60
    q: int = 40
    kappa_a_list: tuple[float, ...] = (1e2, 1e4, 1e8)
    kappa_b_list: tuple[float, ...] = (1e2, 1e4, 1e6, 1e8)
    eps_list: tuple[float, ...] = (1e-6, 1e-12)
    trials_per_cell: int = 1
    base_seed: int = 20240901
    weights: WeightScheme = field(default_factory=WeightScheme)
    output_format: str = "csv"
    hyper_bound: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            accepts, kind = _CONFIG_TYPES[f.type]
            if not accepts(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be {kind}, got {getattr(self, f.name)!r}")
        if not self.eps_list or not self.kappa_a_list or not self.kappa_b_list:
            raise ValueError("eps/kappa lists must be nonempty")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be >= 1")
        if self.output_format not in ("csv", "markdown", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        object.__setattr__(self, "kappa_a_list", tuple(float(x) for x in self.kappa_a_list))
        object.__setattr__(self, "kappa_b_list", tuple(float(x) for x in self.kappa_b_list))
        object.__setattr__(self, "eps_list", tuple(float(x) for x in self.eps_list))

    def gen_params(self, kappa_a: float, kappa_b: float, seed: int = 0) -> GenParams:
        return GenParams(
            m=self.m, n=self.n, s=self.s, p=self.p, q=self.q,
            kappa_a=kappa_a, kappa_b=kappa_b, seed=seed, hyper_bound=self.hyper_bound,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        data = dict(data)
        weights = WeightScheme(
            theta1=data.pop("theta1", 1.0),
            theta2=data.pop("theta2", 1.0),
            theta3=data.pop("theta3", 1.0),
        )
        known = {f for f in cls.__dataclass_fields__ if f != "weights"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(weights=weights, **data)


def derive_trial_seed(base_seed: int, index: int) -> int:
    """Per-trial 64-bit seed: splitmix-style multiply-xor of the index."""
    return (int(base_seed) ^ ((index + 1) * _GOLDEN)) & _MASK64


def run_experiment(config: ExperimentConfig) -> tuple[list[ExperimentRow], str]:
    """Run the Cartesian grid eps x kappa_A x kappa_B x trials.

    Rows come back in grid order, followed by per-cell median summaries
    in the formatted table. Raises IlseError when every trial failed.
    """
    cells = [
        (eps, ka, kb, t)
        for eps in config.eps_list
        for ka in config.kappa_a_list
        for kb in config.kappa_b_list
        for t in range(config.trials_per_cell)
    ]

    rows = [
        run_trial(config.gen_params(ka, kb), eps, config.weights,
                  derive_trial_seed(config.base_seed, index))
        for index, (eps, ka, kb, _t) in enumerate(cells)
    ]

    if all(row.failed for row in rows):
        raise IlseError("all trials failed; see row reasons")
    return rows, format_rows(rows, config.output_format)


# ---------------------------------------------------------------------------
# Table emission
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{float(x):.5e}"


def summarize_rows(rows: list[ExperimentRow]) -> list[str]:
    """Per-cell medians of rho_xi1 / eps over the successful trials."""
    cells: dict[tuple[float, float, float], list[float]] = {}
    for row in rows:
        if row.failed or row.eps == 0.0:
            continue
        key = (row.eps, row.kappa_a_nominal, row.kappa_b)
        cells.setdefault(key, []).append(row.rho_xi1 / row.eps)
    lines = []
    for (eps, ka, kb), ratios in sorted(cells.items()):
        med = statistics.median(ratios)
        lines.append(
            f"median rho_xi1/eps = {_fmt(med)} "
            f"[eps={_fmt(eps)}, kappa_A={_fmt(ka)}, kappa_B={_fmt(kb)}, trials={len(ratios)}]"
        )
    failed = sum(1 for row in rows if row.failed)
    if failed:
        lines.append(f"failed trials: {failed} of {len(rows)}")
    return lines


# (cell text, cell parser) of each csv column, by its field's declared type.
_CODECS = {
    "float": (_fmt, float),
    "int": (str, int),
    "bool": (lambda flag: str(int(flag)), lambda text: bool(int(text))),
}
_COLUMN_CODECS = [_CODECS[ExperimentRow.__dataclass_fields__[name].type] for _, name in COLUMNS]


def _row_record(row: ExperimentRow) -> list[str]:
    return [text(getattr(row, name)) for (_, name), (text, _) in zip(COLUMNS, _COLUMN_CODECS)]


def to_json(payload) -> str:
    """payload as JSON text (RFC 8259, which has no NaN or Infinity): every
    non-finite float, also inside nested dicts and lists, is written as
    null."""
    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, list):
            return [finite(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v

    return json.dumps(finite(payload), indent=2, allow_nan=False)


def format_rows(rows: list[ExperimentRow], fmt: str = "csv") -> str:
    """Render rows as csv, markdown or json, with the summary appended.

    The csv header and the 6-significant-digit scientific format are fixed
    so emitted tables can be compared byte for byte.
    """
    summary = summarize_rows(rows)
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines += [",".join(_row_record(row)) for row in rows]
        lines += [f"# {s}" for s in summary]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(name for name, _ in COLUMNS) + " |",
                 "|" + "|".join(["---"] * len(COLUMNS)) + "|"]
        lines += ["| " + " | ".join(_row_record(row)) + " |" for row in rows]
        lines += [""] + summary
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "rows": [{key: getattr(row, name) for key, name in COLUMNS + _JSON_EXTRA} for row in rows],
            "summary": summary,
        }
        return to_json(payload) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")


def parse_experiment_csv(text: str) -> list[dict]:
    """Parse an emitted csv table back into per-row dicts (summary lines
    beginning with '#' are ignored)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected csv header")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(COLUMNS):
            raise ValueError(f"malformed csv row: {ln!r}")
        out.append({
            key: parse(part) for (key, _), (_, parse), part in zip(COLUMNS, _COLUMN_CODECS, parts)
        })
    return out


# ---------------------------------------------------------------------------
# Problem bundles on disk
# ---------------------------------------------------------------------------

def write_matrix(path, M) -> None:
    """Plain-text matrix: first line "rows cols", then one row per line."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(f"{v:.17e}" for v in row) + "\n")


def _read_ascii(path) -> str:
    """The text of an ASCII file; a byte outside ASCII is a ValueError that
    names the file."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_matrix(path) -> np.ndarray:
    first, _, body = _read_ascii(path).partition("\n")
    header = first.split()
    if len(header) != 2 or not all(h.isdigit() for h in header):
        raise ValueError(f"{path}: first line must be 'rows cols', two non-negative integers")
    rows, cols = int(header[0]), int(header[1])
    try:
        data = np.array(body.split(), dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, found {data.size}")
    return data.reshape(rows, cols)


def write_vector(path, v) -> None:
    write_matrix(path, np.asarray(v, dtype=float).reshape(-1, 1))


def read_vector(path) -> np.ndarray:
    M = read_matrix(path)
    if M.shape[1] != 1:
        raise ValueError(f"{path}: vectors are single-column matrices, got shape {M.shape}")
    return M[:, 0]


def write_problem(directory, problem: IlseProblem) -> None:
    """Problem bundle: files A, b, B, d and sig (a 'p q' line) in a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(directory / "A", problem.A)
    write_vector(directory / "b", problem.b)
    write_matrix(directory / "B", problem.B)
    write_vector(directory / "d", problem.d)
    (directory / "sig").write_text(f"{problem.sig.p} {problem.sig.q}\n", encoding="ascii")


def read_problem(directory) -> IlseProblem:
    directory = Path(directory)
    parts = _read_ascii(directory / "sig").split()
    if len(parts) != 2 or not all(t.isdigit() for t in parts):
        raise ValueError(f"{directory / 'sig'}: expected 'p q', two non-negative integers")
    sig = SignatureMatrix(p=int(parts[0]), q=int(parts[1]))
    return IlseProblem(
        A=read_matrix(directory / "A"),
        b=read_vector(directory / "b"),
        B=read_matrix(directory / "B"),
        d=read_vector(directory / "d"),
        sig=sig,
    )
