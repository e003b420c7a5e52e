"""Command-line interface.

Subcommands:
  solve           read a problem bundle, solve it, print solution + residuals
  backward-error  read a problem bundle and a candidate vector, print the report
  gen             generate an instance and write it as a problem bundle
  experiment      run an experiment grid and emit a table
  verify          check every row of the property table (ilse.properties)

Exit codes: 0 success, 1 usage error, 2 numerical failure (singular or
ill-posed), 3 property failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import backward_error as be
from . import harness
from .core import IlseError, WeightScheme
from .solver import check_well_posedness, normal_equation_residuals, solve_ilse
from .testgen import GenParams, gen_ilse_instance


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; remap to 1 so that 2 is
    # reserved for numerical failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_dim_flags(p, required=False):
    p.add_argument("--m", type=int, required=required, help="rows of A")
    p.add_argument("--n", type=int, required=required, help="columns of A")
    p.add_argument("--s", type=int, required=required, help="constraint rows")
    p.add_argument("--p", type=int, required=required, help="+1 entries of the signature matrix")
    p.add_argument("--q", type=int, required=required, help="-1 entries of the signature matrix")


def _add_weight_flags(p):
    p.add_argument("--theta1", type=float, default=None, help="weight on the b perturbation")
    p.add_argument("--theta2", type=float, default=None, help="weight on the B perturbation")
    p.add_argument("--theta3", type=float, default=None, help="weight on the d perturbation")


def _weights(args) -> WeightScheme:
    return WeightScheme(**{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(WeightScheme) if getattr(args, f.name) is not None
    })


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ilse", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem bundle")
    p_solve.add_argument("--problem", required=True, help="directory containing A, b, B, d, sig")

    p_be = sub.add_parser("backward-error", help="backward-error report for a candidate solution")
    p_be.add_argument("--problem", required=True, help="directory containing A, b, B, d, sig")
    p_be.add_argument("--y", required=True, help="candidate solution vector file")
    p_be.add_argument("--xi0", default=None, help="optional multiplier vector file")
    _add_weight_flags(p_be)

    p_gen = sub.add_parser("gen", help="generate an instance and write a problem bundle")
    _add_dim_flags(p_gen, required=True)
    p_gen.add_argument("--kappa-a", type=float, default=1e2)
    p_gen.add_argument("--kappa-b", type=float, default=1e2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--hyper-bound", type=float, default=1.0)
    p_gen.add_argument("--out", required=True, help="output directory")

    p_exp = sub.add_parser("experiment", help="run an experiment grid")
    p_exp.add_argument("--config", default=None, help="JSON config file; flags override it")
    _add_dim_flags(p_exp)
    # Each dest is the ExperimentConfig field the flag overrides.
    p_exp.add_argument("--kappa-a", type=float, action="append", default=None,
                       dest="kappa_a_list", metavar="KAPPA_A",
                       help="nominal condition of A (repeatable)")
    p_exp.add_argument("--kappa-b", type=float, action="append", default=None,
                       dest="kappa_b_list", metavar="KAPPA_B", help="condition of B (repeatable)")
    p_exp.add_argument("--eps", type=float, action="append", default=None,
                       dest="eps_list", metavar="EPS", help="perturbation magnitude (repeatable)")
    p_exp.add_argument("--trials", type=int, default=None, dest="trials_per_cell",
                       metavar="TRIALS", help="trials per grid cell")
    p_exp.add_argument("--seed", type=int, default=None, dest="base_seed", metavar="SEED",
                       help="base seed")
    p_exp.add_argument("--hyper-bound", type=float, default=None)
    p_exp.add_argument("--format", choices=("csv", "markdown", "json"), default=None,
                       dest="output_format")
    p_exp.add_argument("--out", default=None, help="write the table here instead of stdout")
    _add_weight_flags(p_exp)

    p_ver = sub.add_parser("verify", help="check every row of the property table")
    p_ver.add_argument("--config", default=None, help="JSON config file for sizes/weights/seed")
    p_ver.add_argument("--seed", type=int, default=None, help="override the suite seed")

    return parser


def _cmd_solve(args) -> int:
    problem = harness.read_problem(args.problem)
    report = check_well_posedness(problem)
    sol = solve_ilse(problem)
    r1, r2 = normal_equation_residuals(problem, sol.x, sol.xi)
    payload = {
        "x": sol.x.tolist(),
        "xi": sol.xi.tolist(),
        "lambda": sol.lam.tolist(),
        "residual_norm": float(np.linalg.norm(sol.r)),
        "gamma": harness.residual_gamma(problem, sol),
        "normal_equation_residual_norms": [
            float(np.linalg.norm(r1)),
            float(np.linalg.norm(r2)),
        ],
        "min_projected_eig": report.min_projected_eig,
        "pd_tolerance": report.pd_tolerance,
        "ra_rcond": report.ra_rcond,
        "ra_tolerance": report.ra_tolerance,
    }
    print(harness.to_json(payload))
    return 0


def _cmd_backward_error(args) -> int:
    problem = harness.read_problem(args.problem)
    y = harness.read_vector(args.y)
    xi0 = harness.read_vector(args.xi0) if args.xi0 else None
    report = be.backward_error_bounds(problem, y, _weights(args), xi0=xi0)
    print(harness.to_json(dataclasses.asdict(report)))
    return 0


def _cmd_gen(args) -> int:
    params = GenParams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GenParams)})
    problem, achieved = gen_ilse_instance(params)
    harness.write_problem(args.out, problem)
    print(f"wrote problem bundle to {args.out} (achieved kappa_A = {achieved:.5e})")
    return 0


def _read_config(path):
    """The JSON value in a config file; a file that is not UTF-8 or not JSON
    is a ValueError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"{path}: {exc}") from None


def _cmd_experiment(args) -> int:
    data = _read_config(args.config) if args.config else {}
    # A flag overrides the config key its dest names: a config field or a weight.
    keys = {f.name for f in dataclasses.fields(harness.ExperimentConfig) + dataclasses.fields(WeightScheme)}
    if isinstance(data, dict):  # from_dict rejects any other JSON value
        data.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    config = harness.ExperimentConfig.from_dict(data)

    _, table = harness.run_experiment(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    return 0


def _cmd_verify(args) -> int:
    from . import properties

    suite = properties.Suite()
    if args.config:
        suite = properties.Suite.from_config(harness.ExperimentConfig.from_dict(_read_config(args.config)))
    if args.seed is not None:
        suite = dataclasses.replace(suite, seed=args.seed)
    ok = True
    for prop in properties.TABLE:
        result = properties.run_row(prop, suite)
        print(result.line(), flush=True)
        ok = ok and result.ok
    print("verify: " + ("ALL PROPERTIES PASS" if ok else "PROPERTY FAILURES PRESENT"))
    return 0 if ok else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "solve": _cmd_solve,
        "backward-error": _cmd_backward_error,
        "gen": _cmd_gen,
        "experiment": _cmd_experiment,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"ilse: error: {exc}", file=sys.stderr)
        return 1
    except (IlseError, np.linalg.LinAlgError) as exc:
        print(f"ilse: numerical failure: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
