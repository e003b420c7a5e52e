import dataclasses
import json
import math

import numpy as np
import pytest

from ilse import GenParams, WeightScheme, cli, harness, properties
from ilse import backward_error as be
from ilse.harness import write_problem, write_vector


@pytest.fixture
def t1_bundle(tmp_path, t1):
    path = tmp_path / "t1"
    write_problem(path, t1)
    return path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse text as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise AssertionError(f"output is not JSON: it contains {constant}")

    return json.loads(text, parse_constant=reject)


SOLVE_KEYS = [
    "x", "xi", "lambda", "residual_norm", "gamma", "normal_equation_residual_norms",
    "min_projected_eig", "pd_tolerance", "ra_rcond", "ra_tolerance",
]
BACKWARD_ERROR_KEYS = [
    "rho_xi1", "rho_xi0", "tau0", "alpha", "alpha_lower", "small_rho_condition", "mu_upper",
    "mu_lower", "distance_lower", "bounds_applicable",
]
EXPERIMENT_ROW_KEYS = [name for name, _ in harness.COLUMNS] + ["kappa_A_nominal", "failed", "reason"]


def test_json_outputs_keep_their_key_order_and_print_non_finite_values_as_null(
    capsys, monkeypatch, tmp_path, t1_bundle
):
    code, out, _ = run_cli(capsys, "solve", "--problem", str(t1_bundle))
    payload = strict_json(out)
    assert code == 0 and list(payload) == SOLVE_KEYS
    assert payload["min_projected_eig"] is None  # t1 has s = n: the null space of B is trivial

    yfile = tmp_path / "y"
    write_vector(yfile, np.array([0.1]))
    argv = ("backward-error", "--problem", str(t1_bundle), "--y", str(yfile))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and list(strict_json(out)) == BACKWARD_ERROR_KEYS

    bounds = be.backward_error_bounds
    monkeypatch.setattr(be, "backward_error_bounds", lambda *args, **kwargs: dataclasses.replace(
        bounds(*args, **kwargs), rho_xi1=math.nan, alpha=math.inf))
    code, out, _ = run_cli(capsys, *argv)
    payload = strict_json(out)
    assert code == 0 and list(payload) == BACKWARD_ERROR_KEYS
    assert payload["rho_xi1"] is None and payload["alpha"] is None

    # At kappa_A = 1e20 > 1/eps, A is numerically rank deficient by
    # construction and instance generation fails: those rows carry no numbers.
    code, out, _ = run_cli(capsys, "experiment", "--m", "12", "--n", "6", "--s", "0", "--p", "7",
                           "--q", "5", "--kappa-a", "1e2", "--kappa-a", "1e20", "--kappa-b", "1e2",
                           "--eps", "1e-6", "--trials", "2", "--format", "json")
    rows = strict_json(out)["rows"]
    assert code == 0 and all(list(row) == EXPERIMENT_ROW_KEYS for row in rows)
    failed = [row for row in rows if row["failed"]]
    assert [row["kappa_A_nominal"] for row in failed] == [1e20, 1e20]
    assert all(row["reason"] and row["rho_xi1"] is None and row["kappa_A"] is None for row in failed)


def _bundle(directory, A, b, B, d, sig):
    """Problem-bundle files with the given contents, bypassing IlseProblem."""
    names = ("A", "b", "B", "d", "sig")
    return {f"{directory}/{name}": text for name, text in zip(names, (A, b, B, d, sig))}


_GEN = ["gen", "--m", "6", "--n", "3", "--s", "1", "--p", "4", "--q", "2", "--out", "{tmp}/out"]
_GRID = ["experiment", "--m", "12", "--n", "6", "--s", "2", "--p", "7", "--q", "5",
         "--kappa-a", "10", "--kappa-b", "10"]
_BAD_CONFIGS = {
    "string-trials": ('{"trials_per_cell": "3"}', "trials_per_cell"),
    "fractional-trials": ('{"trials_per_cell": 1.5}', "trials_per_cell"),
    "scalar-kappa-list": ('{"kappa_a_list": 5}', "kappa_a_list"),
    "bool-weight": ('{"theta3": true}', "theta3"),
    # A file that is not JSON, or not UTF-8, is named by its path.
    "invalid-json": ("{", "{tmp}/c.json:"),
    "bad-byte": (b'{"trials_per_cell": 1\xff}', "{tmp}/c.json:"),
}


# (argv, files to write as text or bytes, the field or path the error must
# name); "{tmp}" is the test's directory.
@pytest.mark.parametrize("argv, files, field", [
    pytest.param(["backward-error", "--problem", "{tmp}/p", "--y", "{tmp}/y"],
                 {**_bundle("p", "3 0\n", "3 1\n1\n2\n3\n", "0 0\n", "0 1\n", "2 1\n"), "y": "0 1\n"},
                 "A", id="backward-error-zero-columns"),
    pytest.param(["solve", "--problem", "{tmp}/p"],
                 _bundle("p", "0 0\n", "0 1\n", "0 0\n", "0 1\n", "0 0\n"), "A", id="solve-empty-bundle"),
    *[pytest.param([command, "--config", "{tmp}/c.json"], {"c.json": text}, key, id=f"{command}-{name}")
      for command in ("experiment", "verify") for name, (text, key) in _BAD_CONFIGS.items()],
    *[pytest.param(_GEN + [flag, value], {}, flag[2:].replace("-", "_"), id=f"gen{flag}-{value}")
      for flag, value in [("--hyper-bound", "nan"), ("--hyper-bound", "inf"), ("--kappa-a", "nan"),
                          ("--kappa-a", "inf"), ("--kappa-b", "inf")]],
    *[pytest.param(_GRID + ["--eps", value], {}, "eps", id=f"experiment-eps-{value}")
      for value in ("nan", "inf")],
    *[pytest.param(["gen", "--m", "4", "--n", n, "--s", s, "--p", p, "--q", q, "--out", "{tmp}/out"],
                   {}, field, id=f"gen-{field}-{bad}")
      for field, bad, n, s, p, q in [("n", "0", "0", "0", "4", "0"), ("s", "-1", "2", "-1", "4", "0"),
                                     ("p", "-1", "2", "1", "-1", "5"), ("q", "-1", "2", "1", "5", "-1")]],
])
def test_malformed_input_ends_in_one_error_line(capsys, tmp_path, argv, files, field):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"ilse: error: {field.format(tmp=tmp_path)} ")
    assert "Traceback" not in err


class TestSolve:
    def test_t1(self, capsys, t1_bundle):
        code, out, _ = run_cli(capsys, "solve", "--problem", str(t1_bundle))
        assert code == 0
        payload = json.loads(out)
        assert payload["x"] == pytest.approx([0.0], abs=1e-14)
        assert payload["xi"] == pytest.approx([1.0])
        assert payload["gamma"] <= 1e-14

    def test_ill_posed_exit_code(self, capsys, tmp_path):
        from ilse import IlseProblem, SignatureMatrix

        problem = IlseProblem(
            A=np.eye(2), b=np.zeros(2), B=np.array([[1.0, 0.0]]), d=np.zeros(1),
            sig=SignatureMatrix(1, 1),
        )
        write_problem(tmp_path / "bad", problem)
        code, _, err = run_cli(capsys, "solve", "--problem", str(tmp_path / "bad"))
        assert code == 2
        assert "numerical failure" in err

    def test_missing_bundle_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--problem", str(tmp_path / "nope"))
        assert code == 1


class TestBackwardError:
    def test_report_values(self, capsys, tmp_path, t1_bundle):
        yfile = tmp_path / "y"
        write_vector(yfile, np.array([0.1]))
        code, out, _ = run_cli(
            capsys, "backward-error", "--problem", str(t1_bundle), "--y", str(yfile)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rho_xi1"] == pytest.approx(0.09962, abs=1e-4)
        assert payload["tau0"] == 1.0
        assert payload["small_rho_condition"] is True
        assert payload["mu_upper"] == pytest.approx(2 * payload["rho_xi1"])
        assert payload["distance_lower"] == pytest.approx(0.0707, abs=1e-4)

    def test_weight_flags(self, capsys, tmp_path, t1_bundle):
        yfile = tmp_path / "y"
        write_vector(yfile, np.array([0.1]))
        code, out, _ = run_cli(
            capsys, "backward-error", "--problem", str(t1_bundle), "--y", str(yfile),
            "--theta3", "10.0",
        )
        assert code == 0
        assert json.loads(out)["tau0"] == 10.0

    def test_weight_whose_square_overflows(self, capsys, tmp_path, t1, t1_bundle):
        # theta1**2 is out of range; alpha_lower = |r_y| / sqrt(1 + theta1^2 |y|^2) is not.
        yfile = tmp_path / "y"
        write_vector(yfile, np.array([0.1]))
        code, out, err = run_cli(
            capsys, "backward-error", "--problem", str(t1_bundle), "--y", str(yfile),
            "--theta1", "1e200",
        )
        assert code == 0 and err == ""
        payload = strict_json(out)
        expected = np.linalg.norm(t1.residual(np.array([0.1]))) / (1e200 * 0.1)
        assert payload["alpha_lower"] == pytest.approx(expected, rel=1e-15)
        assert payload["bounds_applicable"] is True and payload["mu_lower"] > 0.0


    def test_weight_out_of_scale_names_itself(self, capsys, tmp_path, t1_bundle):
        yfile = tmp_path / "y"
        write_vector(yfile, np.array([0.1]))
        code, out, err = run_cli(
            capsys, "backward-error", "--problem", str(t1_bundle), "--y", str(yfile),
            "--theta1", "1e-200",
        )
        assert code == 2 and out == ""
        assert "numerically rank deficient" in err and "rescaling theta1 may help" in err


class TestGen:
    def test_gen_without_constraints_then_solve(self, capsys, tmp_path):
        out_dir = tmp_path / "inst"
        code, _, _ = run_cli(
            capsys, "gen", "--m", "12", "--n", "6", "--s", "0", "--p", "7", "--q", "5",
            "--out", str(out_dir),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "solve", "--problem", str(out_dir))
        assert code == 0
        payload = json.loads(out)
        assert payload["xi"] == [] and payload["lambda"] == []
        assert payload["gamma"] <= 1e-12

    def test_gen_then_solve(self, capsys, tmp_path):
        out_dir = tmp_path / "inst"
        code, out, _ = run_cli(
            capsys, "gen", "--m", "12", "--n", "6", "--s", "2", "--p", "7", "--q", "5",
            "--kappa-a", "30", "--kappa-b", "20", "--seed", "4", "--out", str(out_dir),
        )
        assert code == 0
        assert "achieved kappa_A" in out
        code, out, _ = run_cli(capsys, "solve", "--problem", str(out_dir))
        assert code == 0
        assert json.loads(out)["gamma"] <= 1e-12


class TestExperiment:
    ARGS = [
        "experiment", "--m", "24", "--n", "12", "--s", "5", "--p", "14", "--q", "10",
        "--kappa-a", "50", "--kappa-b", "100", "--eps", "1e-6",
        "--trials", "2", "--seed", "31415",
    ]

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert out.splitlines()[0] == harness.CSV_HEADER

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *self.ARGS, "--out", str(f1))[0] == 0
        assert run_cli(capsys, *self.ARGS, "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_config_file_with_overrides(self, capsys, tmp_path):
        config = {
            "m": 24, "n": 12, "s": 5, "p": 14, "q": 10,
            "kappa_a_list": [50.0], "kappa_b_list": [100.0], "eps_list": [1e-6],
            "trials_per_cell": 1, "base_seed": 1,
            "theta1": 1.0, "theta2": 1.0, "theta3": 1.0,
            "output_format": "csv", "hyper_bound": 1.0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run_cli(
            capsys, "experiment", "--config", str(cfg_path), "--format", "json",
            "--trials", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 2

    def test_flags_override_config_keys_weights_included(self, capsys, monkeypatch, tmp_path):
        seen = []
        monkeypatch.setattr(harness, "run_experiment", lambda config: (seen.append(config), ([], ""))[1])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m": 10, "trials_per_cell": 3, "theta1": 2.0, "theta3": 3.0}))
        argv = ("experiment", "--config", str(cfg_path), "--trials", "2", "--theta2", "4")
        assert run_cli(capsys, *argv)[0] == 0
        assert seen == [harness.ExperimentConfig(m=10, trials_per_cell=2, weights=WeightScheme(2.0, 4.0, 3.0))]

    def test_every_grid_flag_is_named_after_a_config_field(self):
        # _cmd_experiment overrides the config field each flag's dest names.
        flags = set(vars(cli.build_parser().parse_args(["experiment"])))
        flags -= {"command", "config", "out", "theta1", "theta2", "theta3"}
        assert flags <= {f.name for f in dataclasses.fields(harness.ExperimentConfig)}

    def test_weight_whose_square_overflows(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "--m", "12", "--n", "6", "--s", "3", "--p", "7",
                                 "--q", "5", "--kappa-a", "100", "--kappa-b", "100", "--eps", "1e-6",
                                 "--theta1", "1e160", "--format", "json")
        assert code == 0 and err == ""
        rows = strict_json(out)["rows"]
        assert rows and not any(row["failed"] for row in rows)
        assert all(row[key] is not None for row in rows for key in ("rho_xi1", "rho_xi0", "tau0"))

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "markdown")
        assert code == 0
        assert out.startswith("| eps |")

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "experiment", "--format", "xml")
        assert code == 1

    def test_unknown_command_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1


class TestVerify:
    ROWS = (properties.involution, properties.homogeneous, properties.block_split)

    def test_wiring_and_exit_codes(self, capsys, monkeypatch):
        monkeypatch.setattr(properties, "TABLE", self.ROWS)
        code, out, _ = run_cli(capsys, "verify", "--seed", "7")
        assert code == 0
        assert out.splitlines()[0] == f"[PASS] {self.ROWS[0].name}: passed=50 failed=0 skipped=0"
        assert out.splitlines()[-1] == "verify: ALL PROPERTIES PASS"

        broken = dataclasses.replace(self.ROWS[1], check=lambda case: properties.Outcome(False, "boom"))
        monkeypatch.setattr(properties, "TABLE", (self.ROWS[0], broken))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 3
        assert f"[FAIL] {broken.name}: passed=0 failed=50 skipped=0 (boom)" in out

    def test_raising_check_fails_only_its_row(self, capsys, monkeypatch):
        from ilse import RankDeficiencyError

        def raising(case):
            raise RankDeficiencyError("forced", sigma_min=0.0)

        rows = (self.ROWS[0], dataclasses.replace(self.ROWS[1], check=raising), self.ROWS[2])
        monkeypatch.setattr(properties, "TABLE", rows)
        code, out, _ = run_cli(capsys, "verify")
        lines = out.splitlines()
        assert code == 3
        assert lines[0].startswith(f"[PASS] {rows[0].name}")
        assert lines[1].startswith(f"[FAIL] {rows[1].name}: passed=0 failed=50")
        assert "RankDeficiencyError: forced" in lines[1]
        assert lines[2].startswith(f"[PASS] {rows[2].name}")
        assert lines[3] == "verify: PROPERTY FAILURES PRESENT"

    def test_config_file_reaches_the_suite_and_seed_overrides_it(self, capsys, monkeypatch, tmp_path):
        seen = []

        def record(prop, suite):
            seen.append(suite)
            return properties.RowResult(prop.name, passed=1)

        monkeypatch.setattr(properties, "run_row", record)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "m": 10, "n": 5, "s": 2, "p": 6, "q": 4,
            "kappa_a_list": [30.0, 40.0], "kappa_b_list": [20.0, 70.0],
            "theta1": 2.0, "theta2": 3.0, "theta3": 0.5,
            "base_seed": 99, "hyper_bound": 0.5,
        }))
        expected = properties.Suite(
            dims=GenParams(m=10, n=5, s=2, p=6, q=4, kappa_a=30.0, kappa_b=20.0,
                           seed=0, hyper_bound=0.5),
            weights=WeightScheme(2.0, 3.0, 0.5),
            seed=99,
        )
        assert run_cli(capsys, "verify", "--config", str(cfg_path))[0] == 0
        assert seen == [expected] * len(properties.TABLE)

        seen.clear()
        assert run_cli(capsys, "verify", "--config", str(cfg_path), "--seed", "7")[0] == 0
        assert seen == [dataclasses.replace(expected, seed=7)] * len(properties.TABLE)
