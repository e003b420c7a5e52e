import dataclasses
import json

import numpy as np
import pytest

from ilse import cli, harness, properties
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


class TestGen:
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
        config = harness.ExperimentConfig(
            m=24, n=12, s=5, p=14, q=10,
            kappa_a_list=(50.0,), kappa_b_list=(100.0,), eps_list=(1e-6,),
            trials_per_cell=1, base_seed=1,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        code, out, _ = run_cli(
            capsys, "experiment", "--config", str(cfg_path), "--format", "json",
            "--trials", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 2

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
