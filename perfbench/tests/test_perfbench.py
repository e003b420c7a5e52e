"""Tests of the benchmark itself, at tiny sizes so they run in seconds."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

workloads = run.import_program()
SPEC = run.load_spec()


def _result_line(capsys) -> tuple[list[str], dict]:
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_spec_names_the_workloads_defined_here():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(name, trace, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.run_one(workloads.tiny(workloads.WORKLOADS[name]), 7, 0.05, trace, measure_import=lambda: 0.5) == 0
    text, result = _result_line(capsys)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {
        key: value["unit"] for key, value in result["metrics"].items()
    }
    for m in wanted:
        value = result["metrics"][m["name"]]["value"]
        assert math.isfinite(value)
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}") for line in text)
    if trace:
        assert run.spans_path(name, 7).is_file()
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("name, layer_metric, expected", [
    ("paper_grid", "harness.run_trial.calls", 1.0),
    ("large_report", "backward_error.stability_constant.calls", 2.0),
    ("solve_stream", "solver.check_well_posedness.calls", 2.0),
    ("multiplier_search", "oracle.minimize_estimate.calls", 1.0),
])
def test_traced_run_sees_calls_through_every_import_path(name, layer_metric, expected):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    with tracing.Tracer() as tracer:
        raw = run.run_workload(workload, 7, 0.0, tracer)
    metrics = tracing.layer_metrics(tracer.spans, len(raw["latencies"]))
    assert metrics[layer_metric] == expected
    import ilse.harness

    assert not hasattr(ilse.harness.solve_ilse, "__wrapped__")


def test_rho_evals_are_counted_from_the_estimates_each_search_makes():
    workload = workloads.tiny(workloads.WORKLOADS["multiplier_search"])
    with tracing.Tracer() as tracer:
        raw = run.run_workload(workload, 7, 0.0, tracer)
    evals = tracing.layer_metrics(tracer.spans, len(raw["latencies"]))["oracle.minimize_estimate.rho_evals"]
    inputs = [workload.make_input(7, 0)]
    assert evals == workload.op(workload.prepare(7, inputs, 0)).iterations


def _corrupt_paper_grid(x, row):
    # Outside the residual envelope where it applies (kappa_B <= 1e6), NaN elsewhere.
    return dataclasses.replace(row, gamma=1e-6 if row.kappa_b <= 1e6 else math.nan)


def _corrupt_large_report(x, rep):
    return dataclasses.replace(rep, alpha=0.5 * rep.alpha_lower)


def _corrupt_solve_stream(x, out):
    return out[:4] + (1e-6,)


def _corrupt_multiplier_search(x, res):
    return dataclasses.replace(res, rho_star=2.0 * x[3])


@pytest.mark.parametrize("name, corrupt", [
    ("paper_grid", _corrupt_paper_grid),
    ("large_report", _corrupt_large_report),
    ("solve_stream", _corrupt_solve_stream),
    ("multiplier_search", _corrupt_multiplier_search),
])
def test_corrupted_output_counts_as_failed(name, corrupt, capsys):
    base = workloads.tiny(workloads.WORKLOADS[name])

    class Corrupted(type(base)):
        def op(self, x):
            return corrupt(x, super().op(x))

    corrupted = Corrupted(**{f.name: getattr(base, f.name) for f in dataclasses.fields(base)})
    run.run_one(corrupted, 7, 0.05, 0, measure_import=lambda: 0.5)
    _, result = _result_line(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_raising_operation_counts_as_failed():
    base = workloads.tiny(workloads.WORKLOADS["solve_stream"])

    class Raising(type(base)):
        def op(self, x):
            raise ValueError("injected")

    raw = run.run_workload(Raising(**dataclasses.asdict(base)), 7, 0.0)
    assert raw["failed"] == len(raw["latencies"]) == 1
    assert "ValueError: injected" in raw["problems"][0]


def test_repeated_input_counts_as_failed():
    base = workloads.tiny(workloads.WORKLOADS["large_report"])

    class Repeating(type(base)):
        def prepare(self, seed, inputs, i):
            return inputs[0]

    raw = run.run_workload(Repeating(**dataclasses.asdict(base)), 7, 0.05)
    assert len(raw["latencies"]) >= 2
    assert raw["failed"] == len(raw["latencies"]) - 1
    assert "repeats" in raw["problems"][0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_operations_get_distinct_inputs_past_the_pre_generated_ones(name):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    inputs = [workload.make_input(7, k) for k in range(workload.n_inputs)]
    keys = [workload.input_key(workload.prepare(7, inputs, i)) for i in range(2 * workload.n_inputs + 3)]
    assert len(set(keys)) == len(keys)


def test_slower_cell_moves_gated_latency():
    ms = [10.0, 11.0, 12.0] * 20
    raw = {"latencies": [t / 1e3 for t in ms], "cells": [0, 1, 2] * 20, "setup_units": [], "failed": 0,
           "import_s": [0.5]}
    base = run.run_metrics(raw, 0)["op_ms_p10"]
    assert base == pytest.approx(11.0)
    slow = dict(raw, latencies=[(2 * t if c == 2 else t) / 1e3 for t, c in zip(ms, raw["cells"])])
    assert run.run_metrics(slow, 0)["op_ms_p10"] == pytest.approx(15.0)


def test_setup_time_takes_low_percentiles_of_its_repeats():
    raw = {"latencies": [0.01], "cells": [0], "setup_units": [0.1] * 9 + [5.0], "failed": 0,
           "import_s": [0.3, 0.3, 0.3, 0.3, 9.0]}
    assert run.run_metrics(raw, 8)["setup_s"] == pytest.approx(0.3 + 8 * 0.1)


def test_setup_is_measured_again_over_the_run():
    workload = workloads.tiny(workloads.WORKLOADS["large_report"])
    raw = run.run_workload(workload, 7, 0.05, measure_import=lambda: 0.25)
    assert raw["import_s"] == [0.25] * run.SETUP_REPEATS
    assert len(raw["setup_units"]) == workload.n_inputs + run.SETUP_REPEATS


def test_importing_the_runner_leaves_the_environment_alone():
    code = ("import os, sys; sys.path.insert(0, 'perfbench'); before = dict(os.environ); "
            "import run; print(dict(os.environ) == before)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "True", proc.stderr


def test_default_seed_matches_reference_values():
    raw = run.run_workload(workloads.WORKLOADS["paper_grid"], run.DEFAULT_SEED, 0.0)
    assert run.load_reference(workloads.WORKLOADS["paper_grid"], run.DEFAULT_SEED)
    assert raw["failed"] == 0, raw["problems"]


def test_reference_comparison_is_relative_and_tight():
    assert run._reference_problems({"rho_xi1": 1.0 + 1e-12}, {"rho_xi1": 1.0}) == []
    assert run._reference_problems({"rho_xi1": 1.0 + 1e-6}, {"rho_xi1": 1.0})
    assert run._reference_problems({"rho_xi1": math.nan}, {"rho_xi1": 1.0})


def test_count_self_check_passes_on_repeat_and_reports_a_difference():
    workload = workloads.tiny(workloads.WORKLOADS["paper_grid"])
    spans = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            run.run_workload(workload, 7, 0.0, tracer)
        spans.append(tracer.spans)
    assert run.count_differences(*spans) == []
    assert run.count_differences(spans[0], spans[1][:-1])


def test_checkout_without_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
