"""Benchmark for the ilse package: one command, four workloads, checked outputs.

One workload (run from the repository root):

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

prints one line per metric and, as its last line, a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics named in BENCHMARK.json; ``--trace 1``
wraps the ilse layer functions, reports the per-layer metrics and writes
the spans to ``perfbench/out/``.

Every workload, untraced and traced twice, each in its own process:

    python3 perfbench/run.py [--seed N] [--seconds S]

This prints every metric, the tracing overhead and the result of the
count self-check, and writes ``perfbench/out/BENCH_<commit>_seed<N>.json``
with a header describing the run. It exits 1 when an output check or the
count self-check fails.

``--record-reference`` re-records ``perfbench/reference.json``: the output
values that runs at the default seed are compared with.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing  # standard library only; ilse is imported later

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"
DEFAULT_SEED = 20240901
REFERENCE_RTOL = 1e-8
# Operations recorded per workload by --record-reference.
REFERENCE_OPS = {"paper_grid": 120, "large_report": 24, "solve_stream": 24, "multiplier_search": 48}
# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
# Times set-up is measured in a run: spread evenly over the run, so that a
# slow phase of a shared machine cannot cover all of them.
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 600
# Units of the figures every run prints but BENCHMARK.json does not gate;
# the gated ones take their units from BENCHMARK.json.
PRINTED_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "op_fail_ratio": "ratio"}


def pin_blas_threads() -> None:
    """Pin BLAS to one thread, before numpy is imported here or in a child:
    on a small machine the threaded default is slower and its run-to-run
    spread swamps real changes."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def pin_to_one_cpu() -> int | None:
    """Keep this single-threaded process on one CPU, so migrations between
    CPUs add no noise; returns the CPU, or None where that is not allowed."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def import_program():
    """Import ilse from this checkout's ``src``, then the workloads module.

    Exits with an error, before printing any result, when the sources are
    missing, so a checkout without the program can never report numbers.
    """
    src = ROOT / "src"
    if not (src / "ilse" / "__init__.py").is_file():
        raise SystemExit(f"error: the ilse sources are missing under {src}")
    sys.path.insert(0, str(src))
    import ilse

    if Path(ilse.__file__).resolve().parent != (src / "ilse").resolve():
        raise SystemExit(f"error: imported ilse from {ilse.__file__}, not from {src}")
    import workloads

    return workloads


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_reference(workload, seed) -> list[dict]:
    """Recorded output values for this workload, or [] when they do not apply."""
    if seed != DEFAULT_SEED or not REFERENCE_PATH.is_file():
        return []
    entry = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["workloads"].get(workload.name)
    if entry is None or tuple(entry["dims"]) != workload.dims:
        return []
    return entry["ops"]


def relative_difference(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _reference_problems(fingerprint: dict, expected: dict) -> list[str]:
    return [
        f"{key}={fingerprint[key]!r} differs from reference {value!r}"
        for key, value in expected.items()
        if not relative_difference(fingerprint[key], value) <= REFERENCE_RTOL
    ]


def low_percentile(values) -> float:
    """The 10th percentile. On a shared machine contention only ever adds
    time, so the low end of repeated timings follows the program and the
    median follows the neighbours."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def run_workload(workload, seed, seconds, tracer=None, measure_import=None) -> dict:
    """Set up, then run operations in a closed loop for ``seconds``.

    Every operation's output is checked; an operation that raises, whose
    output fails a check, or whose input an earlier operation already had
    counts as failed. Set-up is measured SETUP_REPEATS times, evenly
    spaced over the run: each time, ``measure_import()`` (when given)
    times an import and one input is generated again. Returns the raw
    measurements.
    """
    set_op = (lambda i: setattr(tracer, "op", i)) if tracer else (lambda i: None)
    units, inputs, import_s = [], [], []
    for k in range(workload.n_inputs):
        t = time.perf_counter()
        inputs.append(workload.make_input(seed, k))
        units.append(time.perf_counter() - t)
    reference = load_reference(workload, seed)

    def setup_repeat():
        if inputs:
            t = time.perf_counter()
            workload.make_input(seed, len(import_s) % len(inputs))
            units.append(time.perf_counter() - t)
        import_s.append(measure_import() if measure_import else 0.0)

    latencies, cells, problems = [], [], []
    seen = set()
    failed = 0
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        due = len(import_s) * seconds / SETUP_REPEATS
        if len(import_s) < SETUP_REPEATS and time.perf_counter() - start >= due:
            setup_repeat()
        i = len(latencies)
        set_op(tracing.prep_op(i))
        x = workload.prepare(seed, inputs, i)
        key = workload.input_key(x)
        set_op(i)
        t = time.perf_counter()
        try:
            out, error = workload.op(x), None
        except Exception as exc:  # a failing operation is counted, and the loop goes on
            out, error = None, exc
        latencies.append(time.perf_counter() - t)
        cells.append(workload.cell(i))
        set_op(tracing.SETUP_OP)
        if error is not None:
            found = [f"{type(error).__name__}: {error}"]
        else:
            found = workload.check(x, out)
            if i < len(reference):
                found += _reference_problems(workload.fingerprint(x, out), reference[i])
        if key in seen:
            found.append("input repeats an earlier operation's")
        seen.add(key)
        if found:
            failed += 1
            problems.append(f"op {i}: " + "; ".join(found))
    while len(import_s) < SETUP_REPEATS:
        setup_repeat()
    return {
        "latencies": latencies,
        "cells": cells,
        "failed": failed,
        "problems": problems,
        "setup_units": units,
        "import_s": import_s,
    }


def import_time() -> float:
    """Time to import ilse, with numpy and scipy, in a fresh interpreter:
    measured in a child process, because a process imports only once."""
    code = "import time; t = time.perf_counter(); import ilse; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    return float(proc.stdout)


def run_metrics(raw, n_inputs) -> dict[str, float]:
    """Every end-to-end figure of one run, gated in BENCHMARK.json or not.

    Set-up and the gated latency take low percentiles of repeated timings,
    which move far less between runs than medians or means (ops_per_s) do.
    setup_s is one import plus ``n_inputs`` units of input generation.
    op_ms_p10 is the mean over cells of each cell's low percentile, so a
    change in any cell's cost moves it.
    """
    lat = raw["latencies"]
    units = raw["setup_units"]
    generation = n_inputs * low_percentile(units) if units else 0.0
    ms = [1e3 * t for t in lat]
    by_cell = defaultdict(list)
    for cell, t in zip(raw["cells"], ms):
        by_cell[cell].append(t)
    deciles = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else ms * 9
    out = {
        "setup_s": low_percentile(raw["import_s"]) + generation,
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p10": statistics.fmean(low_percentile(v) for v in by_cell.values()),
        "op_ms_p50": statistics.median(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_fail_ratio": raw["failed"] / len(lat),
    }
    if len(ms) >= 10 * TAIL_SAMPLES:
        out["op_ms_p90"] = deciles[-1]
    return out


def _resolve_layer_metric(name, computed) -> float:
    """A per-layer metric by name; 0 for a layer function this run never called."""
    if name in computed:
        return computed[name]
    module, function, stat = name.split(".")
    layer = importlib.import_module(f"ilse.{module}")
    if stat not in tracing.STATS or not callable(getattr(layer, function, None)):
        raise SystemExit(f"error: BENCHMARK.json names unknown per-layer metric {name!r}")
    return 0.0


def spans_path(workload_name, seed) -> Path:
    return OUT_DIR / f"spans-{workload_name}-seed{seed}.tsv.gz"


def run_one(workload, seed, seconds, trace, measure_import=None, cpu=None) -> int:
    """Run one workload in this process and print its metrics and result line."""
    spec = load_spec()
    tracer = tracing.Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        raw = run_workload(workload, seed, seconds, tracer, measure_import)

    attempted, failed = len(raw["latencies"]), raw["failed"]
    figures = run_metrics(raw, workload.n_inputs)
    if trace:
        computed = tracing.layer_metrics(tracer.spans, attempted)
        computed["trace.ops_per_s"] = figures["ops_per_s"]
        tracing.write_spans(spans_path(workload.name, seed), tracer.spans)
        wanted = spec["per_layer"]
        values = {m["name"]: _resolve_layer_metric(m["name"], computed) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: figures[m["name"]] for m in wanted}

    unit_of = PRINTED_UNITS | {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for problem in raw["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {workload.name} dims={workload.dims} seed={seed} trace={trace} "
          f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} cpu={cpu} "
          f"op_samples={attempted} cells={len(set(raw['cells']))}")
    gen = raw["setup_units"]
    print("note setup import_s=" + ",".join(f"{t:.4f}" for t in raw["import_s"])
          + f" inputs_timed={len(gen)} input_s_p10={low_percentile(gen) if gen else 0.0:.4f}")
    if "op_ms_p90" not in figures:
        print(f"note op_ms_p90 not reported: {attempted} samples < {10 * TAIL_SAMPLES}")
    for name, value in figures.items():
        print(f"metric {name} {value:.6g} {unit_of[name]}")
    if trace:
        for m in wanted:
            print(f"metric {m['name']} {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# The whole suite: every workload in its own process
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment_header(seed, seconds, workload_map) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "run_seconds": seconds,
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "workloads": {
            w.name: {"m_n_s_p_q": list(w.dims), "pre_generated_inputs": w.n_inputs}
            for w in workload_map.values()
        },
    }


def _run_subprocess(name, seed, seconds, trace) -> dict:
    """One run in its own process; returns its result line plus every
    ``metric`` line it printed, under "printed"."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    result["printed"] = {
        parts[1]: float(parts[2]) for parts in (line.split() for line in lines[:-1]) if parts[0] == "metric"
    }
    return result


def count_differences(spans_a, spans_b) -> list[str]:
    """Calls per operation that differ between two traced runs, over the
    operations (and the set-up) both runs completed."""
    a, b = tracing.calls_per_op(spans_a), tracing.calls_per_op(spans_b)
    return [
        f"op {op}: {dict(a[op])} != {dict(b[op])}"
        for op in sorted(set(a) & set(b))
        if a[op] != b[op]
    ]


def run_suite(seed, seconds) -> int:
    wl = import_program()
    header = environment_header(seed, seconds, wl.WORKLOADS)
    results, ok = {}, True
    for name in wl.WORKLOADS:
        plain = _run_subprocess(name, seed, seconds, 0)
        traced = [_run_subprocess(name, seed, seconds, 1)]
        first_spans = spans_path(name, seed).with_suffix(".first.gz")
        spans_path(name, seed).replace(first_spans)
        traced.append(_run_subprocess(name, seed, seconds, 1))
        diffs = count_differences(tracing.read_spans(first_spans),
                                  tracing.read_spans(spans_path(name, seed)))
        first_spans.unlink()
        # Tracing overhead: the first traced run's loss of throughput, and the
        # rise of its steadier low-percentile latency, against the untraced run.
        first = traced[0]["printed"]
        overhead = {
            "ops_per_s_pct": 100.0 * (1.0 - first["ops_per_s"] / plain["printed"]["ops_per_s"]),
            "op_ms_p10_pct": 100.0 * (first["op_ms_p10"] / plain["printed"]["op_ms_p10"] - 1.0),
        }
        for problem in diffs[:10]:
            print(f"ERROR count self-check {name}: {problem}", file=sys.stderr)
        correct = plain["correct"] and all(t["correct"] for t in traced)
        ok = ok and correct and not diffs
        print(f"summary {name}: correct={correct} count_self_check={'ok' if not diffs else 'FAILED'} "
              f"trace_overhead ops_per_s={overhead['ops_per_s_pct']:.2f}% "
              f"op_ms_p10={overhead['op_ms_p10_pct']:.2f}%")
        results[name] = {
            "end_to_end": plain, "traced": traced,
            "trace_overhead": overhead, "count_self_check_differences": diffs,
        }
    out = OUT_DIR / f"BENCH_{header['git_commit'][:12]}_seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"header": header, "results": results}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


def record_reference() -> int:
    wl = import_program()
    recorded = {}
    for name, workload in wl.WORKLOADS.items():
        inputs = [workload.make_input(DEFAULT_SEED, k) for k in range(workload.n_inputs)]
        ops = []
        for i in range(REFERENCE_OPS[name]):
            x = workload.prepare(DEFAULT_SEED, inputs, i)
            out = workload.op(x)
            if workload.check(x, out):
                raise SystemExit(f"error: {name} op {i} fails its checks; nothing recorded")
            ops.append(workload.fingerprint(x, out))
        recorded[name] = {"dims": list(workload.dims), "ops": ops}
        print(f"recorded {len(ops)} operations of {name}")
    # One line per operation keeps the file readable and its diffs small.
    body = ",\n".join(
        f'  "{name}": {{"dims": {json.dumps(entry["dims"])}, "ops": [\n'
        + ",\n".join(f"    {json.dumps(op)}" for op in entry["ops"]) + "\n  ]}"
        for name, entry in recorded.items()
    )
    REFERENCE_PATH.write_text(
        f'{{"seed": {DEFAULT_SEED},\n "workloads": {{\n{body}\n }}}}\n',
        encoding="utf-8",
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default=None, help="run one workload; omit to run the suite")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    pin_blas_threads()
    if args.record_reference:
        return record_reference()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload is None:
        return run_suite(args.seed, seconds)
    cpu = pin_to_one_cpu()
    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    return run_one(wl.WORKLOADS[args.workload], args.seed, seconds, args.trace, import_time, cpu)


if __name__ == "__main__":
    sys.exit(main())
