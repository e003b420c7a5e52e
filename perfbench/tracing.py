"""Span tracing for the benchmark's traced run.

The tracer wraps every public function defined in the ilse layer modules
and replaces each module attribute that refers to one of them, so a call
records a span whichever import path it went through (for example
``harness.solve_ilse`` or ``oracle.backward_error_estimate``). Spans stay
in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("testgen", "solver", "harness", "backward_error", "oracle")
# Every module that may hold an alias of a layer function.
_MODULES = ("ilse", "ilse.cli") + tuple(f"ilse.{layer}" for layer in LAYERS)
# The statistics layer_metrics reports, as the last part of a metric name.
STATS = ("calls", "ms_p50", "self_ms", "failed", "attempts_per_call", "rho_evals", "failed_evals")

# Span fields, in the order they are stored and written.
NAME, START, END, PARENT, OP, RAISED = range(6)
# Op id of set-up work. Timed operations have ids 0, 1, ...; the untimed
# input preparation of operation i has id prep_op(i), below SETUP_OP.
SETUP_OP = -1


def prep_op(i: int) -> int:
    return SETUP_OP - 1 - i


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``[name, start_ns, end_ns, parent_index, op_id, raised]``.
    ``op`` is the id of the operation in progress, or of the untimed work
    around it (SETUP_OP, prep_op). Use as a context manager: the patches
    are undone on exit.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                stack.pop()
                span[END] = perf_counter_ns()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [importlib.import_module(name) for name in _MODULES]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ilse.{layer}")
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        return False


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def calls_per_op(spans) -> dict[int, Counter]:
    """op id -> Counter of function name -> calls, untimed ids included."""
    counts: dict[int, Counter] = defaultdict(Counter)
    for span in spans:
        counts[span[OP]][span[NAME]] += 1
    return counts


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-function and per-module statistics from one run's spans.

    ``calls``, ``self_ms`` and ``failed`` are per operation and count only
    spans inside timed operations. ``ms_p50`` is the median duration of
    every call, set-up and input preparation included.
    ``attempts_per_call`` (instance generation) and ``rho_evals`` and
    ``failed_evals`` (multiplier search) are per call of the named
    function, counted from its direct children.
    """
    self_ns = self_times(spans)
    durations: dict[str, list[int]] = defaultdict(list)
    calls: Counter = Counter()
    raised: Counter = Counter()
    self_sum: Counter = Counter()
    module_self: Counter = Counter()
    children: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
    for span, own in zip(spans, self_ns):
        name = span[NAME]
        durations[name].append(span[END] - span[START])
        if span[PARENT] >= 0:
            pair = children[(spans[span[PARENT]][NAME], name)]
            pair[0] += 1
            pair[1] += span[RAISED]
        if span[OP] < 0:
            continue
        calls[name] += 1
        raised[name] += span[RAISED]
        self_sum[name] += own
        module_self[name.split(".")[0]] += own

    per_op = 1.0 / max(n_ops, 1)
    out: dict[str, float] = {}
    for name, durs in durations.items():
        out[f"{name}.calls"] = calls[name] * per_op
        out[f"{name}.ms_p50"] = statistics.median(durs) / 1e6
        out[f"{name}.self_ms"] = self_sum[name] * per_op / 1e6
        out[f"{name}.failed"] = raised[name] * per_op
    for layer in LAYERS:
        out[f"{layer}.total.self_ms"] = module_self[layer] * per_op / 1e6

    def per_call(parent, child, index):
        total = len(durations.get(parent, ()))
        return children[(parent, child)][index] / total if total else 0.0

    gen, search = "testgen.gen_ilse_instance", "oracle.minimize_estimate"
    out[f"{gen}.attempts_per_call"] = per_call(gen, "testgen.gen_sigma_orthogonal", 0)
    out[f"{search}.rho_evals"] = per_call(search, "backward_error.backward_error_estimate", 0)
    out[f"{search}.failed_evals"] = per_call(search, "backward_error.backward_error_estimate", 1)
    return out


def write_spans(path, spans) -> None:
    """Gzipped tab-separated spans with a header line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\top\traised\n")
        for i, s in enumerate(spans):
            fh.write(f"{i}\t{s[NAME]}\t{s[START]}\t{s[END]}\t{s[PARENT]}\t{s[OP]}\t{int(s[RAISED])}\n")


def read_spans(path) -> list[list]:
    with gzip.open(path, "rt", encoding="ascii") as fh:
        next(fh)
        return [
            [name, int(start), int(end), int(parent), int(op), raised == "1"]
            for _, name, start, end, parent, op, raised in (line.rstrip("\n").split("\t") for line in fh)
        ]
