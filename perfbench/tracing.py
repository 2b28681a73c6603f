"""Span tracing for the benchmark's traced run, and the per-layer numbers
derived from it.

Spans are recorded from the benchmark's own files: each public entry point
of a layer is wrapped by rebinding the name where the caller looks it up
(a class attribute for methods, a module global for functions imported by
name such as ``engine.dot`` or ``experiment.run``). Spans stay in memory
as ``[name, start, end, parent, run_id, payload]`` lists and are written out
when the run ends. A target that a later version of the package no longer
has is skipped, and its metrics read 0.
"""
from __future__ import annotations

import csv
import functools
import os
import statistics
from time import perf_counter

import numpy as np

# the span that times a payload callback, so that bookkeeping done for the
# benchmark is not charged to the caller's self time
OVERHEAD = "trace.overhead"

MODULES = ("sampling", "objectives", "engine", "linalg", "dataio",
           "driver", "experiment", "cli")

# spans whose time is reported on its own and left out of their module's
# self time: experiment.self_s is the manifest and cell loop only
SEPARATE_FROM_SELF = {"experiment.write_trace_csv"}

# computed bytes moved by one logistic eval_sums call, from array sizes:
# per stored entry, the row gather reads and writes value + index, the two
# matvecs each read value + index, the forward one gathers w and the
# transposed one read-modify-writes the gradient entry; per row, indptr is
# read and written and about eight float64 row vectors are touched
ROW_VECTORS = 8


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # (run_id, name) -> count, for count-only wrappers
        self.run_id = 0
        self._stack = []
        self._patches = []

    def timed(self, name, fn, payload=None):
        """Wrap ``fn`` so each call records a span; ``payload(args, result)``
        runs after the span closes and its value is kept on the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if payload is not None:
                t = perf_counter()
                try:
                    rec[5] = payload(args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass  # a changed signature loses the payload, never the call
                spans.append([OVERHEAD, t, perf_counter(), rec[3], self.run_id, None])
            return result
        return wrapper

    def counted(self, name, fn):
        """Wrap ``fn`` so each call only bumps a counter (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (self.run_id, name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr, make_wrapper):
        """Rebind ``owner.attr`` to ``make_wrapper(original)`` if it exists."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as CSV: run_id, index, parent, name, start, end, payload."""
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "index", "parent", "name", "start", "end", "payload"])
            for i, (name, start, end, parent, run_id, payload) in enumerate(self.spans):
                out.writerow([run_id, i, parent, name, repr(start), repr(end),
                              "" if payload is None else payload])
        os.replace(tmp, path)


def _eval_sums_payload(args, _result):
    """(rows, stored entries, computed bytes) of one eval_sums call."""
    objective, _w, subset = args[:3]
    X = objective.X
    idx = np.asarray(subset)
    rows = idx.size
    nnz = int((X.indptr[idx + 1] - X.indptr[idx]).sum())
    v, i, p = X.data.itemsize, X.indices.itemsize, X.indptr.itemsize
    computed = nnz * (4 * (v + i) + 3 * v) + rows * (2 * p + ROW_VECTORS * 8)
    return (rows, nnz, computed)


def instrument(tracer, pkg):
    """Wrap the public entry points of every layer of ``pkg`` (the imported
    ``mblbfgs`` package, with its submodules loaded)."""
    linalg, objectives, sampling = pkg.linalg, pkg.objectives, pkg.sampling
    engine, driver, dataio = pkg.engine, pkg.driver, pkg.dataio
    experiment, cli = pkg.experiment, pkg.cli
    timed, counted = tracer.timed, tracer.counted

    def span(name, payload=None):
        return lambda fn: timed(name, fn, payload)

    for source in ("Strategy1Source", "Strategy2Source", "FaultSource"):
        cls = getattr(sampling, source, None)
        if cls is not None:
            tracer.patch(cls, "next_plan", span(
                "sampling.next_plan", lambda a, plan: (plan.S.size, plan.redraws)))
    tracer.patch(objectives.Objective, "eval_sums",
                 span("objectives.eval_sums", _eval_sums_payload))
    for method in ("eval_subset", "eval_full", "accuracy"):
        tracer.patch(objectives.Objective, method, span(f"objectives.{method}"))
    tracer.patch(engine.LbfgsMemory, "direction", span("engine.direction"))
    tracer.patch(engine.LbfgsMemory, "admit",
                 span("engine.admit", lambda a, accepted: int(bool(accepted))))
    # dot and axpy are imported by name; linalg.norm looks dot up in linalg
    for module in (linalg, engine, driver):
        tracer.patch(module, "dot", lambda fn: counted("linalg.dot", fn))
    for module in (linalg, engine):
        tracer.patch(module, "axpy", lambda fn: counted("linalg.axpy", fn))
    tracer.patch(linalg.Dataset, "to_arrays", span("linalg.to_arrays"))
    tracer.patch(dataio, "make_synthetic", span("dataio.make_synthetic"))
    parse = span("dataio.parse_libsvm", lambda a, _ds: os.path.getsize(a[0]))
    tracer.patch(dataio, "parse_libsvm", parse)
    tracer.patch(experiment, "parse_libsvm", parse)
    run = span("driver.run", lambda a, trace: len(trace.records) - 1)
    tracer.patch(driver, "run", run)
    tracer.patch(experiment, "run", run)
    tracer.patch(experiment, "write_trace_csv", span(
        "experiment.write_trace_csv", lambda a, _r: os.path.getsize(a[1])))
    tracer.patch(cli, "run_experiment", span(
        "experiment.run_experiment", lambda a, result: len(result.statuses)))
    tracer.patch(cli, "main", span("cli.main"))


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    return [rec[2] - rec[1] - covered(children.get(i, ()), rec[1], rec[2])
            for i, rec in enumerate(spans)]


def raw_totals(spans, counts):
    """Summed times, calls and payloads of each run's spans, keyed by run id.

    Batch evaluation counts only the eval_sums/eval_subset calls that are not
    under eval_full, which is metrology.
    """
    selfs = self_times(spans)
    under_full = [False] * len(spans)
    runs = {}

    def totals(run_id):
        if run_id not in runs:
            out = runs[run_id] = {f"{m}.self_s": 0.0 for m in MODULES}
            out["linalg.dot_calls"] = counts.get((run_id, "linalg.dot"), 0)
            out["linalg.axpy_calls"] = counts.get((run_id, "linalg.axpy"), 0)
        return runs[run_id]

    for i, (name, start, end, parent, run_id, payload) in enumerate(spans):
        if parent >= 0:
            under_full[i] = under_full[parent] or spans[parent][0] == "objectives.eval_full"
        out = totals(run_id)
        if name == OVERHEAD:
            continue
        module, _, func = name.partition(".")
        if name not in SEPARATE_FROM_SELF:
            out[f"{module}.self_s"] += selfs[i]
        if func in ("eval_sums", "eval_subset") and under_full[i]:
            continue
        values = [end - start, 1]
        if payload is not None:
            values += payload if isinstance(payload, tuple) else (payload,)
        for key, value in zip(("s", "calls", "p0", "p1", "p2"), values):
            out[f"{name}:{key}"] = out.get(f"{name}:{key}", 0) + value
    return runs


def combine(parts):
    """Per-key median over several runs' raw totals (0 where a run lacks a
    key); the lower median, so each value is one that a run produced."""
    keys = set().union(*parts) if parts else set()
    return {k: statistics.median_low(p.get(k, 0) for p in parts) for k in keys}


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(raw):
    """The per-layer metric values, named as in BENCHMARK.json."""
    g = lambda key: raw.get(key, 0)  # noqa: E731
    m = {
        "sampling.next_plan_s": g("sampling.next_plan:s"),
        "sampling.next_plan_calls": g("sampling.next_plan:calls"),
        "sampling.rows_planned": g("sampling.next_plan:p0"),
        "sampling.redraws": g("sampling.next_plan:p1"),
        "objectives.eval_sums_batch_s": g("objectives.eval_sums:s"),
        "objectives.eval_sums_calls": g("objectives.eval_sums:calls"),
        "objectives.rows_evaluated": g("objectives.eval_sums:p0"),
        "objectives.nnz_touched": g("objectives.eval_sums:p1"),
        "objectives.ns_per_nnz": _ratio(g("objectives.eval_sums:s"),
                                        g("objectives.eval_sums:p1"), 1e9),
        "objectives.bytes_computed": g("objectives.eval_sums:p2"),
        "objectives.eval_full_s": g("objectives.eval_full:s"),
        "objectives.eval_full_calls": g("objectives.eval_full:calls"),
        "objectives.accuracy_s": g("objectives.accuracy:s"),
        "objectives.eval_subset_s": g("objectives.eval_subset:s"),
        "objectives.eval_subset_calls": g("objectives.eval_subset:calls"),
        "engine.direction_s": g("engine.direction:s"),
        "engine.direction_calls": g("engine.direction:calls"),
        "engine.admit_s": g("engine.admit:s"),
        "engine.admit_calls": g("engine.admit:calls"),
        "engine.pairs_accepted": g("engine.admit:p0"),
        "engine.accept_ratio": _ratio(g("engine.admit:p0"), g("engine.admit:calls")),
        "linalg.dot_calls": g("linalg.dot_calls"),
        "linalg.axpy_calls": g("linalg.axpy_calls"),
        "linalg.to_arrays_s": g("linalg.to_arrays:s"),
        "dataio.make_synthetic_s": g("dataio.make_synthetic:s"),
        "dataio.parse_libsvm_s": g("dataio.parse_libsvm:s"),
        "dataio.parse_mb_per_s": _ratio(g("dataio.parse_libsvm:p0"),
                                        g("dataio.parse_libsvm:s"), 1e-6),
        "driver.run_s": g("driver.run:s"),
        "driver.iterations": g("driver.run:p0"),
        "experiment.run_experiment_s": g("experiment.run_experiment:s"),
        "experiment.write_trace_csv_s": g("experiment.write_trace_csv:s"),
        "experiment.csv_bytes": g("experiment.write_trace_csv:p0"),
        "experiment.cells": g("experiment.run_experiment:p0"),
        "cli.main_s": g("cli.main:s"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = g(f"{module}.self_s")
    return m
