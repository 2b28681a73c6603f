"""Tests of the benchmark itself: span arithmetic, metric names, the
percentile rule, the correctness gate, and a tiny-size smoke pass of every
workload through ``run.py``."""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, tracing, worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent=-1, run_id=0, payload=None):
    return [name, start, end, parent, run_id, payload]


# ----------------------------------------------------------------------
# self times
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips_to_parent():
    assert tracing.covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert tracing.covered([], 0, 10) == 0
    assert tracing.covered([(4, 6), (4, 6)], 0, 10) == 2


def test_self_times_on_a_hand_built_tree():
    spans = [
        span("cli.main", 0.0, 10.0),                    # 0
        span("experiment.run_experiment", 1.0, 9.0, 0),  # 1
        span("driver.run", 2.0, 6.0, 1),                # 2
        span("objectives.eval_sums", 2.5, 3.5, 2),      # 3
        span("engine.direction", 4.0, 4.5, 2),          # 4
        span("experiment.write_trace_csv", 6.0, 7.0, 1),  # 5
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 2.5, 1.0, 0.5, 1.0])


def test_raw_totals_split_batch_from_metrology_and_runs():
    spans = [
        span("driver.run", 0.0, 10.0, run_id=1, payload=5),          # 0
        span("objectives.eval_sums", 1.0, 2.0, 0, 1, (10, 30, 900)),  # 1
        span("objectives.eval_full", 3.0, 6.0, 0, 1),               # 2
        span("objectives.eval_subset", 3.0, 5.5, 2, 1),             # 3
        span("objectives.eval_sums", 3.5, 5.0, 3, 1, (100, 300, 9000)),  # 4
        span(tracing.OVERHEAD, 6.0, 6.5, 0, 1),                     # 5
        span("driver.run", 20.0, 21.0, run_id=2, payload=1),        # 6
    ]
    totals = tracing.raw_totals(spans, {(1, "linalg.dot"): 7})
    m = tracing.layer_metrics(totals[1])
    assert m["objectives.eval_sums_calls"] == 1
    assert m["objectives.rows_evaluated"] == 10
    assert m["objectives.nnz_touched"] == 30
    assert m["objectives.eval_sums_batch_s"] == pytest.approx(1.0)
    assert m["objectives.ns_per_nnz"] == pytest.approx(1e9 / 30)
    assert m["objectives.eval_subset_calls"] == 0
    assert m["objectives.eval_full_s"] == pytest.approx(3.0)
    assert m["objectives.self_s"] == pytest.approx(1.0 + 3.0)
    # run minus eval_sums, eval_full and the tracer's own bookkeeping
    assert m["driver.self_s"] == pytest.approx(10.0 - 1.0 - 3.0 - 0.5)
    assert m["driver.iterations"] == 5
    assert m["linalg.dot_calls"] == 7
    assert tracing.layer_metrics(totals[2])["driver.run_s"] == pytest.approx(1.0)


def test_tracer_records_nesting_and_restores_targets():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = tracing.Tracer()
    original = Layer.inner
    tracer.patch(Layer, "outer", lambda fn: tracer.timed("a.outer", fn))
    tracer.patch(Layer, "inner", lambda fn: tracer.timed("a.inner", fn, lambda a, r: r))
    tracer.patch(Layer, "missing", lambda fn: tracer.timed("a.missing", fn))
    assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer.inner is original and not hasattr(Layer, "missing")
    names = [(s[0], s[3], s[5]) for s in tracer.spans]
    assert names == [("a.outer", -1, None), ("a.inner", 0, 1), (tracing.OVERHEAD, 0, None)]


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
def test_metric_names_match_the_pattern_and_are_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    assert len(names) == len(set(names))


def test_emitted_names_are_the_benchmark_json_names():
    layer_names = set(tracing.layer_metrics({})) | {"trace_overhead_frac"}
    assert layer_names == {m["name"] for m in SPEC["per_layer"]}
    raw = {"setup_s": [1.0], "peak_rss_mb": 50.0, "n": 10, "reps": []}
    metrics, _ = run.end_to_end(raw, attempted=1, failed=1)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(worker.WORKLOADS)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 201))
    assert run.percentile(values, 95) == 190
    assert run.percentile(values, 50) == 100
    with pytest.raises(ValueError):
        run.percentile(values[:199], 95)
    assert run.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 50)


def test_best_case_takes_each_iteration_at_its_fastest():
    reps = [{"wall": 10.0, "deltas": [1.0, 5.0, 3.0]},
            {"wall": 11.0, "deltas": [2.0, 4.0, 3.0]}]
    mins, wall = run.best_case(reps)
    assert mins == [1.0, 4.0, 3.0]
    assert wall == pytest.approx(8.0 + 1.0)  # outside the iterations: min(1, 2)


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
REFERENCE = {
    "tolerance": {"final_loss_rtol": 1e-6, "train_acc_atol": 1e-4,
                  "band_loss_rel": 0.1, "band_acc_abs": 0.01},
    "workloads": {"w": {"full": {"0": {"c": [1.0, 0.9]}, "1": {"c": [2.0, 0.95]}}}},
}


def cell(loss=1.0, acc=0.9, digest="d", status="ok", name="c", first=math.log(2)):
    return {"cell": name, "status": status, "digest": digest, "epoch": 1.0,
            "first_loss": first, "final_loss": loss, "train_acc": acc}


def test_check_values_exact_seed_and_band():
    check = run.check_values
    assert check(REFERENCE, "w", "full", 0, cell()) is None
    assert "final_loss" in check(REFERENCE, "w", "full", 0, cell(loss=1.01))
    assert "train_acc" in check(REFERENCE, "w", "full", 0, cell(acc=0.91))
    assert check(REFERENCE, "w", "full", 7, cell(loss=2.1, acc=0.895)) is None
    assert "band" in check(REFERENCE, "w", "full", 7, cell(loss=2.3))
    assert "band" in check(REFERENCE, "w", "full", 7, cell(acc=0.8))
    assert "no reference" in check(REFERENCE, "w", "tiny", 0, cell())
    assert "ln 2" in check(REFERENCE, "w", "full", 0, cell(first=0.7))
    assert "out of range" in check(REFERENCE, "w", "full", 7, cell(loss=math.nan))


def test_unstable_method_band_has_only_its_lower_loss_edge():
    name = "inconsistent_lbfgs_p0.5_s1.csv"
    ref = {**REFERENCE, "workloads": {"w": {"full": {
        "0": {name: [1.0, 0.9]}, "1": {name: [2.0, 0.95]}}}}}
    check = run.check_values
    assert check(ref, "w", "full", 7, cell(loss=8.0, acc=0.11, name=name)) is None
    assert "edge" in check(ref, "w", "full", 7, cell(loss=0.8, name=name))
    assert "final_loss" in check(ref, "w", "full", 0, cell(loss=8.0, name=name))


def test_gate_counts_every_failure_and_keeps_going():
    reps = [{"cells": [cell()]}, {"cells": [cell(digest="other")]},
            {"cells": [cell(status="aborted:divergence")]}, {"cells": [cell(loss=3.0)]},
            {"cells": [cell()]}]
    attempted, failures = run.gate(reps, REFERENCE, "w", "full", 0)
    assert attempted == 5
    assert [f["run"] for f in failures] == [1, 2, 3]


# ----------------------------------------------------------------------
# smoke pass through run.py
# ----------------------------------------------------------------------
def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "0",
                           "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_smoke_tiny_workload_passes_the_gate(workload):
    proc = bench("--workload", workload, "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_tiny_traced_cli_reports_every_layer():
    proc = bench("--workload", worker.CLI_WORKLOAD, "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("sampling.next_plan_calls", "objectives.eval_sums_calls",
                 "engine.admit_calls", "dataio.parse_libsvm_s", "driver.iterations",
                 "experiment.csv_bytes", "cli.main_s"):
        assert metrics[name] > 0, name
    assert metrics["experiment.cells"] == worker.CLI_CELLS


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "s1-small", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
