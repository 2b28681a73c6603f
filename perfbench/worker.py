"""Measuring process of the benchmark.

``run.py`` starts this module once per benchmark run, so that its peak RSS
is that of a fresh process. It sets the workload up several times, then
runs it as a closed loop with one caller (the next run starts when the
previous one ends) until the time is up, and writes the raw measurements
as JSON. With ``--trace 1`` it alternates untraced and traced runs, so the
per-layer numbers and the tracing overhead come from one process.

Usage: python3 -m perfbench.worker --workload NAME --size full|tiny
       --seed N --seconds S --trace 0|1 --scratch DIR --raw-out FILE
       [--fixture FILE] [--spans-out FILE]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from perfbench import tracing

# (n, d, nnz per row) of each data set, at full and smoke-test size
DATA = {
    "small": {"full": (20000, 50, 10), "tiny": (2000, 20, 5)},
    "libsvm": {"full": (5000, 200, 15), "tiny": (2000, 50, 10)},
}
SYNTHETIC_MARGIN = 1.0

# workload -> data set; the CLI workload reads its data set from a file
WORKLOADS = {
    "s1-small": "small",
    "fault-grid-cli": "libsvm",
    "sgd-serial": "small",
}
CLI_WORKLOAD = "fault-grid-cli"
CLI_FLAGS = ["--strategy", "fault", "--nodes", "16", "--fail-prob", "0.1,0.5",
             "--method", "robust_lbfgs", "--method", "inconsistent_lbfgs",
             "--method", "multibatch_gd", "--seed", "0,1",
             "--step", "constant:0.2", "--epochs", "14"]
CLI_CELLS = 3 * 2 * 2  # methods x failure probabilities x seeds

SGD_STEPS = 1000      # iterations of one sgd-serial run
SETUPS = 5            # set-ups per untraced run; setup_s is their median
MIN_REPS = 3          # runs per untraced measurement, whatever --seconds says
HARD_LIMIT_S = 120.0  # start no run after this, so the process ends in time


def run_config(driver, workload, n, seed):
    """The RunConfig of a library workload."""
    if workload == "s1-small":
        return driver.RunConfig(method="robust_lbfgs", mode="strategy1",
                                batch_frac=0.01, overlap_frac=0.2, memory=10,
                                schedule=driver.constant(0.2), epochs=3, seed=seed)
    # 1000 one-row steps with a full evaluation every 1% of an epoch, so
    # final_loss tracks the run
    return driver.RunConfig(method="serial_sgd", schedule=driver.constant(0.05),
                            epochs=1.0, max_iterations=SGD_STEPS,
                            trace_stride=n // 100, seed=seed)


def setup(pkg, workload, size, seed, fixture):
    """Data build plus objective construction: the work setup_s times."""
    if workload == CLI_WORKLOAD:
        dataset = pkg.dataio.parse_libsvm(fixture)
        return pkg.objectives.make_objective("logistic_l2", dataset)
    n, d, nnz = DATA[WORKLOADS[workload]][size]
    dataset = pkg.dataio.make_synthetic(n, d, nnz, seed=seed,
                                        separable_margin=SYNTHETIC_MARGIN)
    return pkg.objectives.logistic_l2(dataset)


def csv_cell(name, status, text):
    """Digest, first loss and final values of one trace CSV."""
    lines = text.splitlines()
    header = lines[0].split(",")
    first = dict(zip(header, lines[1].split(",")))
    last = dict(zip(header, lines[-1].split(",")))
    return {"cell": name, "status": status,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "first_loss": float(first["full_loss"]),
            "epoch": float(last["epoch"]), "final_loss": float(last["full_loss"]),
            "train_acc": float(last["train_acc"])}


def deltas(trace):
    clock = [rec.wallclock for rec in trace.records]
    return [b - a for a, b in zip(clock, clock[1:])]


def run_library(pkg, workload, objective, seed):
    config = run_config(pkg.driver, workload, objective.n, seed)
    t0 = perf_counter()
    trace = pkg.driver.run(config, objective)
    wall = perf_counter() - t0
    text = "".join(line + "\n" for line in pkg.experiment.trace_csv_lines(trace))
    status = "ok" if trace.aborted is None else f"aborted:{trace.aborted}"
    return wall, [csv_cell(workload, status, text)], deltas(trace)


def run_cli(pkg, fixture, out_dir):
    """One in-process ``mblbfgs.cli.main`` call over the whole grid."""
    shutil.rmtree(out_dir, ignore_errors=True)
    traces = []
    experiment = pkg.experiment
    original = experiment.run

    def capture(*args, **kwargs):  # keeps each cell's trace for its clock
        trace = original(*args, **kwargs)
        traces.append(trace)
        return trace

    experiment.run = capture
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = pkg.cli.main(["--dataset", str(fixture), *CLI_FLAGS,
                                 "--out", str(out_dir)])
            wall = perf_counter() - t0
    finally:
        experiment.run = original
    cells = []
    manifest = out_dir / experiment.MANIFEST_NAME
    rows = manifest.read_text(encoding="utf-8").splitlines() if manifest.exists() else []
    for row in rows[2:]:  # version comment, then the column header
        name, status = row.split(",")[0], row.split(",")[-1]
        if code != 0:
            status = f"exit {code}: {status}"
        cells.append(csv_cell(name, status, (out_dir / name).read_text(encoding="utf-8")))
    if len(cells) != CLI_CELLS:
        raise RuntimeError(f"exit {code}: manifest lists {len(cells)} of {CLI_CELLS} cells")
    return wall, cells, [x for trace in traces for x in deltas(trace)]


def data_bytes(objective):
    """Bytes of the feature matrix and labels, or None if they are not arrays."""
    X, labels = getattr(objective, "X", None), getattr(objective, "labels", None)
    if X is None or labels is None:
        return None
    return int(X.data.nbytes + X.indices.nbytes + X.indptr.nbytes + labels.nbytes)


def measure(pkg, args):
    workload, fixture = args.workload, args.fixture
    tracer = tracing.Tracer() if args.trace else None
    trace_setup = tracer is not None and workload != CLI_WORKLOAD  # main() parses itself
    setup_s, objective = [], None
    start = perf_counter()  # --seconds covers the set-ups too
    for i in range(1 if args.trace else SETUPS):
        objective = None  # free the previous set-up before the next
        if trace_setup:
            tracer.run_id = f"setup{i}"
            tracing.instrument(tracer, pkg)
        t0 = perf_counter()
        objective = setup(pkg, workload, args.size, args.seed, fixture)
        setup_s.append(perf_counter() - t0)
        if trace_setup:
            tracer.uninstall()

    # Runs alternate between the CPUs this process may use, so that each
    # iteration's fastest repeat is taken over all of them; a traced call
    # moves on after each untraced/traced pair, so both see every CPU.
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = 2 if args.trace else 1
    reps = []
    min_reps = 2 if args.trace else MIN_REPS
    while True:
        elapsed = perf_counter() - start
        if elapsed > HARD_LIMIT_S or (len(reps) >= min_reps and elapsed + statistics.median(
                r["wall"] for r in reps) > args.seconds):
            break
        os.sched_setaffinity(0, {cpus[len(reps) // per_cpu % len(cpus)]})
        traced = bool(args.trace) and len(reps) % 2 == 1
        if traced:
            tracer.run_id = len(reps)
            tracing.instrument(tracer, pkg)
        t0 = perf_counter()
        try:
            if workload == CLI_WORKLOAD:
                wall, cells, clock = run_cli(pkg, fixture, Path(args.scratch) / "cli")
            else:
                wall, cells, clock = run_library(pkg, workload, objective, args.seed)
        except Exception:  # a failed run is counted by the gate, not fatal
            wall, clock = perf_counter() - t0, []
            error = traceback.format_exc().strip().splitlines()[-1]
            cells = [{"cell": None, "status": f"error: {error}"}] * (
                CLI_CELLS if workload == CLI_WORKLOAD else 1)
        finally:
            if traced:
                tracer.uninstall()
        reps.append({"wall": wall, "traced": traced, "cells": cells, "deltas": clock})
    os.sched_setaffinity(0, cpus)

    layers = None
    if tracer is not None:
        totals = tracing.raw_totals(tracer.spans, tracer.counts)
        per_rep = tracing.combine([totals.get(r, {}) for r, rep in enumerate(reps)
                                   if rep["traced"]])
        per_setup = tracing.combine([v for k, v in totals.items()
                                     if isinstance(k, str)])
        layers = tracing.layer_metrics(
            {k: per_rep.get(k, 0) + per_setup.get(k, 0) for k in {*per_rep, *per_setup}})
        if args.spans_out:
            tracer.write(args.spans_out)

    import numpy
    import scipy
    return {
        "setup_s": setup_s,
        "reps": reps,
        "layers": layers,
        "n": objective.n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "data_bytes": data_bytes(objective),
        },
    }


def main(argv=None):
    p = argparse.ArgumentParser(prog="perfbench.worker")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--size", default="full", choices=["full", "tiny"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--fixture")
    p.add_argument("--scratch", required=True)
    p.add_argument("--raw-out", required=True)
    p.add_argument("--spans-out")
    args = p.parse_args(argv)
    if args.workload == CLI_WORKLOAD and not args.fixture:
        p.error("the CLI workload needs --fixture")

    import mblbfgs
    import mblbfgs.cli  # noqa: F401  (loads every layer the tracer wraps)

    result = measure(mblbfgs, args)
    tmp = f"{args.raw_out}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.raw_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
