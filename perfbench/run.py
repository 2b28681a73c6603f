"""Benchmark of the mblbfgs package: one workload per call, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/mblbfgs``. The seed makes
the workload's data; the package only receives the generated data. One
fresh worker process (``perfbench/worker.py``) sets the workload up and runs
it as a closed loop with one caller for about S seconds; this process then
checks every output against the correctness gate and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones, from spans kept in memory and written to
``.perfbench_out/spans-<workload>-seed<seed>.csv``. The line before the
result holds the environment stamp and run details.

The gate: a cell fails if it aborts or raises, if its trace CSV differs
from the same cell's CSV in the first run of this process (sha256), if its
loss at w = 0 is not ln 2, if its final loss or training accuracy is off the
values in ``reference.json``, or (for the CLI) if ``main`` exits non-zero or
the manifest status is not ``ok``. Failures count in ``failed`` and
``ok_ratio``; they never stop the benchmark.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.worker import CLI_WORKLOAD, DATA, WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170.0  # the whole run, worker included, must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q, beyond=10):
    """Nearest-rank q-th percentile, defined only when at least ``beyond``
    samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < beyond:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has fewer than "
                         f"{beyond} samples beyond it")
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
# Methods whose final loss has no upper edge on seeds without recorded
# values: the inconsistent baseline forms curvature pairs across different
# samples and, under heavy node failure, diverges on some data sets (the
# paper's negative control). On 6 of 81 random data seeds it took one of
# its p=0.5 cells to a final loss of 1.3-8.0 and a training accuracy down to
# 0.11; three of those fell outside the band of the 32 recorded seeds.
UNSTABLE_METHODS = ("inconsistent_lbfgs",)


def check_values(reference, workload, size, seed, cell):
    """Why the cell's loss/accuracy is off its reference, or None.

    On every seed the first record, at w = 0, must have the logistic loss
    ln 2, and the final loss must be finite. Seeds with recorded values must
    match them within the tolerance; other seeds must fall inside the band
    the recorded seeds span, widened by the band margins. For the
    ``UNSTABLE_METHODS`` that band has only its lower loss edge.
    """
    table = reference["workloads"].get(workload, {}).get(size, {})
    tol = reference["tolerance"]
    name, loss, acc = cell["cell"], cell["final_loss"], cell["train_acc"]
    if not math.isclose(cell["first_loss"], math.log(2), rel_tol=1e-12):
        return f"loss at w = 0 is {cell['first_loss']!r}, not ln 2"
    if not math.isfinite(loss) or not 0.0 <= acc <= 1.0:
        return f"final_loss {loss!r} or train_acc {acc!r} out of range"
    exact = table.get(str(seed), {}).get(name)
    if exact is not None:
        if not math.isclose(loss, exact[0], rel_tol=tol["final_loss_rtol"], abs_tol=0.0):
            return f"final_loss {loss!r} differs from reference {exact[0]!r}"
        if abs(acc - exact[1]) > tol["train_acc_atol"]:
            return f"train_acc {acc!r} differs from reference {exact[1]!r}"
        return None
    recorded = [cells[name] for cells in table.values() if name in cells]
    if not recorded:
        return f"no reference values for {workload}/{size}/{name}"
    lo = min(r[0] for r in recorded) * (1 - tol["band_loss_rel"])
    hi = max(r[0] for r in recorded) * (1 + tol["band_loss_rel"])
    if name.startswith(UNSTABLE_METHODS):
        if loss < lo:
            return f"final_loss {loss!r} below the reference band's edge {lo!r}"
        return None
    if not lo <= loss <= hi:
        return f"final_loss {loss!r} outside the reference band [{lo!r}, {hi!r}]"
    if acc < min(r[1] for r in recorded) - tol["band_acc_abs"]:
        return f"train_acc {acc!r} below the reference band"
    return None


def gate(reps, reference, workload, size, seed):
    """(cells attempted, list of failures) over every run of the process."""
    first_digest, failures, attempted = {}, [], 0
    for i, rep in enumerate(reps):
        for cell in rep["cells"]:
            attempted += 1
            if cell["status"] != "ok":
                reason = cell["status"]
            elif first_digest.setdefault(cell["cell"], cell["digest"]) != cell["digest"]:
                reason = "trace CSV differs from the first run's"
            else:
                reason = check_values(reference, workload, size, seed, cell)
            if reason is not None:
                failures.append({"run": i, "cell": cell["cell"], "reason": reason})
    return attempted, failures


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def completed(rep):
    return all("epoch" in cell for cell in rep["cells"])


def best_case(reps):
    """Per-iteration minima over repeated identical runs, and the wall time
    of a run whose every iteration took its minimum.

    The runs of one process do the same work step for step (the gate checks
    their traces are byte-identical), so iteration k of every run is the
    same computation. Interference from other tenants of the host only ever
    slows a step down, and on a shared 2-core VM it moves whole-run times by
    10-30% for stretches of seconds to minutes; the fastest of the repeats
    of each step varies about half as much from one process to the next.
    Time outside the iterations (for the CLI: parsing, CSV and manifest
    writes) is taken as its minimum over the runs.
    """
    mins = [min(step) for step in zip(*(r["deltas"] for r in reps))]
    rest = min(r["wall"] - sum(r["deltas"]) for r in reps)
    return mins, sum(mins) + rest


def end_to_end(raw, attempted, failed):
    """Every end-to-end metric, from the untraced runs."""
    reps = [r for r in raw["reps"] if not r["traced"] and completed(r)]
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
        "wall_s": 0.0, "samples_per_s": 0.0, "final_loss": 0.0,
        "iter_ms.p50": 0.0, "iter_ms.p95": 0.0,
    }
    if not reps:  # all zero only when every run raised, which the gate reports
        return metrics, 0
    mins, wall = best_case(reps)
    cells = reps[0]["cells"]
    metrics["wall_s"] = wall
    metrics["samples_per_s"] = sum(c["epoch"] for c in cells) * raw["n"] / wall
    # the median, not the mean: the unstable inconsistent_lbfgs baseline blows
    # up to a loss of 2-14 in one CLI cell on 2 of the 32 recorded seeds
    metrics["final_loss"] = statistics.median(c["final_loss"] for c in cells)
    metrics["iter_ms.p50"] = percentile(mins, 50) * 1e3
    metrics["iter_ms.p95"] = percentile(mins, 95) * 1e3
    return metrics, len(mins)


def per_layer(raw):
    """Every per-layer metric, plus the tracing overhead: the best-case wall
    time of the traced runs over that of the untraced ones, minus 1."""
    metrics = dict(raw["layers"])
    reps = {flag: [r for r in raw["reps"] if r["traced"] is flag and completed(r)]
            for flag in (False, True)}
    metrics["trace_overhead_frac"] = (
        best_case(reps[True])[1] / best_case(reps[False])[1] - 1.0
        if reps[True] and reps[False] else 0.0)
    return metrics


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def last_level_cache_bytes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level and size:
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            sizes[int(level)] = int(size.rstrip("KMG")) * scale
    return sizes[max(sizes)] if sizes else None


def git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def source_digest():
    """sha256 over the package sources, which names the code version when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv=None):
    start = perf_counter()
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", default="full", choices=["full", "tiny"],
                   help="tiny runs the smoke-test sizes")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mblbfgs" / "__init__.py").is_file():
        print(f"error: no src/mblbfgs under {ROOT}; run from a checkout of the package",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    tag = f"{args.workload}-seed{args.seed}"
    run_dir = OUT / f"{tag}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
               "--size", args.size, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", str(run_dir), "--raw-out", str(run_dir / "raw.json")]
        if args.trace:
            cmd += ["--spans-out", str(OUT / f"spans-{tag}.csv")]
        if args.workload == CLI_WORKLOAD:
            from perfbench.fixture import write_libsvm
            n, d, nnz = DATA[WORKLOADS[args.workload]][args.size]
            fixture = run_dir / "data.libsvm"
            write_libsvm(fixture, n, d, nnz, seed=args.seed)
            cmd += ["--fixture", str(fixture)]
        env = {k: v for k, v in os.environ.items() if k != "MBLBFGS_OUT"}
        env.update(BLAS_ENV, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=TIME_LIMIT_S - (perf_counter() - start))
        except subprocess.TimeoutExpired:
            print("error: the worker did not finish in time", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: the worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        raw = json.loads((run_dir / "raw.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failures = gate(raw["reps"], reference, args.workload, args.size, args.seed)
    if args.trace:
        values, samples = per_layer(raw), None
        wanted = spec["per_layer"]
    else:
        values, samples = end_to_end(raw, attempted, len(failures))
        wanted = spec["end_to_end"]
    llc = last_level_cache_bytes()
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "env": {**raw["env"], "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
                "git_commit": git_commit(), "source_sha256": source_digest(),
                "llc_bytes": llc,
                "data_exceeds_4x_llc": None if None in (llc, raw["env"]["data_bytes"])
                else raw["env"]["data_bytes"] > 4 * llc},
        "setup_s": raw["setup_s"],
        "runs": [{"wall_s": r["wall"], "traced": r["traced"], "cells": len(r["cells"])}
                 for r in raw["reps"]],
        "iter_ms_samples": samples,
        "digests": {c["cell"]: c["digest"] for r in raw["reps"] for c in r["cells"]
                    if "digest" in c},
        "failures": failures[:20],
    }
    print(json.dumps({"perfbench_detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
