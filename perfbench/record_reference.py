"""Record the final loss and training accuracy that the correctness gate
compares each cell against.

    PYTHONPATH=src python3 -m perfbench.record_reference --size full --seeds 0-31

Run from the root of the checkout. It runs every workload once per seed and
rewrites those entries of ``perfbench/reference.json``. Re-record only for a
change that is meant to alter the optimizer's trajectories, and say so in
the change.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = HERE.parent / ".perfbench_out"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def dumps(reference):
    """JSON with one line per workload, size and seed."""
    lines = ["{", f' "tolerance": {json.dumps(reference["tolerance"], sort_keys=True)},',
             ' "workloads": {']
    workloads = sorted(reference["workloads"].items())
    for i, (workload, sizes) in enumerate(workloads):
        lines.append(f"  {json.dumps(workload)}: {{")
        for j, (size, seeds) in enumerate(sorted(sizes.items())):
            lines.append(f"   {json.dumps(size)}: {{")
            ordered = sorted(seeds.items(), key=lambda kv: int(kv[0]))
            for k, (seed, cells) in enumerate(ordered):
                comma = "," if k < len(ordered) - 1 else ""
                lines.append(f"    {json.dumps(seed)}: {json.dumps(cells, sort_keys=True)}{comma}")
            lines.append("   }" + ("," if j < len(sizes) - 1 else ""))
        lines.append("  }" + ("," if i < len(workloads) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main(argv=None):
    p = argparse.ArgumentParser(prog="perfbench.record_reference")
    p.add_argument("--size", default="full", choices=["full", "tiny"])
    p.add_argument("--seeds", type=seed_range, required=True, help="a seed or a range lo-hi")
    p.add_argument("--workload", action="append", help="repeatable; default all")
    args = p.parse_args(argv)
    # the benchmark's worker runs with one BLAS thread; record under the same
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    import mblbfgs
    import mblbfgs.cli  # noqa: F401

    from perfbench import worker
    from perfbench.fixture import write_libsvm

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    for workload in args.workload or list(worker.WORKLOADS):
        table = reference["workloads"].setdefault(workload, {}).setdefault(args.size, {})
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                fixture = None
                if workload == worker.CLI_WORKLOAD:
                    fixture = Path(tmp) / "data.libsvm"
                    write_libsvm(fixture, *worker.DATA[worker.WORKLOADS[workload]][args.size],
                                 seed=seed)
                    _, cells, _ = worker.run_cli(mblbfgs, fixture, Path(tmp) / "cli")
                else:
                    objective = worker.setup(mblbfgs, workload, args.size, seed, None)
                    _, cells, _ = worker.run_library(mblbfgs, workload, objective, seed)
            bad = [c for c in cells if c["status"] != "ok"]
            if bad:
                sys.exit(f"{workload} seed {seed}: {bad[0]['cell']} {bad[0]['status']}")
            table[str(seed)] = {c["cell"]: [c["final_loss"], c["train_acc"]] for c in cells}
            print(workload, seed, flush=True)
    REFERENCE.write_text(dumps(reference), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
