"""Experiment grids: an ``ExperimentSpec`` sweeps grid lists over one base
``RunConfig``, the one home of every run parameter and its default. Each
cell is run, its CSV moved into place whole and its manifest row appended
and flushed before the next, so an interrupted grid leaves whole CSVs that
the manifest lists, and at most one ``*.csv.tmp``. Reruns are byte-identical."""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

from . import __version__
from .dataio import make_synthetic, parse_libsvm
from .driver import RunConfig, RunTrace, TraceRecord, run
from .errors import ConfigurationError
from .objectives import make_objective

# (name, conversion, text) of every TraceRecord field but the wall clock,
# which no rerun repeats: the repr of a float, the str of an int
_COLUMNS = [(f.name, *{"float": (float, repr), "int": (int, str)}[f.type])
            for f in fields(TraceRecord) if f.name != "wallclock"]
CSV_HEADER = ",".join(name for name, _, _ in _COLUMNS)

MANIFEST_NAME = "experiment_manifest.txt"


def version_string() -> str:
    return f"mblbfgs-v{__version__}"


GRID = ("method", "batch_frac", "overlap_frac", "schedule", "fail_prob", "seed")


@dataclass
class ExperimentSpec:
    """A sweep of one grid list per ``GRID`` field of ``base``, which holds
    every other run parameter. A list left as ``None`` sweeps the one value
    ``base`` holds; an empty list is a ``ConfigurationError``."""

    dataset_path: str | None = None
    synthetic: tuple | None = None  # (n, d, nnz, margin), seeded by data_seed
    data_seed: int = 0
    objective: str = "logistic_l2"
    sigma: float | None = None
    base: RunConfig = field(default_factory=RunConfig)
    methods: list | None = None
    batch_fracs: list | None = None
    overlap_fracs: list | None = None
    schedules: list | None = None
    fail_probs: list | None = None
    seeds: list | None = None
    out_dir: str = "runs"

    def _sweep(self, name: str) -> list:
        """The values of the grid list ``name + "s"`` of RunConfig field ``name``."""
        values = getattr(self, name + "s")
        return [getattr(self.base, name)] if values is None else list(values)

    def validate(self):
        if self.dataset_path is None and self.synthetic is None:
            raise ConfigurationError("either a dataset path or synthetic parameters are required")
        for name in GRID:
            if not self._sweep(name):
                raise ConfigurationError(f"grid list {name}s is empty")

    def load_objective(self):
        if self.dataset_path is not None:
            dataset = parse_libsvm(self.dataset_path)
        else:
            n, d, nnz, margin = self.synthetic
            dataset = make_synthetic(n, d, nnz, seed=self.data_seed,
                                     separable_margin=margin)
        return make_objective(self.objective, dataset, self.sigma)

    def cells(self):
        """The grid product, in a fixed order, as copies of ``base``.

        Fault mode reads neither r nor o, so it takes only the first of each
        instead of rerunning identical cells under other names; the other
        modes ignore p. Serial SGD reads none of r, o and p, so it runs once
        per (step, seed) with the first of each.
        """
        self.validate()
        methods, r_list, o_list, schedules, p_list, seeds = map(self._sweep, GRID)
        if self.base.mode == "fault":
            r_list, o_list = r_list[:1], o_list[:1]
        else:
            p_list = [0.0]
        for method in methods:
            if method == "serial_sgd":
                axes = (r_list[:1], o_list[:1], schedules, p_list[:1], seeds)
            else:
                axes = (r_list, o_list, schedules, p_list, seeds)
            for r, o, sched, p, seed in itertools.product(*axes):
                yield replace(self.base, method=method, batch_frac=r, overlap_frac=o,
                              schedule=sched, fail_prob=p, seed=seed)


def _cell_labels(config: RunConfig) -> list:
    """The r, o, alpha, p and seed strings of a cell's file name and manifest row."""
    return [f"{config.batch_frac:g}", f"{config.overlap_frac:g}", config.schedule.label(),
            f"{config.fail_prob:g}", str(config.seed)]


def cell_filename(config: RunConfig) -> str:
    r, o, alpha, p, seed = _cell_labels(config)
    return f"{config.method}_r{r}_o{o}_a{alpha}_p{p}_s{seed}.csv"


def trace_csv_lines(trace: RunTrace):
    yield CSV_HEADER
    columns = [map(text, map(kind, map(attrgetter(name), trace.records)))
               for name, kind, text in _COLUMNS]
    yield from map(",".join, zip(*columns))


def write_trace_csv(trace: RunTrace, path) -> None:
    """Write ``trace`` to ``path`` whole: to ``<path>.tmp``, then moved into place."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in trace_csv_lines(trace))
    os.replace(tmp, path)


@dataclass
class ExperimentResult:
    out_dir: Path
    manifest_path: Path
    csv_paths: list
    statuses: list  # (filename, status) per cell
    aborted_cells: int


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every grid cell, writing its CSV; cell aborts are recorded in the
    manifest and the remaining cells still run."""
    cells = list(spec.cells())
    objective = spec.load_objective()  # a data error leaves no directory behind
    for config in cells:  # nor does a bad grid value
        config.validate(objective.n)
    names = [cell_filename(config) for config in cells]
    # nor do two cells that would write one file
    shared = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if shared is not None:
        raise ConfigurationError(f"two grid cells share the file name {shared}")
    out_dir = Path(spec.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot make the output directory {out_dir}: {exc}") from None

    manifest_path = out_dir / MANIFEST_NAME
    statuses = []
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as manifest:
        manifest.write(f"# {version_string()}\nfilename,method,mode,r,o,alpha,p,seed,status\n")
        manifest.flush()
        for name, config in zip(names, cells):
            trace = run(config, objective)
            write_trace_csv(trace, out_dir / name)
            status = "ok" if trace.aborted is None else f"aborted:{trace.aborted}"
            statuses.append((name, status))
            manifest.write(",".join([name, config.method, config.mode,
                                     *_cell_labels(config), status]) + "\n")
            manifest.flush()
    return ExperimentResult(out_dir, manifest_path, [out_dir / name for name, _ in statuses],
                            statuses, sum(status != "ok" for _, status in statuses))
