from dataclasses import fields, replace

import numpy as np
import pytest

from mblbfgs import ConfigurationError, RunConfig, StepSchedule, constant, experiment, run
from mblbfgs.experiment import (
    CSV_HEADER,
    GRID,
    MANIFEST_NAME,
    ExperimentSpec,
    cell_filename,
    run_experiment,
    trace_csv_lines,
)


def small_spec(out_dir, **overrides):
    """A small spec; the overrides that name a ``RunConfig`` field go to its
    base."""
    kwargs = dict(
        synthetic=(120, 8, 4, 0.5), data_seed=3, objective="logistic_l2",
        mode="strategy1", methods=["robust_lbfgs"], batch_fracs=[0.1],
        overlap_fracs=[0.2], schedules=[constant(0.2)], seeds=[0, 1],
        epochs=2.0, out_dir=str(out_dir),
    )
    kwargs.update(overrides)
    run_fields = {f.name for f in fields(RunConfig)}
    base = RunConfig(**{k: kwargs.pop(k) for k in list(kwargs) if k in run_fields})
    return ExperimentSpec(base=base, **kwargs)


class TestGrid:
    def test_grid_lists_left_out_sweep_the_base_values(self):
        base = RunConfig(method="multibatch_gd", batch_frac=0.1, schedule=constant(0.3),
                         seed=7, memory=4)
        spec = ExperimentSpec(synthetic=(120, 8, 4, 0.5), base=base, seeds=[7, 8])
        assert list(spec.cells()) == [base, replace(base, seed=8)]

    @pytest.mark.parametrize("name", GRID)
    def test_an_empty_grid_list_is_refused(self, name):
        spec = ExperimentSpec(synthetic=(120, 8, 4, 0.5), **{name + "s": []})
        with pytest.raises(ConfigurationError, match=f"grid list {name}s is empty"):
            list(spec.cells())

    def test_two_seeds_two_csvs_plus_manifest(self, tmp_path):
        result = run_experiment(small_spec(tmp_path / "out"))
        assert len(result.csv_paths) == 2
        assert result.manifest_path.exists()
        names = [p.name for p in result.csv_paths]
        assert names == [
            "robust_lbfgs_r0.1_o0.2_a0.2_p0_s0.csv",
            "robust_lbfgs_r0.1_o0.2_a0.2_p0_s1.csv",
        ]

    def test_figure_grid_shape(self, tmp_path):
        # 2 alphas x 3 batch fractions, o = 20%: six files per method
        spec = small_spec(
            tmp_path / "out",
            methods=["robust_lbfgs", "multibatch_gd"],
            batch_fracs=[0.05, 0.1, 0.2],
            schedules=[constant(1.0), constant(0.1)],
            seeds=[0],
            epochs=1.0,
        )
        result = run_experiment(spec)
        per_method = {}
        for p in result.csv_paths:
            per_method.setdefault(p.name.split("_r")[0], []).append(p)
        assert {k: len(v) for k, v in per_method.items()} == {
            "robust_lbfgs": 6, "multibatch_gd": 6}

    def test_manifest_covers_grid(self, tmp_path):
        spec = small_spec(tmp_path / "out", seeds=[4, 5, 6])
        result = run_experiment(spec)
        lines = result.manifest_path.read_text().strip().splitlines()
        assert lines[0].startswith("# mblbfgs-v")
        assert lines[1] == "filename,method,mode,r,o,alpha,p,seed,status"
        assert len(lines) == 2 + 3
        for line, cfg in zip(lines[2:], spec.cells()):
            assert line.startswith(cell_filename(cfg))
            assert line.endswith(",ok")


class TestCsvContract:
    def test_header_and_finiteness(self, tmp_path):
        result = run_experiment(small_spec(tmp_path / "out"))
        text = result.csv_paths[0].read_text().splitlines()
        assert text[0] == CSV_HEADER
        rows = np.array([line.split(",") for line in text[1:]], dtype=np.float64)
        assert rows.shape[1] == 10
        assert np.all(np.isfinite(rows))
        epochs = rows[:, 1]
        assert np.all(np.diff(epochs) >= 0)
        ks = rows[:, 0]
        assert np.array_equal(ks, np.arange(rows.shape[0]))

    @pytest.mark.parametrize("overrides", [
        {},
        dict(batch_fracs=[1.0], methods=["robust_lbfgs", "multibatch_gd"], epochs=4.0),
        dict(mode="fault", fail_probs=[0.1, 0.5], nodes=4, reshard_each_epoch=True,
             epochs=4.0),
    ], ids=["strategy1", "strategy1_full", "fault_reshard"])
    def test_rerun_byte_identical(self, tmp_path, overrides):
        spec = small_spec(tmp_path / "a", **overrides)
        r1 = run_experiment(spec)
        r2 = run_experiment(replace(spec, out_dir=str(tmp_path / "b")))
        cells = list(spec.cells())
        assert len(r1.csv_paths) == len(r2.csv_paths) == len(cells) > 1
        for p1, p2 in zip(r1.csv_paths, r2.csv_paths):
            assert p1.read_bytes() == p2.read_bytes()
        assert r1.manifest_path.read_bytes() == r2.manifest_path.read_bytes()
        # the grid shares one objective, whose kept rows and margins outlive
        # a cell; each cell still reads as a run on a fresh objective
        for config, path in zip(cells, r1.csv_paths):
            trace = run(config, spec.load_objective())
            assert path.read_text() == "".join(f"{line}\n" for line in trace_csv_lines(trace))

    def test_aborted_cell_recorded_and_others_continue(self, tmp_path):
        spec = small_spec(
            tmp_path / "out", objective="quadratic",
            schedules=[constant(50.0), constant(0.2)], seeds=[0],
            mode="strategy2", batch_fracs=[1.0], epochs=50.0,
        )
        result = run_experiment(spec)
        statuses = dict(result.statuses)
        assert len(statuses) == 2
        assert any(s.startswith("aborted") for s in statuses.values())
        assert any(s == "ok" for s in statuses.values())
        assert result.aborted_cells >= 1
        for p in result.csv_paths:
            assert p.exists() and p.stat().st_size > 0

    def test_first_evaluation_failure_aborts_only_its_cell(self, tmp_path, monkeypatch):
        # seed 1 starts where ||w||^2 overflows, so its k=0 batch fails
        def run_with_bad_start(config, objective):
            if config.seed == 1:
                config = replace(config, w0=np.full(objective.d, 1e300))
            with np.errstate(over="ignore"):
                return run(config, objective)

        monkeypatch.setattr(experiment, "run", run_with_bad_start)
        result = run_experiment(small_spec(tmp_path / "out", objective="quadratic",
                                           seeds=[0, 1, 2]))
        statuses = dict(result.statuses)
        assert statuses["robust_lbfgs_r0.1_o0.2_a0.2_p0_s1.csv"].startswith(
            "aborted:numeric: non-finite evaluation")
        assert result.aborted_cells == 1
        manifest = result.manifest_path.read_text().splitlines()
        assert [row.rsplit(",", 1)[1][:15] for row in manifest[2:]] == [
            "ok", "aborted:numeric", "ok"]
        for name in ("s0", "s2"):
            lines = (result.out_dir / f"robust_lbfgs_r0.1_o0.2_a0.2_p0_{name}.csv"
                     ).read_text().splitlines()
            assert lines[0] == CSV_HEADER and len(lines) > 2

    def test_interrupted_grid_leaves_whole_csvs_that_the_manifest_lists(
            self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path / "whole", methods=["robust_lbfgs", "multibatch_gd"])
        whole = run_experiment(spec)
        names = [name for name, _ in whole.statuses]
        manifest = whole.manifest_path.read_text().splitlines(keepends=True)
        assert len(names) == 4
        for k in range(len(names)):
            started = []

            def run_until_cell_k(config, objective):
                if len(started) == k:
                    raise KeyboardInterrupt
                started.append(config)
                return run(config, objective)

            monkeypatch.setattr(experiment, "run", run_until_cell_k)
            out = tmp_path / f"cut{k}"
            with pytest.raises(KeyboardInterrupt):
                run_experiment(replace(spec, out_dir=str(out)))
            assert (out / MANIFEST_NAME).read_text() == "".join(manifest[:2 + k])
            assert sorted(p.name for p in out.iterdir()) == sorted([MANIFEST_NAME, *names[:k]])
            for name in names[:k]:
                assert (out / name).read_bytes() == (whole.out_dir / name).read_bytes()

    def test_a_failed_csv_write_leaves_no_file_under_its_name(self, tmp_path, monkeypatch):
        def run_with_bad_last_record(config, objective):
            trace = run(config, objective)
            if config.seed == 1:
                trace.records[-1].full_loss = "not a number"  # the CSV writer raises here
            return trace

        monkeypatch.setattr(experiment, "run", run_with_bad_last_record)
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            run_experiment(small_spec(out, seeds=[0, 1, 2]))
        # the cut CSV keeps its temporary name
        assert sorted(p.name for p in out.iterdir()) == [
            MANIFEST_NAME, "robust_lbfgs_r0.1_o0.2_a0.2_p0_s0.csv",
            "robust_lbfgs_r0.1_o0.2_a0.2_p0_s1.csv.tmp"]
        rows = (out / MANIFEST_NAME).read_text().splitlines()[2:]
        assert [row.split(",", 1)[0] for row in rows] == [
            "robust_lbfgs_r0.1_o0.2_a0.2_p0_s0.csv"]

    def test_env_var_does_not_override_out_dir(self, tmp_path, monkeypatch):
        # MBLBFGS_OUT once replaced even an explicit out_dir; the spec's
        # directory is now the only one
        env_out, out = tmp_path / "env_out", tmp_path / "out"
        monkeypatch.setenv("MBLBFGS_OUT", str(env_out))
        result = run_experiment(small_spec(out))
        assert result.out_dir == out
        assert all(p.parent == out for p in result.csv_paths)
        assert not env_out.exists()


class TestNaming:
    def test_schedule_labels(self, tmp_path):
        spec = small_spec(
            tmp_path / "out",
            schedules=[StepSchedule("diminishing", 0.5),
                       StepSchedule("sqrt_horizon", 2.0, 100)],
            seeds=[0], epochs=0.5,
        )
        result = run_experiment(spec)
        names = sorted(p.name for p in result.csv_paths)
        assert names == [
            "robust_lbfgs_r0.1_o0.2_adim0.5_p0_s0.csv",
            "robust_lbfgs_r0.1_o0.2_asqrt2-100_p0_s0.csv",
        ]

    def test_fault_grid_includes_p(self, tmp_path):
        spec = small_spec(tmp_path / "out", mode="fault",
                          fail_probs=[0.1, 0.4], seeds=[0], epochs=1.0,
                          batch_fracs=[0.1])
        spec.base.nodes = 4
        result = run_experiment(spec)
        names = sorted(p.name for p in result.csv_paths)
        assert names == [
            "robust_lbfgs_r0.1_o0.2_a0.2_p0.1_s0.csv",
            "robust_lbfgs_r0.1_o0.2_a0.2_p0.4_s0.csv",
        ]

    def test_fault_grid_ignores_r_and_o(self, tmp_path):
        # fault mode reads neither r nor o: one cell per (method, step, p, seed)
        spec = small_spec(tmp_path / "out", mode="fault",
                          methods=["robust_lbfgs", "multibatch_gd"],
                          batch_fracs=[0.1, 0.3], overlap_fracs=[0.2, 0.4],
                          fail_probs=[0.1, 0.4], seeds=[0, 1])
        cells = list(spec.cells())
        assert len(cells) == 2 * 2 * 2
        assert {(c.batch_frac, c.overlap_frac) for c in cells} == {(0.1, 0.2)}
        keys = [(c.method, c.fail_prob, c.seed) for c in cells]
        assert len(set(keys)) == len(keys)

    def test_serial_sgd_runs_once_per_step_and_seed(self, tmp_path):
        # serial SGD reads none of r, o and p: one cell per (step, seed)
        spec = small_spec(tmp_path / "out",
                          methods=["robust_lbfgs", "serial_sgd"],
                          batch_fracs=[0.01, 0.05], overlap_fracs=[0.2, 0.4],
                          schedules=[constant(0.2), constant(0.1)], seeds=[0, 1])
        cells = list(spec.cells())
        serial = [c for c in cells if c.method == "serial_sgd"]
        assert len(cells) - len(serial) == 2 * 2 * 2 * 2
        assert len(serial) == 2 * 2
        assert {(c.batch_frac, c.overlap_frac, c.fail_prob) for c in serial} == {
            (0.01, 0.2, 0.0)}
        names = [cell_filename(c) for c in serial]
        assert names == [
            "serial_sgd_r0.01_o0.2_a0.2_p0_s0.csv",
            "serial_sgd_r0.01_o0.2_a0.2_p0_s1.csv",
            "serial_sgd_r0.01_o0.2_a0.1_p0_s0.csv",
            "serial_sgd_r0.01_o0.2_a0.1_p0_s1.csv",
        ]

    def test_fault_grid_runs_serial_sgd_once_per_step_and_seed(self, tmp_path):
        spec = small_spec(tmp_path / "out", mode="fault", methods=["serial_sgd"],
                          fail_probs=[0.1, 0.4], seeds=[0, 1])
        assert [(c.fail_prob, c.seed) for c in spec.cells()] == [(0.1, 0), (0.1, 1)]

    def test_non_fault_grid_sweeps_r_and_o(self, tmp_path):
        spec = small_spec(tmp_path / "out", batch_fracs=[0.1, 0.3],
                          overlap_fracs=[0.2, 0.4], fail_probs=[0.1, 0.4],
                          seeds=[0])
        cells = list(spec.cells())
        assert len(cells) == 4
        assert {c.fail_prob for c in cells} == {0.0}
