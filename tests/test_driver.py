import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mblbfgs import (
    ConfigurationError,
    LbfgsMemory,
    NumericError,
    RunConfig,
    SeededRng,
    StepSchedule,
    UsageError,
    constant,
    curvature_diagnostics,
    diminishing,
    logistic_l2,
    make_synthetic,
    quadratic,
    run,
    sqrt_horizon,
    take_step,
)
from mblbfgs import driver
from mblbfgs.driver import _average
from mblbfgs.objectives import Objective
from mblbfgs.sampling import SERIAL_BLOCK

from conftest import random_admitted_memory, record_evaluations
from test_objectives import dataset_from_rows


class TestSchedules:
    def test_diminishing(self):
        sched = diminishing(1.0)
        assert sched.alpha_at(0) == 1.0
        assert sched.alpha_at(9) == pytest.approx(0.1)

    def test_sqrt_horizon(self):
        sched = sqrt_horizon(2.0, 100)
        for k in (0, 5, 1000):
            assert sched.alpha_at(k) == pytest.approx(0.2)

    def test_constant(self):
        sched = constant(0.1)
        assert all(sched.alpha_at(k) == 0.1 for k in range(5))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StepSchedule("constant", -1.0)
        with pytest.raises(ConfigurationError):
            StepSchedule("sqrt_horizon", 1.0)  # missing tau
        with pytest.raises(ConfigurationError):
            StepSchedule("linear", 1.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 2.5, 0])
    def test_sqrt_horizon_tau_is_an_integer_of_at_least_one(self, tau):
        # NaN and infinity passed the tau < 1 test: alpha NaN, or 0 forever
        with pytest.raises(ConfigurationError, match="tau"):
            sqrt_horizon(1.0, tau)


class TestTakeStep:
    def test_empty_memory_is_gradient_descent(self):
        mem = LbfgsMemory(5)
        w = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        out = take_step(w, mem, g, 0.2)
        assert np.allclose(out, w - 0.2 * g)

    def test_zero_alpha_keeps_iterate(self):
        mem = LbfgsMemory(5)
        w = np.array([1.0, -1.0])
        assert np.array_equal(take_step(w, mem, np.array([3.0, 4.0]), 0.0), w)

    def test_identity_hessian_ignores_memory(self):
        mem = LbfgsMemory(5)
        mem.admit(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        w = np.zeros(2)
        g = np.array([1.0, 1.0])
        assert np.allclose(take_step(w, mem, g, 1.0, identity_hessian=True), -g)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        mem = LbfgsMemory(6)
        for _ in range(6):
            s = rng.standard_normal(10)
            mem.admit(s, rng.uniform(0.5, 2.0) * s)
        w, g = rng.standard_normal(10), rng.standard_normal(10)
        expected = w - 0.3 * (mem.dense_inverse() @ g)
        got = take_step(w, mem, g, 0.3)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


class TestRunLoop:
    def test_zero_epochs_only_initial_record(self, small_logistic):
        cfg = RunConfig(method="robust_lbfgs", mode="strategy1",
                        batch_frac=0.1, overlap_frac=0.2,
                        schedule=constant(0.1), epochs=0.0, seed=0)
        trace = run(cfg, small_logistic)
        assert len(trace.records) == 1
        assert trace.records[0].k == 0

    @pytest.mark.parametrize("mode", ["strategy1", "strategy2"])
    def test_zero_batch_fraction_raises_a_configuration_error(self, small_logistic,
                                                              mode):
        # the trace stride divided by it first and raised ZeroDivisionError
        with pytest.raises(ConfigurationError, match="batch fraction"):
            run(RunConfig(mode=mode, batch_frac=0.0), small_logistic)

    @pytest.mark.parametrize("fields,match", [
        (dict(batch_frac="0.1"), "batch fraction"),
        (dict(overlap_frac="0.2"), "overlap fraction"),
        (dict(mode="strategy2", batch_frac=None), "batch fraction"),
        (dict(mode="fault", fail_prob="0.1"), "failure probability"),
        (dict(mode="fault", nodes=2.5), "node count"),
        (dict(mode="fault", nodes="4"), "node count"),
        (dict(max_iterations=-1), "max_iterations"),
        (dict(max_iterations=2.5), "max_iterations"),
        (dict(grad_tol=float("nan")), "grad_tol"),
        (dict(grad_tol=-1.0), "grad_tol"),
        (dict(grad_tol="0"), "grad_tol"),
        (dict(epochs="10"), "epochs"),
        (dict(epochs=None), "epochs"),
        # a bare step length raised AttributeError at step 0
        (dict(schedule=0.1), "StepSchedule"),
        (dict(schedule="constant:0.1"), "StepSchedule"),
        # a string or None read as a reshard switch by its truth value
        (dict(mode="fault", reshard_each_epoch="yes"), "reshard_each_epoch"),
        (dict(mode="fault", reshard_each_epoch="no"), "reshard_each_epoch"),
        (dict(reshard_each_epoch=None), "reshard_each_epoch"),
        # w0 raised a bare ValueError from the run, or a UsageError from its
        # first evaluation; d is 5 here
        (dict(w0="abc"), "w0"),
        (dict(w0=np.zeros(4)), "w0"),
        (dict(w0=np.zeros((5, 1))), "w0"),
        (dict(w0=np.zeros(5, dtype=complex)), "w0"),
        (dict(w0=[0.0, [1.0]]), "w0"),
        (dict(w0=1.0), "w0"),
    ])
    def test_bad_typed_run_fields_raise_a_configuration_error(self, fields, match):
        # these raised a bare TypeError, or passed and misbehaved in the run
        with pytest.raises(ConfigurationError, match=match):
            RunConfig(**fields).validate(100, 5)

    @pytest.mark.parametrize("method", ["robust_lbfgs", "serial_sgd"])
    @pytest.mark.parametrize("stride", [0, -5])
    def test_trace_stride_below_one_raises_a_configuration_error(
            self, small_logistic, method, stride):
        # it was clamped to 1: a full evaluation every iteration
        with pytest.raises(ConfigurationError, match="trace stride"):
            run(RunConfig(method=method, trace_stride=stride), small_logistic)

    @pytest.mark.parametrize("method,mode", [
        ("robust_lbfgs", "strategy1"),
        ("robust_lbfgs", "strategy2"),
        ("robust_lbfgs", "fault"),
        ("inconsistent_lbfgs", "strategy1"),
        ("multibatch_gd", "strategy1"),
        ("serial_sgd", "strategy1"),
    ])
    def test_replay_bit_identical(self, small_logistic, method, mode):
        cfg = RunConfig(method=method, mode=mode, batch_frac=0.1,
                        overlap_frac=0.2, nodes=4, fail_prob=0.25,
                        schedule=constant(0.2), epochs=2.0, seed=3)
        t1 = run(cfg, small_logistic)
        t2 = run(cfg, small_logistic)
        assert len(t1.records) == len(t2.records)
        for a, b in zip(t1.records, t2.records):
            assert a.k == b.k and a.epoch == b.epoch
            assert a.grad_norm == b.grad_norm
            assert a.subset_loss == b.subset_loss
            assert a.full_loss == b.full_loss
            assert a.pair_accepted == b.pair_accepted
            assert a.sample_size == b.sample_size
            assert a.overlap_size == b.overlap_size
        assert np.array_equal(t1.final_w, t2.final_w)

    def test_full_batch_quadratic_monotone_descent(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(40, 6))
        obj = quadratic(dataset_from_rows(rows, [1] * 40, 6))
        cfg = RunConfig(method="robust_lbfgs", mode="strategy2",
                        batch_frac=1.0, overlap_frac=0.2,
                        schedule=constant(0.2), epochs=30.0, seed=0,
                        trace_stride=1)
        trace = run(cfg, obj)
        losses = trace.column("full_loss")
        assert np.all(np.diff(losses) <= 1e-12)
        assert losses[-1] < losses[0]

    def test_gd_direction_is_negative_gradient(self, small_logistic):
        # one gd iteration reproduces w1 = w0 - a * gS computed by hand
        cfg = RunConfig(method="multibatch_gd", mode="strategy2",
                        batch_frac=1.0, overlap_frac=0.2,
                        schedule=constant(0.3), epochs=float("inf"),
                        max_iterations=1, seed=5)
        trace = run(cfg, small_logistic)
        g0 = small_logistic.eval_full(np.zeros(small_logistic.d)).gradient
        assert np.allclose(trace.final_w, -0.3 * g0, atol=1e-14)

    def test_divergence_abort_preserves_partial_trace(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(30, 4)) + 5.0
        obj = quadratic(dataset_from_rows(rows, [1] * 30, 4))
        cfg = RunConfig(method="multibatch_gd", mode="strategy2",
                        batch_frac=1.0, overlap_frac=0.2,
                        schedule=constant(10.0), epochs=200.0, seed=0,
                        trace_stride=1)
        trace = run(cfg, obj)
        assert trace.aborted == "divergence"
        assert len(trace.records) >= 2
        assert trace.records[-1].full_loss > 1e6 * trace.records[0].full_loss

    @pytest.mark.parametrize("method", ["robust_lbfgs", "serial_sgd"])
    def test_numeric_failure_at_first_evaluation_aborts(self, method):
        obj = quadratic(make_synthetic(50, 4, 2, seed=0))
        cfg = RunConfig(method=method, mode="strategy2", batch_frac=0.5,
                        w0=np.full(4, 1e300), seed=0)
        with np.errstate(over="ignore"):
            trace = run(cfg, obj)
        assert trace.aborted.startswith("numeric: non-finite evaluation")
        assert trace.records == []
        assert np.array_equal(trace.final_w, cfg.w0)

    def test_regularization_overflow_aborts_the_run(self):
        # the per-example sums are finite at w0, but ||w0||^2 overflows
        obj = logistic_l2(make_synthetic(50, 4, 2, seed=0))
        cfg = RunConfig(w0=np.full(4, 1e300), batch_frac=0.5, epochs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(cfg, obj)
        assert trace.aborted.startswith("numeric: ")
        assert "regularization" in trace.aborted
        assert trace.records == []

    def test_serial_sgd_descends(self, small_logistic):
        cfg = RunConfig(method="serial_sgd", schedule=constant(0.5),
                        epochs=30.0, seed=0)
        trace = run(cfg, small_logistic)
        assert trace.records[-1].sample_size == 1
        assert trace.records[-1].epoch == pytest.approx(30.0, abs=1e-9)
        assert trace.records[-1].grad_norm < trace.records[0].grad_norm

    def test_serial_sgd_grad_tol_stops_at_first_record(self, small_logistic):
        cfg = RunConfig(method="serial_sgd", schedule=constant(0.5),
                        epochs=1.0, grad_tol=1e9, seed=0)
        trace = run(cfg, small_logistic)
        assert [r.k for r in trace.records] == [0]
        assert trace.aborted is None
        assert isinstance(trace.final_memory, LbfgsMemory)
        assert len(trace.final_memory) == 0

    def test_serial_sgd_gathers_each_block_of_draws_once(self, small_logistic, monkeypatch):
        # 3000 one-row steps read three blocks of SERIAL_BLOCK draws; each
        # is gathered once, at its first step, and no more rows than that
        gathered, gather = [], Objective._gather
        monkeypatch.setattr(Objective, "_gather",
                            lambda self, rows: gathered.append(rows) or gather(self, rows))
        cfg = RunConfig(method="serial_sgd", schedule=constant(0.5), epochs=math.inf,
                        max_iterations=2999, seed=0)
        trace = run(cfg, logistic_l2(small_logistic.dataset))
        assert trace.aborted is None and len(trace.records) == 3000
        assert [rows.size for rows in gathered] == [SERIAL_BLOCK] * 3

    @pytest.mark.parametrize("w0", ["abc", [0.0, 1.0]])
    def test_bad_w0_is_refused_before_the_run(self, small_logistic, w0):
        with pytest.raises(ConfigurationError, match="w0"):
            run(RunConfig(w0=w0), small_logistic)

    def test_w0_of_integers_starts_at_their_values(self, small_logistic):
        d = small_logistic.d
        cfg = RunConfig(max_iterations=0, w0=list(range(d)))
        trace = run(cfg, small_logistic)
        assert trace.aborted is None
        assert np.array_equal(trace.final_w, np.arange(d, dtype=np.float64))

    def test_serial_sgd_non_finite_step_aborts(self):
        # the first step overflows: w = 0 - 1e308 * (0 - 10)
        obj = quadratic(dataset_from_rows(np.full((20, 3), 10.0), [1] * 20, 3))
        cfg = RunConfig(method="serial_sgd", schedule=constant(1e308),
                        epochs=1.0, seed=0)
        with np.errstate(over="ignore"):
            trace = run(cfg, obj)
        assert trace.aborted == "numeric: step produced a non-finite iterate"
        assert [r.k for r in trace.records] == [0]
        assert np.array_equal(trace.final_w, np.zeros(3))

    def test_serial_sgd_blown_up_batch_loss_forces_full_evaluation(self):
        # the iterate grows ninefold per step; a full evaluation is due only
        # every 1000 steps, so only the confirming one can catch the blow-up
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(30, 4)) + 5.0
        obj = quadratic(dataset_from_rows(rows, [1] * 30, 4))
        cfg = RunConfig(method="serial_sgd", schedule=constant(10.0),
                        epochs=100.0, max_iterations=50, trace_stride=1000,
                        seed=0)
        trace = run(cfg, obj)
        assert trace.aborted == "divergence"
        last = trace.records[-1]
        assert last.k < 50
        assert last.full_loss > 1e6 * trace.records[0].full_loss
        assert last.grad_norm > trace.records[0].grad_norm

    def test_grad_tol_stops_early(self, sep_logistic):
        cfg = RunConfig(method="robust_lbfgs", mode="strategy2",
                        batch_frac=1.0, overlap_frac=0.2,
                        schedule=constant(1.0), epochs=float("inf"),
                        max_iterations=300, trace_stride=1, grad_tol=1e-8,
                        seed=0)
        trace = run(cfg, sep_logistic)
        assert trace.records[-1].grad_norm <= 1e-8
        assert len(trace.records) < 300


class TestAbortSites:
    # the calls each site makes, in order, at trace_stride=2:
    #   eval_sums (strategy 1): batch 0, batch 1, batch 2, ...
    #   eval_sums (strategy 2): batch 0, then batch k with its extra overlap
    #                           part O_k in one call: 1, 2, ...
    #   eval_full: iterate 0, iterate 2, iterate 4, ...
    #   take_step: the step from iterate 0, 1, 2, ...
    @pytest.mark.parametrize("site,owner,name,mode,nth,records,j", [
        # iterate 2's batch fails: the trace ends at iterate 1
        ("batch", Objective, "eval_sums", "strategy1", 3, 2, 1),
        # iterate 2's one call, which also evaluates its extra overlap
        # part, fails: back to iterate 1
        ("extra overlap", Objective, "eval_sums", "strategy2", 3, 2, 1),
        # iterate 2's full evaluation fails: the run keeps iterate 2 but
        # has no record of it
        ("metrology", Objective, "eval_full", "strategy1", 2, 2, 2),
        # the step from iterate 2 fails: the trace ends at iterate 2
        ("step", driver, "take_step", "strategy1", 3, 3, 2),
    ], ids=["batch", "extra_overlap", "metrology", "step"])
    def test_numeric_failure_keeps_the_trace_up_to_its_site(
            self, small_logistic, monkeypatch, site, owner, name, mode, nth,
            records, j):
        cfg = RunConfig(method="robust_lbfgs", mode=mode, batch_frac=0.1,
                        overlap_frac=0.2, schedule=constant(0.2), epochs=10.0,
                        trace_stride=2, seed=1)
        real, calls = getattr(owner, name), []

        def failing(*args, **kwargs):
            calls.append(name)
            if len(calls) == nth:
                raise NumericError(f"injected at the {site}")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, failing)
        trace = run(cfg, small_logistic)
        monkeypatch.undo()
        assert trace.aborted == f"numeric: injected at the {site}"
        assert [r.k for r in trace.records] == list(range(records))
        reference = run(replace(cfg, max_iterations=j), small_logistic)
        assert reference.aborted is None
        assert np.array_equal(trace.final_w, reference.final_w)

    @pytest.mark.parametrize("mode", ["strategy1", "strategy2", "fault"])
    def test_evaluations_and_pair_log_name_iterates(self, small_logistic, mode):
        pairs = []
        cfg = RunConfig(method="robust_lbfgs", mode=mode, batch_frac=0.1,
                        overlap_frac=0.2, nodes=4, fail_prob=0.25,
                        schedule=constant(0.2), epochs=2.0, seed=1)
        with record_evaluations() as seen:
            trace = run(cfg, small_logistic, pair_log=pairs)
        ks = [r.k for r in trace.records]
        # the batch parts and the extra overlap are evaluated at the iterate
        # of the plan they belong to
        assert sorted({k for k, part, _ in seen.parts if part != "O_extra"}) == ks
        assert {k for k, part, _ in seen.parts if part == "O_extra"} <= set(ks[1:])
        # a pair carries the step it measures: step k leads to record k + 1
        assert pairs
        assert [k + 1 for k, *_ in pairs] == [
            r.k for r in trace.records[1:] if r.overlap_size > 0]
        assert [accepted for *_, accepted in pairs] == [
            bool(r.pair_accepted) for r in trace.records[1:] if r.overlap_size > 0]


class TestEvaluationAccounting:
    @pytest.mark.parametrize("d", [1, 64])
    def test_part_sums_add_left_to_right(self, d):
        # np.sum pairs the terms from 8 parts up, also the gradient rows when
        # d = 1; reruns and the golden traces need the parts added in order,
        # for every d. The driver's batch and overlap averages share one
        # iterate's regularization terms and read one part in place, and
        # must still give the bytes of Objective.average
        objective = logistic_l2(make_synthetic(20, d, 1, seed=0))
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(50):
            k = int(rng.integers(1, 17))
            G = rng.normal(size=(k, d)) * 10.0 ** rng.integers(-8, 8, size=(k, d))
            L = np.abs(G[:, 0]) * rng.uniform(1, 2, size=k)
            w = rng.normal(size=d) * 10.0 ** rng.integers(-3, 3)
            reg = objective.regularization(w)
            positions = sorted(rng.choice(k, int(rng.integers(1, k + 1)),
                                          replace=False).tolist())
            for parts, count, (grad, loss) in (
                    (range(k), 20 * k, _average(objective, w, G, L, 20 * k, reg)),
                    (positions, 7 * len(positions),
                     _average(objective, w, G, L, 7 * len(positions), reg, positions))):
                g_seq, l_seq = G[parts[0]], float(L[parts[0]])
                for i in parts[1:]:
                    g_seq, l_seq = g_seq + G[i], l_seq + float(L[i])
                ref_grad, ref_loss = objective.average(w, g_seq, l_seq, count)
                assert grad.tobytes() == ref_grad.tobytes()
                assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
                seen.add(len(parts) > 1)
        assert seen == {False, True}  # one part and several

    def test_strategy1_never_evaluates_twice_per_iterate(self, small_logistic):
        cfg = RunConfig(method="robust_lbfgs", mode="strategy1",
                        batch_frac=0.1, overlap_frac=0.2,
                        schedule=constant(0.2), epochs=3.0, seed=1)
        with record_evaluations() as seen:
            trace = run(cfg, small_logistic)
        by_iterate = {}
        for k, _, rows in seen.parts:
            by_iterate.setdefault(k, []).append(rows)
        assert sorted(by_iterate) == [r.k for r in trace.records]
        for k, parts in by_iterate.items():
            joined = np.concatenate(parts)
            assert np.unique(joined).size == joined.size, f"iterate {k}"

    @pytest.mark.parametrize("method,mode", [
        ("robust_lbfgs", "strategy1"), ("robust_lbfgs", "strategy2"),
        ("inconsistent_lbfgs", "strategy2"), ("robust_lbfgs", "fault"),
        ("serial_sgd", "strategy1")])
    def test_one_eval_sums_call_per_batch(self, small_logistic, method, mode):
        cfg = RunConfig(method=method, mode=mode, batch_frac=0.1,
                        overlap_frac=0.2, nodes=4, fail_prob=0.25,
                        schedule=constant(0.2), epochs=2.0, seed=1)
        with record_evaluations() as seen:
            trace = run(cfg, small_logistic)
        # a call's first part is a batch part: one call per iterate
        assert [k for k, part, _ in seen.parts if part == 0] == [
            r.k for r in trace.records]
        # strategy 2's extra overlap part is evaluated at every iterate after
        # the first, only for robust pairs, and in the iterate's one call
        extra = {k for k, part, _ in seen.parts if part == "O_extra"}
        pairs_on_extra = method == "robust_lbfgs" and mode == "strategy2"
        assert extra == (set(range(1, len(trace.records))) if pairs_on_extra else set())
        rows = {}
        for k, _, part_rows in seen.parts:
            rows[k] = rows.get(k, 0) + part_rows.size
        assert [rows[r.k] for r in trace.records] == [
            r.sample_size + (r.overlap_size if r.k in extra else 0)
            for r in trace.records]

    def test_strategy2_charges_overlap_extra(self, small_logistic):
        n = small_logistic.n
        cfg = RunConfig(method="robust_lbfgs", mode="strategy2",
                        batch_frac=0.1, overlap_frac=0.2,
                        schedule=constant(0.2), epochs=2.0, seed=1)
        trace = run(cfg, small_logistic)
        epochs = trace.column("epoch")
        s_sizes = trace.column("sample_size")
        o_sizes = trace.column("overlap_size")
        charges = np.diff(epochs)
        # iteration k charges |S_{k+1}| plus the overlap used for its pair
        expected = (s_sizes[1:] + o_sizes[1:]) / n
        assert np.allclose(charges, expected, atol=1e-12)

    def test_strategy1_epoch_charge_totals(self, small_logistic):
        n = small_logistic.n
        r, o = 0.1, 0.2
        cfg = RunConfig(method="robust_lbfgs", mode="strategy1",
                        batch_frac=r, overlap_frac=o,
                        schedule=constant(0.2), epochs=5.0, seed=1)
        trace = run(cfg, small_logistic)
        s_sizes = trace.column("sample_size")
        # one pass over the permutation consumes every index once; summing
        # batch charges over a pass stays within one batch of n*(1+o)
        batch = int(np.ceil(r * n))
        per_pass = []
        acc, covered = 0.0, 0
        for size in s_sizes:
            acc += size
            covered += size - (0 if covered == 0 else int(np.ceil(o * batch)))
            if covered >= n:
                per_pass.append(acc)
                acc, covered = 0.0, 0
        assert per_pass
        for total in per_pass:
            assert abs(total - n * (1 + o)) <= batch + int(np.ceil(o * batch))

    def test_fault_mode_has_no_extra_charge(self, small_logistic):
        n = small_logistic.n
        cfg = RunConfig(method="robust_lbfgs", mode="fault", nodes=4,
                        fail_prob=0.25, schedule=constant(0.1), epochs=3.0,
                        seed=2)
        trace = run(cfg, small_logistic)
        charges = np.diff(trace.column("epoch"))
        s_sizes = trace.column("sample_size")
        assert np.allclose(charges, s_sizes[1:] / n, atol=1e-12)


class TestFaultModeRuns:
    def test_empty_overlap_iterations_flagged_pair_skipped(self, small_logistic):
        # few nodes and a high failure rate make disjoint consecutive
        # responder sets (empty overlap) likely; those iterations must skip
        # their pair and still keep the loop going
        cfg = RunConfig(method="robust_lbfgs", mode="fault", nodes=3,
                        fail_prob=0.6, schedule=constant(0.1), epochs=8.0,
                        seed=12)
        trace = run(cfg, small_logistic)
        assert trace.aborted is None
        skipped = [r for r in trace.records[1:]
                   if r.overlap_size == 0 and r.pair_accepted == 0]
        formed = [r for r in trace.records[1:] if r.pair_accepted == 1]
        assert skipped and formed

    def test_redraws_recorded(self, small_logistic):
        cfg = RunConfig(method="robust_lbfgs", mode="fault", nodes=2,
                        fail_prob=0.85, schedule=constant(0.05), epochs=3.0,
                        seed=1)
        trace = run(cfg, small_logistic)
        assert any(r.redraws > 0 for r in trace.records)

    def test_redraw_limit_aborts_the_run_and_keeps_its_records(self, small_logistic):
        # one node failing with p = 0.9999: each draw reaches the limit of
        # consecutive all-failed draws with probability about 1/e, so the
        # run ends long before its 200 epochs, as its own status
        cfg = RunConfig(method="robust_lbfgs", mode="fault", nodes=1,
                        fail_prob=0.9999, epochs=200.0, seed=0)
        trace = run(cfg, small_logistic)
        assert trace.aborted == "redraws"
        assert trace.records
        reference = run(replace(cfg, max_iterations=len(trace.records) - 1),
                        small_logistic)
        assert reference.aborted is None
        assert [replace(r, wallclock=0) for r in trace.records] == [
            replace(r, wallclock=0) for r in reference.records]
        assert np.array_equal(trace.final_w, reference.final_w)

    def test_reshard_each_epoch_runs_deterministically(self, small_logistic):
        cfg = RunConfig(method="robust_lbfgs", mode="fault", nodes=4,
                        fail_prob=0.25, schedule=constant(0.1), epochs=4.0,
                        seed=5, reshard_each_epoch=True)
        t1 = run(cfg, small_logistic)
        t2 = run(cfg, small_logistic)
        assert t1.aborted is None
        assert [r.grad_norm for r in t1.records] == [r.grad_norm for r in t2.records]
        # the reshard boundary forgets the previous responders
        assert any(r.overlap_size == 0 for r in t1.records[1:])

    @pytest.mark.parametrize("fail_prob,epochs,reshard", [(0.1, 15.0, False),
                                                          (0.6, 20.0, True)])
    def test_fault_runs_keep_one_layout_and_reuse_its_margins(
            self, small_logistic, monkeypatch, fail_prob, epochs, reshard):
        self._check_orders_kept_once_and_margins_reused(
            small_logistic, monkeypatch,
            dict(mode="fault", nodes=8, fail_prob=fail_prob, epochs=epochs,
                 reshard_each_epoch=reshard))

    def test_strategy1_full_batch_keeps_each_epoch_order_and_reuses_its_margins(
            self, small_logistic, monkeypatch):
        self._check_orders_kept_once_and_margins_reused(
            small_logistic, monkeypatch, dict(mode="strategy1", batch_frac=1.0, epochs=6.0))

    @staticmethod
    def _check_orders_kept_once_and_margins_reused(small_logistic, monkeypatch, config):
        # spies on the kernel's paths, so that no change can switch the fast
        # path off silently
        events = []

        def spy(name):
            real = getattr(Objective, name)

            def wrapper(self, *args):
                # _row_terms is logged with its row count, eval_sums with
                # the rows its parts cover and its row order
                if name == "_row_terms":
                    events.append((name, args[0].size, None))
                elif name == "eval_sums":
                    events.append((name, sum(b - a for a, b in args[2]), args[1]))
                else:
                    events.append((name, None, None))
                return real(self, *args)
            return wrapper

        for name in ("eval_sums", "_gather", "_row_terms", "eval_full"):
            monkeypatch.setattr(Objective, name, spy(name))
        cfg = RunConfig(method="robust_lbfgs", schedule=constant(0.1), seed=3, **config)
        objective = logistic_l2(small_logistic.dataset)
        trace = run(cfg, objective)
        assert trace.aborted is None
        names = [name for name, *_ in events]
        assert names.count("eval_sums") == len(trace.records)
        # each row order (a layout, or a strategy-1 epoch's order) is
        # gathered once, right after the first call on it
        orders, first_calls = [], []
        for i, (name, _, rows) in enumerate(events):
            if name == "eval_sums" and not any(rows is order for order in orders):
                orders.append(rows)
                first_calls.append(i)
        assert [i for i, name in enumerate(names) if name == "_gather"] == [
            i + 1 for i in first_calls]
        one_order = not (config.get("reshard_each_epoch") or config["mode"] == "strategy1")
        assert (len(orders) == 1) == one_order
        # metrology right after a batch at the same w computes row terms
        # only for the rows the batch did not cover, and none when it
        # covered them all (the full batch always does); after a batch over
        # fewer than half the rows, for every row
        fulls = [i for i, name in enumerate(names) if name == "eval_full"]
        assert len(fulls) > 2
        seen_partial = False
        for i in fulls:
            covered = next(size for name, size, _ in reversed(events[:i])
                           if name == "eval_sums")
            terms = [size for name, size, _ in events[i + 1:i + 2] if name == "_row_terms"]
            expected = objective.n if 2 * covered < objective.n else objective.n - covered
            assert terms == ([expected] if expected else [])
            seen_partial |= 0 < expected < objective.n
        assert seen_partial == (config["mode"] == "fault")


class TestCurvaturePairs:
    @given(mode=st.sampled_from(["strategy1", "strategy2", "fault"]),
           r=st.floats(0.05, 0.5), o=st.floats(0.1, 0.4), nodes=st.integers(1, 8),
           p=st.floats(0.0, 0.8), reshard=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_both_gradients_of_a_pair_come_from_one_index_set(
            self, small_logistic, mode, r, o, nodes, p, reshard, seed):
        cfg = RunConfig(method="robust_lbfgs", mode=mode, batch_frac=r, overlap_frac=o,
                        nodes=nodes, fail_prob=p, reshard_each_epoch=reshard,
                        schedule=constant(0.5), epochs=3.0, seed=seed)
        try:
            cfg.validate(small_logistic.n, small_logistic.d)
        except ConfigurationError:
            assume(False)
        # the loop's own plans and evaluated parts, iterates and admitted y's
        iterates, pairs = [np.zeros(small_logistic.d)], []
        step, admit = driver.take_step, LbfgsMemory.admit

        def recording_step(*args, **kwargs):
            iterates.append(step(*args, **kwargs))
            return iterates[-1]

        with record_evaluations() as seen, pytest.MonkeyPatch.context() as mp:
            def recording_admit(memory, s, y):
                pairs.append((len(seen.plans) - 1, y.copy()))
                return admit(memory, s, y)

            mp.setattr(driver, "take_step", recording_step)
            mp.setattr(LbfgsMemory, "admit", recording_admit)
            trace = run(cfg, small_logistic)
        assert trace.aborted is None
        plans, evaluated = seen.plans, {(k, part): rows for k, part, rows in seen.parts}

        def linked_rows(k, parts):
            """The rows eval_sums received for the parts ``parts`` of plan k."""
            batch = len(plans[k].spans) - plans[k].extra
            return np.concatenate([evaluated[k, i if i < batch else "O_extra"]
                                   for i in parts])

        # every linked plan after the first forms a pair, and no other does
        assert [k for k, _ in pairs] == [
            k for k, plan in enumerate(plans) if k and plan.link is not None]
        for k, y in pairs:
            prev_parts, next_parts = plans[k].link
            O_k = linked_rows(k, next_parts)
            assert np.array_equal(np.sort(linked_rows(k - 1, prev_parts)), np.sort(O_k))
            g_prev = small_logistic.eval_subset(iterates[k - 1], O_k).gradient
            g_next = small_logistic.eval_subset(iterates[k], O_k).gradient
            np.testing.assert_allclose(y, g_next - g_prev, rtol=1e-10)

    def test_quadratic_full_overlap_is_exact_hessian_action(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(9, 4))
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        obj = quadratic(dataset_from_rows(rows, [1] * 9, 4), weights=weights)
        w1 = rng.normal(size=4)
        w2 = rng.normal(size=4)
        overlap = np.arange(9)
        y = obj.eval_subset(w2, overlap).gradient - obj.eval_subset(w1, overlap).gradient
        assert np.allclose(y, weights * (w2 - w1), rtol=1e-12)

    def test_robust_vs_inconsistent_differ(self, small_logistic):
        seen_different = False
        for seed in range(3):
            cfg = dict(mode="strategy1", batch_frac=0.1, overlap_frac=0.2,
                       schedule=constant(0.5), epochs=2.0, seed=seed)
            pl_r, pl_i = [], []
            run(RunConfig(method="robust_lbfgs", **cfg), small_logistic,
                pair_log=pl_r)
            run(RunConfig(method="inconsistent_lbfgs", **cfg), small_logistic,
                pair_log=pl_i)
            # same seed, same first step; the first y values already differ
            if pl_r and pl_i and pl_r[0][3] != pl_i[0][3]:
                seen_different = True
        assert seen_different


class TestFaultEquivalence:
    def test_p_zero_robust_equals_inconsistent(self, small_logistic):
        traces = {}
        for method in ("robust_lbfgs", "inconsistent_lbfgs"):
            cfg = RunConfig(method=method, mode="fault", nodes=4,
                            fail_prob=0.0, schedule=constant(0.5),
                            epochs=8.0, seed=7)
            traces[method] = run(cfg, small_logistic)
        a, b = traces["robust_lbfgs"], traces["inconsistent_lbfgs"]
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.grad_norm == rb.grad_norm
            assert ra.subset_loss == rb.subset_loss
        assert np.array_equal(a.final_w, b.final_w)


class TestCurvatureDiagnostics:
    def test_full_subset_perfect_agreement(self, small_logistic):
        rng = SeededRng(0)
        diags, discarded = curvature_diagnostics(
            small_logistic, np.zeros(small_logistic.d),
            batch_sizes=[small_logistic.n], trials=3, rng=rng)
        assert not discarded
        for d in diags:
            assert d.cosine == pytest.approx(1.0, abs=1e-12)
            assert d.ratio_median == pytest.approx(1.0, abs=1e-10)
            assert d.ratio_lower_q == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_vectors_give_zero_cosine(self):
        # exercised via the same inner product the diagnostics use
        y_d = np.array([1.0, 0.0])
        y_s = np.array([0.0, 2.0])
        cosine = float(y_s @ y_d) / (np.linalg.norm(y_s) * np.linalg.norm(y_d))
        assert cosine == 0.0

    def test_each_trial_keeps_its_subset_once(self, small_logistic, monkeypatch):
        # both evaluations of a trial read one kept entry; the results are
        # those of evaluating a fresh writable copy of the subset each time
        sizes, trials = [5, 40], 6
        w = np.linspace(-0.5, 0.5, small_logistic.d)

        def diagnostics():
            objective = logistic_l2(small_logistic.dataset)
            return curvature_diagnostics(objective, w, batch_sizes=sizes,
                                         trials=trials, rng=SeededRng(8))

        with monkeypatch.context() as mp:
            eval_subset = Objective.eval_subset
            mp.setattr(Objective, "eval_subset",
                       lambda self, w, subset: eval_subset(self, w, np.array(subset)))
            expected = diagnostics()
        kept = []
        real = Objective._gather
        monkeypatch.setattr(Objective, "_gather",
                            lambda self, rows: kept.append(rows) or real(self, rows))
        got = diagnostics()
        assert len(kept) == len(sizes) * trials
        # a float's repr names its double exactly, -0.0 included
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("sizes,trials,match", [
        ([5], -1, "trial count -1"),
        ([5], 0, "trial count 0"),
        ([5], 2.5, "trial count 2.5"),
        ([5], "3", "trial count '3'"),
        ([2.5], 3, "batch size 2.5"),
        ([5, 0], 3, "batch size 0"),
        ([5, 301], 3, "batch size 301"),
        ([5, "7"], 3, "batch size '7'"),
    ])
    def test_bad_trials_or_batch_sizes_raise_before_any_evaluation(
            self, small_logistic, monkeypatch, sizes, trials, match):
        # a negative count returned ([], {}) and a size of 2.5 ran as 2
        calls = []
        for name in ("eval_full", "eval_subset"):
            real = getattr(Objective, name)
            monkeypatch.setattr(Objective, name, lambda self, *a, real=real, name=name:
                                calls.append(name) or real(self, *a))
        with pytest.raises(UsageError, match=match):
            curvature_diagnostics(small_logistic, np.zeros(small_logistic.d),
                                  batch_sizes=sizes, trials=trials, rng=SeededRng(0))
        assert calls == []

    def test_median_cosine_improves_with_batch(self, small_logistic):
        rng = SeededRng(4)
        sizes = [10, 60, 300]
        diags, _ = curvature_diagnostics(small_logistic,
                                         np.zeros(small_logistic.d),
                                         batch_sizes=sizes, trials=60, rng=rng)
        med = [np.median([d.cosine for d in diags if d.batch_size == b])
               for b in sizes]
        assert med[0] <= med[1] <= med[2]


class TestErrorState:
    """A run enters numpy's error state once; the calls inside it run in
    that state, and every call outside one enters its own."""

    CONFIGS = {
        "strategy1": dict(method="robust_lbfgs", mode="strategy1", batch_frac=0.1),
        "fault": dict(method="robust_lbfgs", mode="fault", nodes=4, fail_prob=0.3),
        "serial_sgd": dict(method="serial_sgd"),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_a_run_enters_the_error_state_once(self, small_logistic, monkeypatch, name):
        # numpy builds the error state it enters with _make_extobj, in the
        # context manager and in the decorator alike
        from numpy._core import _ufunc_config

        entries = []
        make = _ufunc_config._make_extobj
        monkeypatch.setattr(_ufunc_config, "_make_extobj",
                            lambda **kwargs: entries.append(kwargs) or make(**kwargs))
        cfg = RunConfig(schedule=constant(0.1), epochs=30.0, max_iterations=30, seed=1,
                        **self.CONFIGS[name])
        trace = run(cfg, logistic_l2(small_logistic.dataset))
        assert trace.aborted is None and len(trace.records) == 31
        assert len(entries) == 1

    @staticmethod
    def _overflowing_direction():
        """What an overflowing two-loop raises, with warnings made errors."""
        mem = random_admitted_memory(np.random.default_rng(4), d=4, m=3, n_pairs=3)
        try:
            mem.direction(np.full(4, 1e308))
        except Exception as exc:
            return exc
        return None

    def test_silent_after_a_run_that_ends_with_an_exception(self, small_logistic,
                                                            monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(driver, "take_step", interrupted)
        cfg = RunConfig(schedule=constant(0.1), epochs=1.0, **self.CONFIGS["strategy1"])
        with pytest.raises(KeyboardInterrupt):
            run(cfg, small_logistic)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert isinstance(self._overflowing_direction(), NumericError)

    def test_silent_in_a_thread_started_inside_a_run(self, small_logistic, monkeypatch):
        # a new thread starts outside every quiet call and in numpy's
        # default error state, so its calls enter their own
        outcomes = []
        step = driver.take_step

        def step_with_a_thread(*args, **kwargs):
            if not outcomes:
                probe = threading.Thread(
                    target=lambda: outcomes.append(self._overflowing_direction()))
                probe.start()
                probe.join()
            return step(*args, **kwargs)

        monkeypatch.setattr(driver, "take_step", step_with_a_thread)
        cfg = RunConfig(schedule=constant(0.1), max_iterations=3,
                        **self.CONFIGS["strategy1"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(cfg, small_logistic).aborted is None
        assert len(outcomes) == 1 and isinstance(outcomes[0], NumericError)
