import warnings
from dataclasses import replace

import numpy as np
import pytest

from mblbfgs import (
    ConfigurationError,
    LbfgsMemory,
    NumericError,
    RunConfig,
    SeededRng,
    StepSchedule,
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
from mblbfgs.driver import _average, form_pair
from mblbfgs.objectives import Objective

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


class TestFormPair:
    def test_zero_step_gives_zero_s(self, small_logistic):
        w = np.linspace(0, 1, small_logistic.d)
        s, y = form_pair(small_logistic, w, w, np.arange(5))
        assert not np.any(s)

    def test_quadratic_full_overlap_is_exact_hessian_action(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(9, 4))
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        obj = quadratic(dataset_from_rows(rows, [1] * 9, 4), weights=weights)
        w1 = rng.normal(size=4)
        w2 = rng.normal(size=4)
        s, y = form_pair(obj, w1, w2, np.arange(9))
        assert np.allclose(y, weights * s, rtol=1e-12)

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
    #   eval_sums (strategy 2): batch 0, batch 1, extra overlap 1, batch 2,
    #                           extra overlap 2, ...
    #   eval_full: iterate 0, iterate 2, iterate 4, ...
    #   take_step: the step from iterate 0, 1, 2, ...
    @pytest.mark.parametrize("site,owner,name,mode,nth,records,j", [
        # iterate 2's batch fails: the trace ends at iterate 1
        ("batch", Objective, "eval_sums", "strategy1", 3, 2, 1),
        # iterate 2's extra overlap evaluation fails: back to iterate 1
        ("extra overlap", Objective, "eval_sums", "strategy2", 5, 2, 1),
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
    def test_ledger_tags_and_pair_log_name_iterates(self, small_logistic, mode):
        ledger, pairs = [], []
        cfg = RunConfig(method="robust_lbfgs", mode=mode, batch_frac=0.1,
                        overlap_frac=0.2, nodes=4, fail_prob=0.25,
                        schedule=constant(0.2), epochs=2.0, seed=1)
        trace = run(cfg, small_logistic, eval_ledger=ledger, pair_log=pairs)
        ks = [r.k for r in trace.records]
        # the batch parts and the extra overlap carry the iterate they were
        # evaluated at
        assert sorted({tag for tag, key, _ in ledger if key != "O_extra"}) == ks
        assert {tag for tag, key, _ in ledger if key == "O_extra"} <= set(ks[1:])
        # a pair carries the step it measures: step k leads to record k + 1
        assert pairs
        assert [k + 1 for k, *_ in pairs] == [
            r.k for r in trace.records[1:] if r.overlap_size > 0]
        assert [accepted for *_, accepted in pairs] == [
            bool(r.pair_accepted) for r in trace.records[1:] if r.overlap_size > 0]


class TestEvaluationAccounting:
    def test_part_sums_add_left_to_right(self):
        # np.sum pairs the terms from 8 parts up, also the gradient rows when
        # d = 1; reruns and the golden traces need the parts added in order.
        # The driver's batch and overlap averages share one iterate's
        # regularization terms and read one part in place, and must still
        # give the bytes of Objective.average
        objective = logistic_l2(make_synthetic(20, 1, 1, seed=0))
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(50):
            k = int(rng.integers(1, 17))
            G = rng.normal(size=(k, 1)) * 10.0 ** rng.integers(-8, 8, size=(k, 1))
            L = np.abs(G[:, 0]) * rng.uniform(1, 2, size=k)
            w = rng.normal(size=1) * 10.0 ** rng.integers(-3, 3)
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
        ledger = []
        cfg = RunConfig(method="robust_lbfgs", mode="strategy1",
                        batch_frac=0.1, overlap_frac=0.2,
                        schedule=constant(0.2), epochs=3.0, seed=1)
        run(cfg, small_logistic, eval_ledger=ledger)
        by_iterate = {}
        for tag, _, idx in ledger:
            by_iterate.setdefault(tag, []).append(idx)
        for tag, parts in by_iterate.items():
            joined = np.concatenate(parts)
            assert np.unique(joined).size == joined.size, f"iterate {tag}"

    @pytest.mark.parametrize("mode,extra", [("strategy1", 0), ("strategy2", 1),
                                            ("fault", 0)])
    def test_one_eval_sums_call_per_batch(self, small_logistic, monkeypatch,
                                          mode, extra):
        calls = []
        eval_sums = Objective.eval_sums

        def counting(self, w, rows, spans=None):
            spans = [(0, len(rows))] if spans is None else spans
            calls.append(sum(b - a for a, b in spans))
            return eval_sums(self, w, rows, spans)

        monkeypatch.setattr(Objective, "eval_sums", counting)
        ledger = []
        cfg = RunConfig(method="robust_lbfgs", mode=mode, batch_frac=0.1,
                        overlap_frac=0.2, nodes=4, fail_prob=0.25,
                        schedule=constant(0.2), epochs=2.0, seed=1)
        trace = run(cfg, small_logistic, eval_ledger=ledger)
        # strategy 2 makes one more call per pair, on the overlap
        pairs = sum(1 for tag, key, _ in ledger if key == "O_extra")
        assert len(calls) == len(trace.records) + extra * pairs
        # each batch call covers every row of the batch's ledger parts
        rows = {}
        for tag, key, idx in ledger:
            if key != "O_extra":
                rows[tag] = rows.get(tag, 0) + idx.size
        assert sorted(calls) == sorted(list(rows.values()) + [
            idx.size for _, key, idx in ledger if key == "O_extra"])

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

        for name in ("eval_sums", "_keep", "_row_terms", "eval_full"):
            monkeypatch.setattr(Objective, name, spy(name))
        cfg = RunConfig(method="robust_lbfgs", schedule=constant(0.1), seed=3, **config)
        objective = logistic_l2(small_logistic.dataset)
        trace = run(cfg, objective)
        assert trace.aborted is None
        names = [name for name, *_ in events]
        assert names.count("eval_sums") == len(trace.records)
        # each row order (a layout, or a strategy-1 epoch's order) is copied
        # once, right after the first call on it
        orders, first_calls = [], []
        for i, (name, _, rows) in enumerate(events):
            if name == "eval_sums" and not any(rows is order for order in orders):
                orders.append(rows)
                first_calls.append(i)
        assert [i for i, name in enumerate(names) if name == "_keep"] == [
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

    def test_median_cosine_improves_with_batch(self, small_logistic):
        rng = SeededRng(4)
        sizes = [10, 60, 300]
        diags, _ = curvature_diagnostics(small_logistic,
                                         np.zeros(small_logistic.d),
                                         batch_sizes=sizes, trials=60, rng=rng)
        med = [np.median([d.cosine for d in diags if d.batch_size == b])
               for b in sizes]
        assert med[0] <= med[1] <= med[2]
