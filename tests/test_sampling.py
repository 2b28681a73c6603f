import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mblbfgs import ConfigurationError, RunConfig, SeededRng, make_layout, plan_fault, reshard
from mblbfgs.sampling import (
    SERIAL_BLOCK,
    FaultSource,
    NodeLayout,
    SerialSource,
    Strategy1Source,
    Strategy2Source,
    make_plan_source,
    plan_strategy1_epoch,
    plan_strategy2,
    strategy_batch_sizes,
)


class TestBatchSizes:
    def test_size_arithmetic(self):
        assert strategy_batch_sizes(10, 0.5, 0.2) == (5, 1)
        assert strategy_batch_sizes(100, 0.25, 0.2) == (25, 5)

    def test_overlap_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="overlap empty"):
            strategy_batch_sizes(30, 0.1, 0.2)  # o*r*n = 0.6 < 1

    def test_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            strategy_batch_sizes(10, 0.0, 0.2)
        with pytest.raises(ConfigurationError):
            strategy_batch_sizes(10, 1.5, 0.2)
        with pytest.raises(ConfigurationError):
            strategy_batch_sizes(10, 0.5, 1.0)


class TestStrategy1:
    def test_small_epoch_structure(self):
        plans = plan_strategy1_epoch(10, 0.5, 0.2, SeededRng(0))
        full = [p for p in plans if p.S.size == 5]
        assert len(full) >= 2
        for a, b in zip(plans, plans[1:]):
            inter = np.intersect1d(a.S, b.S)
            assert np.array_equal(np.sort(a.O_next), inter)
            assert np.array_equal(np.sort(b.O_prev), inter)
            assert inter.size == 1
        union = np.concatenate([p.S for p in plans])
        assert np.array_equal(np.unique(union), np.arange(10))

    def test_overlap_too_large_rejected(self):
        with pytest.raises(ConfigurationError, match="overlap too large"):
            plan_strategy1_epoch(20, 0.5, 0.5, SeededRng(0))  # 2*5 >= 10

    def test_replay_determinism(self):
        a = plan_strategy1_epoch(20, 0.25, 0.2, SeededRng(42))
        b = plan_strategy1_epoch(20, 0.25, 0.2, SeededRng(42))
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.S, pb.S)
            assert np.array_equal(pa.O_prev, pb.O_prev)
            assert np.array_equal(pa.O_next, pb.O_next)

    def test_epoch_invariants_many_configs(self):
        for n, r, o, seed in [(103, 0.13, 0.25, 1), (5000, 0.05, 0.2, 2),
                              (64, 0.5, 0.3, 3)]:
            plans = plan_strategy1_epoch(n, r, o, SeededRng(seed))
            s_size, o_size = strategy_batch_sizes(n, r, o)
            for i, (a, b) in enumerate(zip(plans, plans[1:])):
                inter = np.intersect1d(a.S, b.S)
                assert inter.size == o_size
                assert np.array_equal(np.sort(a.O_next), inter)
            union = np.concatenate([p.S for p in plans])
            assert np.array_equal(np.unique(union), np.arange(n))
            assert all(p.S.size == s_size for p in plans[:-1])
            assert plans[0].O_prev.size == 0
            assert plans[-1].O_next.size == 0

    def test_source_fresh_epoch_without_overlap(self):
        src = Strategy1Source(20, 0.25, 0.2, SeededRng(5))
        plans = [src.next_plan() for _ in range(20)]
        boundary_starts = [p for p in plans[1:] if p.O_prev.size == 0]
        assert boundary_starts, "each reshuffle should start without overlap"

    def test_source_full_batch_keeps_pair_chain(self):
        src = Strategy1Source(10, 1.0, 0.2, SeededRng(5))
        first = src.next_plan()
        assert first.S.size == 10 and first.O_prev.size == 0
        second = src.next_plan()
        assert np.array_equal(second.O_prev, first.O_next)
        assert second.O_next.size == 2
        assert np.intersect1d(second.O_prev, second.O_next).size == 0

    def test_source_full_batch_blocks_at_batch_ends(self):
        # the per-part evaluation reads O_prev as the head of S and O_next
        # as its tail, also after a full-batch reshuffle
        src = Strategy1Source(10, 1.0, 0.2, SeededRng(5))
        for _ in range(4):
            plan = src.next_plan()
            assert np.array_equal(plan.S[:plan.O_prev.size], plan.O_prev)
            assert np.array_equal(plan.S[plan.S.size - plan.O_next.size:], plan.O_next)
            assert np.array_equal(np.sort(plan.S), np.arange(10))


class TestStrategy2:
    def test_overlap_subset_of_batch(self):
        for seed in range(5):
            plan = plan_strategy2(50, 0.2, 0.3, SeededRng(seed))
            assert np.all(np.isin(plan.O_next, plan.S))
            assert np.unique(plan.S).size == plan.S.size

    def test_full_batch(self):
        plan = plan_strategy2(30, 1.0, 0.2, SeededRng(0))
        assert np.array_equal(np.sort(plan.S), np.arange(30))

    def test_inclusion_frequency(self):
        rng = SeededRng(123)
        counts = np.zeros(100)
        draws = 10_000
        for _ in range(draws):
            plan = plan_strategy2(100, 0.1, 0.2, rng)
            counts[plan.S] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 0.1) <= 0.01)

    def test_source_stitches_overlap(self):
        src = Strategy2Source(50, 0.2, 0.3, SeededRng(9))
        a = src.next_plan()
        b = src.next_plan()
        assert a.O_prev.size == 0
        assert np.array_equal(b.O_prev, a.O_next)


class TestFaultMode:
    def test_layout_balanced(self):
        layout = make_layout(10, 3, 0.1)
        sizes = sorted(s.size for s in layout.shards)
        assert sizes == [3, 3, 4]
        together = np.concatenate(layout.shards)
        assert np.array_equal(np.sort(together), np.arange(10))

    def test_bad_probability(self):
        with pytest.raises(ConfigurationError):
            make_layout(10, 2, 1.0)

    @pytest.mark.parametrize("rows,nodes,match", [
        (np.array([0, 7, -1, 3]), 2, "outside 0..3"),
        (np.array([0, 4, 1, 2]), 2, "outside 0..3"),
        (np.array([0, 1, 1, 2]), 2, "repeated"),
        (np.array([3, 3, 0, 1]), 2, "repeated"),
        (np.array([0.5, 1.7, 2.2, 3.0]), 2, "integer array"),
        (np.array([True, False]), 1, "integer array"),
        (np.zeros(0, dtype=np.int64), 1, "no rows"),
        (np.array([3, 0, 1, 2]), 0, r"node count 0 is not an integer in \[1, n=4\]"),
        (np.array([3, 0, 1, 2]), 5, r"node count 5 is not an integer in \[1, n=4\]"),
        (np.array([3, 0, 1, 2]), 2.5, r"node count 2\.5 is not an integer"),
    ])
    def test_layout_rows_must_be_a_permutation(self, rows, nodes, match):
        with pytest.raises(ConfigurationError, match=match):
            NodeLayout(rows, nodes, 0.0)
        NodeLayout(np.array([3, 0, 1, 2]), 2, 0.0)
        # a bool node count is an integer, as in the other count rules
        assert plan_fault(NodeLayout(np.arange(4), True, 0.0), SeededRng(0)).responders == (0,)

    @given(data=st.data(), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_layout_cuts_its_rows_at_balanced_offsets(self, data, n, seed):
        nodes = data.draw(st.integers(1, n), label="nodes")
        order = SeededRng(seed).permutation(n)
        given_rows = order.copy()
        layout = NodeLayout(order, nodes, 0.0)
        # the layout keeps its own read-only copy; the caller's array is
        # left writable and unchanged
        assert order.flags.writeable and np.array_equal(order, given_rows)
        assert not layout.rows.flags.writeable
        assert not np.shares_memory(layout.rows, order)
        assert np.array_equal(layout.rows, order)
        assert layout.node_count == nodes and layout.n == n
        # shards are views of rows, the longer ones first, and together
        # they are rows in order
        sizes = [shard.size for shard in layout.shards]
        assert len(sizes) == nodes and max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
        assert all(np.shares_memory(shard, layout.rows) for shard in layout.shards)
        assert np.array_equal(np.concatenate(layout.shards), layout.rows)

    def test_p_zero_all_respond(self):
        layout = make_layout(20, 4, 0.0)
        plan = plan_fault(layout, SeededRng(0))
        assert plan.responders == (0, 1, 2, 3)
        assert np.array_equal(np.sort(plan.S), np.arange(20))
        plan2 = plan_fault(layout, SeededRng(0), prev_responders=plan.responders)
        assert np.array_equal(np.sort(plan2.O_prev), np.arange(20))

    def test_disjoint_responders_empty_overlap(self):
        layout = make_layout(10, 2, 0.5)
        # simulate two draws with disjoint responder sets
        plan = plan_fault(layout, SeededRng(1), prev_responders=(0,))
        if plan.responders == (1,):
            assert plan.O_prev.size == 0

    def test_redraw_on_all_failed(self):
        layout = make_layout(8, 2, 0.9)
        seen_redraw = False
        rng = SeededRng(3)
        for _ in range(200):
            plan = plan_fault(layout, rng)
            assert len(plan.responders) >= 1
            seen_redraw = seen_redraw or plan.redraws > 0
        assert seen_redraw

    def test_redraws_are_bounded(self):
        # one node failing with p = 1 - 1e-9 would redraw practically forever
        layout = make_layout(10, 1, 1.0 - 1e-9)
        with pytest.raises(ConfigurationError,
                           match=r"failure probability 0\.999999999 with 1 nodes"):
            plan_fault(layout, SeededRng(0))

    def test_mean_responders(self):
        layout = make_layout(160, 16, 0.3)
        rng = SeededRng(7)
        total = 0
        draws = 10_000
        for _ in range(draws):
            total += len(plan_fault(layout, rng).responders)
        mean = total / draws
        assert abs(mean - 16 * 0.7) <= 0.02 * 16 * 0.7

    def test_overlap_is_set_intersection_of_batches(self):
        layout = make_layout(40, 5, 0.4)
        rng = SeededRng(11)
        prev = plan_fault(layout, rng)
        plan = plan_fault(layout, rng, prev_responders=prev.responders)
        expected = np.intersect1d(prev.S, plan.S)
        assert np.array_equal(np.sort(plan.O_prev), expected)

    def test_reshard(self):
        layout = make_layout(10, 1, 0.0)
        new = reshard(layout, SeededRng(2))
        assert np.array_equal(np.sort(new.shards[0]), np.arange(10))

        layout3 = make_layout(10, 3, 0.0)
        n1 = reshard(layout3, SeededRng(4))
        n2 = reshard(layout3, SeededRng(4))
        for a, b in zip(n1.shards, n2.shards):
            assert np.array_equal(a, b)
        assert sorted(s.size for s in n1.shards) == [3, 3, 4]

    def test_source_reshard_clears_overlap(self):
        # at p = 0 one plan is a whole pass, so the second follows a reshard
        src = FaultSource(make_layout(20, 4, 0.0), SeededRng(0),
                          reshard_each_epoch=True)
        first = src.next_plan()
        plan = src.next_plan()
        assert plan.rows is not first.rows
        assert plan.O_prev.size == 0


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["strategy1", "strategy2", "fault"])
    def test_identical_seed_identical_stream(self, mode):
        def stream(seed):
            rng = SeededRng(seed)
            if mode == "strategy1":
                src = Strategy1Source(60, 0.2, 0.25, rng)
            elif mode == "strategy2":
                src = Strategy2Source(60, 0.2, 0.25, rng)
            else:
                src = FaultSource(make_layout(60, 6, 0.3, rng), rng)
            return [src.next_plan() for _ in range(25)]

        for a, b in zip(stream(99), stream(99)):
            assert np.array_equal(a.S, b.S)
            assert np.array_equal(a.O_prev, b.O_prev)
            assert np.array_equal(a.O_next, b.O_next)
            assert a.responders == b.responders


def _plan_stream(mode, n, r, o, nodes, p, seed, count=40):
    """The source's layout (fault mode) and its first ``count`` plans, or
    None when the sizes are not a valid configuration."""
    rng = SeededRng(seed)
    try:
        config = (RunConfig(method="serial_sgd") if mode == "serial" else
                  RunConfig(mode=mode, batch_frac=r, overlap_frac=o, nodes=nodes,
                            fail_prob=p))
        src = make_plan_source(config, n, rng)
        plans = [src.next_plan() for _ in range(count)]
    except ConfigurationError:
        return None
    return getattr(src, "layout", None), plans


def _part_rows(plan, parts):
    """The set of rows of ``plan`` in the listed parts (spans of rows)."""
    return {int(i) for j in parts for i in plan.rows[slice(*plan.spans[j])]}


_ALL_SOURCES = ["strategy1", "strategy2", "fault", "serial"]
_plan_params = dict(
    n=st.integers(2, 300), r=st.floats(0.01, 1.0), o=st.floats(0.01, 0.99),
    nodes=st.integers(1, 12), p=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1),
)


class TestPlanInvariants:
    @given(mode=st.sampled_from(_ALL_SOURCES), **_plan_params)
    @example(mode="strategy1", n=50, r=1.0, o=0.2, nodes=1, p=0.0, seed=0)  # full batch
    @settings(max_examples=60, deadline=None)
    def test_parts_partition_the_batch(self, mode, n, r, o, nodes, p, seed):
        stream = _plan_stream(mode, n, r, o, min(nodes, n), p, seed)
        assume(stream is not None)
        for plan in stream[1]:
            # the parts are non-empty spans of rows, ascending, disjoint and
            # inside rows; S is the batch parts' rows in order, no index
            # twice, and only strategy 2 has an extra part after them
            flat = [i for span in plan.spans for i in span]
            assert all(b > a for a, b in plan.spans)
            assert flat[0] >= 0 and flat[-1] <= plan.rows.size
            assert all(stop <= start for stop, start in zip(flat[1::2], flat[2::2]))
            assert plan.extra == (mode == "strategy2" and plan.link is not None)
            batch = plan.spans[:len(plan.spans) - plan.extra]
            assert np.array_equal(
                plan.S, np.concatenate([plan.rows[a:b] for a, b in batch]))
            assert plan.sample_size == plan.S.size
            assert np.unique(plan.S).size == plan.S.size
            if mode == "fault":
                # each part is the shard of one responding node
                layout = stream[0]
                assert plan.rows is layout.rows
                assert plan.spans == tuple((layout.offsets[j], layout.offsets[j + 1])
                                           for j in plan.responders)
            elif mode == "strategy1":
                # rows is the epoch's order of all rows (the full batch
                # included) and S a back-to-back view of it
                assert np.array_equal(np.sort(plan.rows), np.arange(n))
                assert np.shares_memory(plan.S, plan.rows)
                assert np.array_equal(plan.S, plan.rows[flat[0]:flat[-1]])
            elif mode == "serial":
                # rows is a block of draws in 0..n-1 and S a one-row view of it
                assert plan.rows.shape == (SERIAL_BLOCK,) and plan.rows.dtype == np.int64
                assert 0 <= plan.rows.min() and plan.rows.max() < n
                assert np.shares_memory(plan.S, plan.rows)
            else:  # the parts cover rows: S, then the extra part O_prev
                assert np.shares_memory(plan.S, plan.rows)
                assert np.array_equal(plan.rows, np.concatenate([plan.S, plan.O_prev]))
            # the objective keeps the rows of a read-only order: strategy-1
            # orders, fault layouts and serial SGD's blocks of draws serve
            # several evaluations, while strategy-2 rows are drawn afresh,
            # to be gathered
            assert plan.rows.flags.writeable == (mode == "strategy2")
            if mode == "strategy2":
                assert np.array_equal(plan.S[:plan.O_next.size], plan.O_next)
        plans = stream[1]
        if mode == "serial":  # the 40 plans come from the first block
            assert all(plan.rows is plans[0].rows for plan in plans)
        elif mode == "strategy1" and plans[0].sample_size == n:
            # the full batch is reordered every epoch, so each plan has its own
            assert all(plan.rows is not prev.rows for prev, plan in zip(plans, plans[1:]))
        elif mode == "strategy1":
            # one order per epoch, shared by every plan of it; a new epoch
            # starts without O_prev
            for prev, plan in zip(plans, plans[1:]):
                assert (plan.rows is prev.rows) == (plan.link is not None)

    @given(count=st.integers(1, 30), n=_plan_params["n"], nodes=_plan_params["nodes"],
           p=_plan_params["p"], seed=_plan_params["seed"])
    @settings(max_examples=60, deadline=None)
    def test_fault_rows_change_only_at_a_reshard(self, count, n, nodes, p, seed):
        # the objective keeps the rows of the last read-only order it saw,
        # so that order must stay one unchanged object between reshards; the
        # source reshards before each plan at which the rows it has served,
        # summed |S|/n per plan as a run sums its epochs, have passed a
        # whole number of passes since the last reshard
        rng = SeededRng(seed)
        config = RunConfig(mode="fault", nodes=min(nodes, n), fail_prob=p,
                           reshard_each_epoch=True)
        src = make_plan_source(config, n, rng)
        plan = src.next_plan()
        rows, served, passes = plan.rows, plan.sample_size / n, 0
        for _ in range(count):
            resharded = math.floor(served) > passes
            passes = math.floor(served)
            plan = src.next_plan()
            assert not plan.rows.flags.writeable
            assert (plan.rows is rows) != resharded
            assert np.array_equal(plan.rows, np.concatenate(src.layout.shards))
            if resharded:  # the shards changed, so no overlap links them
                assert plan.link is None
            rows, served = plan.rows, served + plan.sample_size / n

    @given(mode=st.sampled_from(_ALL_SOURCES), **_plan_params)
    @settings(max_examples=80, deadline=None)
    def test_link_names_the_overlap_in_both_plans(self, mode, n, r, o, nodes, p, seed):
        # both gradients of a curvature pair are sums over the parts that
        # link names, so those rows must be O_prev at both iterates
        stream = _plan_stream(mode, n, r, o, min(nodes, n), p, seed)
        assume(stream is not None)
        plans = stream[1]
        assert plans[0].link is None
        # the driver reads |O_prev| without building O_prev
        assert all(plan.overlap_size == plan.O_prev.size for plan in plans)
        for prev, plan in zip(plans, plans[1:]):
            if plan.O_prev.size == 0:
                assert plan.link is None
                continue
            prev_parts, parts = plan.link
            overlap = set(plan.O_prev.tolist())
            assert _part_rows(prev, prev_parts) == overlap
            assert _part_rows(plan, parts) == overlap
            # the previous plan's parts are batch parts; only strategy 2
            # draws O_prev apart from the new batch, as its last, extra part
            assert max(prev_parts) < len(prev.spans) - prev.extra
            if mode == "strategy2":
                assert plan.extra == 1 and parts == [len(plan.spans) - 1]
            else:
                assert plan.extra == 0

    @given(mode=st.sampled_from(["strategy1", "strategy2"]), **_plan_params)
    @settings(max_examples=60, deadline=None)
    def test_overlap_chains_between_plans(self, mode, n, r, o, nodes, p, seed):
        stream = _plan_stream(mode, n, r, o, nodes, p, seed)
        assume(stream is not None)
        plans = stream[1]
        assert plans[0].O_prev.size == 0
        for prev, plan in zip(plans, plans[1:]):
            assert set(plan.O_prev.tolist()) == set(prev.O_next.tolist())

    @given(**_plan_params)
    @settings(max_examples=60, deadline=None)
    def test_fault_overlap_is_shards_of_repeat_responders(self, n, r, o, nodes, p, seed):
        layout, plans = _plan_stream("fault", n, r, o, min(nodes, n), p, seed)
        assert plans[0].O_prev.size == 0
        for prev, plan in zip(plans, plans[1:]):
            both = sorted(set(prev.responders) & set(plan.responders))
            # the repeat responders' shards in node order
            expected = [row for j in both for row in layout.shards[j].tolist()]
            assert plan.O_prev.tolist() == expected

    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_serial_plans_hold_one_index_and_no_overlap(self, n, seed):
        src, draws = SerialSource(n, SeededRng(seed)), SeededRng(seed)
        blocks = []
        # two block ends and then some: the plans of a block share its one
        # read-only array of draws, which the objective keeps, and the
        # example at position j is the span (j, j + 1)
        for t in range(2 * SERIAL_BLOCK + 40):
            plan = src.next_plan()
            if t % SERIAL_BLOCK == 0:
                assert not blocks or plan.rows is not blocks[-1]
                blocks.append(plan.rows)
            assert plan.rows is blocks[-1] and not plan.rows.flags.writeable
            assert plan.S.shape == (1,) and 0 <= plan.S[0] < n
            (j, stop), = plan.spans
            assert j == t % SERIAL_BLOCK and stop == j + 1
            assert plan.S[0] == draws.integers(n) and np.shares_memory(plan.S, plan.rows)
            assert plan.O_prev.size == 0 and plan.O_next.size == 0
            assert plan.overlap_size == 0 and plan.link is None
        assert all(block.size == SERIAL_BLOCK for block in blocks)

    @pytest.mark.parametrize("n", [1, 7, 20000, 2**32 + 1])
    def test_serial_block_draws_are_the_single_draws(self, n):
        # SerialSource draws SERIAL_BLOCK examples per generator call; they
        # must be the values, in order, of one integers(0, n) call each, the
        # stream the golden serial_sgd trace was recorded with
        key = 12345
        src = SerialSource(n, SeededRng(key))
        single = np.random.Generator(np.random.Philox(key=key))
        for _ in range(3000):
            i = int(single.integers(0, n))
            plan = src.next_plan()
            (j, stop), = plan.spans
            assert stop == j + 1 and int(plan.rows[j]) == i

    def test_a_serial_source_holds_one_block_whatever_n(self):
        # a source holds its current block of draws, not an array of n
        # rows: 10**7 int64 rows would be 80 MB
        tracemalloc.start()
        try:
            src = SerialSource(10**7, SeededRng(3))
            for _ in range(3000):
                src.next_plan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPlanRecord:
    # sha256 of S, O_prev and overlap_size of the first 40 plans of each
    # source on 300 rows at seed 5, as the frozen-dataclass plans gave them
    DIGESTS = {
        "strategy1": "33c10650690c5a1d26ebe043e34f260f5e8bcb50e58e97c87ca0edd8d81bbac7",
        "strategy2": "171c73b5eaea609dd9471235d8b3885fb82cf4f686afe739416335ef8088f75d",
        "fault": "175c9c0575fa60d29a2df05b3b1214c2b4466e07bb91125dbff6628f9b78836d",
        "serial": "b23d98469aef7e91007fb17e8202f2e2a03187cb016df4e62b413dedc92ec192",
    }
    CONFIGS = {
        "strategy1": dict(mode="strategy1", batch_frac=0.1, overlap_frac=0.3),
        "strategy2": dict(mode="strategy2", batch_frac=0.1, overlap_frac=0.3),
        "fault": dict(mode="fault", nodes=7, fail_prob=0.4, reshard_each_epoch=True),
        "serial": dict(method="serial_sgd"),
    }

    @pytest.mark.parametrize("source", sorted(CONFIGS))
    def test_plans_are_read_only_and_derive_what_they_did(self, source):
        src = make_plan_source(RunConfig(**self.CONFIGS[source]), 300, SeededRng(5))
        digest = hashlib.sha256()
        for _ in range(40):
            plan = src.next_plan()
            for name in ("rows", "spans", "link"):
                with pytest.raises(AttributeError):
                    setattr(plan, name, None)
            digest.update(plan.S.astype("<i8").tobytes())
            digest.update(b"|")
            digest.update(plan.O_prev.astype("<i8").tobytes())
            digest.update(b"|%d;" % plan.overlap_size)
        assert digest.hexdigest() == self.DIGESTS[source]

    # (redraws, sha256 of the reprs of spans, link, responders and redraws)
    # of 300 chained plan_fault draws on 64 rows, as the draws that tested
    # a mask with any() and then listed its nonzero positions gave them
    FAULT_DRAWS = {
        (16, 0.1, 0): (0, "9839ab12a195f48a78f1ec6d8593ff5cb78357391ef9f2a8f08642695c3230fd"),
        (16, 0.5, 3): (0, "93d13be8192f4ddbe70598ec15b3ac08cae007970c5505093f8b82ad65c2981e"),
        (4, 0.9, 7): (612, "328f9bdbdf7d64e543d4dd0bb8b84257e3322eae969abf34e9b417bcb8b1dbbd"),
        (1, 0.7, 11): (679, "5a6c4461d708569da962630494d6c661f3779812d2e95836cc1ee49ba7bbd5ec"),
        (7, 0.0, 5): (0, "fa0d9595a8eb980ec299f7721e5ccc53d07bd0b6483a9dc97e305c1fc3bdc354"),
    }

    @pytest.mark.parametrize("nodes,p,seed", sorted(FAULT_DRAWS))
    def test_fault_draws_keep_their_responders_and_redraws(self, nodes, p, seed):
        rng = SeededRng(seed)
        layout = make_layout(64, nodes, p)
        prev, digest, redraws = None, hashlib.sha256(), 0
        for _ in range(300):
            plan = plan_fault(layout, rng, prev)
            prev = plan.responders
            assert type(prev) is tuple and all(type(j) is int for j in prev)
            digest.update(repr((plan.spans, plan.link, plan.responders,
                                plan.redraws)).encode())
            redraws += plan.redraws
        assert (redraws, digest.hexdigest()) == self.FAULT_DRAWS[nodes, p, seed]
