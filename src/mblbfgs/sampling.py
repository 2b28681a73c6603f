"""Batch and overlap generation for the multi-batch and fault-tolerant settings.

Two multi-batch strategies are provided plus a simulated distributed mode:

* strategy 1: the dataset is shuffled once per epoch and consecutive batches
  are cut from the permutation so that each batch shares a forced overlap
  block with its neighbours (no extra gradient evaluations needed).
* strategy 2: every batch is an independent uniform draw; the overlap is
  subsampled from the batch and costs one extra overlap-gradient evaluation.
* fault mode: the dataset is sharded across B nodes; each node responds with
  probability 1-p, the batch is the union of responding shards, and the
  overlap is the union of shards responding in two consecutive iterations.

Serial SGD is driven by the same loop through a batch-of-one source whose
plans have empty overlaps.

Every plan also carries its evaluation layout, so the driver needs no
knowledge of the mode: the plan names a row order ``rows`` and the spans of
it that are the batch's parts, and ``link`` names the parts whose rows are
O_prev in the previous plan and in this one. So both gradients of a
curvature pair are sums over the same index set. In strategy 1 ``rows`` is
the epoch's permutation, shared by every plan of the epoch, and a batch's
parts O_prev, the middle and O_next are spans of it (the full batch,
reordered every epoch, is S itself). In strategy 2 and serial mode ``rows``
is S, cut into O_next and the rest. In fault mode ``rows`` is the layout's
order of all shards, one object until a reshard; each responding node's
shard is one span and failed nodes leave gaps. Strategy-1 orders (the full
batch's included) and fault layouts (resharded or not) serve several
evaluations and are read-only, so the objective keeps a copy of their rows
and reads the parts in place (``Objective.eval_sums``); strategy-2 and
serial orders are fresh writable arrays, gathered once.

All draws come from a single named counter-based generator so a fixed seed
replays the exact plan stream.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, UsageError
from .linalg import join_ranges

_EMPTY = np.zeros(0, dtype=np.int64)

# consecutive all-failed fault draws after which plan_fault gives up
MAX_REDRAWS = 10_000


class SeededRng:
    """Deterministic random stream (Philox 4x64 counter-based generator).

    ``draws`` counts how many draw calls have been made; together with the
    seed it identifies the stream position for replay and bug reports.
    """

    algorithm = "philox4x64"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.draws = 0
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def permutation(self, n: int) -> np.ndarray:
        self.draws += 1
        return self._gen.permutation(n).astype(np.int64)

    def choice(self, pool, size: int) -> np.ndarray:
        """Uniform draw of ``size`` elements without replacement."""
        self.draws += 1
        out = self._gen.choice(pool, size=size, replace=False)
        return np.ascontiguousarray(out, dtype=np.int64)

    def uniform(self, size=None):
        self.draws += 1
        return self._gen.random(size)

    def integers(self, high: int, size=None):
        self.draws += 1
        return self._gen.integers(0, high, size=size)


@dataclass(frozen=True)
class SamplePlan:
    """Index sets for one iteration and the layout they are evaluated in.

    S is the batch; O_prev is the part shared with the previous batch (the
    set both curvature-pair gradients are evaluated on); O_next is the part
    reserved for the pair with the next batch, when known at draw time.

    ``rows`` is the source's row order and ``spans`` holds one
    ``(start, stop)`` pair per non-empty part of the batch, ascending and
    disjoint within ``rows``; S is the concatenation of the parts and
    ``sample_size`` its size, which every source knows when it draws.
    ``rows`` is read-only in strategy 1 and fault mode and writable (drawn
    afresh) otherwise. ``link`` is None when O_prev is empty, and otherwise
    a pair of position lists: the parts of the previous plan and the parts
    of this plan whose rows are O_prev. The second entry is None when O_prev
    is not made of this plan's parts (strategy 2): O_prev is then
    ``O_extra``, and its gradient at the new iterate needs a fresh
    evaluation.
    """

    rows: np.ndarray
    spans: tuple
    sample_size: int
    O_next: np.ndarray
    link: tuple | None = None
    responders: tuple = ()
    redraws: int = 0
    O_extra: np.ndarray | None = None

    @cached_property
    def S(self) -> np.ndarray:
        """The batch: the parts' rows in part order, a view of ``rows`` when
        the parts are back to back."""
        return join_ranges(self.rows, self.spans)

    @cached_property
    def O_prev(self) -> np.ndarray:
        """Derived on first use: the linked parts' rows, or ``O_extra``."""
        if self.link is None or self.link[1] is None:
            return _EMPTY if self.O_extra is None else self.O_extra
        return join_ranges(self.rows, [self.spans[i] for i in self.link[1]])

    @property
    def overlap_size(self) -> int:
        """|O_prev|, without building O_prev from the linked parts."""
        if self.link is None or self.link[1] is None:
            return self.O_prev.size
        return sum(self.spans[i][1] - self.spans[i][0] for i in self.link[1])


def _spans(*sizes, start: int = 0) -> tuple:
    """Consecutive spans from ``start`` of the non-empty parts of ``sizes``."""
    ends = list(itertools.accumulate((size for size in sizes if size), initial=start))
    return tuple(zip(ends, ends[1:]))


def _strategy1_plan(rows, a: int, b: int, o_prev: int, o_next: int, prev) -> SamplePlan:
    """Plan of S = rows[a:b] in the parts O_prev (its head), the middle and
    O_next (its tail); a non-empty O_prev is the last part of ``prev``."""
    link = ([len(prev.spans) - 1], [0]) if o_prev else None
    return SamplePlan(rows=rows, sample_size=b - a, O_next=rows[b - o_next:b], link=link,
                      spans=_spans(o_prev, b - a - o_prev - o_next, o_next, start=a))


def strategy_batch_sizes(n: int, r: float, o: float,
                         mode: str = "strategy2") -> tuple:
    """Validated (|S|, |O|) for the multi-batch strategies; strategy 1 also
    needs a batch longer than its two overlap blocks together."""
    if not 0 < r <= 1:
        raise ConfigurationError(f"batch fraction r={r} outside (0, 1]")
    if not 0 < o < 1:
        raise ConfigurationError(f"overlap fraction o={o} outside (0, 1)")
    if o * r * n < 1:
        raise ConfigurationError(
            f"overlap empty: o*r*n = {o * r * n:.3g} < 1 (n={n}, r={r}, o={o})"
        )
    s_size = math.ceil(r * n)
    o_size = max(1, math.ceil(o * s_size))
    if mode == "strategy1" and 2 * o_size >= s_size:
        raise ConfigurationError(
            f"overlap too large for strategy 1: 2*{o_size} >= |S|={s_size}"
        )
    return s_size, o_size


def plan_strategy1_epoch(n: int, r: float, o: float, rng: SeededRng) -> list:
    """One epoch of forced-overlap batches cut from a fresh permutation.

    Batches advance through the permutation with stride |S| - |O|, so the
    tail block of each batch is exactly the head block of the next one. The
    final batch is truncated if needed so the epoch covers every index; the
    epoch ends without a planned overlap into the next (reshuffled) epoch.
    Every plan's ``rows`` is the read-only permutation.
    """
    s_size, o_size = strategy_batch_sizes(n, r, o, "strategy1")
    perm = rng.permutation(n)
    perm.flags.writeable = False

    if s_size == n:
        # full-batch special case: every batch is the whole (re)shuffled
        # dataset, so any designated overlap block is shared with the next
        # batch; one full batch per epoch
        return [_strategy1_plan(perm, 0, n, 0, o_size, None)]

    # (start, stop, |O_prev|, |O_next|) of each batch in the permutation
    starts = range(0, n - s_size + 1, s_size - o_size)
    batches = [(a, a + s_size, o_size if a else 0, o_size) for a in starts]
    coverage = starts[-1] + s_size
    if coverage < n:
        # truncated final batch: reuses the pending overlap block and runs
        # to the end of the permutation so every index is used this epoch
        batches.append((coverage - o_size, n, o_size, 0))
    batches[-1] = (*batches[-1][:3], 0)  # no overlap into the next epoch
    plans = []
    for a, b, o_prev, o_next in batches:
        plans.append(_strategy1_plan(perm, a, b, o_prev, o_next,
                                     plans[-1] if plans else None))
    return plans


def plan_strategy2(n: int, r: float, o: float, rng: SeededRng,
                   O_prev: np.ndarray = _EMPTY) -> SamplePlan:
    """Independent uniform batch with a subsampled overlap block.

    S is stored as O_next followed by the rest of the batch, its two parts.
    ``O_prev``, the previous plan's O_next, is that plan's first part; it is
    drawn independently of this batch, so it has no part here.
    """
    s_size, o_size = strategy_batch_sizes(n, r, o)
    S = rng.choice(n, s_size)
    O_next = rng.choice(S, o_size)
    rest = np.setdiff1d(S, O_next, assume_unique=True)
    return SamplePlan(rows=np.concatenate([O_next, rest]), sample_size=s_size,
                      O_next=O_next, spans=_spans(o_size, rest.size),
                      link=([0], None) if O_prev.size else None, O_extra=O_prev)


@dataclass(frozen=True)
class NodeLayout:
    """Balanced partition of the example indices across B nodes.

    The shards must partition 0..n-1, n being their total size. ``rows``
    holds all shards back to back, read-only; shard ``j`` is
    ``rows[offsets[j]:offsets[j + 1]]``.
    """

    shards: tuple
    fail_prob: float
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.fail_prob < 1:
            raise ConfigurationError(f"failure probability {self.fail_prob} outside [0, 1)")
        sizes = [s.size for s in self.shards]
        if not sizes or max(sizes) == 0:
            raise ConfigurationError("shards hold no rows")
        if max(sizes) - min(sizes) > 1:
            raise ConfigurationError("shard sizes differ by more than 1")
        total = np.concatenate(self.shards)
        if total.dtype.kind not in "iu":
            raise ConfigurationError("shard rows must be integers")
        total = total.astype(np.int64, copy=False)
        n = total.size
        # n rows inside 0..n-1 with none repeated are all of them, once each;
        # a negative row viewed as unsigned is at least 2**63
        if total.view(np.uint64).max() >= n:
            raise ConfigurationError(f"shard rows outside 0..{n - 1}")
        if np.bincount(total, minlength=n).max() > 1:
            raise ConfigurationError("shards are not disjoint")
        total.flags.writeable = False
        object.__setattr__(self, "rows", total)
        object.__setattr__(self, "offsets",
                           tuple(itertools.accumulate(sizes, initial=0)))

    @property
    def node_count(self) -> int:
        return len(self.shards)

    @property
    def n(self) -> int:
        return self.rows.size


def _split_balanced(order: np.ndarray, nodes: int) -> tuple:
    n = order.size
    base, extra = divmod(n, nodes)
    shards, pos = [], 0
    for i in range(nodes):
        size = base + (1 if i < extra else 0)
        shards.append(np.ascontiguousarray(order[pos:pos + size], dtype=np.int64))
        pos += size
    return tuple(shards)


def check_node_count(n: int, nodes: int):
    if nodes < 1 or nodes > n:
        raise ConfigurationError(f"node count {nodes} outside [1, n={n}]")


def make_layout(n: int, nodes: int, fail_prob: float,
                rng: SeededRng | None = None) -> NodeLayout:
    """Shard {0..n-1} across ``nodes``; random assignment when rng is given."""
    check_node_count(n, nodes)
    order = rng.permutation(n) if rng is not None else np.arange(n, dtype=np.int64)
    return NodeLayout(shards=_split_balanced(order, nodes), fail_prob=fail_prob)


def reshard(layout: NodeLayout, rng: SeededRng) -> NodeLayout:
    """Shuffle and redistribute the data across the same number of nodes."""
    order = rng.permutation(layout.n)
    return NodeLayout(shards=_split_balanced(order, layout.node_count),
                      fail_prob=layout.fail_prob)


def plan_fault(layout: NodeLayout, rng: SeededRng,
               prev_responders=None) -> SamplePlan:
    """Draw the responding node set (``responders``) and the resulting batch.

    Each node independently responds with probability 1 - p. An all-failed
    draw is redrawn (and counted); ``MAX_REDRAWS`` of them in a row raise
    ``ConfigurationError``, since p is then too close to 1 for the node
    count. The overlap with the previous iteration is the union of shards
    whose nodes responded both times. Each responding node's shard is one
    part of the batch, a span of the layout's ``rows``, so the positions of
    the repeat responders in both draws link O_prev to the parts of both
    plans.
    """
    p = layout.fail_prob
    redraws = 0
    while True:
        responded = rng.uniform(layout.node_count) >= p
        if responded.any():
            break
        redraws += 1
        if redraws == MAX_REDRAWS:
            raise ConfigurationError(
                f"{MAX_REDRAWS} consecutive draws had no responding node at "
                f"failure probability {p} with {layout.node_count} nodes")
    J = tuple(int(j) for j in np.nonzero(responded)[0])
    prev_pos = {j: i for i, j in enumerate(prev_responders or ())}
    shared = [(prev_pos[j], i) for i, j in enumerate(J) if j in prev_pos]
    offsets = layout.offsets
    spans = tuple((offsets[j], offsets[j + 1]) for j in J)
    return SamplePlan(rows=layout.rows, spans=spans,
                      sample_size=sum(b - a for a, b in spans), O_next=_EMPTY,
                      link=tuple(map(list, zip(*shared))) if shared else None,
                      responders=J, redraws=redraws)


# ----------------------------------------------------------------------
# stateful plan sources feeding the driver loop
# ----------------------------------------------------------------------
class Strategy1Source:
    """Streams strategy-1 plans, reshuffling after each pass over the data."""

    def __init__(self, n: int, r: float, o: float, rng: SeededRng):
        strategy_batch_sizes(n, r, o, "strategy1")  # validate eagerly
        self.n, self.r, self.o, self.rng = n, r, o, rng
        self._queue = []
        self._full_batch = math.ceil(r * n) == n
        self._last = None

    def next_plan(self) -> SamplePlan:
        last = self._last
        if not self._queue:
            self._queue = plan_strategy1_epoch(self.n, self.r, self.o, self.rng)
            if self._full_batch and last is not None:
                # with S = whole dataset the previous overlap block is still
                # inside the new batch, so the pair chain continues across
                # the reshuffle; redraw O_next disjoint from it, and reorder
                # S so that O_prev is its head block and O_next its tail
                plan = self._queue[0]
                o_prev = last.O_next
                outside = np.setdiff1d(plan.S, o_prev, assume_unique=True)
                o_next = self.rng.choice(outside, plan.O_next.size)
                middle = plan.S[~np.isin(plan.S, np.concatenate([o_prev, o_next]))]
                rows = np.concatenate([o_prev, middle, o_next])
                rows.flags.writeable = False  # the epoch's order, like perm
                self._queue[0] = _strategy1_plan(rows, 0, self.n, o_prev.size,
                                                 o_next.size, last)
        self._last = self._queue.pop(0)
        return self._last

    def epoch_boundary(self):
        pass


class Strategy2Source:
    """Streams independent uniform batches; stitches O_next into the next
    plan's O_prev so the driver sees a uniform interface."""

    def __init__(self, n: int, r: float, o: float, rng: SeededRng):
        strategy_batch_sizes(n, r, o)
        self.n, self.r, self.o, self.rng = n, r, o, rng
        self._prev_overlap = _EMPTY

    def next_plan(self) -> SamplePlan:
        plan = plan_strategy2(self.n, self.r, self.o, self.rng, self._prev_overlap)
        self._prev_overlap = plan.O_next
        return plan

    def epoch_boundary(self):
        pass


class FaultSource:
    """Streams fault-mode plans; optionally reshards at epoch boundaries."""

    def __init__(self, layout: NodeLayout, rng: SeededRng,
                 reshard_each_epoch: bool = False):
        self.layout = layout
        self.rng = rng
        self.reshard_each_epoch = reshard_each_epoch
        self._prev_responders = None

    def next_plan(self) -> SamplePlan:
        plan = plan_fault(self.layout, self.rng, self._prev_responders)
        self._prev_responders = plan.responders
        return plan

    def epoch_boundary(self):
        if self.reshard_each_epoch:
            self.layout = reshard(self.layout, self.rng)
            # shard identities changed; the next overlap is undefined
            self._prev_responders = None


class SerialSource:
    """Streams one uniformly drawn example per plan, for serial SGD; the
    plans have no overlaps, so no curvature pair is ever formed."""

    def __init__(self, n: int, rng: SeededRng):
        self.n, self.rng = n, rng

    def next_plan(self) -> SamplePlan:
        S = np.array([self.rng.integers(self.n)], dtype=np.int64)
        return SamplePlan(rows=S, spans=((0, 1),), sample_size=1, O_next=_EMPTY)

    def epoch_boundary(self):
        pass


def make_plan_source(mode: str, n: int, rng: SeededRng, *, r: float = 0.0,
                     o: float = 0.0, nodes: int = 0, fail_prob: float = 0.0,
                     reshard_each_epoch: bool = False):
    if mode == "strategy1":
        return Strategy1Source(n, r, o, rng)
    if mode == "strategy2":
        return Strategy2Source(n, r, o, rng)
    if mode == "fault":
        layout = make_layout(n, nodes, fail_prob, rng)
        return FaultSource(layout, rng, reshard_each_epoch)
    raise UsageError(f"unknown sampling mode {mode!r}")
