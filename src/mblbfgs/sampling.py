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
  A layout (``NodeLayout``) is one permutation of the rows cut at balanced
  offsets, each node's shard a span of it. Resharding every epoch is the
  fault source's own policy: a source is ``next_plan()`` alone.

Serial SGD is driven by the same loop through a batch-of-one source whose
plans have empty overlaps. ``make_plan_source`` builds the source of every
run, serial SGD's included, from its ``RunConfig``.

Every plan also carries its evaluation layout, so the driver needs no
knowledge of the mode: the plan names a row order ``rows`` and the spans of
it that are the plan's parts, and ``link`` names the parts whose rows are
O_prev in the previous plan and in this one. So both gradients of a
curvature pair are sums over the same index set, from one evaluation call
per plan. In strategy 1 ``rows`` is the epoch's permutation, shared by
every plan of the epoch, and a batch's parts O_prev, the middle and O_next
are spans of it (the full batch, reordered every epoch, is S itself). In
strategy 2 ``rows`` is S, cut into O_next and the rest, then O_prev: drawn
apart from S, it is a trailing ``extra`` part outside the batch. In fault
mode ``rows`` is the layout's permutation, one object until a reshard;
each responding node's shard is one span and failed nodes leave gaps. In
serial mode ``rows`` is the identity order 0..n-1, one object per source,
and the drawn example i is the span (i, i + 1). Strategy-1 orders
(the full batch's included), fault layouts (resharded or not) and the
serial identity order serve several evaluations and are read-only, so the
objective keeps their rows once (the identity order as X itself, the others
as a copy) and reads the parts in place (``Objective.eval_sums``);
strategy-2 orders are fresh writable arrays, copied into a new entry by the
one call that reads them.

All draws come from a single named counter-based generator so a fixed seed
replays the exact plan stream.
"""
from __future__ import annotations

import itertools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, RedrawLimitError, UsageError
from .linalg import join_ranges

_EMPTY = np.zeros(0, dtype=np.int64)

# consecutive all-failed fault draws after which plan_fault gives up
MAX_REDRAWS = 10_000
# examples SerialSource draws in one call
SERIAL_BLOCK = 1024


def philox_key(seed) -> int:
    """``seed`` as a Philox key, or ``ConfigurationError``."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**128):
        raise ConfigurationError(f"seed {seed!r} is not an integer in [0, 2**128)")
    return int(seed)


class SeededRng:
    """Deterministic random stream (Philox 4x64 counter-based generator)."""

    def __init__(self, seed: int):
        self.seed = philox_key(seed)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n).astype(np.int64, copy=False)

    def choice(self, pool, size: int) -> np.ndarray:
        """Uniform draw of ``size`` elements without replacement."""
        out = self._gen.choice(pool, size=size, replace=False)
        return np.ascontiguousarray(out, dtype=np.int64)

    def uniform(self, size=None):
        return self._gen.random(size)

    def integers(self, high: int, size=None):
        return self._gen.integers(0, high, size=size)


class SamplePlan(namedtuple("SamplePlan", ("rows", "spans", "sample_size", "O_next",
                                           "link", "responders", "redraws", "extra"),
                             defaults=(None, (), 0, 0))):
    """Index sets for one iteration and the layout they are evaluated in.

    S is the batch; O_prev is the part shared with the previous batch (the
    set both curvature-pair gradients are evaluated on); O_next is the part
    reserved for the pair with the next batch, when known at draw time.

    ``rows`` is the source's row order and ``spans`` holds one
    ``(start, stop)`` pair per non-empty part, ascending and disjoint within
    ``rows``. The last ``extra`` parts (one in strategy 2 after its first
    plan, else none) lie outside the batch; S is the concatenation of the
    others and ``sample_size`` its size, which every source knows when it
    draws. ``rows`` is read-only in strategy 1, fault mode and serial mode
    (the identity order, S a one-row view of it), so the objective keeps it
    and reads every plan's parts in place, and writable (drawn afresh) in
    strategy 2, so the objective keeps a copy of it for the one call.
    ``link`` is None when O_prev is empty, and otherwise a pair of position
    lists: the parts of the previous plan and the parts of this plan whose
    rows are O_prev. In strategy 2 the second list names the extra part,
    whose gradient at the new iterate is a fresh evaluation.

    A plan is a named tuple, as cheap to build as a tuple, since serial SGD
    draws one per step; assigning a field raises ``AttributeError``. It is
    given no ``__slots__``, so S and O_prev are cached on first use.
    """

    @cached_property
    def S(self) -> np.ndarray:
        """The batch: the batch parts' rows in part order, a view of
        ``rows`` when those parts are back to back."""
        return join_ranges(self.rows, self.spans[:len(self.spans) - self.extra])

    @cached_property
    def O_prev(self) -> np.ndarray:
        """Derived on first use: the linked parts' rows."""
        return (join_ranges(self.rows, [self.spans[i] for i in self.link[1]])
                if self.link else _EMPTY)

    @property
    def overlap_size(self) -> int:
        """|O_prev|, without building O_prev."""
        return (sum(self.spans[i][1] - self.spans[i][0] for i in self.link[1])
                if self.link else 0)


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
    if not (isinstance(r, numbers.Real) and 0 < r <= 1):
        raise ConfigurationError(f"batch fraction r={r!r} is not a number in (0, 1]")
    if not (isinstance(o, numbers.Real) and 0 < o < 1):
        raise ConfigurationError(f"overlap fraction o={o!r} is not a number in (0, 1)")
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


def plan_strategy1_epoch(n: int, r: float, o: float, rng: SeededRng,
                         prev: SamplePlan | None = None) -> list:
    """One epoch of forced-overlap batches cut from a fresh permutation.

    Batches advance through the permutation with stride |S| - |O|, so the
    tail block of each batch is exactly the head block of the next one. The
    final batch is truncated if needed so the epoch covers every index; the
    epoch ends without a planned overlap into the next (reshuffled) epoch.
    The full batch is the exception: its one batch per epoch is the whole
    dataset, so ``prev``, the previous epoch's plan, has its O_next inside
    it and the pair chain goes on across the reshuffle. O_next is then
    redrawn apart from ``prev.O_next``, and the permutation reordered to
    O_prev, the middle and O_next. Every plan's ``rows`` is the read-only
    permutation.
    """
    s_size, o_size = strategy_batch_sizes(n, r, o, "strategy1")
    perm = rng.permutation(n)
    if s_size == n:
        o_prev = _EMPTY if prev is None else prev.O_next
        if o_prev.size:
            o_next = rng.choice(np.setdiff1d(perm, o_prev, assume_unique=True), o_size)
            middle = perm[~np.isin(perm, np.concatenate([o_prev, o_next]))]
            perm = np.concatenate([o_prev, middle, o_next])
        batches = [(0, n, o_prev.size, o_size)]
    else:
        # (start, stop, |O_prev|, |O_next|) of each batch in the permutation
        starts = range(0, n - s_size + 1, s_size - o_size)
        batches = [(a, a + s_size, o_size if a else 0, o_size) for a in starts]
        coverage = starts[-1] + s_size
        if coverage < n:
            # truncated final batch: reuses the pending overlap block and
            # runs to the end of the permutation so every index is used
            batches.append((coverage - o_size, n, o_size, 0))
        batches[-1] = (*batches[-1][:3], 0)  # no overlap into the next epoch
    perm.flags.writeable = False
    plans = []
    for a, b, o_prev, o_next in batches:
        plans.append(_strategy1_plan(perm, a, b, o_prev, o_next,
                                     plans[-1] if plans else prev))
    return plans


def plan_strategy2(n: int, r: float, o: float, rng: SeededRng,
                   O_prev: np.ndarray = _EMPTY) -> SamplePlan:
    """Independent uniform batch with a subsampled overlap block.

    ``rows`` is O_next, the rest of the batch, then ``O_prev``, the previous
    plan's O_next (its first part), each one part unless empty. S is the
    batch parts; O_prev, drawn independently of this batch, is the extra
    part, always the last one, since the rest can be empty.
    """
    s_size, o_size = strategy_batch_sizes(n, r, o)
    S = rng.choice(n, s_size)
    O_next = rng.choice(S, o_size)
    rest = np.setdiff1d(S, O_next, assume_unique=True)
    spans = _spans(o_size, rest.size, O_prev.size)
    extra = 1 if O_prev.size else 0
    return SamplePlan(rows=np.concatenate([O_next, rest, O_prev]), sample_size=s_size,
                      O_next=O_next, spans=spans, extra=extra,
                      link=([0], [len(spans) - 1]) if extra else None)


@dataclass(frozen=True, eq=False)
class NodeLayout:
    """The example indices sharded across B nodes: one row order cut at
    balanced offsets.

    ``rows`` must be a permutation of 0..n-1; the layout keeps a read-only
    copy of it, so the caller's array stays as it was. Shard ``j`` is
    ``rows[offsets[j]:offsets[j + 1]]``; the first n % B shards are one row
    longer than the others.
    """

    rows: np.ndarray = field(repr=False)
    node_count: int
    fail_prob: float
    offsets: tuple = field(init=False, repr=False)

    def __post_init__(self):
        check_fail_prob(self.fail_prob)
        rows = np.asarray(self.rows)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ConfigurationError("layout rows must be a 1-D integer array")
        n = rows.size
        if n == 0:
            raise ConfigurationError("layout holds no rows")
        check_node_count(n, self.node_count)
        rows = rows.astype(np.int64)
        # n rows inside 0..n-1 with none repeated are all of them, once each;
        # a negative row viewed as unsigned is at least 2**63
        if rows.view(np.uint64).max() >= n:
            raise ConfigurationError(f"layout rows outside 0..{n - 1}")
        if np.bincount(rows, minlength=n).max() > 1:
            raise ConfigurationError("layout rows are repeated")
        rows.flags.writeable = False
        nodes = int(self.node_count)  # True is one node; rng.uniform takes no bool
        base, extra = divmod(n, nodes)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "node_count", nodes)
        object.__setattr__(self, "offsets", tuple(
            j * base + min(j, extra) for j in range(nodes + 1)))

    @property
    def shards(self) -> tuple:
        """Each node's rows, a view of ``rows``."""
        return tuple(self.rows[a:b] for a, b in zip(self.offsets, self.offsets[1:]))

    @property
    def n(self) -> int:
        return self.rows.size


def check_node_count(n: int, nodes: int):
    if not (isinstance(nodes, numbers.Integral) and 1 <= nodes <= n):
        raise ConfigurationError(f"node count {nodes!r} is not an integer in [1, n={n}]")


def check_fail_prob(p: float):
    if not (isinstance(p, numbers.Real) and 0 <= p < 1):
        raise ConfigurationError(f"failure probability {p!r} is not a number in [0, 1)")


def make_layout(n: int, nodes: int, fail_prob: float,
                rng: SeededRng | None = None) -> NodeLayout:
    """Shard {0..n-1} across ``nodes``; random assignment when rng is given."""
    order = rng.permutation(n) if rng is not None else np.arange(n, dtype=np.int64)
    return NodeLayout(order, nodes, fail_prob)


def reshard(layout: NodeLayout, rng: SeededRng) -> NodeLayout:
    """Shuffle and redistribute the data across the same number of nodes."""
    return NodeLayout(rng.permutation(layout.n), layout.node_count, layout.fail_prob)


def plan_fault(layout: NodeLayout, rng: SeededRng,
               prev_responders=None) -> SamplePlan:
    """Draw the responding node set (``responders``) and the resulting batch.

    Each node independently responds with probability 1 - p. An all-failed
    draw is redrawn (and counted); ``MAX_REDRAWS`` of them in a row raise
    ``RedrawLimitError``, since p is then too close to 1 for the node
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
            raise RedrawLimitError(
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
        self.n, self.r, self.o, self.rng = n, r, o, rng
        self._queue = []
        self._last = None

    def next_plan(self) -> SamplePlan:
        if not self._queue:
            self._queue = plan_strategy1_epoch(self.n, self.r, self.o, self.rng,
                                               self._last)
        self._last = self._queue.pop(0)
        return self._last


class Strategy2Source:
    """Streams independent uniform batches; stitches O_next into the next
    plan's O_prev so the driver sees a uniform interface."""

    def __init__(self, n: int, r: float, o: float, rng: SeededRng):
        self.n, self.r, self.o, self.rng = n, r, o, rng
        self._prev_overlap = _EMPTY

    def next_plan(self) -> SamplePlan:
        plan = plan_strategy2(self.n, self.r, self.o, self.rng, self._prev_overlap)
        self._prev_overlap = plan.O_next
        return plan


class FaultSource:
    """Streams fault-mode plans; optionally reshards after each pass of rows
    served, counted |S|/n per plan as a run counts its epochs."""

    def __init__(self, layout: NodeLayout, rng: SeededRng,
                 reshard_each_epoch: bool = False):
        self.layout = layout
        self.rng = rng
        self.reshard_each_epoch = reshard_each_epoch
        self._prev_responders = None
        self._epoch, self._resharded_at = 0.0, 0

    def next_plan(self) -> SamplePlan:
        if self.reshard_each_epoch and math.floor(self._epoch) > self._resharded_at:
            self._resharded_at = math.floor(self._epoch)
            self.layout = reshard(self.layout, self.rng)
            # shard identities changed; the next overlap is undefined
            self._prev_responders = None
        plan = plan_fault(self.layout, self.rng, self._prev_responders)
        self._prev_responders = plan.responders
        self._epoch += plan.sample_size / self.layout.n
        return plan


class SerialSource:
    """Streams one uniformly drawn example per plan, for serial SGD; the
    plans have no overlaps, so no curvature pair is ever formed. Every plan
    names the source's one read-only identity order 0..n-1 as ``rows``, and
    example i as its span (i, i + 1).

    The examples are drawn ``SERIAL_BLOCK`` at a time: numpy's
    ``integers(0, n, size=B)`` gives the values of B single draws, in order,
    so the stream is the one single draws give, at a fraction of the cost
    per example."""

    def __init__(self, n: int, rng: SeededRng):
        self.n, self.rng = n, rng
        self._rows = np.arange(n, dtype=np.int64)
        self._rows.flags.writeable = False
        self._draws = iter(())

    def next_plan(self) -> SamplePlan:
        i = next(self._draws, None)
        if i is None:
            self._draws = iter(self.rng.integers(self.n, size=SERIAL_BLOCK).tolist())
            i = next(self._draws)
        return SamplePlan(self._rows, ((i, i + 1),), 1, _EMPTY)


def make_plan_source(config, n: int, rng: SeededRng):
    """The plan source of a run of ``config``, a validated ``RunConfig``, on
    ``n`` rows: serial SGD's for its method, else its sampling mode's."""
    if config.method == "serial_sgd":
        return SerialSource(n, rng)
    r, o = config.batch_frac, config.overlap_frac
    if config.mode == "strategy1":
        return Strategy1Source(n, r, o, rng)
    if config.mode == "strategy2":
        return Strategy2Source(n, r, o, rng)
    if config.mode == "fault":
        layout = make_layout(n, config.nodes, config.fail_prob, rng)
        return FaultSource(layout, rng, config.reshard_each_epoch)
    raise UsageError(f"unknown sampling mode {config.mode!r}")
