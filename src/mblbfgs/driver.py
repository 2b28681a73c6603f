"""The multi-batch optimization loop: step schedules, iterate updates,
overlap-gradient bookkeeping, the four comparison methods, and the
curvature diagnostics.

Methods:

* ``robust_lbfgs``       -- curvature pairs from gradient differences on the
                            overlap of consecutive batches (same samples at
                            both iterates).
* ``inconsistent_lbfgs`` -- baseline whose pairs difference the batch
                            gradients themselves, computed on different
                            samples.
* ``multibatch_gd``      -- identity inverse Hessian (plain batch gradient
                            steps).
* ``serial_sgd``         -- one uniformly drawn sample per iteration and an
                            identity inverse Hessian.

All four run through the one loop in ``run``, one pass per iterate from
k = 0: draw a plan, evaluate the batch, form the pair of the step that led
here (none at k = 0), evaluate the full data every ``stride`` iterates,
record, check the stopping rules, step. One handler catches a
``NumericError`` anywhere in the pass. The loop does not know the sampling
mode; the plan carries the layout. One
``Objective.eval_sums(w, plan.rows, plan.spans)`` call per batch returns the
gradient and loss sums of every part (one row of ``G``/``L`` each). A
strategy-1 epoch's order and a fault-mode layout are read-only, and the
objective reads their parts in place from its kept copy of those rows;
other batches are gathered. A metrology
``eval_full`` reuses the margins of a kept call at the same iterate over
half the rows or more.
The batch gradient adds all rows, and an overlap gradient adds the rows that
``plan.link`` names, so both gradients of a curvature pair are sums over the
same index set O_k. Serial SGD is the source of one-example plans with empty
overlaps (``sampling.SerialSource``), so it gets the same stopping rules,
divergence check and abort strings as the batch methods. The methods without
memory (``multibatch_gd``, ``serial_sgd``) step along -g.

Epoch accounting charges |S_k|/n per batch-gradient evaluation, plus
|O_k|/n when O_k is not made of parts of the new batch (strategy 2), where
the overlap gradient at the new iterate is an extra evaluation. Otherwise
the overlap gradients are recombinations of per-part sums that were already
evaluated, so they are free. Full-gradient trace evaluation is metrology
and is never charged.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .engine import LbfgsMemory
from .errors import ConfigurationError, NumericError, UsageError
from .linalg import Vector
from .objectives import Objective
from .sampling import (SeededRng, SerialSource, check_node_count, make_plan_source,
                       strategy_batch_sizes)

METHODS = ("robust_lbfgs", "inconsistent_lbfgs", "multibatch_gd", "serial_sgd")
MODES = ("strategy1", "strategy2", "fault")
# a run aborts as diverged once its full loss exceeds this multiple of the
# first full loss
DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class StepSchedule:
    """Step-length schedule: constant alpha, diminishing beta/(k+1), or the
    horizon-scaled constant c/sqrt(tau)."""

    kind: str
    value: float
    tau: int | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "diminishing", "sqrt_horizon"):
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")
        if not self.value > 0:  # NaN too
            raise ConfigurationError("schedule parameter must be positive")
        if self.kind == "sqrt_horizon" and (self.tau is None or self.tau < 1):
            raise ConfigurationError("sqrt_horizon schedule needs tau >= 1")

    def alpha_at(self, k: int) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "diminishing":
            return self.value / (k + 1)
        return self.value / math.sqrt(self.tau)

    def label(self) -> str:
        if self.kind == "constant":
            return f"{self.value:g}"
        if self.kind == "diminishing":
            return f"dim{self.value:g}"
        return f"sqrt{self.value:g}-{self.tau}"


def constant(alpha: float) -> StepSchedule:
    return StepSchedule("constant", alpha)


def diminishing(beta: float) -> StepSchedule:
    return StepSchedule("diminishing", beta)


def sqrt_horizon(c: float, tau: int) -> StepSchedule:
    return StepSchedule("sqrt_horizon", c, tau)


@dataclass
class RunConfig:
    """Everything that pins down one optimization run."""

    method: str = "robust_lbfgs"
    mode: str = "strategy1"
    batch_frac: float = 0.05
    overlap_frac: float = 0.2
    nodes: int = 16
    fail_prob: float = 0.0
    schedule: StepSchedule = field(default_factory=lambda: constant(0.1))
    memory: int = 10
    cautious_eps: float = 1e-4
    scaling: object = "bb"
    epochs: float = 10.0
    seed: int = 0
    reshard_each_epoch: bool = False
    trace_stride: int | None = None
    max_iterations: int | None = None
    grad_tol: float | None = None
    w0: object = None

    def validate(self, n: int):
        """Raise ``ConfigurationError`` unless this run can start on ``n``
        rows; the sizes are checked with the plan sources' own rules, before
        anything is drawn."""
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown sampling mode {self.mode!r}")
        if not self.epochs >= 0:  # NaN too
            raise ConfigurationError("epochs must be >= 0")
        if not 0 <= self.seed < 2**128:  # the range of a Philox key
            raise ConfigurationError(f"seed {self.seed} outside [0, 2**128)")
        if self.mode == "fault" and not 0 <= self.fail_prob < 1:
            raise ConfigurationError("failure probability must be in [0, 1)")
        stride = self.trace_stride
        if stride is not None and not (isinstance(stride, numbers.Integral)
                                       and stride >= 1):
            raise ConfigurationError(f"trace stride {stride!r} is not an integer >= 1")
        if self.method == "serial_sgd":
            return
        if self.mode == "fault":
            check_node_count(n, self.nodes)
        else:
            strategy_batch_sizes(n, self.batch_frac, self.overlap_frac, self.mode)

    def effective_stride(self, n: int) -> int:
        if self.trace_stride is not None:
            return self.trace_stride
        if self.method == "serial_sgd":
            return n
        frac = (1.0 - self.fail_prob) if self.mode == "fault" else self.batch_frac
        return max(1, math.ceil(1.0 / frac))


@dataclass
class TraceRecord:
    k: int
    epoch: float
    grad_norm: float
    subset_loss: float
    full_loss: float
    train_acc: float
    pair_accepted: int
    sample_size: int
    overlap_size: int
    redraws: int
    wallclock: float


@dataclass
class RunTrace:
    """Per-iteration records of one run plus its terminal state."""

    records: list
    aborted: str | None
    final_w: Vector
    final_memory: LbfgsMemory | None
    config: RunConfig

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records], dtype=np.float64)


# ----------------------------------------------------------------------
# standalone step and pair operations, also used directly by tests
# ----------------------------------------------------------------------
def take_step(w: Vector, memory: LbfgsMemory, g: Vector, alpha: float,
              identity_hessian: bool = False) -> Vector:
    """w + alpha * p with p from the two-loop recursion (or p = -g, taken
    as w - alpha * g, which has the same bits)."""
    w_next = w - alpha * g if identity_hessian else w + alpha * memory.direction(g)
    if not np.isfinite(w_next).all():
        raise NumericError("step produced a non-finite iterate")
    return w_next


def form_pair(objective: Objective, w_prev: Vector, w_next: Vector,
              overlap) -> tuple:
    """Curvature pair from gradients on the same overlap set at both iterates."""
    overlap = np.asarray(overlap, dtype=np.int64)
    if overlap.size == 0:
        raise UsageError("cannot form a pair on an empty overlap")
    g_prev = objective.eval_subset(w_prev, overlap).gradient
    g_next = objective.eval_subset(w_next, overlap).gradient
    return w_next - w_prev, g_next - g_prev


def _average(objective: Objective, w: Vector, G, L, count: int, reg,
             parts=None) -> tuple:
    """Average gradient and loss of the summed parts ``parts`` (rows of
    ``G``/``L``, all by default) over ``count``, with ``w``'s terms ``reg``."""
    if parts is not None:  # one part is read in place
        i = parts[0]
        G, L = (G[i:i + 1], L[i:i + 1]) if len(parts) == 1 else (G[parts], L[parts])
    if len(G) == 1:
        return objective.average(w, G[0], L[0], count, reg)
    # accumulate adds the parts strictly left to right, the order the golden
    # traces were recorded in; np.sum switches to pairwise summation from 8
    # terms up (for G, when d = 1), which changes the last bits
    return objective.average(w, np.add.accumulate(G)[-1], np.add.accumulate(L)[-1],
                             count, reg)


# ----------------------------------------------------------------------
# the driver loop
# ----------------------------------------------------------------------
# the loop's own overflows are caught by the finiteness checks after them
@np.errstate(over="ignore", invalid="ignore")
def run(config: RunConfig, objective: Objective, eval_ledger=None,
        pair_log=None) -> RunTrace:
    """Execute one optimization run and return its trace.

    ``eval_ledger``, when a list, collects (iterate, part, indices) for every
    algorithmic gradient evaluation; ``part`` is the part's position in its
    plan, or "O_extra" for the extra overlap evaluation of strategy 2. ``pair_log`` collects
    (k, y's, s's, y'y, accepted) for every candidate curvature pair, k being
    the step the pair measures.
    """
    n, d = objective.n, objective.d
    config.validate(n)
    stride = config.effective_stride(n)
    rng = SeededRng(config.seed)
    if config.method == "serial_sgd":
        source = SerialSource(n, rng)
    else:
        source = make_plan_source(
            config.mode, n, rng, r=config.batch_frac, o=config.overlap_frac,
            nodes=config.nodes, fail_prob=config.fail_prob,
            reshard_each_epoch=config.reshard_each_epoch,
        )
    memory = LbfgsMemory(config.memory, config.scaling, config.cautious_eps)
    use_memory = config.method in ("robust_lbfgs", "inconsistent_lbfgs")
    w = np.zeros(d) if config.w0 is None else np.asarray(config.w0, dtype=np.float64).copy()
    # the iterate the trace ends at if this pass fails: the previous one
    # until the new one's batch and pair are evaluated
    final_w = w
    s = np.zeros(d)  # no step before iterate 0, so no pair there

    records, aborted = [], None
    k, epoch, epochs_seen = 0, 0.0, 0
    divergence_limit = math.inf  # set from the first full loss
    t0 = time.perf_counter()
    try:
        while True:
            if math.floor(epoch) > epochs_seen:
                epochs_seen = math.floor(epoch)
                source.epoch_boundary()
            plan = source.next_plan()
            G, L = objective.eval_sums(w, plan.rows, plan.spans)
            if eval_ledger is not None:
                eval_ledger.extend((k, i, plan.rows[a:b])
                                   for i, (a, b) in enumerate(plan.spans))
            reg = objective.regularization(w)  # shared by every average at w
            g_S, loss_S = _average(objective, w, G, L, plan.sample_size, reg)
            epoch += plan.sample_size / n

            pair_accepted = 0
            overlap_size = plan.overlap_size
            if use_memory and s.any():  # a zero step forms no pair
                y = None
                if config.method == "inconsistent_lbfgs":
                    # gradient difference across different samples
                    y = g_S - g_prev
                elif plan.link is not None:
                    # overlap gradients at both iterates on the same index set O_k
                    prev_parts, next_parts = plan.link
                    g_over_prev, _ = _average(objective, w_prev, G_prev, L_prev,
                                              overlap_size, reg_prev, prev_parts)
                    G_over, L_over = G, L
                    if next_parts is None:
                        # O_k is not made of parts of the new batch: one
                        # extra evaluation, charged to the epoch count
                        G_over, L_over = objective.eval_sums(w, plan.O_prev)
                        if eval_ledger is not None:
                            eval_ledger.append((k, "O_extra", plan.O_prev))
                        epoch += overlap_size / n
                    g_over_next, _ = _average(objective, w, G_over, L_over,
                                              overlap_size, reg, next_parts)
                    y = g_over_next - g_over_prev
                if y is not None:
                    pair_accepted = int(memory.admit(s, y))
                    if pair_log is not None:
                        pair_log.append((k - 1, float(np.dot(y, s)),
                                         float(np.dot(s, s)), float(np.dot(y, y)),
                                         bool(pair_accepted)))
            final_w = w

            # a blown-up batch loss forces a confirming full evaluation so
            # divergence aborts promptly instead of at the next stride
            if k % stride == 0 or loss_S > divergence_limit:
                full = objective.eval_full(w)
                grad_norm = math.sqrt(float(np.dot(full.gradient, full.gradient)))
                full_loss, train_acc = full.loss, full.accuracy
                if k == 0:
                    divergence_limit = DIVERGENCE_FACTOR * max(abs(full_loss), 1e-12)

            records.append(TraceRecord(
                k=k, epoch=epoch, grad_norm=grad_norm, subset_loss=loss_S,
                full_loss=full_loss, train_acc=train_acc,
                pair_accepted=pair_accepted, sample_size=int(plan.sample_size),
                overlap_size=overlap_size, redraws=plan.redraws,
                wallclock=time.perf_counter() - t0 if k else 0.0))

            if full_loss > divergence_limit:
                aborted = "divergence"
                break
            if config.grad_tol is not None and grad_norm <= config.grad_tol:
                break
            if epoch >= config.epochs or (config.max_iterations is not None
                                          and k >= config.max_iterations):
                break

            w_prev, G_prev, L_prev, g_prev, reg_prev = w, G, L, g_S, reg
            w = take_step(w, memory, g_S, config.schedule.alpha_at(k),
                          identity_hessian=not use_memory)
            s = w - w_prev
            k += 1
    except NumericError as exc:
        aborted = f"numeric: {exc}"
    return RunTrace(records, aborted, final_w, memory, config)


# ----------------------------------------------------------------------
# curvature diagnostics
# ----------------------------------------------------------------------
@dataclass
class CurvatureDiagnostic:
    """One trial's agreement between the subsampled and true curvature
    vectors: their cosine plus quartiles of the componentwise ratio."""

    batch_size: int
    cosine: float
    ratio_median: float
    ratio_lower_q: float
    ratio_upper_q: float


def curvature_diagnostics(objective: Objective, w: Vector, batch_sizes,
                          trials: int, rng: SeededRng,
                          probe_step: float = 0.01) -> tuple:
    """Compare subsampled curvature vectors against the full-batch one.

    Takes a small gradient step from ``w``, computes the true gradient
    difference y_d between the two points, then for every batch size draws
    ``trials`` random subsets and computes the same difference y_s on each
    subset. Returns (diagnostics, discarded) where ``discarded`` counts
    zero-norm trials per batch size.
    """
    full0 = objective.eval_full(w)
    w2 = w - probe_step * full0.gradient
    if np.array_equal(w2, w):
        raise UsageError("probe step too small: iterates coincide")
    full1 = objective.eval_full(w2)
    y_d = full1.gradient - full0.gradient
    nd = math.sqrt(float(np.dot(y_d, y_d)))
    if nd == 0.0:
        raise UsageError("true curvature vector is zero at this point")
    mask = y_d != 0

    out, discarded = [], {}
    for b in batch_sizes:
        b = int(b)
        if not 1 <= b <= objective.n:
            raise UsageError(f"batch size {b} outside [1, n]")
        for _ in range(trials):
            idx = rng.choice(objective.n, b)
            g0 = objective.eval_subset(w, idx).gradient
            g1 = objective.eval_subset(w2, idx).gradient
            y_s = g1 - g0
            ns = math.sqrt(float(np.dot(y_s, y_s)))
            if ns == 0.0:
                discarded[b] = discarded.get(b, 0) + 1
                continue
            cosine = float(np.dot(y_s, y_d)) / (ns * nd)
            ratios = y_s[mask] / y_d[mask]
            lo, med, hi = np.percentile(ratios, [25.0, 50.0, 75.0])
            out.append(CurvatureDiagnostic(b, cosine, float(med), float(lo),
                                           float(hi)))
    return out, discarded
