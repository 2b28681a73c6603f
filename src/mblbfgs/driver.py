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
``NumericError`` anywhere in the pass, one a ``RedrawLimitError``. ``run``
is one ``linalg.quiet`` call, so it enters numpy's error state once, and the
quiet calls inside it (evaluation, averaging, direction, admission) only
check that it has. The loop does not know the sampling mode; the plan
carries the layout. One ``Objective.eval_sums(w, plan.rows, spans)`` call
per iterate returns the gradient and loss sums of every part (one row of
``G``/``L`` each): the batch parts, and strategy 2's trailing extra part O_k
when it forms a ``robust_lbfgs`` pair. A strategy-1 epoch's order, a
fault-mode layout and a serial SGD block of draws are read-only, and the
objective copies each order's rows once and reads every batch's parts in
place from that entry; strategy-2 rows are writable, so each call's rows are
copied into a new entry. A metrology ``eval_full`` reuses the margins the
entry's last call kept, when it was at the same iterate over half the rows
or more. The batch gradient adds the batch parts' rows, and an overlap
gradient adds the rows that ``plan.link`` names, so both gradients of a
curvature pair are sums over the same index set O_k. Serial SGD is the
source of one-example plans with empty overlaps, each a one-row span of its
block of draws (``sampling.SerialSource``), so it gets the same stopping
rules, divergence check and abort strings as the batch methods. The methods
without memory (``multibatch_gd``, ``serial_sgd``) step along -g.

Epoch accounting charges |S_k|/n per batch-gradient evaluation, plus
|O_k|/n when O_k is the plan's extra part (strategy 2), where the overlap
gradient at the new iterate is an extra evaluation. Otherwise
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

from .engine import LbfgsMemory, memory_settings
from .errors import ConfigurationError, NumericError, RedrawLimitError, UsageError
from .linalg import Vector, all_finite, quiet
from .objectives import Objective
from .sampling import (SeededRng, check_fail_prob, check_node_count, make_plan_source,
                       philox_key, strategy_batch_sizes)

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
        if not 0 < self.value < math.inf:  # NaN too
            raise ConfigurationError("schedule parameter must be finite and positive")
        if self.kind == "sqrt_horizon" and not (isinstance(self.tau, numbers.Integral)
                                                and self.tau >= 1):
            raise ConfigurationError(f"sqrt_horizon tau {self.tau!r} is not an integer >= 1")

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
    """Everything that pins down one optimization run; the home of every run default."""

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

    def validate(self, n: int, d: int):
        """Raise ``ConfigurationError`` unless this run can start on ``n``
        rows of ``d`` features; the seed, the memory parameters and the
        sizes are checked with the rules of ``SeededRng``, the memory and
        the plan sources, before anything is drawn, and ``w0`` is None or a
        real vector of length d (whether it is finite is the run's to find)."""
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown sampling mode {self.mode!r}")
        # NaN too; an infinite budget ends only at max_iterations
        epochs = self.epochs
        if not (isinstance(epochs, numbers.Real)
                and (0 <= epochs < math.inf
                     or epochs == math.inf and self.max_iterations is not None)):
            raise ConfigurationError(f"epochs {epochs!r} is not a number >= 0, "
                                     f"finite without max_iterations")
        if not isinstance(self.schedule, StepSchedule):
            raise ConfigurationError(f"schedule {self.schedule!r} is not a StepSchedule")
        if not isinstance(self.reshard_each_epoch, (bool, np.bool_)):
            raise ConfigurationError(
                f"reshard_each_epoch {self.reshard_each_epoch!r} is not a bool")
        philox_key(self.seed)
        if self.mode == "fault":
            check_fail_prob(self.fail_prob)
        for name, value, low in (("trace stride", self.trace_stride, 1),
                                 ("max_iterations", self.max_iterations, 0)):
            if value is not None and not (isinstance(value, numbers.Integral)
                                          and value >= low):
                raise ConfigurationError(f"{name} {value!r} is not an integer >= {low}")
        tol = self.grad_tol
        if tol is not None and not (isinstance(tol, numbers.Real) and tol >= 0):
            raise ConfigurationError(f"grad_tol {tol!r} is not a number >= 0")
        if self.w0 is not None:
            try:
                w0 = np.asarray(self.w0)
            except ValueError:  # a ragged list
                w0 = None
            if w0 is None or w0.dtype.kind not in "biuf" or w0.shape != (d,):
                raise ConfigurationError(f"w0 is not a real vector of length d={d}")
        memory_settings(self.memory, self.scaling, self.cautious_eps)
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
# the step, also used directly by tests
# ----------------------------------------------------------------------
@quiet
def take_step(w: Vector, memory: LbfgsMemory, g: Vector, alpha: float,
              identity_hessian: bool = False) -> Vector:
    """w + alpha * p with p from the two-loop recursion (or p = -g, taken
    as w - alpha * g, which has the same bits)."""
    w_next = w - alpha * g if identity_hessian else w + alpha * memory.direction(g)
    if not all_finite(w_next):
        raise NumericError("step produced a non-finite iterate")
    return w_next


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
@quiet
def run(config: RunConfig, objective: Objective, pair_log=None) -> RunTrace:
    """Execute one optimization run and return its trace.

    ``pair_log``, when a list, collects (k, y's, s's, y'y, accepted) for every
    candidate curvature pair, k being the step the pair measures. The trace
    keeps only whether each pair was accepted; the nonconvex oracle
    ``verification.check_nonconvex_bounded`` reads the inner products of every
    admitted pair from this log.
    """
    n, d = objective.n, objective.d
    config.validate(n, d)
    stride = config.effective_stride(n)
    source = make_plan_source(config, n, SeededRng(config.seed))
    memory = LbfgsMemory(config.memory, config.scaling, config.cautious_eps)
    use_memory = config.method in ("robust_lbfgs", "inconsistent_lbfgs")
    robust = config.method == "robust_lbfgs"
    w = np.zeros(d) if config.w0 is None else np.asarray(config.w0, dtype=np.float64).copy()
    # the iterate the trace ends at if this pass fails: the previous one
    # until the new one's batch and pair are evaluated
    final_w = w
    s = np.zeros(d)  # no step before iterate 0, so no pair there

    records, aborted = [], None
    k, epoch = 0, 0.0
    divergence_limit = math.inf  # set from the first full loss
    # the run's constants, read once
    epochs, grad_tol = config.epochs, config.grad_tol
    last_k = math.inf if config.max_iterations is None else config.max_iterations
    alpha_at, clock = config.schedule.alpha_at, time.perf_counter
    t0 = clock()
    try:
        while True:
            plan = source.next_plan()
            pair = use_memory and s.any()  # a zero step forms no pair
            overlap_pair = pair and robust and plan.link is not None
            spans, batch = plan.spans, len(plan.spans) - plan.extra
            if plan.extra and not overlap_pair:
                spans = spans[:batch]  # the extra part serves only the pair
            G, L = objective.eval_sums(w, plan.rows, spans)
            reg = objective.regularization(w)  # shared by every average at w
            G_S, L_S = (G[:batch], L[:batch]) if plan.extra else (G, L)
            g_S, loss_S = _average(objective, w, G_S, L_S, plan.sample_size, reg)
            epoch += plan.sample_size / n

            pair_accepted = 0
            overlap_size = plan.overlap_size
            y = None
            if overlap_pair:
                # overlap gradients at both iterates on the same index set O_k
                prev_parts, next_parts = plan.link
                g_over_prev, _ = _average(objective, w_prev, G_prev, L_prev,
                                          overlap_size, reg_prev, prev_parts)
                if plan.extra:  # O_k is outside the batch: its evaluation is charged
                    epoch += overlap_size / n
                g_over_next, _ = _average(objective, w, G, L, overlap_size, reg,
                                          next_parts)
                y = g_over_next - g_over_prev
            elif pair and not robust:
                # inconsistent: gradient difference across different samples
                y = g_S - g_prev
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
                k, epoch, grad_norm, loss_S, full_loss, train_acc, pair_accepted,
                int(plan.sample_size), overlap_size, plan.redraws,
                clock() - t0 if k else 0.0))

            if full_loss > divergence_limit:
                aborted = "divergence"
                break
            if grad_tol is not None and grad_norm <= grad_tol:
                break
            if epoch >= epochs or k >= last_k:
                break

            w_prev, G_prev, L_prev, g_prev, reg_prev = w, G, L, g_S, reg
            w = take_step(w, memory, g_S, alpha_at(k), not use_memory)
            if use_memory:  # the methods without memory form no pair
                s = w - w_prev
            k += 1
    except NumericError as exc:
        aborted = f"numeric: {exc}"
    except RedrawLimitError:
        aborted = "redraws"
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
    zero-norm trials per batch size. A trial count or a batch size that is
    not an integer, a count below 1 and a size outside [1, n] are a
    ``UsageError``, raised before any evaluation.
    """
    if not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise UsageError(f"trial count {trials!r} is not an integer >= 1")
    batch_sizes = list(batch_sizes)
    for b in batch_sizes:
        if not (isinstance(b, numbers.Integral) and 1 <= b <= objective.n):
            raise UsageError(f"batch size {b!r} is not an integer in [1, n]")
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
    for b in map(int, batch_sizes):
        for _ in range(trials):
            idx = rng.choice(objective.n, b)
            idx.flags.writeable = False  # both evaluations read one kept entry
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
