"""Test-side oracles and property suites tying runs to the method's
convergence guarantees.

The checks are trend and monotonicity assertions (plateau existence,
plateau ordering across step lengths, decay-rate slopes, robustness bands):
the constants appearing in the guarantees are not observable, so no check
asserts a specific level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from dataclasses import replace
from pathlib import Path

import numpy as np

from .driver import RunConfig, RunTrace, constant, diminishing, run
from .engine import LbfgsMemory
from .errors import UsageError
from .objectives import Objective


@dataclass
class OracleReport:
    """Outcome of one property check across its trials."""

    property_id: str
    trials: int
    max_violation: float
    passed: bool
    failure_seeds: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def summary_line(self) -> str:
        state = "pass" if self.passed else "FAIL"
        extra = f" failure_seeds={self.failure_seeds}" if self.failure_seeds else ""
        return (f"{self.property_id}: {state} trials={self.trials} "
                f"max_violation={self.max_violation:.3e}{extra}")


def write_reports(reports, out_dir) -> Path:
    """Summary text file plus one CSV of detail series per property."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = out_dir / "oracle_summary.txt"
    with open(summary, "w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(rep.summary_line() + "\n")
    for rep in reports:
        series = {k: v for k, v in rep.details.items()
                  if isinstance(v, (list, np.ndarray))}
        if not series:
            continue
        path = out_dir / f"{rep.property_id}.csv"
        keys = sorted(series)
        rows = max(len(series[k]) for k in keys)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(keys) + "\n")
            for i in range(rows):
                fh.write(",".join(
                    repr(float(series[k][i])) if i < len(series[k]) else ""
                    for k in keys) + "\n")
    return summary


# ----------------------------------------------------------------------
# small fitting helpers
# ----------------------------------------------------------------------
def fit_loglog_slope(k_values, values, floor: float = 1e-16) -> float:
    """Least-squares slope of log(values) against log(k+1)."""
    k_values = np.asarray(k_values, dtype=np.float64)
    vals = np.maximum(np.asarray(values, dtype=np.float64), floor)
    if k_values.size < 2:
        raise UsageError("slope fit needs at least two points")
    return float(np.polyfit(np.log(k_values + 1.0), np.log(vals), 1)[0])


def epoch_window_median(trace: RunTrace, column: str, lo: float, hi: float) -> float:
    """Median of a trace column over records with epoch in (lo, hi]."""
    epochs = trace.column("epoch")
    vals = trace.column(column)
    mask = (epochs > lo) & (epochs <= hi)
    if not mask.any():
        return float("nan")
    return float(np.median(vals[mask]))


def trailing_median(trace: RunTrace, column: str = "grad_norm",
                    window: float = 1.0) -> float:
    """Median of a column over the last ``window`` epochs of the run."""
    end = trace.records[-1].epoch
    return epoch_window_median(trace, column, end - window, end)


def compute_reference_minimum(objective: Objective, iterations: int = 500,
                              grad_tol: float = 1e-10, alpha: float = 1.0,
                              seed: int = 0) -> tuple:
    """(F*, w*) from a long full-batch run with consistent overlap pairs."""
    config = RunConfig(
        method="robust_lbfgs", mode="strategy2", batch_frac=1.0,
        overlap_frac=0.2, schedule=constant(alpha),
        epochs=float("inf"), max_iterations=iterations, trace_stride=1,
        grad_tol=grad_tol, seed=seed)
    trace = run(config, objective)
    losses = trace.column("full_loss")
    best = int(np.argmin(losses))
    return float(losses[best]), trace.final_w


# ----------------------------------------------------------------------
# property checks
# ----------------------------------------------------------------------
def check_secant(memory: LbfgsMemory, tol: float = 1e-10) -> OracleReport:
    """Dense H from the memory maps the newest y to the newest s."""
    if not memory.pairs:
        raise UsageError("secant check needs a nonempty memory")
    H = memory.dense_inverse()
    newest = memory.pairs[-1]
    r = H @ newest.y - newest.s
    resid = (math.sqrt(float(np.dot(r, r)))
             / max(math.sqrt(float(np.dot(newest.s, newest.s))), 1e-300))
    return OracleReport(
        property_id="secant", trials=1, max_violation=resid,
        passed=resid <= tol, details={"residual": resid})


def check_theorem_constant_step(objective: Objective, alphas, seeds,
                                base: RunConfig) -> OracleReport:
    """Constant-step runs plateau, and the plateau level does not increase
    when the step length is halved."""
    alphas = list(alphas)
    plateau_ratio_limit = 2.0
    per_alpha_medians, plateau_ok, failure_seeds = [], True, []
    details = {"alphas": alphas}
    for alpha in alphas:
        finals = []
        for seed in seeds:
            config = replace(base, schedule=constant(alpha), seed=seed)
            trace = run(config, objective)
            end = trace.records[-1].epoch
            last = epoch_window_median(trace, "grad_norm", end - 1.0, end)
            prev = epoch_window_median(trace, "grad_norm", end - 2.0, end - 1.0)
            finals.append(last)
            ratio = max(last / prev, prev / last) if prev > 0 and last > 0 else np.inf
            if trace.aborted or not np.isfinite(ratio) or ratio > plateau_ratio_limit:
                plateau_ok = False
                failure_seeds.append(seed)
        per_alpha_medians.append(float(np.median(finals)))
    details["plateau_medians"] = per_alpha_medians
    ordered = all(per_alpha_medians[i] >= per_alpha_medians[i + 1]
                  for i in range(len(per_alpha_medians) - 1))
    violation = max(
        (per_alpha_medians[i + 1] / per_alpha_medians[i]
         for i in range(len(per_alpha_medians) - 1)), default=0.0)
    return OracleReport(
        property_id="constant_step_neighborhood",
        trials=len(alphas) * len(list(seeds)),
        max_violation=float(violation),
        passed=plateau_ok and ordered,
        failure_seeds=sorted(set(failure_seeds)),
        details=details)


def check_theorem_diminishing(objective: Objective, beta: float, seeds,
                              base: RunConfig, fstar: float,
                              k_lo: int = 10, k_hi: int = 1000,
                              slope_limit: float = -0.6) -> OracleReport:
    """Mean optimality gap under beta/(k+1) steps decays with a log-log
    slope at or below the limit."""
    gaps = []
    for seed in seeds:
        config = replace(base, schedule=diminishing(beta), seed=seed,
                         epochs=float("inf"), max_iterations=k_hi,
                         trace_stride=1)
        trace = run(config, objective)
        losses = trace.column("full_loss")
        if losses.size < k_hi + 1:
            losses = np.pad(losses, (0, k_hi + 1 - losses.size), mode="edge")
        gaps.append(losses - fstar)
    mean_gap = np.mean(np.stack(gaps), axis=0)
    ks = np.arange(k_lo, k_hi + 1)
    slope = fit_loglog_slope(ks, mean_gap[k_lo:k_hi + 1])
    return OracleReport(
        property_id="diminishing_step_rate", trials=len(list(seeds)),
        max_violation=max(0.0, slope - slope_limit),
        passed=slope <= slope_limit,
        details={"slope": slope, "mean_gap": mean_gap.tolist()})


def check_nonconvex_bounded(objective: Objective, seeds, base: RunConfig) -> OracleReport:
    """Cautious nonconvex runs keep the running average of ||grad F||^2
    bounded and every stored pair above the curvature floor."""
    eps = base.cautious_eps
    if eps <= 0:
        raise UsageError("nonconvex check requires cautious eps > 0")
    failure_seeds, max_violation, avg_series = [], 0.0, None
    for seed in seeds:
        pair_log = []
        config = replace(base, seed=seed, trace_stride=1)
        trace = run(config, objective, pair_log=pair_log)
        sq = trace.column("grad_norm") ** 2
        ok = trace.aborted is None and np.all(np.isfinite(sq))
        running = np.cumsum(sq) / np.arange(1, sq.size + 1)
        if avg_series is None:
            avg_series = running
        # plateaued: second half no higher than 110% of the midpoint level
        mid = running[running.size // 2]
        if not (ok and running[-1] <= 1.1 * mid):
            ok = False
        for _, ys, ss, _, accepted in pair_log:
            if accepted:
                violation = eps * ss - ys
                max_violation = max(max_violation, violation)
                if violation > 0:
                    ok = False
        if trace.final_memory is not None and len(trace.final_memory):
            lam_min, _ = trace.final_memory.eigen_bounds()
            if lam_min <= 0:
                ok = False
        if not ok:
            failure_seeds.append(seed)
    return OracleReport(
        property_id="nonconvex_bounded_average", trials=len(list(seeds)),
        max_violation=float(max_violation),
        passed=not failure_seeds, failure_seeds=failure_seeds,
        details={"running_average": [] if avg_series is None else avg_series.tolist()})


def check_fault_robustness(objective: Objective, p_grid, seeds,
                           base: RunConfig, band: float = 10.0) -> OracleReport:
    """Final gradient norms of the robust method stay within a band across
    failure probabilities, and at the largest p the robust method is no
    worse than the inconsistent baseline."""
    p_grid = list(p_grid)
    medians = {}
    for method in ("robust_lbfgs", "inconsistent_lbfgs"):
        for p in p_grid:
            finals = []
            for seed in seeds:
                config = replace(base, method=method, mode="fault",
                                 fail_prob=p, seed=seed)
                trace = run(config, objective)
                finals.append(trailing_median(trace))
            medians[(method, p)] = float(np.median(finals))
    robust = [medians[("robust_lbfgs", p)] for p in p_grid]
    spread = max(robust) / min(robust)
    p_max = max(p_grid)
    cmp_ok = medians[("robust_lbfgs", p_max)] <= medians[("inconsistent_lbfgs", p_max)]
    return OracleReport(
        property_id="fault_robustness",
        trials=2 * len(p_grid) * len(list(seeds)),
        max_violation=float(max(0.0, spread - band)),
        passed=spread <= band and cmp_ok,
        details={"p_grid": p_grid, "robust_medians": robust,
                 "inconsistent_at_pmax": medians[("inconsistent_lbfgs", p_max)]})
