"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Oracle reports land in ``test_reports/``.
"""
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from mblbfgs import (
    LbfgsMemory,
    RunConfig,
    SeededRng,
    constant,
    curvature_diagnostics,
    logistic_l2,
    make_layout,
    make_synthetic,
    plan_fault,
    plan_strategy2,
    run,
)
from mblbfgs.driver import take_step
from mblbfgs.experiment import run_experiment
from mblbfgs.sampling import Strategy1Source
from mblbfgs.verification import (
    check_fault_robustness,
    check_nonconvex_bounded,
    check_theorem_constant_step,
    check_theorem_diminishing,
    compute_reference_minimum,
    write_reports,
)

from test_experiment import small_spec
from test_objectives import central_difference, dataset_from_rows

REPORT_DIR = Path(__file__).resolve().parent.parent / "test_reports"
_COLLECTED_REPORTS = []

SEEDS = list(range(10))


def _report(num, passed, detail, elapsed, limit=None):
    state = "PASS" if passed else "FAIL"
    budget = f" [{elapsed:.1f}s" + (f" < {limit}s]" if limit else "]")
    print(f"ACCEPTANCE {num}: {state} - {detail}{budget}")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded its runtime budget"
    assert passed, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def fig2_logistic():
    # r=1% needs |O| > d and conditioning spread for the qualitative trend
    ds = make_synthetic(50000, 20, 10, seed=7, separable_margin=0.05,
                        feature_decades=2.0)
    return logistic_l2(ds)


@pytest.fixture(scope="session", autouse=True)
def emit_reports():
    yield
    if _COLLECTED_REPORTS:
        write_reports(_COLLECTED_REPORTS, REPORT_DIR)


def test_criterion_01_two_loop_matches_dense_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for m in (1, 5, 10):
        for _ in range(100):
            mem = LbfgsMemory(m, cautious_eps=1e-4)
            diag = rng.uniform(0.5, 4.0, size=20)
            for _ in range(int(rng.integers(1, 2 * m + 2))):
                s = rng.standard_normal(20)
                mem.admit(s, diag * s)
            g = rng.standard_normal(20)
            expected = -(mem.dense_inverse(dim=20) @ g)
            got = mem.direction(g)
            denom = np.linalg.norm(expected)
            worst = max(worst, np.linalg.norm(got - expected) / denom)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-10, f"two-loop vs dense max rel err {worst:.2e}",
            elapsed, limit=5)


def test_criterion_02_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    d = 40
    rows = rng.normal(size=(60, d)) * (rng.random(size=(60, d)) < 0.35)
    labels = rng.choice([-1, 1], size=60)
    ds = dataset_from_rows(rows, labels, d)
    worst = 0.0
    from mblbfgs import sigmoid_lsq

    for obj in (logistic_l2(ds, sigma=0.01), sigmoid_lsq(ds, sigma=0.01)):
        for _ in range(20):
            w = rng.normal(size=d) * 0.5
            analytic = obj.eval_full(w).gradient
            fd = central_difference(obj, w, h=1e-6)
            worst = max(worst, np.linalg.norm(analytic - fd)
                        / max(np.linalg.norm(fd), 1e-12))
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-6, f"gradient vs central differences max rel err {worst:.2e}",
            elapsed, limit=5)


def test_criterion_03_secant_and_spd_along_run(sep_logistic):
    t0 = time.perf_counter()
    obj = sep_logistic
    rng = SeededRng(0)
    source = Strategy1Source(obj.n, 0.05, 0.2, rng)
    mem = LbfgsMemory(10, cautious_eps=1e-4)
    w = np.zeros(obj.d)
    plan = source.next_plan()
    worst_secant, min_eig = 0.0, np.inf
    for k in range(1000):
        g = obj.eval_subset(w, plan.S).gradient
        w_next = take_step(w, mem, g, 0.2)
        plan_next = source.next_plan()
        overlap = plan_next.O_prev
        if overlap.size and np.any(w_next - w):
            # both gradients of the pair on the same overlap set
            s = w_next - w
            y = (obj.eval_subset(w_next, overlap).gradient
                 - obj.eval_subset(w, overlap).gradient)
            if mem.admit(s, y):
                H = mem.dense_inverse()
                newest = mem.pairs[-1]
                resid = (np.linalg.norm(H @ newest.y - newest.s)
                         / max(np.linalg.norm(newest.s), 1e-300))
                worst_secant = max(worst_secant, resid)
                eigs = np.linalg.eigvalsh(H)
                min_eig = min(min_eig, eigs[0])
        w, plan = w_next, plan_next
    elapsed = time.perf_counter() - t0
    ok = worst_secant <= 1e-10 and min_eig > 0
    _report(3, ok, f"secant max resid {worst_secant:.2e}, min H eig {min_eig:.2e}",
            elapsed, limit=30)


def test_criterion_04_constant_step_plateaus(sep_logistic):
    t0 = time.perf_counter()
    base = RunConfig(method="robust_lbfgs", mode="strategy1", batch_frac=0.05,
                     overlap_frac=0.2, epochs=10.0, trace_stride=1)
    report = check_theorem_constant_step(sep_logistic, [0.4, 0.2, 0.1],
                                         SEEDS, base)
    _COLLECTED_REPORTS.append(report)
    meds = report.details["plateau_medians"]
    elapsed = time.perf_counter() - t0
    _report(4, report.passed,
            "plateau medians " + ", ".join(f"{m:.2e}" for m in meds)
            + " nonincreasing along alpha halvings", elapsed, limit=120)


def test_criterion_05_diminishing_step_rate(sep_logistic):
    t0 = time.perf_counter()
    fstar, _ = compute_reference_minimum(sep_logistic, iterations=500,
                                         grad_tol=1e-10)
    base = RunConfig(method="robust_lbfgs", mode="strategy1", batch_frac=0.05,
                     overlap_frac=0.2)
    report = check_theorem_diminishing(sep_logistic, beta=2.0, seeds=SEEDS,
                                       base=base, fstar=fstar,
                                       k_lo=10, k_hi=1000)
    _COLLECTED_REPORTS.append(report)
    elapsed = time.perf_counter() - t0
    _report(5, report.passed,
            f"log-log slope {report.details['slope']:.3f} <= -0.6",
            elapsed, limit=120)


def test_criterion_06_robust_beats_inconsistent(fig2_logistic):
    t0 = time.perf_counter()
    finals = {}
    aborts = {"robust_lbfgs": 0, "inconsistent_lbfgs": 0}
    for method in ("robust_lbfgs", "inconsistent_lbfgs"):
        finals[method] = []
        for seed in SEEDS:
            cfg = RunConfig(method=method, mode="strategy1", batch_frac=0.01,
                            overlap_frac=0.2, schedule=constant(1.0),
                            epochs=10.0, seed=seed)
            trace = run(cfg, fig2_logistic)
            if trace.aborted:
                aborts[method] += 1
            finals[method].append(trace.records[-1].grad_norm)
    robust_med = float(np.median(finals["robust_lbfgs"]))
    incons_med = float(np.median(finals["inconsistent_lbfgs"]))
    bad_seeds = sum(1 for v in finals["inconsistent_lbfgs"]
                    if v >= 10 * robust_med)
    bad_seeds = max(bad_seeds, aborts["inconsistent_lbfgs"])
    ok = robust_med < incons_med and (aborts["inconsistent_lbfgs"] >= 1
                                      or bad_seeds >= 3)
    elapsed = time.perf_counter() - t0
    _report(6, ok,
            f"robust median {robust_med:.2e} < inconsistent {incons_med:.2e}; "
            f"{aborts['inconsistent_lbfgs']} aborts, {bad_seeds} bad seeds",
            elapsed)


def test_criterion_07_fault_robustness(cond_logistic):
    t0 = time.perf_counter()
    base = RunConfig(method="robust_lbfgs", mode="fault", nodes=16,
                     schedule=constant(0.1), epochs=40.0, trace_stride=1)
    report = check_fault_robustness(cond_logistic, [0.1, 0.3, 0.5], SEEDS, base)
    _COLLECTED_REPORTS.append(report)
    meds = report.details["robust_medians"]
    elapsed = time.perf_counter() - t0
    _report(7, report.passed,
            "robust medians " + ", ".join(f"{m:.2e}" for m in meds)
            + f" within 10x band; inconsistent at p=0.5: "
            f"{report.details['inconsistent_at_pmax']:.2e}",
            elapsed, limit=180)


def test_criterion_08_nonconvex_bounded(sep_sigmoid):
    t0 = time.perf_counter()
    base = RunConfig(method="robust_lbfgs", mode="strategy1", batch_frac=0.05,
                     overlap_frac=0.2, schedule=constant(0.05), epochs=20.0,
                     cautious_eps=1e-4)
    report = check_nonconvex_bounded(sep_sigmoid, SEEDS, base)
    _COLLECTED_REPORTS.append(report)
    elapsed = time.perf_counter() - t0
    _report(8, report.passed,
            f"running average plateaued; cautious bound max violation "
            f"{report.max_violation:.1e} <= 0", elapsed, limit=120)


def test_criterion_09_curvature_cosine_trend(sep_logistic):
    t0 = time.perf_counter()
    sizes = [50, 100, 200, 500, 1000, 2000, 4000]
    cfg = RunConfig(method="robust_lbfgs", mode="strategy1", batch_frac=0.05,
                    overlap_frac=0.2, schedule=constant(0.2), seed=0)
    points = [np.zeros(sep_logistic.d)]
    from dataclasses import replace

    points.append(run(replace(cfg, epochs=2.0), sep_logistic).final_w)
    points.append(run(replace(cfg, epochs=10.0), sep_logistic).final_w)
    all_monotone = True
    detail = []
    for pi, w in enumerate(points):
        rng = SeededRng(1000 + pi)
        diags, _ = curvature_diagnostics(sep_logistic, w, sizes, 100, rng)
        med = [float(np.median([d.cosine for d in diags if d.batch_size == b]))
               for b in sizes]
        monotone = all(med[i] <= med[i + 1] for i in range(len(med) - 1))
        all_monotone = all_monotone and monotone
        detail.append(f"point{pi}: {med[0]:.3f}->{med[-1]:.4f}")
    elapsed = time.perf_counter() - t0
    _report(9, all_monotone,
            "median cosine nondecreasing in batch size (" + "; ".join(detail) + ")",
            elapsed, limit=120)


def test_criterion_10_deterministic_csv_output(tmp_path):
    t0 = time.perf_counter()
    r1 = run_experiment(small_spec(tmp_path / "a", seeds=[0, 1],
                                   methods=["robust_lbfgs", "serial_sgd"]))
    r2 = run_experiment(small_spec(tmp_path / "b", seeds=[0, 1],
                                   methods=["robust_lbfgs", "serial_sgd"]))
    identical = all(p1.read_bytes() == p2.read_bytes()
                    for p1, p2 in zip(r1.csv_paths, r2.csv_paths))
    elapsed = time.perf_counter() - t0
    _report(10, identical,
            f"{len(r1.csv_paths)} CSV cells byte-identical across reruns",
            elapsed)


def test_criterion_11_sampling_statistics():
    t0 = time.perf_counter()
    # strategy 2: chi-squared uniformity of per-index inclusion at 1%
    n, draws = 100, 10_000
    rng = SeededRng(314)
    counts = np.zeros(n)
    for _ in range(draws):
        counts[plan_strategy2(n, 0.1, 0.2, rng).S] += 1
    expected = draws * 0.1
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    critical = float(stats.chi2.ppf(0.99, n - 1))

    # fault mode: mean responder count within 2% of B(1-p)
    layout = make_layout(160, 16, 0.3)
    rng2 = SeededRng(159)
    total = sum(len(plan_fault(layout, rng2).responders) for _ in range(draws))
    mean_j = total / draws
    target = 16 * 0.7
    ok = chi2 <= critical and abs(mean_j - target) <= 0.02 * target
    elapsed = time.perf_counter() - t0
    _report(11, ok,
            f"chi2 {chi2:.1f} <= {critical:.1f}; E|J| {mean_j:.3f} within "
            f"2% of {target}", elapsed)
