import contextlib
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from mblbfgs import logistic_l2, make_synthetic, sigmoid_lsq

# CI selects "ci" (HYPOTHESIS_PROFILE=ci) so that a failure replays exactly
# from its printed blob; local runs keep exploring new examples
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def sep_dataset():
    """The pinned strongly convex problem: separable, n=5000, d=20."""
    return make_synthetic(5000, 20, 10, seed=7, separable_margin=1.0)


@pytest.fixture(scope="session")
def sep_logistic(sep_dataset):
    return logistic_l2(sep_dataset)  # sigma = 1/n


@pytest.fixture(scope="session")
def sep_sigmoid(sep_dataset):
    return sigmoid_lsq(sep_dataset)


@pytest.fixture(scope="session")
def cond_dataset():
    """Ill-conditioned low-margin variant (feature scales over 2 decades)."""
    return make_synthetic(5000, 20, 10, seed=7, separable_margin=0.05,
                          feature_decades=2.0)


@pytest.fixture(scope="session")
def cond_logistic(cond_dataset):
    return logistic_l2(cond_dataset)


@pytest.fixture(scope="session")
def small_dataset():
    return make_synthetic(300, 12, 6, seed=11, separable_margin=0.5)


@pytest.fixture(scope="session")
def small_logistic(small_dataset):
    return logistic_l2(small_dataset)


def random_admitted_memory(rng, d, m, n_pairs, eps=1e-4, spectrum=None):
    """Fill a memory with pairs y = A s from a synthetic SPD map A."""
    from mblbfgs import LbfgsMemory

    if spectrum is None:
        diag = rng.uniform(0.5, 3.0, size=d)
    else:
        diag = np.linspace(spectrum[0], spectrum[1], d)
    mem = LbfgsMemory(m, scaling="bb", cautious_eps=eps)
    for _ in range(n_pairs):
        s = rng.standard_normal(d)
        y = diag * s
        mem.admit(s, y)
    return mem


@contextlib.contextmanager
def record_evaluations():
    """Wrap ``driver.make_plan_source`` and ``Objective.eval_sums`` for the
    runs inside the block. Yields a namespace whose ``plans`` lists every plan
    drawn and whose ``parts`` lists (k, part, rows) for every part passed to
    ``eval_sums``: k is the plan drawn last, part the span's position in the
    call, or "O_extra" for strategy 2's extra overlap part, and rows the
    part's rows as the call received them. A context manager, not a fixture,
    so a Hypothesis test can enter it once per example."""
    from mblbfgs import driver
    from mblbfgs.objectives import Objective

    seen = SimpleNamespace(plans=[], parts=[])
    make_source, eval_sums = driver.make_plan_source, Objective.eval_sums

    def recording_source(*args):
        source = make_source(*args)
        draw = source.next_plan

        def next_plan():
            seen.plans.append(draw())
            return seen.plans[-1]

        source.next_plan = next_plan
        return source

    def recording_eval_sums(self, w, rows, spans=None):
        plan = seen.plans[-1]
        batch = len(plan.spans) - plan.extra
        for i, (a, b) in enumerate([(0, len(rows))] if spans is None else spans):
            seen.parts.append((len(seen.plans) - 1, i if i < batch else "O_extra",
                               rows[a:b]))
        return eval_sums(self, w, rows, spans)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "make_plan_source", recording_source)
        mp.setattr(Objective, "eval_sums", recording_eval_sums)
        yield seen
