import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mblbfgs import (
    ConfigurationError,
    LbfgsMemory,
    NumericError,
    RunConfig,
    UsageError,
)
from conftest import random_admitted_memory


def vec(*xs):
    return np.array(xs, dtype=np.float64)


def reference_direction(mem, g):
    """The two-loop recursion with one numpy operation per step, in the
    operand order ``direction`` must keep."""
    if mem.scaling != "bb":
        gamma = mem.scaling
    elif mem.pairs:
        newest = mem.pairs[-1]
        gamma = float(np.dot(newest.s, newest.y)) / float(np.dot(newest.y, newest.y))
    else:
        gamma = 1.0
    q = g.copy()
    alphas = np.zeros(len(mem.pairs))
    for i in range(len(mem.pairs) - 1, -1, -1):
        pair = mem.pairs[i]
        alphas[i] = pair.rho * float(np.dot(pair.s, q))
        q = -alphas[i] * pair.y + q
    r = gamma * q
    for i, pair in enumerate(mem.pairs):
        beta = pair.rho * float(np.dot(pair.y, r))
        r = (alphas[i] - beta) * pair.s + r
    return -r


class TestMemorySettings:
    @pytest.mark.parametrize("changes", [
        dict(memory=2.5),                 # was truncated to 2
        dict(memory=float("inf")),        # raised OverflowError
        dict(memory="10"),                # raised TypeError
        dict(scaling="bad"),              # raised a bare ValueError
        dict(scaling="2"),                # was read as gamma 2.0
        dict(cautious_eps="0.1"),         # raised TypeError
    ], ids=repr)
    def test_non_numbers_and_fractional_capacity_are_configuration_errors(self, changes):
        with pytest.raises(ConfigurationError):
            RunConfig(**changes).validate(100)
        settings = dict(capacity=changes.get("memory", 10),
                        scaling=changes.get("scaling", "bb"),
                        cautious_eps=changes.get("cautious_eps", 1e-4))
        with pytest.raises(ConfigurationError):
            LbfgsMemory(**settings)

    def test_numpy_numbers_are_kept_as_python_numbers(self):
        mem = LbfgsMemory(np.int64(3), scaling=np.float64(0.5), cautious_eps=np.float32(0))
        assert (mem.capacity, mem.scaling, mem.cautious_eps) == (3, 0.5, 0.0)
        assert type(mem.capacity) is int and type(mem.scaling) is float
        assert type(mem.cautious_eps) is float


class TestCautiousAccept:
    # LbfgsMemory.admit is the one cautious test, y's >= eps * s's
    def test_accept(self):
        assert LbfgsMemory(5).admit(vec(1, 0), vec(1, 0))

    def test_reject_negative_curvature(self):
        s = vec(2, -1)
        assert not LbfgsMemory(5).admit(s, -s)

    def test_boundary_is_accepted(self):
        s = vec(1, 0)
        eps = 1e-4
        y = vec(eps, 0)  # y's == eps exactly
        assert LbfgsMemory(5, cautious_eps=eps).admit(s, y)

    def test_zero_step_rejected(self):
        # y's = 0 >= eps * s's = 0 holds; the s's > 0 test rejects the pair
        mem = LbfgsMemory(5)
        assert not mem.admit(vec(0, 0), vec(1, 1))
        assert len(mem) == 0

    @given(st.integers(0, 2**31 - 1), st.floats(1e-8, 1e-1))
    @settings(max_examples=50, deadline=None)
    def test_postcondition(self, seed, eps):
        rng = np.random.default_rng(seed)
        s, y = rng.normal(size=5), rng.normal(size=5)
        # |y| = |s|: a pair that passes the cautious test, y's >= eps * s's
        # with eps >= 1e-8, also passes the rho guard y's > 1e-12 * |s||y|
        y *= np.linalg.norm(s) / np.linalg.norm(y)
        mem = LbfgsMemory(5, cautious_eps=eps)
        accepted = mem.admit(s, y)
        assert accepted == (float(y @ s) >= eps * float(s @ s))
        assert len(mem) == int(accepted)


class TestAdmission:
    def test_fifo_eviction(self):
        mem = LbfgsMemory(2, cautious_eps=0.0)
        pairs = [(vec(1, 0), vec(1, 0)), (vec(0, 1), vec(0, 2)),
                 (vec(1, 1), vec(2, 2))]
        for s, y in pairs:
            assert mem.admit(s, y)
        assert len(mem) == 2
        assert np.array_equal(mem.pairs[0].s, pairs[1][0])
        assert np.array_equal(mem.pairs[1].s, pairs[2][0])

    def test_rejected_leaves_memory_unchanged(self):
        mem = LbfgsMemory(3, cautious_eps=1e-4)
        mem.admit(vec(1, 0), vec(1, 0))
        snapshot = [(p.s.copy(), p.y.copy(), p.rho) for p in mem.pairs]
        assert not mem.admit(vec(0, 1), vec(0, -1))
        assert len(mem.pairs) == len(snapshot)
        for p, (s, y, rho) in zip(mem.pairs, snapshot):
            assert np.array_equal(p.s, s)
            assert np.array_equal(p.y, y)
            assert p.rho == rho

    def test_zero_curvature_vector_rejected(self):
        # with eps = 0 the cautious test passes y = 0; the rho guard must not
        mem = LbfgsMemory(5, cautious_eps=0.0)
        assert not mem.admit(np.ones(3), np.zeros(3))
        assert len(mem) == 0

    def test_underflowing_curvature_norm_rejected(self):
        # y's = 1e-13 > 0 passes the cautious test at eps = 0, and the rho
        # guard reads 0 once y'y underflows; storing the pair would divide
        # by y'y = 0 in the next scaling
        mem = LbfgsMemory(5, cautious_eps=0.0)
        s, y = np.array([1e150]), np.array([1e-163])
        assert float(np.dot(y, y)) == 0.0 and float(np.dot(y, s)) > 0.0
        assert not mem.admit(s, y)
        assert len(mem) == 0
        assert np.array_equal(mem.direction(np.array([2.0])), np.array([-2.0]))

    @pytest.mark.parametrize("eps", [0.0, 1e-4])
    def test_underflowing_step_norm_rejected(self, eps):
        # a nonzero step (the driver admits every s with s.any()) whose s's
        # underflows to 0 is rejected, not reported as a zero step
        mem = LbfgsMemory(5, cautious_eps=eps)
        s = y = np.full(3, 1e-170)
        assert s.any() and float(np.dot(s, s)) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not mem.admit(s, y)
        assert len(mem) == 0

    def test_overflowing_products_rejected_without_a_warning(self):
        mem = LbfgsMemory(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not mem.admit(np.full(3, 1e200), np.full(3, 1e200))
        assert len(mem) == 0

    def test_thousand_random_admissions_respect_bound(self):
        rng = np.random.default_rng(123)
        eps = 1e-4
        mem = LbfgsMemory(10, cautious_eps=eps)
        for _ in range(1000):
            s = rng.normal(size=8)
            y = rng.normal(size=8)
            mem.admit(s, y)
            for p in mem.pairs:
                ys = float(p.y @ p.s)
                ss = float(p.s @ p.s)
                ny, ns = np.linalg.norm(p.y), np.linalg.norm(p.s)
                assert ys >= eps * ss
                assert ys <= ny * ns * (1 + 1e-12)  # Cauchy-Schwarz
                assert p.rho * ys == pytest.approx(1.0, abs=1e-12)


class TestInitialScaling:
    def test_equal_vectors(self):
        mem = LbfgsMemory(5)
        mem.admit(vec(1, 2), vec(1, 2))
        assert mem.gamma() == pytest.approx(1.0)

    def test_scaled_vectors(self):
        mem = LbfgsMemory(5)
        y = vec(3, -1)
        mem.admit(2 * y, y)
        assert mem.gamma() == pytest.approx(2.0)

    def test_empty_memory_defaults(self):
        assert LbfgsMemory(5).gamma() == 1.0
        assert LbfgsMemory(5, scaling=0.25).gamma() == 0.25

    def test_quadratic_spectrum_bounds(self):
        # pairs from y = A s keep 1/gamma inside A's spectrum
        rng = np.random.default_rng(3)
        lo, hi = 0.5, 4.0
        mem = random_admitted_memory(rng, d=10, m=5, n_pairs=30, spectrum=(lo, hi))
        inv_gamma = 1.0 / mem.gamma()
        assert lo - 1e-12 <= inv_gamma <= hi + 1e-12


class TestTwoLoop:
    def test_empty_memory_steepest_descent(self):
        mem = LbfgsMemory(5)
        assert np.array_equal(mem.direction(vec(1, 2)), vec(-1, -2))

    def test_empty_memory_fixed_scaling(self):
        mem = LbfgsMemory(5, scaling=0.5)
        assert np.array_equal(mem.direction(vec(2, 4)), vec(-1, -2))

    def test_hand_traced_single_pair(self):
        mem = LbfgsMemory(5)
        mem.admit(vec(1, 0), vec(1, 0))
        assert np.allclose(mem.direction(vec(1, 0)), vec(-1, 0), atol=1e-15)

    @pytest.mark.parametrize("m", [1, 5, 10])
    def test_matches_dense_oracle(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(25):
            mem = random_admitted_memory(rng, d=20, m=m,
                                         n_pairs=int(rng.integers(1, 2 * m + 2)))
            g = rng.standard_normal(20)
            H = mem.dense_inverse()
            expected = -(H @ g)
            got = mem.direction(g)
            assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_matches_dense_oracle_raw_pairs(self):
        # pairs that are not the image of any fixed linear map
        rng = np.random.default_rng(55)
        mem = LbfgsMemory(8, cautious_eps=1e-4)
        admitted = 0
        while admitted < 12:
            s, y = rng.standard_normal(15), rng.standard_normal(15)
            admitted += mem.admit(s, y)
        g = rng.standard_normal(15)
        expected = -(mem.dense_inverse() @ g)
        assert np.linalg.norm(mem.direction(g) - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("memory", ["empty", "bb_pairs", "fixed_pairs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_rejected(self, memory, bad):
        # nothing in the two-loop recursion divides, so a non-finite entry of
        # g stays non-finite through both loops and the result check finds it
        rng = np.random.default_rng(5)
        if memory == "empty":
            mem = LbfgsMemory(5)
        else:
            mem = random_admitted_memory(rng, d=4, m=3, n_pairs=3)
            if memory == "fixed_pairs":
                mem.scaling = 0.5
            assert len(mem) == 3
        g = rng.standard_normal(4)
        g[2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                mem.direction(g)

    def test_overflow_raises_numeric_error_without_a_warning(self):
        rng = np.random.default_rng(4)
        mem = random_admitted_memory(rng, d=4, m=3, n_pairs=3)
        assert len(mem) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="two-loop: non-finite value"):
                mem.direction(np.full(4, 1e308))

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 60),
           m=st.integers(1, 10), n_admit=st.integers(0, 20),
           scaling=st.sampled_from(["bb", 0.5, 3.0]),
           # exponents 300-308 often overflow, where both sides must fail
           g_exp=st.integers(-300, 300) | st.integers(300, 308))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_reference(self, seed, d, m, n_admit, scaling, g_exp):
        rng = np.random.default_rng(seed)
        mem = LbfgsMemory(m, scaling=scaling)
        for _ in range(n_admit):
            s = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            noise = 0.1 * np.abs(s).max() * rng.standard_normal(d)
            y = rng.uniform(0.5, 3.0, size=d) * s + noise
            mem.admit(s, y)
        with np.errstate(over="ignore", invalid="ignore"):
            g = rng.standard_normal(d) * 10.0 ** g_exp
            expected = reference_direction(mem, g)
        if np.isfinite(expected).all():
            assert mem.direction(g).tobytes() == expected.tobytes()
        else:
            with pytest.raises(NumericError):
                mem.direction(g)

    def test_order_matters(self):
        rng = np.random.default_rng(8)
        mem = random_admitted_memory(rng, d=6, m=4, n_pairs=4)
        # generic pairs: applying them in reversed order changes H
        H_fwd = mem.dense_inverse()
        mem.pairs.reverse()
        H_rev = mem.dense_inverse()
        mem.pairs.reverse()
        assert not np.allclose(H_fwd, H_rev)
        # and the two-loop follows storage order
        g = rng.standard_normal(6)
        assert np.allclose(mem.direction(g), -(H_fwd @ g), atol=1e-12)


class TestDenseOracles:
    def test_empty_is_scaled_identity(self):
        mem = LbfgsMemory(3, scaling=2.0)
        assert np.array_equal(mem.dense_inverse(dim=4), 2.0 * np.eye(4))

    def test_single_unit_pair_identity(self):
        mem = LbfgsMemory(3)
        mem.admit(vec(1, 0), vec(1, 0))
        assert np.allclose(mem.dense_inverse(), np.eye(2), atol=1e-15)

    def test_spd_for_admitted_memories(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            mem = random_admitted_memory(rng, d=7, m=5,
                                         n_pairs=int(rng.integers(1, 9)))
            eigs = np.linalg.eigvalsh(mem.dense_inverse())
            assert np.all(eigs > 0)

    def test_secant_condition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mem = random_admitted_memory(rng, d=12, m=6,
                                         n_pairs=int(rng.integers(1, 10)))
            H = mem.dense_inverse()
            newest = mem.pairs[-1]
            resid = np.linalg.norm(H @ newest.y - newest.s)
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(newest.s))

    def test_dimension_guard(self):
        mem = LbfgsMemory(3)
        with pytest.raises(UsageError):
            mem.dense_inverse(dim=500)
        with pytest.raises(UsageError):
            mem.dense_inverse()  # empty memory, no dim

    def test_direct_is_inverse_of_dense(self):
        rng = np.random.default_rng(21)
        mem = random_admitted_memory(rng, d=8, m=5, n_pairs=7)
        H = mem.dense_inverse()
        B = mem.dense_direct()
        assert np.allclose(H @ B, np.eye(8), atol=1e-8)


class TestEigenAudit:
    def test_empty_identity(self):
        lo, hi = LbfgsMemory(4).eigen_bounds(dim=3)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_long_run_no_collapse(self):
        # pairs from a fixed quadratic map with spectrum [1, 10]
        rng = np.random.default_rng(77)
        diag = np.array([1.0, 10.0])
        mem = LbfgsMemory(10, cautious_eps=0.0)
        min_seen = np.inf
        for _ in range(1000):
            s = rng.standard_normal(2)
            mem.admit(s, diag * s)
            lo, hi = mem.eigen_bounds()
            assert lo > 0
            min_seen = min(min_seen, lo)
        assert min_seen > 1e-3  # stays well away from zero
        # B eigenvalues live inside the source spectrum up to update slack
        assert hi <= 10 * 10

    def test_cautious_bound_on_ratio(self, sep_sigmoid):
        # nonconvex pairs: every admitted pair keeps eps <= |y|^2 / y's
        from mblbfgs import RunConfig, constant, run

        eps = 1e-4
        pair_log = []
        config = RunConfig(method="robust_lbfgs", mode="strategy1",
                           batch_frac=0.05, overlap_frac=0.2,
                           schedule=constant(0.05), epochs=5.0, seed=0,
                           cautious_eps=eps)
        trace = run(config, sep_sigmoid, pair_log=pair_log)
        assert trace.aborted is None
        accepted = [(ys, ss, yy) for _, ys, ss, yy, a in pair_log if a]
        assert accepted
        for ys, ss, yy in accepted:
            assert ys >= eps * ss
            assert yy / ys >= eps - 1e-15
        lo, hi = trace.final_memory.eigen_bounds()
        assert lo > 0
