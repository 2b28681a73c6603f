import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy
from scipy import sparse
from scipy.special import expit

import mblbfgs
from mblbfgs import (
    ConfigurationError,
    Dataset,
    NumericError,
    RunConfig,
    UsageError,
    logistic_l2,
    make_synthetic,
    quadratic,
    sigmoid_lsq,
)
from mblbfgs.objectives import KINDS, Objective, _checked_spans, _softplus, make_objective
from mblbfgs.sampling import SeededRng, make_plan_source


def dataset_from_rows(rows, labels, d):
    """Dataset from dense rows; zero entries are not stored."""
    X = sparse.csr_matrix(np.asarray(rows, dtype=np.float64), shape=(len(rows), d))
    return Dataset(X, labels)


def central_difference(obj, w, h=1e-6):
    g = np.zeros_like(w)
    for j in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        g[j] = (obj.eval_full(wp).loss - obj.eval_full(wm).loss) / (2 * h)
    return g


class TestLogistic:
    def test_loss_at_zero_is_log2(self, small_logistic):
        sg = small_logistic.eval_subset(np.zeros(small_logistic.d), [0, 3, 7])
        assert sg.loss == pytest.approx(math.log(2), abs=1e-12)
        assert sg.subset_size == 3

    def test_single_example_gradient(self):
        ds = dataset_from_rows([[1.0]], [1], d=1)
        obj = logistic_l2(ds, sigma=0.0)
        sg = obj.eval_subset(np.zeros(1), [0])
        assert sg.gradient[0] == pytest.approx(-0.5, abs=1e-15)

    def test_four_example_hand_sum(self):
        rows = [[1.0, 0.0], [0.5, -1.0], [-2.0, 0.25], [0.0, 3.0]]
        labels = [1, -1, 1, -1]
        w = np.array([0.3, -0.7])
        sigma = 0.05
        obj = logistic_l2(dataset_from_rows(rows, labels, 2), sigma=sigma)
        expected = 0.0
        for x, yl in zip(rows, labels):
            z = yl * (x[0] * w[0] + x[1] * w[1])
            expected += math.log1p(math.exp(-z))
        expected = expected / 4 + sigma / 2 * float(w @ w)
        assert obj.eval_full(w).loss == pytest.approx(expected, rel=1e-14)

    def test_strong_convexity_monotone_gradient(self, small_logistic):
        rng = np.random.default_rng(2)
        sigma = small_logistic.sigma
        for _ in range(10):
            w1, w2 = rng.normal(size=12), rng.normal(size=12)
            g1 = small_logistic.eval_full(w1).gradient
            g2 = small_logistic.eval_full(w2).gradient
            lhs = float((g1 - g2) @ (w1 - w2))
            assert lhs >= sigma * float((w1 - w2) @ (w1 - w2)) - 1e-12


class TestSigmoidLsq:
    def test_quarter_loss_at_zero(self):
        ds = dataset_from_rows([[2.0, 1.0]], [1], d=2)
        obj = sigmoid_lsq(ds)
        assert obj.eval_full(np.zeros(2)).loss == pytest.approx(0.25, abs=1e-15)

    def test_balanced_labels_same_loss(self):
        rows = [[1.0, 0.5], [-0.5, 2.0]]
        obj = sigmoid_lsq(dataset_from_rows(rows, [1, -1], 2))
        for i in range(2):
            assert obj.eval_subset(np.zeros(2), [i]).loss == pytest.approx(0.25)


class TestQuadratic:
    def test_gradient_zero_at_mean_center(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(6, 5))
        obj = quadratic(dataset_from_rows(rows, [1] * 6, 5))
        w = rows.mean(axis=0)
        assert np.allclose(obj.eval_full(w).gradient, 0.0, atol=1e-12)

    def test_weighted_hessian(self):
        rows = [[1.0, 2.0], [0.0, -1.0]]
        weights = np.array([1.0, 10.0])
        obj = quadratic(dataset_from_rows(rows, [1, 1], 2), weights=weights)
        rng = np.random.default_rng(0)
        w1, w2 = rng.normal(size=2), rng.normal(size=2)
        g1, g2 = obj.eval_full(w1).gradient, obj.eval_full(w2).gradient
        # gradient is linear with slope diag(weights)
        assert np.allclose(g1 - g2, weights * (w1 - w2), rtol=1e-12)


class TestGradientOracle:
    @pytest.mark.parametrize("kind", ["logistic_l2", "sigmoid_lsq", "quadratic"])
    def test_central_differences(self, kind):
        rng = np.random.default_rng(17)
        d = 30
        rows = rng.normal(size=(40, d)) * (rng.random(size=(40, d)) < 0.4)
        labels = rng.choice([-1, 1], size=40)
        ds = dataset_from_rows(rows, labels, d)
        obj = make_objective(kind, ds, sigma=0.01)
        for _ in range(20):
            w = rng.normal(size=d) * 0.5
            analytic = obj.eval_full(w).gradient
            fd = central_difference(obj, w)
            denom = max(np.linalg.norm(fd), 1e-10)
            assert np.linalg.norm(analytic - fd) / denom <= 1e-6


# spans that no call on four rows may take
BAD_SPANS = [
    [],                     # no part
    [(0, 5)],               # past the end of rows
    [(-1, 2)],              # before its start
    [(2, 1)],               # reversed
    [(0, 3), (2, 4)],       # overlapping
    [(2, 4), (0, 1)],       # not ascending
    [(0, 1, 2)],            # not a pair
    [(0, 2.7)],             # not integers: int() made these rows[0:2],
    [("1", 3)],             # rows[1:3]
    [(0, np.float64(3.5))], # and rows[0:3]
]


class TestSubsetSemantics:
    def test_full_equals_subset_bitwise(self, small_logistic):
        w = np.linspace(-1, 1, small_logistic.d)
        a = small_logistic.eval_full(w)
        b = small_logistic.eval_subset(w, np.arange(small_logistic.n))
        assert a.loss == b.loss
        assert np.array_equal(a.gradient, b.gradient)

    @pytest.mark.parametrize("kind", ["sigmoid_lsq", "quadratic"])
    def test_full_equals_subset_bitwise_other_kinds(self, small_dataset, kind):
        obj = make_objective(kind, small_dataset, sigma=0.01)
        w = np.linspace(-1, 1, obj.d)
        a = obj.eval_full(w)
        b = obj.eval_subset(w, np.arange(obj.n))
        assert a.loss == b.loss and a.subset_size == b.subset_size == obj.n
        assert np.array_equal(a.gradient, b.gradient)

    def test_singleton_average_matches_full(self, small_dataset):
        obj = logistic_l2(small_dataset, sigma=0.0)
        w = np.linspace(-0.5, 0.5, obj.d)
        total = sum(obj.eval_subset(w, [i]).loss for i in range(obj.n))
        assert total / obj.n == pytest.approx(obj.eval_full(w).loss, abs=1e-10)

    def test_empty_subset_rejected(self, small_logistic):
        with pytest.raises(UsageError, match="empty subset"):
            small_logistic.eval_subset(np.zeros(small_logistic.d), [])

    def test_out_of_range_subset(self, small_logistic):
        with pytest.raises(UsageError):
            small_logistic.eval_subset(np.zeros(small_logistic.d),
                                       [small_logistic.n])

    @pytest.mark.parametrize("subset", [[-1], [300], [0, 5, -300], [2, 301]])
    def test_eval_sums_rejects_out_of_range_indices(self, small_logistic, subset):
        # -1 used to evaluate row n-1 and n raised scipy's IndexError
        assert small_logistic.n == 300
        with pytest.raises(UsageError, match="out of range"):
            small_logistic.eval_sums(np.zeros(small_logistic.d), subset)

    @pytest.mark.parametrize("subset", [
        [True, False],                  # a mask was read as rows 1 and 0
        np.array([False, True, True]),
        [0.5, 1.7],                     # floats were truncated to rows 0 and 1
        np.array([2.0]),
        [[0, 1], [2, 3]],               # raised scipy's IndexError
        np.zeros((1, 1), dtype=np.int64),
    ])
    @pytest.mark.parametrize("method", ["eval_sums", "eval_subset"])
    def test_subsets_that_are_not_integer_vectors_rejected(self, small_logistic, subset, method):
        with pytest.raises(UsageError, match="1-D sequence of integer"):
            getattr(small_logistic, method)(np.zeros(small_logistic.d), subset)

    @pytest.mark.parametrize("shape", ["list", "column", "short"])
    @pytest.mark.parametrize("method", ["eval_sums", "eval_subset", "eval_full"])
    def test_w_that_is_not_a_vector_of_length_d_rejected(self, small_logistic, shape,
                                                         method):
        # a list raised AttributeError; a (d, 1) column passed eval_sums but
        # made eval_full and eval_subset raise numpy's ValueError
        d = small_logistic.d
        w = {"list": [0.0] * d, "column": np.zeros((d, 1)),
             "short": np.zeros(d - 1)}[shape]
        args = () if method == "eval_full" else ([0, 1],)
        with pytest.raises(UsageError, match="1-D array of length"):
            getattr(small_logistic, method)(w, *args)

    @pytest.mark.parametrize("spans", BAD_SPANS)
    def test_eval_sums_rejects_bad_part_spans(self, small_logistic, spans):
        with pytest.raises(UsageError, match="part spans"):
            small_logistic.eval_sums(np.zeros(small_logistic.d), [0, 1, 2, 3], spans)

    def test_rows_outside_the_spans_are_checked_too(self, small_logistic):
        # every entry of rows is an index into X, evaluated or not, so the
        # block and gather branches reject the same calls
        with pytest.raises(UsageError, match="out of range"):
            small_logistic.eval_sums(np.zeros(small_logistic.d), [0, 1, 300], [(0, 2)])

    def test_spans_covering_nothing_are_an_empty_subset(self, small_logistic):
        with pytest.raises(UsageError, match="empty subset"):
            small_logistic.eval_sums(np.zeros(small_logistic.d), [0, 1], [(1, 1)])

    @pytest.mark.parametrize("kind", KINDS)
    def test_full_evaluation_carries_the_accuracy(self, small_dataset, kind):
        obj = make_objective(kind, small_dataset, sigma=0.01)
        for w in (np.zeros(obj.d), np.linspace(-1, 1, obj.d)):
            # the sign rule: a margin >= 0 predicts +1
            pred = np.where(obj.X.dot(w) >= 0, 1.0, -1.0)
            expected = 0.0 if kind == "quadratic" else float(np.mean(pred == obj.labels))
            assert obj.eval_full(w).accuracy == expected
        assert obj.eval_subset(np.zeros(obj.d), [0]).accuracy is None

    def test_accuracy_perfect_on_plant(self, sep_logistic):
        # a separable dataset admits a perfect classifier; after training,
        # accuracy should be 1 (checked indirectly in driver tests); here
        # just check the metric is within [0, 1]
        acc = sep_logistic.eval_full(np.zeros(sep_logistic.d)).accuracy
        assert 0.0 <= acc <= 1.0


class TestFusedParts:
    @given(kind=st.sampled_from(KINDS), data=st.data())
    @settings(max_examples=90, deadline=None)
    def test_each_part_equals_a_one_part_call_bitwise(self, small_dataset, kind, data):
        obj = make_objective(kind, small_dataset, sigma=0.01)
        rows = data.draw(st.lists(st.integers(0, obj.n - 1), min_size=1, max_size=150))
        # spans with gaps between them, some empty
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), min_size=2,
                                         max_size=16)))
        spans = list(zip(cuts[::2], cuts[1::2]))
        assume(any(b > a for a, b in spans))
        seed = data.draw(st.integers(0, 2**32 - 1))
        w = np.random.default_rng(seed).normal(size=obj.d)
        G, L = obj.eval_sums(w, rows, spans)
        assert G.shape == (len(spans), obj.d) and L.shape == (len(spans),)
        for k, (a, b) in enumerate(spans):
            if b > a:
                g, loss = obj.eval_sums(w, rows[a:b])
                assert np.array_equal(G[k], g[0]) and L[k] == loss[0]
            else:  # an empty part sums to zero
                assert not G[k].any() and L[k] == 0.0


def _random_values(rng, size):
    """Values with random signs and mantissas, most of magnitude near 1
    (where the order of a sum shows in its last bits), the rest anywhere in
    1e-100 .. 1e100."""
    decades = np.where(rng.random(size) < 0.8, rng.integers(-1, 2, size),
                       rng.integers(-100, 101, size))
    return rng.uniform(-1, 1, size) * 10.0 ** decades


def _random_problem(kind, data):
    """An objective over random CSR data with empty rows and values from
    1e-100 to 1e100, and a random iterate for it."""
    n = data.draw(st.integers(1, 25), label="n")
    d = data.draw(st.integers(1, 12), label="d")
    density = data.draw(st.floats(0, 1), label="density")
    empty_rows = data.draw(st.floats(0, 1), label="empty_rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    stored = (rng.random((n, d)) < density) & (rng.random((n, 1)) >= empty_rows)
    values = np.zeros((n, d))
    values[stored] = _random_values(rng, int(stored.sum()))
    X = sparse.csr_matrix(values)
    labels = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return make_objective(kind, Dataset(X, labels), sigma=0.01), _random_values(rng, d)


def _sums_or_error(obj, w, rows, spans):
    try:
        G, L = obj.eval_sums(w, rows, spans)
    except NumericError as exc:
        return str(exc)
    return G.tobytes(), L.tobytes()


def _read_only_spans(n, data):
    """Read-only rows (a permutation of range(n) or any rows) and non-empty
    spans of them, ascending, with gaps."""
    if data.draw(st.booleans(), label="permutation"):
        rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                               label="perm_seed")).permutation(n)
    else:
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                           max_size=40), label="rows"), dtype=np.int64)
    rows.flags.writeable = False
    cuts = data.draw(st.lists(st.integers(0, rows.size), max_size=10), label="cuts")
    bounds = [0] + sorted(cuts) + [rows.size]
    spans = [span for span in zip(bounds, bounds[1:])
             if span[1] > span[0] and data.draw(st.booleans(), label="kept")]
    assume(spans)
    return rows, spans


def _with_index_dtype(obj, dtype):
    """``obj``'s kind and data, with the CSR index arrays of ``dtype``."""
    X = obj.X.copy()
    # set after construction: the constructor may narrow int64 indices
    X.indices, X.indptr = X.indices.astype(dtype), X.indptr.astype(dtype)
    return make_objective(obj.kind, Dataset(X, obj.labels), obj.sigma)


class TestGather:
    @given(kind=st.sampled_from(KINDS), data=st.data(),
           index_dtype=st.sampled_from([np.int32, np.int64]),
           rows_dtype=st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=150, deadline=None)
    def test_gather_and_kept_copy_equal_fancy_indexing_bytewise(
            self, kind, data, index_dtype, rows_dtype):
        # one row, repeated rows and rows with no entries, against X[idx]
        # with the index type scipy's _major_index_fancy picks (the
        # csr_matrix constructor may narrow it afterwards)
        obj = _with_index_dtype(_random_problem(kind, data)[0], index_dtype)
        rows = np.array(data.draw(st.lists(st.integers(0, obj.n - 1), min_size=1,
                                           max_size=40), label="rows"), dtype=rows_dtype)
        Xs = obj.X[rows]
        itype = sparse.get_index_dtype((obj.X.indptr, obj.X.indices))
        expected = [Xs.indptr.astype(itype), Xs.indices.astype(itype), Xs.data]
        gathered = obj._gather(rows)
        kept_rows = rows.astype(np.int64)  # eval_sums keeps read-only int64 rows
        kept_rows.flags.writeable = False
        obj.eval_sums(np.zeros(obj.d), kept_rows)
        assert obj._kept.rows is kept_rows
        for csr in (gathered, obj._kept.csr):
            assert [a.dtype for a in csr] == [a.dtype for a in expected]
            assert [a.tobytes() for a in csr] == [a.tobytes() for a in expected]


class TestCompiledKernels:
    @given(kind=st.sampled_from(KINDS), data=st.data(),
           index_dtype=st.sampled_from([np.int32, np.int64]),
           rows_dtype=st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=150, deadline=None)
    def test_part_sums_equal_public_scipy_products_bytewise(
            self, kind, data, index_dtype, rows_dtype):
        # the compiled matvecs against X[idx].dot(w) and X[idx].T.dot(c), on
        # row ranges of a kept X[rows] and of a gather; a scipy release that
        # changes its private kernels fails here
        obj, w = _random_problem(kind, data)
        obj = _with_index_dtype(obj, index_dtype)
        rows, parts = _read_only_spans(obj.n, data)
        rows = rows.astype(rows_dtype)
        Xb = obj.X[rows]
        sub = np.concatenate([rows[a:b] for a, b in parts]).astype(np.int64)
        gathered = obj._gather(sub)
        ends = np.cumsum([0] + [b - a for a, b in parts])
        for csr, row_data, ranges in (
                ((Xb.indptr, Xb.indices, Xb.data), obj._row_data.take(rows), parts),
                (gathered, obj._row_data.take(sub), list(zip(ends, ends[1:])))):
            G, L = np.zeros((len(parts), obj.d)), np.empty(len(parts))
            with np.errstate(over="ignore", invalid="ignore"):
                _, z, terms, coeff = obj._part_sums(w, csr, row_data, ranges,
                                                    int(ends[-1]), G, L)
                at = 0
                for k, (a, b) in enumerate(parts):
                    Xs, m = obj.X[rows[a:b]], b - a
                    if kind == "quadratic":
                        expected = obj._quad_sums(w, m, Xs.T.dot(np.ones(m)),
                                                  np.add.reduce(terms[at:at + m]))[0]
                    else:
                        assert Xs.dot(w).tobytes() == z[at:at + m].tobytes()
                        expected = Xs.T.dot(coeff[at:at + m])
                    assert expected.tobytes() == G[k].tobytes()
                    at += m

    @pytest.mark.parametrize("name", ["csc_matvec", "csr_matvec", "csr_row_index"])
    def test_a_missing_kernel_fails_the_import_by_name(self, name):
        # a scipy without one of the private kernels fails at import, naming
        # the kernel and the scipy version, not at the first evaluation
        code = ("import scipy.sparse._sparsetools as kernels\n"
                f"del kernels.{name}\n"
                "import mblbfgs.objectives\n")
        src = os.path.dirname(os.path.dirname(mblbfgs.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 1
        last = done.stderr.strip().splitlines()[-1]
        assert last.startswith(f"ImportError: scipy {scipy.__version__} lacks a "
                               f"compiled kernel (cannot import name '{name}' ")


def _fresh(obj):
    obj._kept = None


class TestKeptOrder:
    @given(kind=st.sampled_from(KINDS), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_kept_and_gathered_match_one_part_calls_bytewise(self, kind, data):
        obj, w = _random_problem(kind, data)
        rows, spans = _read_only_spans(obj.n, data)
        # one-part calls on copies of the slices: writable, so copied again
        expected = []
        for a, b in spans:
            part = _sums_or_error(obj, w, rows[a:b].copy(), None)
            if isinstance(part, str):
                expected = part  # the first failing part names the row
                break
            expected.append(part)
        if not isinstance(expected, str):
            expected = tuple(b"".join(col) for col in zip(*expected))
        _fresh(obj)
        first = _sums_or_error(obj, w, rows, spans)   # keeps X[rows]
        assert obj._kept is not None and obj._kept.rows is rows
        second = _sums_or_error(obj, w, rows, spans)  # reads it again
        _fresh(obj)
        gathered = _sums_or_error(obj, w, rows.copy(), spans)
        # a writable order is kept as a read-only copy up to its last stop
        copied = obj._kept.rows
        assert copied is not rows and not copied.flags.writeable
        assert np.array_equal(copied, rows[:spans[-1][1]])
        assert first == second == gathered == expected

    @pytest.mark.parametrize("spans", BAD_SPANS)
    def test_bad_part_spans_on_the_kept_rows_raise_and_leave_the_entry(
            self, small_logistic, spans):
        # the kept branch reads parts in place from X[rows], so a span it
        # accepted wrongly would read past or across the kept rows
        obj = logistic_l2(small_logistic.dataset)
        w = np.linspace(-1, 1, obj.d)
        rows = np.arange(4)
        rows.flags.writeable = False
        expected = obj.eval_sums(w, rows, [(0, 2), (3, 4)])
        kept = obj._kept
        assert kept.rows is rows
        with pytest.raises(UsageError, match="part spans"):
            obj.eval_sums(w, rows, spans)
        assert obj._kept is kept
        result = obj.eval_sums(w, rows, [(0, 2), (3, 4)])
        assert [a.tobytes() for a in result] == [a.tobytes() for a in expected]

    @pytest.mark.parametrize("order", ["identity", "reversed", "one_swap"])
    def test_only_the_identity_order_is_read_from_x_itself(self, small_logistic, order):
        # serial SGD's order 0..n-1 is X's own arrays; a reversed order and a
        # single swap are their own inverses but not the identity, so each
        # is a copy of X's rows
        obj = logistic_l2(small_logistic.dataset)
        w = np.linspace(-1, 1, obj.d)
        rows = np.arange(obj.n)  # not the object any source hands out
        if order == "reversed":
            rows = rows[::-1].copy()
        elif order == "one_swap":
            rows[[3, 7]] = rows[[7, 3]]
        rows.flags.writeable = False
        spans = [(0, 5), (9, obj.n)]
        gathered = obj.eval_sums(w, rows.copy(), spans)
        result = obj.eval_sums(w, rows, spans)
        kept = obj._kept
        assert kept.rows is rows and np.array_equal(kept.inv, np.argsort(rows))
        in_place = [np.shares_memory(a, b) for a, b in zip(kept.csr, obj._csr)]
        assert in_place == [order == "identity"] * 3
        assert [a.tobytes() for a in result] == [a.tobytes() for a in gathered]
        # metrology reuses the call's margins over most rows
        assert kept.memo is not None
        assert _full_or_error(obj, w) == _full_or_error(logistic_l2(obj.dataset), w)

    def test_the_entry_follows_the_last_read_only_rows(self, small_logistic):
        obj = logistic_l2(small_logistic.dataset)
        w = np.linspace(-1, 1, obj.d)
        rows = np.arange(obj.n)[::-1].copy()
        wide, narrow = [(0, 100), (150, 300)], [(100, 150)]
        # each X[rows] of a new entry is built after the old one is freed,
        # so that two copies of X never coexist
        built, gather, old = [], obj._gather, None

        def spy(idx):
            built.append(obj._kept)
            assert old is None or old() is None
            return gather(idx)
        obj._gather = spy

        expected = obj.eval_sums(w, rows, wide)
        copied = obj._kept.rows  # writable rows are kept as a read-only copy
        assert copied is not rows and np.array_equal(copied, rows)
        assert not copied.flags.writeable and built == [None]
        built.clear()
        old = weakref.ref(obj._kept)
        rows.flags.writeable = False
        obj.eval_sums(w, rows, narrow)  # any coverage keeps X[rows]
        kept = obj._kept
        assert kept.rows is rows and built == [None]
        result = obj.eval_sums(w, rows, wide)  # the same rows, any spans: the same entry
        assert obj._kept is kept and built == [None]
        assert [a.tobytes() for a in result] == [a.tobytes() for a in expected]
        built.clear()
        old = weakref.ref(kept)
        del kept
        obj.eval_sums(w, rows.copy(), wide)  # a writable copy replaces the entry
        assert obj._kept.rows is not rows and built == [None]
        built.clear()
        old = weakref.ref(obj._kept)
        other = rows.copy()
        other.flags.writeable = False
        obj.eval_sums(w, other, narrow)  # equal rows, another object
        assert obj._kept.rows is other and built == [None]


# every plan source, and the run configs that pick them; strategy 2 serves
# robust_lbfgs all its parts and inconsistent_lbfgs the batch parts alone
_SOURCE_CONFIGS = {
    "strategy1": dict(mode="strategy1"),
    "strategy2": dict(mode="strategy2"),
    "fault": dict(mode="fault"),
    "fault_reshard": dict(mode="fault", reshard_each_epoch=True),
    "serial": dict(method="serial_sgd"),
}


class TestSourceSpans:
    @given(kind=st.sampled_from(KINDS), source=st.sampled_from(sorted(_SOURCE_CONFIGS)),
           r=st.floats(0.01, 1.0), o=st.floats(0.01, 0.99), nodes=st.integers(1, 12),
           p=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1),
           count=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_source_spans_read_in_place_as_gathered(
            self, small_dataset, kind, source, r, o, nodes, p, seed, count):
        # every plan's spans, and the batch-only head the driver evaluates
        # when a plan's extra part forms no pair, are non-empty, ascending and
        # disjoint within rows; a plan's read-only rows are read in place and
        # must give the bytes of the same parts copied from a writable copy
        obj, twin = (make_objective(kind, small_dataset, sigma=0.01) for _ in range(2))
        config = RunConfig(**_SOURCE_CONFIGS[source], batch_frac=r, overlap_frac=o,
                           nodes=nodes, fail_prob=p)
        try:
            config.validate(obj.n)
        except ConfigurationError:
            assume(False)
        src = make_plan_source(config, obj.n, SeededRng(seed))
        w = np.random.default_rng(seed).standard_normal(obj.d)
        for _ in range(count):
            plan = src.next_plan()
            batch = plan.spans[:len(plan.spans) - plan.extra]
            for spans in {plan.spans, batch}:
                assert all(a < b for a, b in spans)
                assert _checked_spans(spans, len(plan.rows))[0] == list(spans)
                in_place = _sums_or_error(obj, w, plan.rows, spans)
                assert in_place == _sums_or_error(twin, w, plan.rows.copy(), list(spans))

    @pytest.mark.parametrize("spans", [
        ((0, 1), (-3, 2), (3, 4)),   # an inner start before rows
        ((0, 1), (2, 9), (9, 4)),    # an inner stop past rows
        ((0, 2), (1, 3)),            # overlapping: row 1 counted twice
        np.array([[0, 1], [-3, 2], [3, 4]]),
    ])
    @pytest.mark.parametrize("writeable", [True, False])
    def test_every_part_is_checked(self, small_logistic, spans, writeable):
        # a check of the first start and the last stop alone passes these;
        # the kept branch would hand csr_matvec a row-pointer slice outside
        # X[rows], the gather branch a row count its gathered arrays lack
        obj = logistic_l2(small_logistic.dataset)
        rows = np.arange(4)
        rows.flags.writeable = writeable
        with pytest.raises(UsageError, match="part spans"):
            obj.eval_sums(np.zeros(obj.d), rows, spans)

    @pytest.mark.parametrize("writeable", [True, False])
    def test_rows_outside_x_are_rejected_whether_kept_or_gathered(
            self, small_logistic, writeable):
        # no compiled kernel may index X with them, whether they are
        # gathered or kept
        rows = np.array([0, 1, small_logistic.n])
        rows.flags.writeable = writeable
        obj = logistic_l2(small_logistic.dataset)
        with pytest.raises(UsageError, match="out of range"):
            obj.eval_sums(np.zeros(obj.d), rows, ((0, 2),))


def _full_or_error(obj, w):
    try:
        full = obj.eval_full(w)
    except NumericError as exc:
        return str(exc)
    return full.gradient.tobytes(), full.loss, full.accuracy


class TestMetrologyMemo:
    @given(kind=st.sampled_from(KINDS), data=st.data(),
           case=st.sampled_from(["same", "ulp", "signed_zero", "nan", "gather",
                                 "reshard"]))
    @settings(max_examples=150, deadline=None)
    def test_eval_full_after_a_kept_call_matches_a_fresh_objective(self, kind, data,
                                                                  case):
        obj, w = _random_problem(kind, data)
        j = data.draw(st.integers(0, obj.d - 1), label="j")
        if case in ("signed_zero", "nan"):
            w[j] = {"signed_zero": 0.0, "nan": np.nan}[case]
        rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                               label="perm_seed")).permutation(obj.n)
        rows.flags.writeable = False
        # spans of a random cut of the rows, with gaps
        cuts = data.draw(st.lists(st.integers(0, obj.n), max_size=6), label="cuts")
        bounds = [0] + sorted(cuts) + [obj.n]
        spans = [span for span in zip(bounds, bounds[1:])
                 if span[1] > span[0] and data.draw(st.booleans(), label="kept")]
        assume(spans)
        covered = sum(b - a for a, b in spans)
        row_terms = []
        real_row_terms = Objective._row_terms

        def counting(self, z, y):
            row_terms.append(z.size)
            return real_row_terms(self, z, y)

        with pytest.MonkeyPatch.context() as mp:
            _sums_or_error(obj, w, rows, spans)
            assert obj._kept is not None
            if case in ("gather", "reshard"):
                # a new read-only order (a layout resharded every epoch) is
                # kept in place of the old, and a writable one (a strategy-2
                # batch) is kept as a copy; either way the entry carries the
                # memo of its call over all rows
                other = np.random.default_rng(0).permutation(obj.n)
                other.flags.writeable = case == "gather"
                _sums_or_error(obj, w, other, [(0, obj.n)])
                assert (obj._kept.rows is other) == (case == "reshard")
                assert np.array_equal(obj._kept.rows, other)
                covered = obj.n
            point = w.copy()
            if case == "ulp":
                point[j] = np.nextafter(point[j], np.inf)
            elif case == "signed_zero":
                point[j] = -0.0
            mp.setattr(Objective, "_row_terms", counting)
            result = _full_or_error(obj, point)
        fresh = make_objective(kind, obj.dataset, obj.sigma)
        assert result == _full_or_error(fresh, point)
        if kind != "quadratic":
            # a bitwise-equal w (NaN included) after a kept call over at
            # least half the rows computes row terms only for the rows it
            # did not cover; any other bytes (one ulp, -0.0 against 0.0),
            # or a call over fewer rows, compute them for every row
            if case in ("ulp", "signed_zero") or 2 * covered < obj.n:
                assert row_terms == [obj.n]
            else:
                assert row_terms == ([obj.n - covered] if covered < obj.n else [])

    def test_memo_needs_the_kept_rows_to_be_a_permutation(self, small_logistic):
        obj = logistic_l2(small_logistic.dataset)
        w = np.linspace(-1, 1, obj.d)
        rows = np.arange(obj.n)
        rows[0] = 1  # n rows, one repeated: not a permutation
        rows.flags.writeable = False
        obj.eval_sums(w, rows, [(0, 5)])
        kept = obj._kept
        assert kept is not None and kept.inv is None  # not needed yet
        for _ in range(2):  # the first wide call finds out, the next remembers
            obj.eval_sums(w, rows)
            assert obj._kept is kept and kept.inv is False and kept.memo is None
        assert _full_or_error(obj, w) == _full_or_error(logistic_l2(obj.dataset), w)

    def test_only_a_wide_call_builds_the_inverse(self, small_logistic):
        # a strategy-1 order serves narrow batches, which never read the
        # inverse; the first call over half the rows or more builds it
        obj = logistic_l2(small_logistic.dataset)
        w = np.linspace(-1, 1, obj.d)
        rows = np.random.default_rng(0).permutation(obj.n)
        rows.flags.writeable = False
        obj.eval_sums(w, rows, [(0, 3), (3, 10)])
        kept = obj._kept
        assert kept.inv is None and kept.memo is None
        assert _full_or_error(obj, w) == _full_or_error(logistic_l2(obj.dataset), w)
        assert kept.inv is None
        obj.eval_sums(w, rows, [(10, obj.n)])
        assert obj._kept is kept and np.array_equal(kept.inv, np.argsort(rows))
        assert kept.memo is not None


class TestCallSequences:
    @given(kind=st.sampled_from(KINDS), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_sequence_of_calls_reads_what_a_fresh_objective_reads(self, kind, data):
        # whatever entry and memo earlier calls left behind, each call gives
        # the bytes a fresh objective gives on the same inputs; a writable
        # order is changed in place after each call and passed again later,
        # so an entry that held on to it would read stale rows
        obj, w = _random_problem(kind, data)
        n = obj.n
        j = data.draw(st.integers(0, obj.d - 1), label="j")
        ulp = w.copy()
        ulp[j] = np.nextafter(ulp[j], np.inf)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        reused, identity = rng.permutation(n), np.arange(n)
        reused.flags.writeable = identity.flags.writeable = False
        writable = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
        for _ in range(data.draw(st.integers(2, 8), label="calls")):
            order = data.draw(st.sampled_from(["reused", "new", "identity", "writable"]),
                              label="order")
            if order == "new":
                rows = rng.permutation(n)
                rows.flags.writeable = False
            else:
                rows = {"reused": reused, "identity": identity, "writable": writable}[order]
            cuts = data.draw(st.lists(st.integers(0, rows.size), max_size=6), label="cuts")
            bounds = [0] + sorted(cuts) + [rows.size]
            spans = [span for span in zip(bounds, bounds[1:])
                     if span[1] > span[0] and data.draw(st.booleans(), label="kept")]
            spans = spans or [(0, rows.size)]
            point = ulp if data.draw(st.booleans(), label="ulp") else w
            fresh = make_objective(kind, obj.dataset, obj.sigma)
            expected = _sums_or_error(fresh, point, rows, spans)
            assert _sums_or_error(obj, point, rows, spans) == expected
            if order == "writable":
                writable[:] = rng.integers(0, n, size=writable.size)
            if data.draw(st.booleans(), label="full"):
                point = ulp if data.draw(st.booleans(), label="full_ulp") else w
                fresh = make_objective(kind, obj.dataset, obj.sigma)
                assert _full_or_error(obj, point) == _full_or_error(fresh, point)


# margins where the row terms' arithmetic changes regime: signed zeros,
# subnormals, where exp overflows (709.8) and underflows (-745.2), the
# infinities and NaN
_EDGE_MARGINS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 709.0, -709.0,
                 709.8, -709.8, 746.0, -746.0, math.inf, -math.inf, math.nan]


def _label_row_terms(z, y):
    """The logistic row terms from the labels y: t = -(y z), the coefficient
    -y expit(t)."""
    t = -(y * z)
    return _softplus(t), -y * expit(t)


class _LabelTermsObjective(Objective):
    """A logistic objective whose row terms recover the labels y from its
    row data -y and take t = -(y z)."""

    def _row_terms(self, z, row_data):
        return _label_row_terms(z, -row_data)


class TestNegatedLabels:
    @given(z=st.lists(st.one_of(st.sampled_from(_EDGE_MARGINS),
                                st.floats(allow_nan=True, allow_infinity=True)),
                      min_size=1, max_size=300),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_terms_on_negated_labels_give_the_label_formulas_bytes(
            self, small_logistic, z, data):
        # every label is +-1, so (-y) z and -(y z) are one exact product and
        # negation apart; only a NaN's sign bit may differ, and a NaN margin
        # never leaves eval_sums, which raises NumericError on it
        z = np.array(z)
        y = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=z.size,
                                        max_size=z.size), label="y"))
        with np.errstate(over="ignore", invalid="ignore"):
            got = small_logistic._row_terms(z, -y)
            expected = _label_row_terms(z, y)
        nan = np.isnan(z)
        for a, b in zip(got, expected):
            assert a[~nan].tobytes() == b[~nan].tobytes()
            assert np.isnan(a[nan]).all() and np.isnan(b[nan]).all()

    @given(data=st.data(), edge=st.sampled_from(["none", "nan", "inf", "huge"]))
    @settings(max_examples=150, deadline=None)
    def test_sums_and_errors_are_those_of_the_label_formulas(self, data, edge):
        # G, L, the full evaluation with its accuracy, and the NumericError
        # text of a non-finite row, against an objective that takes its row
        # terms from the labels
        obj, w = _random_problem("logistic_l2", data)
        if edge != "none":
            j = data.draw(st.integers(0, obj.d - 1), label="j")
            w[j] = {"nan": math.nan, "inf": -math.inf, "huge": 1e300}[edge]
        twin = _LabelTermsObjective("logistic_l2", obj.dataset, obj.sigma)
        rows, spans = _read_only_spans(obj.n, data)
        assert _sums_or_error(obj, w, rows, spans) == _sums_or_error(twin, w, rows, spans)
        assert _full_or_error(obj, w) == _full_or_error(twin, w)


class TestKeptFastPath:
    # a call on the kept rows skips only the checks they passed when they
    # were kept; TestKeptOrder checks that their spans are still checked
    @staticmethod
    def _kept(small_logistic):
        obj = logistic_l2(small_logistic.dataset)
        w = np.linspace(-1, 1, obj.d)
        rows = np.arange(obj.n)[::-1].copy()
        rows.flags.writeable = False
        expected = obj.eval_sums(w, rows, [(0, 3), (7, 9)])
        assert obj._kept.rows is rows
        return obj, w, rows, expected

    @pytest.mark.parametrize("shape", ["short", "long", "column", "list"])
    def test_w_is_checked_on_the_kept_rows(self, small_logistic, shape):
        obj, w, rows, _ = self._kept(small_logistic)
        bad = {"short": w[:-1], "long": np.append(w, 0.0), "column": w[:, None],
               "list": list(w)}[shape]
        with pytest.raises(UsageError, match="length"):
            obj.eval_sums(bad, rows, [(0, 3)])

    def test_kept_rows_made_writable_again_are_copied(self, small_logistic):
        # the caller turned the flag back on, so rows may change: the call
        # keeps a copy, and a later change to rows is not read
        obj, w, rows, expected = self._kept(small_logistic)
        rows.flags.writeable = True
        result = obj.eval_sums(w, rows, [(0, 3), (7, 9)])
        copied = obj._kept.rows
        assert copied is not rows and not copied.flags.writeable
        assert np.array_equal(copied, rows[:9])
        assert [a.tobytes() for a in result] == [a.tobytes() for a in expected]
        rows[:9] = 0
        fresh = logistic_l2(obj.dataset)
        assert (_sums_or_error(obj, w, rows, [(0, 3), (7, 9)])
                == _sums_or_error(fresh, w, rows, [(0, 3), (7, 9)]))

    def test_equal_but_distinct_rows_are_range_checked_and_kept_anew(
            self, small_logistic):
        obj, w, rows, expected = self._kept(small_logistic)
        kept = obj._kept
        # equal to the kept rows inside the spans, out of range after them
        bad = rows.copy()
        bad[-1] = obj.n
        bad.flags.writeable = False
        with pytest.raises(UsageError, match="out of range"):
            obj.eval_sums(w, bad, [(0, 3), (7, 9)])
        assert obj._kept is kept
        other = rows.copy()
        other.flags.writeable = False
        result = obj.eval_sums(w, other, [(0, 3), (7, 9)])
        assert obj._kept is not kept and obj._kept.rows is other
        assert [a.tobytes() for a in result] == [a.tobytes() for a in expected]


class TestNumericGuards:
    def test_nonfinite_raises_with_index(self):
        rows = [[1e308, 0.0], [1.0, 1.0]]
        obj = logistic_l2(dataset_from_rows(rows, [-1, 1], 2), sigma=0.0)
        w = np.array([1e3, 0.0])  # margin -> -inf on example 0
        with pytest.raises(NumericError, match="example 0"):
            obj.eval_full(w)

    def test_quadratic_overflow_raises_without_a_warning(self):
        obj = quadratic(make_synthetic(50, 4, 2, seed=0))
        w = np.full(4, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite evaluation"):
                obj.eval_sums(w, np.arange(obj.n))
            with pytest.raises(NumericError, match="non-finite evaluation"):
                obj.eval_full(w)

    def test_regularization_overflow_raises_without_a_warning(self):
        obj = logistic_l2(make_synthetic(50, 4, 2, seed=0))
        w = np.full(4, 1e300)  # finite per-example sums, ||w||^2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="regularization"):
                obj.eval_full(w)
            with pytest.raises(NumericError, match="regularization"):
                obj.eval_subset(w, [0, 1])

    def test_first_failing_part_names_its_first_bad_row(self):
        rows = [[1.0, 1.0], [1e308, 0.0], [1.0, 0.0], [1e308, 1.0]]
        obj = logistic_l2(dataset_from_rows(rows, [1, -1, 1, -1], 2), sigma=0.0)
        w = np.array([1e3, 0.0])
        with pytest.raises(NumericError, match="example 3"):
            obj.eval_sums(w, [0, 2, 3, 1], [(0, 2), (2, 4)])

    def test_unknown_kind(self, small_dataset):
        with pytest.raises(UsageError):
            Objective("huber", small_dataset, 0.0)

    def test_negative_sigma(self, small_dataset):
        with pytest.raises(UsageError):
            logistic_l2(small_dataset, sigma=-1.0)

    @pytest.mark.parametrize("kind,sigma,factory", [
        *((kind, sigma, None) for kind in KINDS for sigma in (None, "0.1")),
        ("sigmoid_lsq", None, sigmoid_lsq),
        ("quadratic", None, quadratic),
    ])
    def test_sigma_is_a_number_whose_default_make_objective_holds(
            self, small_dataset, kind, sigma, factory):
        # an Objective takes a real sigma and raises the documented
        # UsageError for anything else; a factory leaves a None sigma to
        # make_objective, whose default for these kinds is 0
        if factory is None:
            with pytest.raises(UsageError, match="sigma"):
                Objective(kind, small_dataset, sigma)
        else:
            assert factory(small_dataset, sigma).sigma == 0.0
            assert make_objective(kind, small_dataset).sigma == 0.0
