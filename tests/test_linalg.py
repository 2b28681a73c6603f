import numpy as np
import pytest
from scipy import sparse

from mblbfgs import DataError, Dataset


def vec(*xs):
    return np.array(xs, dtype=np.float64)


def csr(rows, d):
    """CSR matrix from (indices, values) rows, stored exactly as given."""
    indptr = np.cumsum([0] + [len(idx) for idx, _ in rows])
    indices = np.concatenate([np.asarray(idx, dtype=np.int64) for idx, _ in rows])
    values = np.concatenate([np.asarray(val, dtype=np.float64) for _, val in rows])
    return sparse.csr_matrix((values, indices, indptr), shape=(len(rows), d))


class TestSparse:
    """Sparse rows of a Dataset: stored as given, checked on construction."""

    def test_empty_row(self):
        ds = Dataset(csr([([], []), ([1], [2.0])], 3), [1, -1])
        assert ds.X.dot(vec(1, 2, 3))[0] == 0.0

    def test_single_entry(self):
        ds = Dataset(csr([([0], [2.0])], 3), [1])
        assert ds.X.dot(vec(3, 9, 9))[0] == 6.0

    def test_against_densified(self):
        rng = np.random.default_rng(5)
        d = 40
        rows, dense = [], []
        for _ in range(20):
            nnz = int(rng.integers(1, 15))
            idx = np.sort(rng.choice(d, size=nnz, replace=False))
            val = rng.normal(size=nnz)
            rows.append((idx, val))
            dense.append(np.zeros(d))
            dense[-1][idx] = val
        ds = Dataset(csr(rows, d), -np.ones(20))
        w = rng.normal(size=d)
        z = ds.X.dot(w)
        for i, row in enumerate(dense):
            assert z[i] == pytest.approx(float(np.dot(row, w)), rel=1e-14)

    def test_out_of_range_index(self):
        with pytest.raises(DataError, match="example 1"):
            Dataset(csr([([0], [1.0]), ([5], [1.0])], 3), [1, 1])
        with pytest.raises(DataError, match="negative"):
            Dataset(csr([([-1], [1.0])], 3), [1])

    def test_indices_must_increase(self):
        with pytest.raises(DataError, match="strictly increasing"):
            Dataset(csr([([3, 1], [1.0, 2.0])], 5), [1])
        with pytest.raises(DataError, match="example 1.*strictly increasing"):
            Dataset(csr([([0, 4], [1.0, 1.0]), ([2, 2], [1.0, 2.0])], 5), [1, 1])
        # a drop across a row boundary is the start of the next row
        Dataset(csr([([3, 4], [1.0, 1.0]), ([0, 1], [1.0, 1.0])], 5), [1, 1])

    def test_label_convention(self):
        with pytest.raises(DataError, match="label"):
            Dataset(csr([([0], [1.0])], 3), [0])

    def test_non_finite_values(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="example 1.*non-finite"):
                Dataset(csr([([0], [1.0]), ([0, 2], [1.0, bad])], 3), [1, -1])


class TestDataset:
    def test_validation(self):
        good = csr([([1], [1.0])], 2)
        with pytest.raises(DataError, match="at least one example"):
            Dataset(sparse.csr_matrix((0, 3)), [])
        with pytest.raises(DataError, match="dimension"):
            Dataset(sparse.csr_matrix((1, 0)), [1])
        with pytest.raises(DataError):
            Dataset(csr([([1], [1.0])], 1), [1])  # index 1 >= d
        with pytest.raises(DataError, match="2 labels for 1 examples"):
            Dataset(good, [1, -1])
        with pytest.raises(DataError, match="CSR"):
            Dataset(good.tocoo(), [1])
        ds = Dataset(good, [1])
        assert ds.n == 1 and ds.d == 2

    def test_shape_is_read_only(self):
        ds = Dataset(csr([([1], [1.0])], 2), [1])
        with pytest.raises(AttributeError):
            ds.n = 5
        with pytest.raises(AttributeError):
            ds.d = 5

    def test_arrays_round_trip(self):
        rng = np.random.default_rng(9)
        rows, labels = [], []
        for _ in range(8):
            nnz = int(rng.integers(0, 5))
            idx = np.sort(rng.choice(10, size=nnz, replace=False))
            rows.append((idx, rng.normal(size=nnz)))
            labels.append(int(rng.choice([-1, 1])))
        ds = Dataset(csr(rows, 10), labels)
        assert ds.X.shape == (8, 10)
        assert ds.y.dtype == np.float64
        for i, (idx, val) in enumerate(rows):
            lo, hi = ds.X.indptr[i], ds.X.indptr[i + 1]
            assert np.array_equal(ds.X.indices[lo:hi], idx)
            assert np.array_equal(ds.X.data[lo:hi], val)
            assert ds.y[i] == labels[i]
