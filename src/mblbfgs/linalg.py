"""The vector type, the CSR dataset and the array helpers every module shares.

``quiet`` is how the package's numeric entry points silence overflow: each
public one whose arithmetic may overflow is a quiet call, and only the
outermost quiet call of a context enters ``np.errstate``, so a run enters it
once.

Everything is 64-bit floating point. Inner products are plain BLAS ``dot``
calls over contiguous arrays, which have one fixed accumulation order, so
reruns with identical inputs are bit-identical on a given platform.
"""
from __future__ import annotations

import contextvars
import functools
import math

import numpy as np
from scipy import sparse

from .errors import DataError

# A parameter vector is a 1-d contiguous float64 array of length d.
Vector = np.ndarray


# set while a quiet call runs in this context; a new thread starts unset
_quiet = contextvars.ContextVar("mblbfgs_quiet", default=False)


def quiet(fn):
    """``fn`` run under ``np.errstate(over="ignore", invalid="ignore")``,
    entered only by the outermost quiet call of a context: a call inside
    another one runs ``fn`` directly, in the error state already entered."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        if _quiet.get():
            return fn(*args, **kwargs)
        with np.errstate(over="ignore", invalid="ignore"):
            token = _quiet.set(True)
            try:
                return fn(*args, **kwargs)
            finally:
                _quiet.reset(token)
    return call


def join_ranges(values, ranges):
    """The entries of ``values`` in the ``(start, stop)`` ``ranges``, range
    after range: a view of ``values`` when the ranges are back to back."""
    if len(ranges) == 1:
        return values[ranges[0][0]:ranges[0][1]]
    if all(b == a for (_, b), (a, _) in zip(ranges, ranges[1:])):
        return values[ranges[0][0]:ranges[-1][1]]
    return np.concatenate([values[a:b] for a, b in ranges])


def all_finite(a) -> bool:
    """Whether every entry of the float array ``a`` is finite. A finite sum
    of squares, one BLAS call, says so; when it overflows, the exact test
    decides. Call it inside a ``quiet`` call, so the overflow is silent."""
    v = a.ravel()
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


class Dataset:
    """n labelled examples over d features, held as one CSR matrix.

    ``X`` is a ``scipy.sparse`` CSR matrix of shape (n, d) whose rows hold
    strictly increasing column indices and finite values; ``y`` is the
    float64 vector of -1/+1 labels. The constructor is where outside data
    enters the package, so it checks all of this and raises ``DataError``.
    """

    def __init__(self, X, y):
        if not (sparse.issparse(X) and X.format == "csr"):
            raise DataError("features must be a scipy.sparse CSR matrix")
        n, d = X.shape
        if d < 1:
            raise DataError("dimension must be >= 1")
        if n < 1:
            raise DataError("dataset must contain at least one example")
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (n,):
            raise DataError(f"got {y.size} labels for {n} examples")
        bad = np.flatnonzero((y != 1.0) & (y != -1.0))
        if bad.size:
            raise DataError(f"example {bad[0]}: label must be -1 or +1, got {y[bad[0]]:g}")
        indptr, indices = X.indptr, X.indices
        if np.any(np.diff(indptr) < 0):
            raise DataError("row pointers must be non-decreasing")
        # entry positions that open a row; an index drop there is allowed
        row_start = np.zeros(int(indptr[-1]) + 1, dtype=bool)
        row_start[indptr] = True
        for mask, message in (
            (indices < 0, "negative feature index"),
            (indices >= d, f"feature index >= d={d}"),
            ((np.diff(indices) <= 0) & ~row_start[1:-1],
             "feature indices must be strictly increasing"),
            (~np.isfinite(X.data), "non-finite feature value"),
        ):
            where = np.flatnonzero(mask)
            if where.size:
                pos = where[0]
                row = int(np.searchsorted(indptr, pos, side="right")) - 1
                raise DataError(f"example {row}, column {indices[pos]}: {message}")
        self.X, self.y = X, y

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]
