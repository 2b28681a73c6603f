"""Differentiable empirical-risk objectives evaluated on arbitrary index subsets.

Three kinds are supported:

* ``logistic_l2``   -- L2-regularized logistic regression on +-1 labels.
* ``sigmoid_lsq``   -- squared error between a sigmoid output and a {0,1}
                       label; a small nonconvex objective for exercising
                       cautious updating.
* ``quadratic``     -- f_i(w) = 1/2 (w - c_i)^T diag(a) (w - c_i) with the
                       example row as the center c_i; strongly convex with a
                       known Hessian, handy as a test oracle.

A subset evaluation returns the average of the per-example losses over the
subset plus sigma/2 * ||w||^2 added once per call, so subset gradients are
unbiased estimators of the full gradient.

``eval_sums`` is the batch kernel: one call takes a row order ``rows`` and
the spans of it that are the batch's parts, and returns the unaveraged
gradient and loss sums of each part, which the driver recombines into batch
and overlap gradients. ``average`` adds the averaging and the
regularization term and raises ``NumericError`` when either is not finite.

Every call checks its spans in one pass over its parts (each bound an
integer, each start at or after the previous stop, the last stop inside
``rows``) and the length of ``w``. A call first asks whether ``rows`` is
the kept entry's own read-only array (by identity), which passed every
check on rows when it was kept; only a ``rows`` that is not is converted,
checked for shape and type and range-checked before it is kept. So no
input makes a compiled kernel read outside ``X``.

Every call reads its parts as row ranges of the CSR arrays of one kept
entry. The margins of each run of adjacent parts come from one compiled
``csr_matvec`` over its rows, the row terms of all runs from one
``_row_terms`` call, and each part's gradient sum from one ``csc_matvec``
over its rows into a zeroed output; a one-part call reads its part's
arrays whole, with no runs to merge. Both kernels add each row's, and each
output entry's, products left to right from 0.0, as ``X[idx].dot(w)`` and
``X[idx].T.dot(c)`` do, so the bytes do not depend on where the rows come
from.

Each row has its row data: the quadratic constant, the label y for
``sigmoid_lsq``, and -y for ``logistic_l2``, so that the margin term
t = -y z and the coefficient -y expit(t) each take one multiply. Every
label is exactly +-1, so (-y) z has the bits of -(y z) for every z but
NaN, and a NaN margin raises ``NumericError``.

The objective keeps one entry, for the last ``rows`` it was given:
``Xb = X[rows]``, the rows' row data, the inverse of ``rows`` when it is a
permutation of all rows (built at the first call over at least half the
rows, the only calls that read it), and the memo of the last call on it.
A call's ``rows`` becomes the entry unless it is the entry's own object:

* A read-only ``rows`` (a strategy-1 epoch's order, a fault layout's shard
  order or serial SGD's identity order) promises that it will not change
  and that it serves many calls. It is kept as it is and recognized by
  identity, so rows outside the parts (failed nodes, the rest of the
  epoch, every example serial SGD did not draw) cost nothing.
* The identity order 0..n-1 is X itself: ``Xb`` is X's own arrays and
  nothing is copied. Every other ``Xb`` is built through scipy's compiled
  ``csr_row_index``, into the arrays ``X[idx]`` has.
* A writable ``rows`` (a strategy-2 batch, an ``eval_subset`` subset) may
  change after the call, so it is copied up to its last part's stop and the
  read-only copy is kept. Strategy-2 and ``eval_subset`` spans run back to
  back from 0, so no row outside their parts is copied.

``eval_full`` also returns the training accuracy from the margins it
computes anyway, so metrology reads ``X`` once per point. When the last
call on the entry was at a ``w`` with the same bytes, covered at least half
the rows (below that, reordering costs more than it saves) and the entry's
rows are a permutation of all rows, the entry's memo holds that call's
margins and terms: ``eval_full`` reuses them, computes only the other rows'
in place on ``Xb``, and puts them back in row order. A new entry starts
with no memo. Comparing bytes, not values, keeps -0.0 apart from 0.0
and lets a NaN match itself, so the result is exactly what a fresh
evaluation gives.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.special import expit
from scipy.sparse import get_index_dtype

# scipy's compiled sparse kernels, the one place this package imports them.
# csr_matvec(n_row, n_col, Ap, Aj, Ax, Xx, Yx) adds the CSR product A Xx to
# Yx, each row's products left to right; csc_matvec with the same arguments
# adds the CSC product, which for a CSR A's arrays is A.T Xx, scattered
# column by column. csr_row_index(n, rows, Ap, Aj, Ax, Bj, Bx) copies the
# n rows ``rows`` back to back into Bj and Bx. The module is private and
# these signatures have been run only with scipy 1.17.1 (numpy 2.4.6);
# tests/test_objectives.py pins their bytes against X[idx], X[idx].dot(w)
# and X[idx].T.dot(c). A scipy without one of them fails here, by name.
try:
    from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_row_index
except ImportError as exc:
    raise ImportError(f"scipy {scipy.__version__} lacks a compiled kernel ({exc}); "
                      f"this package has been run only with scipy 1.17.1") from exc

from .errors import NumericError, UsageError
from .linalg import Dataset, Vector, all_finite, join_ranges, quiet

KINDS = ("logistic_l2", "sigmoid_lsq", "quadratic")

@dataclass
class _KeptOrder:
    """A read-only row order ``rows``, the CSR arrays ``(indptr, indices,
    data)`` of ``X[rows]``, the rows' row data (-y, labels or quadratic
    constants), the inverse permutation of ``rows`` (None until a call
    first needs it, False when ``rows`` is not a permutation of all rows),
    and the last call as ``((w dtype, w bytes), runs, margins, row terms,
    coefficients)``, packed run after run, when ``eval_full`` can reuse it,
    else None."""

    rows: np.ndarray
    csr: tuple
    row_data: np.ndarray
    inv: np.ndarray | bool | None
    memo: tuple | None = None


def _runs(parts) -> list:
    """The ascending ``(start, stop)`` ranges ``parts``, back-to-back ones
    merged."""
    runs = [list(parts[0])]
    for a, b in parts[1:]:
        if a == runs[-1][1]:
            runs[-1][1] = b
        else:
            runs.append([a, b])
    return runs


def _checked_spans(spans, size: int) -> tuple:
    """The spans as a list of ``(start, stop)`` pairs and the number of rows
    they cover, or ``UsageError`` unless they are integer pairs, ascending,
    disjoint, inside ``rows`` of length ``size`` and cover at least one
    row."""
    if spans is None:
        spans = ((0, size),)
    # one pass: each part starts at or after the previous stop, so the parts
    # are ascending and disjoint, and the last stop bounds them all
    parts = []
    stop = covered = 0
    try:
        for a, b in spans:
            a, b = operator.index(a), operator.index(b)
            if not stop <= a <= b:
                raise ValueError
            parts.append((a, b))
            stop = b
            covered += b - a
    except (TypeError, ValueError):
        parts = []  # not a pair, a bound that is not an integer, or out of order
    if not parts or stop > size:
        raise UsageError("part spans must be integer pairs, ascending, "
                         "disjoint and inside rows")
    if not covered:
        raise UsageError("empty subset")
    return parts, covered


@dataclass
class SubsetGradient:
    """Gradient and loss of a subset-restricted objective; ``accuracy``, the
    training accuracy, is set only by full evaluations."""

    gradient: Vector
    loss: float
    subset_size: int
    accuracy: float | None = None


def _softplus(z):
    # log(1 + exp(z)) without overflow at large |z|
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


class Objective:
    """An empirical-risk objective over a fixed dataset."""

    def __init__(self, kind: str, dataset: Dataset, sigma: float,
                 quad_weights=None):
        if kind not in KINDS:
            raise UsageError(f"unknown objective kind {kind!r}")
        if not (isinstance(sigma, numbers.Real) and 0 <= sigma < math.inf):  # NaN too
            raise UsageError(f"regularization sigma {sigma!r} is not a finite number >= 0")
        self.kind = kind
        self.dataset = dataset
        self.sigma = float(sigma)
        self.X, self.labels = dataset.X, dataset.y
        # plain attributes, not properties: every eval_sums call reads d
        self.n, self.d = dataset.n, dataset.d
        itype = get_index_dtype((self.X.indptr, self.X.indices))
        self._csr = (self.X.indptr.astype(itype, copy=False),
                     self.X.indices.astype(itype, copy=False), self.X.data)
        self._row_nnz = np.diff(self._csr[0])
        # the one entry every eval_sums call reads its parts from
        self._kept = None
        if kind == "quadratic":
            if quad_weights is None:
                quad_weights = np.ones(dataset.d)
            self.quad_weights = np.ascontiguousarray(quad_weights, dtype=np.float64)
            if self.quad_weights.shape != (dataset.d,):
                raise UsageError("quad_weights must have length d")
            if np.any(self.quad_weights <= 0):
                raise UsageError("quad_weights must be positive")
            # per-example constant sum_j a_j c_ij^2, precomputed once
            self._quad_csq = self.X.multiply(self.X).dot(self.quad_weights)
            self._row_data = self._quad_csq
        else:
            self.quad_weights = None
            # logistic rows carry -y, so each row term takes one multiply by
            # it; negating a +-1 label is exact
            self._row_data = -self.labels if kind == "logistic_l2" else self.labels

    # ------------------------------------------------------------------
    # per-example sums (no averaging, no regularization): the building
    # block the driver combines when a batch is evaluated in parts
    # ------------------------------------------------------------------
    @quiet
    def eval_sums(self, w: Vector, rows, spans=None) -> tuple:
        """Sums of per-example gradients and losses over parts of ``rows``.

        ``rows`` is a 1-D sequence of integer row indices, repeats allowed;
        every entry must be a row of ``X``, evaluated or not. ``spans`` are
        ``(start, stop)`` pairs of integers, ascending and disjoint within
        ``rows``, one per part (one part covering ``rows`` by default), that
        cover at least one row; every part is checked on every call.
        Returns ``(G, L)``: ``G[p]`` is the gradient sum and ``L[p]`` the
        loss sum of the rows ``rows[start:stop]`` of part ``p``. Each part's
        sums are bit-identical to a one-part call on its slice of ``rows``.

        The parts are read from the objective's one kept entry: ``rows``
        itself when it is read-only (found again by identity; X itself when
        ``rows`` is 0..n-1), else a read-only copy of ``rows`` up to the
        last stop (see the module docstring).
        """
        kept = self._kept
        # the kept entry passed every check on rows when it was kept
        if kept is not None and rows is kept.rows and not rows.flags.writeable:
            parts, covered = _checked_spans(spans, rows.size)
            self._check_length(w)
        else:
            del kept  # no local reference to the old entry, so that _keep frees it
            parts, covered = self._enter(w, rows, spans)
            kept = self._kept
        G = np.zeros((len(parts), self.d))
        L = np.empty(len(parts))
        memo = self._part_sums(w, kept.csr, kept.row_data, parts, covered, G, L)
        # eval_full reuses a call over at least half the rows of a permutation
        wide = (2 * covered >= self.n and self.kind != "quadratic"
                and self._inverse(kept) is not False)
        kept.memo = ((w.dtype, w.tobytes()), *memo) if wide else None
        if not (all_finite(G) and all_finite(L)):
            self._raise_nonfinite(w, kept.rows, parts, G, L)
        return G, L

    def _enter(self, w: Vector, rows, spans) -> tuple:
        """Check ``rows``, ``spans`` and ``w`` and make ``rows`` (a read-only
        copy up to the last stop when it is writable) the kept entry;
        returns ``_checked_spans``' parts and covered row count."""
        idx = np.asarray(rows)
        parts, covered = _checked_spans(spans, idx.size)
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise UsageError("rows must be a 1-D sequence of integer row indices")
        idx = idx.astype(np.int64, copy=False)
        self._check_length(w)
        # one reduction checks both ends: a negative index viewed as
        # unsigned is at least 2**63
        if idx.view(np.uint64).max() >= self.n:
            raise UsageError("subset index out of range")
        if idx.flags.writeable:  # the caller may change it
            idx = idx[:parts[-1][1]].copy()
            idx.flags.writeable = False
        self._keep(idx)
        return parts, covered

    def _part_sums(self, w: Vector, csr, row_data, parts, size: int, G, L) -> tuple:
        """Fill the zeroed ``G`` and ``L`` with the sums of ``parts``,
        ascending ``(start, stop)`` row ranges of the CSR arrays ``csr``
        that cover ``size`` rows, whose row data is ``row_data``.

        Returns ``(runs, z, terms, coeff)``: the runs of back-to-back parts,
        and their rows' margins, loss terms and gradient coefficients packed
        run after run (``z`` and ``coeff`` None for the quadratic kind).
        """
        (indptr, indices, data), d = csr, self.d
        if len(parts) == 1 and self.kind != "quadratic":
            # one part is one run, and its rows' arrays are read whole
            (a, b), = parts
            ptr, z = indptr[a:b + 1], np.zeros(size)
            csr_matvec(size, d, ptr, indices, data, w, z)
            terms, coeff = self._row_terms(z, row_data[a:b])
            csc_matvec(d, size, ptr, indices, data, coeff, G[0])
            L[0] = np.add.reduce(terms)
            return parts, z, terms, coeff
        runs = _runs(parts)
        z = coeff = None
        if self.kind == "quadratic":
            terms = join_ranges(row_data, runs)
            weights = np.ones(size)  # each part's gradient needs its column sums
        else:
            z = self._margins(w, csr, runs, size)
            terms, coeff = self._row_terms(z, join_ranges(row_data, runs))
            weights = coeff
        at = 0
        for k, (a, b) in enumerate(parts):
            csc_matvec(d, b - a, indptr[a:b + 1], indices, data,
                       weights[at:at + b - a], G[k])
            # the reduction ndarray.sum runs, without its Python wrapper
            L[k] = np.add.reduce(terms[at:at + b - a])
            if self.kind == "quadratic":
                G[k], L[k] = self._quad_sums(w, b - a, G[k], L[k])
            at += b - a
        return runs, z, terms, coeff

    def _margins(self, w: Vector, csr, runs, size: int):
        """Margins of the ``size`` rows in ``runs``, row ranges of the CSR
        arrays ``csr``, packed run after run."""
        indptr, indices, data = csr
        z = np.zeros(size)
        at = 0
        for a, b in runs:
            csr_matvec(b - a, self.d, indptr[a:b + 1], indices, data, w, z[at:at + b - a])
            at += b - a
        return z

    def _keep(self, rows) -> _KeptOrder:
        """Make the read-only ``rows`` the kept entry, with no memo; for the
        identity order 0..n-1 that is X itself, with no copy."""
        # drop the old entry first, so that two copies of X never coexist
        self._kept = None
        n = self.n
        # a shuffled order fails at its first row, before any O(n) test; an
        # involution (its own inverse) is not the identity, so compare with
        # 0..n-1, not with the inverse
        if rows.size == n and rows[0] == 0 and np.array_equal(rows, np.arange(n)):
            self._kept = _KeptOrder(rows, self._csr, self._row_data, rows)
            return self._kept
        # n rows may be a permutation: _inverse tells at the first call
        # that needs it
        inv = None if rows.size == n else False
        self._kept = _KeptOrder(rows, self._gather(rows), self._row_data.take(rows), inv)
        return self._kept

    def _inverse(self, kept: _KeptOrder):
        """The inverse permutation of ``kept.rows``, or False when the rows
        are not a permutation of all rows; built once, at the first call."""
        if kept.inv is None:
            n = self.n  # n in-range rows are a permutation when inv keeps no -1
            inv = np.full(n, -1, dtype=np.int64)
            inv[kept.rows] = np.arange(n)
            kept.inv = inv if inv.min() >= 0 else False
        return kept.inv

    def _gather(self, idx) -> tuple:
        """``X[idx]``'s CSR arrays, byte for byte, for in-range rows ``idx``;
        ``_csr`` is X's in the index type ``X[idx]`` picks, with row sizes."""
        Ap, Aj, Ax = self._csr
        idx = idx.astype(Ap.dtype, copy=False)
        indptr = np.zeros(idx.size + 1, dtype=Ap.dtype)
        np.add.accumulate(self._row_nnz.take(idx), out=indptr[1:])
        indices, data = np.empty(indptr[-1], Ap.dtype), np.empty(indptr[-1], Ax.dtype)
        csr_row_index(idx.size, idx, Ap, Aj, Ax, indices, data)
        return indptr, indices, data

    def _check_length(self, w: Vector):
        # O(1): eval_sums runs it on every one-row step of serial SGD
        if not isinstance(w, np.ndarray) or w.shape != (self.d,):
            raise UsageError(f"w must be a 1-D array of length {self.d}")

    def _row_terms(self, z, row_data) -> tuple:
        """Per-row loss terms and gradient coefficients at margins ``z`` of
        rows whose row data is ``row_data``: -y for the logistic kind, the
        labels y for ``sigmoid_lsq``."""
        if self.kind == "logistic_l2":
            # t = -y z and -y expit(t): -(y z) and (-y) z have the same bits,
            # since y is +-1
            t = row_data * z
            return _softplus(t), row_data * expit(t)
        # sigmoid_lsq, labels remapped from +-1 to {0,1}
        y = row_data
        target = 0.5 * (y + 1.0)
        p = expit(z)
        return (p - target) ** 2, 2.0 * (p - target) * p * (1.0 - p)

    def _quad_sums(self, w: Vector, m: int, colsum, csq_sum) -> tuple:
        """Quadratic gradient and loss sums of ``m`` rows with column sums
        ``colsum`` and summed per-row constants ``csq_sum``."""
        a = self.quad_weights
        grad_sum = a * (m * w - colsum)
        loss_sum = 0.5 * (
            m * float(np.dot(a, w * w))
            - 2.0 * float(np.dot(w, a * colsum))
            + float(csq_sum)
        )
        return grad_sum, loss_sum

    def _raise_nonfinite(self, w: Vector, idx, parts, G, L):
        """Raise ``NumericError`` naming the first non-finite row of the first
        part whose sums ``G``, ``L`` are not finite; part ``k`` is
        ``idx[a:b]`` for ``(a, b) = parts[k]``, and ``idx`` None stands for
        all rows."""
        k = int(np.argmin(np.isfinite(L) & np.isfinite(G).all(axis=1)))
        if idx is None:
            idx = np.arange(self.n)
        a, b = parts[k]
        rows = idx[a:b]
        z = self.X[rows].dot(w)
        bad = np.nonzero(~np.isfinite(_softplus(np.abs(z))) | ~np.isfinite(z))[0]
        first = rows[bad[0]] if bad.size else rows[0]
        raise NumericError(f"non-finite evaluation at example {int(first)}")

    # ------------------------------------------------------------------
    # subset and full evaluations
    # ------------------------------------------------------------------
    def eval_subset(self, w: Vector, subset) -> SubsetGradient:
        """Average loss/gradient over ``subset`` plus the sigma/2 ||w||^2 term."""
        idx = np.asarray(subset)
        G, L = self.eval_sums(w, idx)
        return SubsetGradient(*self.average(w, G[0], L[0], idx.size), idx.size)

    @quiet
    def eval_full(self, w: Vector) -> SubsetGradient:
        """``eval_subset`` over all rows, read in place as one part, with the
        training accuracy (0 for the quadratic kind) from the same margins."""
        self._check_length(w)
        G, L = np.zeros((1, self.d)), np.empty(1)
        kept = self._kept
        if kept and kept.memo and kept.memo[0] == (w.dtype, w.tobytes()):
            # the values the one-part call below would give
            acc, terms, coeff = self._full_rows(w, kept)
            csc_matvec(self.d, self.n, *self._csr, coeff, G[0])
            L[0] = np.add.reduce(terms)
        else:
            z = self._part_sums(w, self._csr, self._row_data, [(0, self.n)], self.n,
                                G, L)[1]
            acc = 0.0 if z is None else self._accuracy(z, self._row_data)
        if not (all_finite(G) and all_finite(L)):
            self._raise_nonfinite(w, None, [(0, self.n)], G, L)
        return SubsetGradient(*self.average(w, G[0], L[0], self.n), self.n, acc)

    def _full_rows(self, w: Vector, kept: _KeptOrder) -> tuple:
        """The accuracy at ``w``, and all rows' terms and coefficients in row
        order: the rows of ``kept`` in its memo's runs have theirs packed
        there run after run, with margins; the others' are computed in place
        on ``Xb``."""
        (_, runs, *packed), n = kept.memo, self.n
        ends = [0, *itertools.chain.from_iterable(runs), n]
        gaps = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if b > a]
        pieces = [(runs, packed)]
        if gaps:
            z = self._margins(w, kept.csr, gaps, n - packed[0].size)
            pieces.append((gaps, (z, *self._row_terms(z, join_ranges(kept.row_data, gaps)))))
        z, terms, coeff = (np.empty(n) for _ in packed)
        for ranges, arrays in pieces:
            at = 0
            for a, b in ranges:
                for dst, src in zip((z, terms, coeff), arrays):
                    dst[a:b] = src[at:at + b - a]
                at += b - a
        # a count does not depend on the row order
        return (self._accuracy(z, kept.row_data), terms.take(kept.inv),
                coeff.take(kept.inv))

    def _accuracy(self, z, row_data) -> float:
        """Fraction of rows whose margin sign matches the -1/+1 label, for
        rows whose row data is ``row_data`` (-y for the logistic kind, y
        otherwise); a margin of exactly 0 predicts +1, a NaN margin -1."""
        positive = row_data < 0 if self.kind == "logistic_l2" else row_data > 0
        # an exact count divided once: the value np.mean of the matches
        # gives, at a tenth of its cost
        return int(np.count_nonzero((z >= 0) == positive)) / z.size

    @quiet
    def average(self, w: Vector, grad_sum, loss_sum, m: int, reg=None) -> tuple:
        """Gradient and loss averaged over ``m`` examples plus the sigma/2
        ||w||^2 term, of terms ``reg`` (``regularization(w)`` if not given);
        ``NumericError`` if either is not finite."""
        reg_grad, reg_loss = self.regularization(w) if reg is None else reg
        grad = grad_sum / m + reg_grad
        loss = float(loss_sum / m + reg_loss)
        if not (math.isfinite(loss) and all_finite(grad)):
            raise NumericError("non-finite average or regularization term")
        return grad, loss

    @quiet
    def regularization(self, w: Vector) -> tuple:
        """The terms ``(sigma * w, sigma/2 ||w||^2)`` that ``average`` adds."""
        return self.sigma * w, 0.5 * self.sigma * float(w.dot(w))


def make_objective(kind: str, dataset: Dataset, sigma: float | None = None,
                   quad_weights=None) -> Objective:
    """The ``kind`` objective on ``dataset``; sigma defaults to 1/n for
    ``logistic_l2`` and to 0 for the other kinds."""
    if sigma is None:
        sigma = 1.0 / dataset.n if kind == "logistic_l2" else 0.0
    return Objective(kind, dataset, sigma, quad_weights)


def logistic_l2(dataset: Dataset, sigma: float | None = None) -> Objective:
    return make_objective("logistic_l2", dataset, sigma)


def sigmoid_lsq(dataset: Dataset, sigma: float | None = None) -> Objective:
    return make_objective("sigmoid_lsq", dataset, sigma)


def quadratic(dataset: Dataset, sigma: float | None = None, weights=None) -> Objective:
    return make_objective("quadratic", dataset, sigma, weights)
