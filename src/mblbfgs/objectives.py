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

Every call reads its parts as row ranges of one CSR matrix. The margins of
each run of adjacent parts come from one compiled ``csr_matvec`` over its
rows, the row terms of all runs from one ``_row_terms`` call, and each
part's gradient sum from one ``csc_matvec`` over its rows into a zeroed
output. Both add each row's, and each output entry's, products left to
right from 0.0, as ``X[idx].dot(w)`` and ``X[idx].T.dot(c)`` do, so the
bytes do not depend on where the rows come from:

* A read-only ``rows`` (a strategy-1 epoch's order or a fault layout's
  shard order) promises that it will not change and that it serves many
  calls. The objective keeps one entry, for the last read-only ``rows`` it
  was given: ``Xb = X[rows]``, the rows' labels and, when ``rows`` is a
  permutation of all rows, its inverse. Parts are then row ranges of ``Xb``
  itself; rows outside them (failed nodes, the rest of the epoch) cost
  nothing.
* A writable ``rows`` (a strategy-2 or serial batch, drawn afresh each
  time) is gathered: its parts' rows go back to back through scipy's
  compiled ``csr_row_index``, into the arrays ``X[idx]`` has; the kept
  ``X[rows]`` is built the same way.

``eval_full`` also returns the training accuracy from the margins it
computes anyway, so metrology reads ``X`` once per point. When the last
call on the kept entry was at a ``w`` with the same bytes, covered at least
half the rows (below that, reordering costs more than it saves) and the
entry's rows are a permutation of all rows, it reuses that call's margins
and terms, computes only the other rows' in place on ``Xb``, and puts them
back in row order. Comparing bytes, not values, keeps -0.0 apart from 0.0
and lets a NaN match itself, so the result is exactly what a fresh
evaluation gives.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import expit
from scipy.sparse import get_index_dtype
# scipy's compiled sparse kernels, the one place this package imports them.
# csr_matvec(n_row, n_col, Ap, Aj, Ax, Xx, Yx) adds the CSR product A Xx to
# Yx, each row's products left to right; csc_matvec with the same arguments
# adds the CSC product, which for a CSR A's arrays is A.T Xx, scattered
# column by column. csr_row_index(n, rows, Ap, Aj, Ax, Bj, Bx) copies the
# n rows ``rows`` back to back into Bj and Bx. The module is private, but
# all three keep these signatures from the scipy>=1.10 floor in
# pyproject.toml onwards, and tests/test_objectives.py pins their bytes
# against X[idx], X[idx].dot(w) and X[idx].T.dot(c).
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_row_index

from .errors import NumericError, UsageError
from .linalg import Dataset, Vector, all_finite, join_ranges

KINDS = ("logistic_l2", "sigmoid_lsq", "quadratic")

@dataclass(frozen=True)
class _KeptOrder:
    """A read-only row order ``rows``, the CSR arrays ``(indptr, indices,
    data)`` of ``X[rows]``, the rows' labels (or quadratic constants) and the
    inverse permutation when ``rows`` is a permutation of all rows, else
    None."""

    rows: np.ndarray
    csr: tuple
    row_data: np.ndarray
    inv: np.ndarray | None


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


def _sign_accuracy(z, y) -> float:
    """Fraction of rows whose margin sign matches the -1/+1 label; a margin
    of exactly 0 predicts +1, a NaN margin -1."""
    # an exact count divided once: the value np.mean of the matches gives,
    # at a tenth of its cost
    return int(np.count_nonzero((z >= 0) == (y > 0))) / z.size


class Objective:
    """An empirical-risk objective over a fixed dataset."""

    def __init__(self, kind: str, dataset: Dataset, sigma: float,
                 quad_weights=None):
        if kind not in KINDS:
            raise UsageError(f"unknown objective kind {kind!r}")
        if sigma < 0:
            raise UsageError("regularization sigma must be >= 0")
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
        # eval_sums's one _KeptOrder, and its last call as ((w dtype, w
        # bytes), runs, margins, row terms, coefficients), the arrays packed
        # run after run, for eval_full at a bitwise-equal w
        self._kept = self._memo = None
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
            self._row_data = self.labels

    # ------------------------------------------------------------------
    # per-example sums (no averaging, no regularization): the building
    # block the driver combines when a batch is evaluated in parts
    # ------------------------------------------------------------------
    @np.errstate(over="ignore", invalid="ignore")
    def eval_sums(self, w: Vector, rows, spans=None) -> tuple:
        """Sums of per-example gradients and losses over parts of ``rows``.

        ``rows`` is a 1-D sequence of integer row indices, repeats allowed;
        every entry must be a row of ``X``, evaluated or not. ``spans`` are
        ``(start, stop)`` pairs of integers, ascending and disjoint within
        ``rows``, one per part (one part covering ``rows`` by default).
        Returns ``(G, L)``: ``G[p]`` is the gradient sum and ``L[p]`` the
        loss sum of the rows ``rows[start:stop]`` of part ``p``. Each part's
        sums are bit-identical to a one-part call on its slice of ``rows``.

        A read-only ``rows`` is a promise that it will not change and that
        it serves many calls: the objective keeps ``X[rows]`` for the last
        such ``rows`` it saw (by identity) and reads the parts in place.
        Other calls gather the rows of their parts; every branch gives the
        same bytes (see the module docstring).
        """
        idx = np.asarray(rows)
        if spans is None:
            spans = ((0, idx.size),)
        # the spans are ascending, disjoint and inside rows when the sequence
        # a0, b0, a1, b1, ... of integers never decreases and stays within
        # 0..len(rows)
        try:
            flat = list(map(operator.index, itertools.chain.from_iterable(spans)))
        except TypeError:
            flat = []  # a bound that is not an integer: rejected below
        if (not flat or len(flat) != 2 * len(spans) or flat[0] < 0
                or flat[-1] > idx.size or flat != sorted(flat)):
            raise UsageError("part spans must be integer pairs, ascending, "
                             "disjoint and inside rows")
        covered = sum(flat[1::2]) - sum(flat[::2])
        if covered == 0:
            raise UsageError("empty subset")
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise UsageError("rows must be a 1-D sequence of integer row indices")
        idx = idx.astype(np.int64, copy=False)
        self._check_length(w)
        parts = list(zip(flat[::2], flat[1::2]))
        read_only = not idx.flags.writeable
        kept = self._kept
        if not (read_only and kept and idx is kept.rows):
            kept = None  # no reference here, so that _keep frees the old entry
            # one reduction checks both ends: a negative index viewed as
            # unsigned is at least 2**63
            if idx.view(np.uint64).max() >= self.n:
                raise UsageError("subset index out of range")
            if read_only:
                kept = self._keep(idx)
        G = np.zeros((len(parts), self.d))
        L = np.empty(len(parts))
        if kept is not None:
            memo = self._part_sums(w, kept.csr, kept.row_data, parts, G, L)
            if kept.inv is not None and self.kind != "quadratic":
                # eval_full reuses a call that covered at least half the rows
                wide = 2 * covered >= self.n
                self._memo = ((w.dtype, w.tobytes()), *memo) if wide else None
        else:
            # gather the parts' rows back to back: a view of idx when they are
            sub = join_ranges(idx, parts)
            ends = list(itertools.accumulate((b - a for a, b in parts), initial=0))
            self._part_sums(w, self._gather(sub), self._row_data.take(sub),
                            list(zip(ends, ends[1:])), G, L)
        self._check_finite(w, idx, flat, G, L)
        return G, L

    def _part_sums(self, w: Vector, csr, row_data, parts, G, L) -> tuple:
        """Fill the zeroed ``G`` and ``L`` with the sums of ``parts``,
        ascending ``(start, stop)`` row ranges of the CSR arrays ``csr``
        whose rows' labels (or quadratic constants) are ``row_data``.

        Returns ``(runs, z, terms, coeff)``: the runs of back-to-back parts,
        and their rows' margins, loss terms and gradient coefficients packed
        run after run (``z`` and ``coeff`` None for the quadratic kind).
        """
        (indptr, indices, data), d = csr, self.d
        runs = _runs(parts)
        z = coeff = None
        if self.kind == "quadratic":
            terms = join_ranges(row_data, runs)
            weights = np.ones(terms.size)  # each part's gradient needs its column sums
        else:
            z = self._margins(w, csr, runs)
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

    def _margins(self, w: Vector, csr, runs):
        """Margins of the rows in ``runs``, row ranges of the CSR arrays
        ``csr``, packed run after run."""
        indptr, indices, data = csr
        z = np.zeros(sum(b - a for a, b in runs))
        at = 0
        for a, b in runs:
            csr_matvec(b - a, self.d, indptr[a:b + 1], indices, data, w, z[at:at + b - a])
            at += b - a
        return z

    def _keep(self, rows) -> _KeptOrder:
        """Make the read-only ``rows`` the kept entry."""
        # drop the old entry first, so that two copies of X never coexist
        self._kept = self._memo = None
        inv = None
        # n in-range rows are a permutation when every row occurs
        if rows.size == self.n and np.bincount(rows, minlength=self.n).all():
            inv = np.empty_like(rows)
            inv[rows] = np.arange(self.n)
        self._kept = _KeptOrder(rows, self._gather(rows), self._row_data.take(rows), inv)
        return self._kept

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

    def _row_terms(self, z, y) -> tuple:
        """Per-row loss terms and gradient coefficients at margins ``z``."""
        if self.kind == "logistic_l2":
            t = y * z
            return _softplus(-t), -y * expit(-t)
        # sigmoid_lsq, labels remapped from +-1 to {0,1}
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

    def _check_finite(self, w: Vector, idx, flat, G, L):
        """Raise ``NumericError`` naming the first non-finite row of the first
        part whose sums are not finite; part ``k`` is ``idx[flat[2k]:flat[2k+1]]``
        and ``idx`` None stands for all rows."""
        if all_finite(G) and all_finite(L):
            return
        k = int(np.argmin(np.isfinite(L) & np.isfinite(G).all(axis=1)))
        if idx is None:
            idx = np.arange(self.n)
        rows = idx[flat[2 * k]:flat[2 * k + 1]]
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

    @np.errstate(over="ignore", invalid="ignore")
    def eval_full(self, w: Vector) -> SubsetGradient:
        """``eval_subset`` over all rows, read in place as one part, with the
        training accuracy (see ``accuracy``) from the same margins."""
        self._check_length(w)
        G, L = np.zeros((1, self.d)), np.empty(1)
        memo = self._memo
        if memo is not None and memo[0] == (w.dtype, w.tobytes()):
            # the values the one-part call below would give
            acc, terms, coeff = self._full_rows(w, *memo[1:])
            csc_matvec(self.d, self.n, *self._csr, coeff, G[0])
            L[0] = np.add.reduce(terms)
        else:
            z = self._part_sums(w, self._csr, self._row_data, [(0, self.n)], G, L)[1]
            acc = 0.0 if z is None else _sign_accuracy(z, self.labels)
        self._check_finite(w, None, [0, self.n], G, L)
        return SubsetGradient(*self.average(w, G[0], L[0], self.n), self.n, acc)

    def _full_rows(self, w: Vector, runs, *packed) -> tuple:
        """The accuracy at ``w``, and all rows' terms and coefficients in row
        order: the kept entry's rows in ``runs`` have theirs ``packed`` run
        after run, with margins; the others' are computed in place on ``Xb``."""
        kept, n = self._kept, self.n
        ends = [0, *itertools.chain.from_iterable(runs), n]
        gaps = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if b > a]
        pieces = [(runs, packed)]
        if gaps:
            z = self._margins(w, kept.csr, gaps)
            pieces.append((gaps, (z, *self._row_terms(z, join_ranges(kept.row_data, gaps)))))
        z, terms, coeff = (np.empty(n) for _ in packed)
        for ranges, arrays in pieces:
            at = 0
            for a, b in ranges:
                for dst, src in zip((z, terms, coeff), arrays):
                    dst[a:b] = src[at:at + b - a]
                at += b - a
        # a count does not depend on the row order
        return (_sign_accuracy(z, kept.row_data), terms.take(kept.inv),
                coeff.take(kept.inv))

    @np.errstate(over="ignore", invalid="ignore")
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

    @np.errstate(over="ignore", invalid="ignore")
    def regularization(self, w: Vector) -> tuple:
        """The terms ``(sigma * w, sigma/2 ||w||^2)`` that ``average`` adds."""
        return self.sigma * w, 0.5 * self.sigma * float(w.dot(w))

    def accuracy(self, w: Vector) -> float:
        """Fraction of correct sign predictions; 0 for the quadratic kind."""
        if self.kind == "quadratic":
            return 0.0
        return _sign_accuracy(self.X.dot(w), self.labels)


def logistic_l2(dataset: Dataset, sigma: float | None = None) -> Objective:
    """Regularized logistic regression; sigma defaults to 1/n."""
    if sigma is None:
        sigma = 1.0 / dataset.n
    return Objective("logistic_l2", dataset, sigma)


def sigmoid_lsq(dataset: Dataset, sigma: float = 0.0) -> Objective:
    return Objective("sigmoid_lsq", dataset, sigma)


def quadratic(dataset: Dataset, sigma: float = 0.0, weights=None) -> Objective:
    return Objective("quadratic", dataset, sigma, quad_weights=weights)


def make_objective(kind: str, dataset: Dataset, sigma: float | None = None) -> Objective:
    if kind == "logistic_l2":
        return logistic_l2(dataset, sigma)
    if kind == "sigmoid_lsq":
        return sigmoid_lsq(dataset, 0.0 if sigma is None else sigma)
    if kind == "quadratic":
        return quadratic(dataset, 0.0 if sigma is None else sigma)
    raise UsageError(f"unknown objective kind {kind!r}")
