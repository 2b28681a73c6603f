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

A read-only ``rows`` that comes with ``segments`` (the fixed order of all
shards of a fault-mode layout kept for the run, and the shard bounds every
span is one of) is kept as a block from its first call that covers at
least ``_MIN_BLOCK_COVERAGE`` of it, until another such pair comes along.
The block is one sparse matrix ``K`` with ``d`` rows per segment and one
column per entry of ``rows``: column ``i`` holds the entries of row
``rows[i]`` at rows ``segment(i) * d + column``. A call whose parts cover
at least that much of the block reads no rows: its margins are one
``K.T`` matvec with ``w`` repeated per segment, and every segment's gradient
sum comes from one ``K`` matvec with the per-row coefficients, from which
the parts' segments are picked. Parts with gaps between them (failed
nodes) waste the work on the gap rows, so a call covering less of the block
gathers its parts' rows instead. Each row's margin and each gradient bin
add the same products in the same order from 0.0 on either branch, so the
bytes are the same.

The gather has two branches with the same result bytes. A batch whose
expected stored entries, rows times the mean row count ``nnz / n``, are at
most ``_SMALL_BATCH_ENTRIES`` is read straight from ``X.indptr``,
``X.indices`` and ``X.data`` with numpy, and its margins are per-row
``bincount`` sums; at these sizes the cost is per call, and scipy's
``X[idx]`` with ``Xs.dot(w)`` costs about twice as much for one row. A
larger batch keeps ``X[idx]`` and ``Xs.dot(w)``, which win from about
10,000 entries on. The rule is O(1) and reads only the batch size, so rows
with unusual entry counts can change which branch runs but never the result.

``eval_full`` also returns the training accuracy from the margins it
computes anyway, so metrology reads ``X`` once per point. When the last
block call was at a ``w`` with the same bytes and the block's rows are a
permutation of all rows, it skips ``X.dot(w)`` and the row terms and puts
that call's margins, terms and coefficients back in row order. Comparing
bytes, not values, keeps -0.0 apart from 0.0 and lets a NaN match itself,
so the result is exactly what a fresh evaluation gives.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import expit

from .errors import NumericError, UsageError
from .linalg import Dataset, Vector

KINDS = ("logistic_l2", "sigmoid_lsq", "quadratic")

# Largest expected number of stored entries (batch rows * nnz / n) gathered
# with numpy instead of scipy's X[idx]. Crossover measured with eval_sums on
# one pinned core, scipy vs numpy gather: 8,000 entries at d=50 158.9 vs
# 158.1 us; 7,500 at d=200 143 vs 134 us; 12,000 at d=200 169 vs 189 us;
# 60,000 624 vs 935 us. Counting a batch's exact entries would take passes
# over its indptr that cost more than they save on large batches.
_SMALL_BATCH_ENTRIES = 8192

# Smallest fraction of a cached block's rows that a call's parts must cover
# for eval_sums to evaluate the whole block instead of gathering the parts.
# Measured with eval_sums on one pinned core, 5000 x 200 rows of 15 entries
# in 16 shards, median per-call time of the keyed block over gather, two
# rounds, for logistic_l2: 1.47-1.49 at 2 shards (coverage 0.125),
# 1.21-1.23 at 3, 1.03-1.06 at 4 (0.25), 0.91 at 5, 0.66-0.67 at 8,
# 0.41-0.42 at 14 and 0.37-0.42 at 16; sigmoid_lsq 1.28-1.36, 1.08-1.12,
# 0.93-0.94, 0.78-0.82, 0.57-0.58, 0.37-0.42, 0.36-0.38. The quadratic kind
# needs no margins and its block wins at every coverage (0.22-0.25), but
# one rule serves all kinds.
_MIN_BLOCK_COVERAGE = 0.25


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
        # the csc view X.T costs a scipy constructor per call; eval_full
        # reuses this one
        self._XT = self.X.T
        self._nnz = int(self.X.indptr[-1])
        # one-entry cache of eval_sums: the last read-only rows array seen
        # with segments, its segment bounds, and its block once built
        self._block_rows = self._block_bounds = self._block = None
        # the last block call's ((w dtype, w bytes), inverse permutation,
        # margins, row terms, coefficients), the arrays in block order,
        # which eval_full reuses at a bitwise-equal w
        self._memo = None
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
        else:
            self.quad_weights = None

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    # ------------------------------------------------------------------
    # per-example sums (no averaging, no regularization): the building
    # block the driver combines when a batch is evaluated in parts
    # ------------------------------------------------------------------
    def eval_sums(self, w: Vector, rows, spans=None, segments=None) -> tuple:
        """Sums of per-example gradients and losses over parts of ``rows``.

        ``rows`` is a 1-D sequence of integer row indices, repeats allowed;
        every entry must be a row of ``X``, evaluated or not. ``spans`` are
        ``(start, stop)`` pairs, ascending and disjoint within ``rows``,
        one per part (one part covering ``rows`` by default). Returns
        ``(G, L)``: ``G[p]`` is the gradient sum and ``L[p]`` the loss sum
        of the rows ``rows[start:stop]`` of part ``p``. Each part's sums are
        bit-identical to a one-part call on its slice of ``rows``.

        ``segments``, when given, are the bounds ``0 = b0 <= b1 <= ... =
        len(rows)`` of a fixed partition of ``rows`` (fault mode's shards),
        and each span must be exactly one segment ``(b_j, b_j+1)``. A
        read-only ``rows`` that comes with ``segments`` is a promise that
        neither will change and that the pair serves many calls: the
        objective keeps the block of the last such pair it saw and
        evaluates parts covering at least ``_MIN_BLOCK_COVERAGE`` of it
        with one keyed matvec over the block. Other calls gather the rows
        of their parts, with numpy from the CSR arrays up to
        ``_SMALL_BATCH_ENTRIES`` expected stored entries and with
        ``X[rows]`` above; every branch gives the same bytes (see the module
        docstring).
        """
        idx = np.asarray(rows)
        if spans is None:
            spans = ((0, idx.size),)
        # the spans are ascending, disjoint and inside rows when the sequence
        # a0, b0, a1, b1, ... never decreases and stays within 0..len(rows)
        flat = list(map(int, itertools.chain.from_iterable(spans)))
        if (not flat or len(flat) != 2 * len(spans) or flat[0] < 0
                or flat[-1] > idx.size or flat != sorted(flat)):
            raise UsageError("part spans must be ascending, disjoint and inside rows")
        covered = sum(flat[1::2]) - sum(flat[::2])
        if covered == 0:
            raise UsageError("empty subset")
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise UsageError("rows must be a 1-D sequence of integer row indices")
        idx = idx.astype(np.int64, copy=False)
        self._check_length(w)
        if segments is not None:
            bounds = list(map(int, segments))
            if (not bounds or bounds[0] != 0 or bounds[-1] != idx.size
                    or bounds != sorted(bounds)):
                raise UsageError("segments must ascend from 0 to len(rows)")
            # each segment's position, keyed by its (start, stop) pair
            index = {pair: j for j, pair in enumerate(zip(bounds, bounds[1:]))}
            part_segments = [index.get(pair) for pair in zip(flat[::2], flat[1::2])]
            if None in part_segments:
                raise UsageError("each part span must be exactly one segment")
        read_only = not idx.flags.writeable
        if idx is not self._block_rows or not read_only:
            # one reduction checks both ends: a negative index viewed as
            # unsigned is at least 2**63
            if idx.view(np.uint64).max() >= self.n:
                raise UsageError("subset index out of range")
        block = None
        if segments is not None and read_only:
            block = self._block_for(idx, bounds, covered)
        G = np.empty((len(spans), self.d))
        L = np.empty(len(spans))
        with np.errstate(over="ignore", invalid="ignore"):
            if block is not None:
                self._block_sums(w, block, flat, part_segments, G, L)
            else:
                self._gather_sums(w, idx, flat, covered, G, L)
        self._check_finite(w, idx, flat, G, L)
        return G, L

    def _block_sums(self, w: Vector, block, flat, part_segments, G, L):
        """Fill ``G``/``L`` with the sums of the parts ``flat`` (pairs of
        positions in the block's rows), which are the block's segments
        ``part_segments``, from the block's keyed matrix ``K``.

        ``K`` holds block row ``i``'s entries in its column ``i``, at row
        ``segment(i) * d + column``: ``K.T`` applied to ``w`` once per
        segment gives the margins, and ``K`` applied to the per-row
        coefficients gives every segment's gradient sum in one matvec. Both
        add each row's, and each output bin's, products left to right from
        0.0, as the gather branch does.
        """
        K, KT, row_data, inv, colsums = block
        if self.kind == "quadratic":
            terms, sums = row_data, colsums
        else:
            nseg = K.shape[0] // self.d
            z = KT.dot(np.tile(w, nseg))
            terms, coeff = self._row_terms(z, row_data)
            if inv is not None:
                # every row's margin and terms at w, for eval_full at this w
                self._memo = ((w.dtype, w.tobytes()), inv, z, terms, coeff)
            sums = K.dot(coeff).reshape(nseg, self.d)
        G[:] = sums[part_segments]
        for k, (r0, r1) in enumerate(zip(flat[::2], flat[1::2])):
            # the reduction ndarray.sum runs, without its Python wrapper
            L[k] = np.add.reduce(terms[r0:r1])
            if self.kind == "quadratic":
                G[k], L[k] = self._quad_sums(w, r1 - r0, G[k], L[k])

    def _gather_sums(self, w: Vector, idx, flat, covered: int, G, L):
        """Fill ``G``/``L`` with the sums of the parts ``flat`` (pairs of
        positions in ``idx``) from a gather of their rows."""
        # parts covering all of idx are its consecutive blocks
        sub, parts = idx, flat
        if covered < idx.size:
            # gather the parts' rows, which makes them consecutive
            sub = np.concatenate([idx[a:b] for a, b in zip(flat[::2], flat[1::2])])
            ends = list(itertools.accumulate(
                (b - a for a, b in zip(flat[::2], flat[1::2])), initial=0))
            parts = [i for pair in zip(ends, ends[1:]) for i in pair]
        indptr, row_nnz, cols, vals, z = self._gather(w, sub)
        if self.kind == "quadratic":
            terms, weights = self._quad_csq.take(sub), vals
        else:
            terms, coeff = self._row_terms(z, self.labels.take(sub))
            # each stored entry times its row's coefficient, summed per
            # column in row order: the arithmetic of Xs.T.dot(coeff)
            weights = vals * np.repeat(coeff, row_nnz)
        # each part's first and last row and entry, taken pairwise
        rows_at, entries_at = iter(parts), iter(indptr[parts].tolist())
        for k, (r0, r1, p0, p1) in enumerate(zip(rows_at, rows_at,
                                                 entries_at, entries_at)):
            G[k] = np.bincount(cols[p0:p1], weights=weights[p0:p1],
                               minlength=self.d)
            L[k] = np.add.reduce(terms[r0:r1])
            if self.kind == "quadratic":
                G[k], L[k] = self._quad_sums(w, r1 - r0, G[k], L[k])

    def _block_for(self, rows, bounds, covered: int):
        """``(K, K.T, row_data, inv, colsums)`` of the cached block of the
        read-only ``rows`` with segment bounds ``bounds`` when this call
        evaluates on it, else None.

        ``K`` is the keyed matrix (see ``_block_sums``), ``row_data`` the
        rows' labels (per-row constants for the quadratic kind), ``inv``
        the inverse permutation when ``rows`` is a permutation of all rows
        of ``X``, else None, and ``colsums`` each segment's column sums for
        the quadratic kind, else None. A ``(rows, bounds)`` pair is
        remembered on first sight and its block built on its first call
        that covers enough of it, and never rebuilt while the pair lasts.
        """
        if rows is not self._block_rows or bounds != self._block_bounds:
            self._block_rows, self._block_bounds, self._block = rows, bounds, None
        if covered < _MIN_BLOCK_COVERAGE * rows.size:
            return None
        if self._block is None:
            self._block = self._build_block(rows, bounds)
        return self._block

    def _build_block(self, rows, bounds) -> tuple:
        """The block of ``rows`` cut into the segments ``bounds``; see
        ``_block_for``."""
        Xb, d = self.X[rows], self.d
        nseg = len(bounds) - 1
        # each entry's row in K: its segment's offset plus its column, in
        # Xb's index type when nseg * d fits it, so that K shares data and
        # indptr with Xb and scipy converts nothing
        dtype = Xb.indices.dtype
        if nseg * d > np.iinfo(dtype).max:
            dtype = np.int64
        keyed = np.repeat(np.repeat(np.arange(0, nseg * d, d, dtype=dtype),
                                    np.diff(bounds)), np.diff(Xb.indptr))
        keyed += Xb.indices
        K = sparse.csc_matrix((Xb.data, keyed, Xb.indptr), shape=(nseg * d, rows.size))
        # the quadratic kind's gradient sums need only each segment's column
        # sums, which do not depend on w
        colsums = None
        if self.kind == "quadratic":
            colsums = K.dot(np.ones(rows.size)).reshape(nseg, d)
        row_data = (self._quad_csq if self.kind == "quadratic" else self.labels).take(rows)
        inv = None
        if rows.size == self.n:
            # n in-range rows are a permutation when every row occurs
            inv = np.full(self.n, -1, dtype=np.int64)
            inv[rows] = np.arange(self.n)
            if inv.min() < 0:
                inv = None
        return K, K.T, row_data, inv, colsums

    def _gather(self, w: Vector, idx) -> tuple:
        """``(indptr, row_nnz, cols, vals, z)`` of the rows ``idx``: their
        CSR entry layout, stored entries, and margins ``z = X[idx] w`` (None
        for the quadratic kind, which needs no margins)."""
        X, m = self.X, idx.size
        if m * self._nnz > _SMALL_BATCH_ENTRIES * X.shape[0]:
            Xs = X[idx]
            z = None if self.kind == "quadratic" else Xs.dot(w)
            return Xs.indptr, np.diff(Xs.indptr), Xs.indices, Xs.data, z
        # .take, not [...]: with int32 index arrays it is several times faster
        lo = X.indptr.take(idx)
        row_nnz = X.indptr.take(idx + 1) - lo
        indptr = np.zeros(m + 1, dtype=np.int64)
        row_nnz.cumsum(out=indptr[1:])
        pos = np.repeat(lo - indptr[:-1], row_nnz) + np.arange(indptr[-1])
        cols, vals = X.indices.take(pos), X.data.take(pos)
        z = None
        if self.kind != "quadratic":
            # bincount adds each row's products left to right from 0.0, the
            # order of scipy's csr_matvec, so z has Xs.dot(w)'s bits
            z = np.bincount(np.repeat(np.arange(m), row_nnz),
                            weights=vals * w.take(cols), minlength=m)
        return indptr, row_nnz, cols, vals, z

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
        if np.isfinite(L).all() and np.isfinite(G).all():
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

    def eval_full(self, w: Vector) -> SubsetGradient:
        """``eval_subset`` over all rows, reading X in place, with the
        training accuracy (see ``accuracy``) from the same margins."""
        self._check_length(w)
        X = self.X
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "quadratic":
                colsum = np.asarray(X.sum(axis=0)).ravel()
                grad_sum, loss_sum = self._quad_sums(
                    w, self.n, colsum, np.sum(self._quad_csq))
                acc = 0.0
            else:
                memo = self._memo
                if memo is not None and memo[0] == (w.dtype, w.tobytes()):
                    # the same margins and terms a fresh X.dot(w) would give,
                    # put back in row order
                    inv = memo[1]
                    z, terms, coeff = (a.take(inv) for a in memo[2:])
                else:
                    z = X.dot(w)
                    terms, coeff = self._row_terms(z, self.labels)
                grad_sum, loss_sum = self._XT.dot(coeff), np.sum(terms)
                acc = _sign_accuracy(z, self.labels)
        self._check_finite(w, None, [0, self.n], grad_sum[None, :],
                           np.array([loss_sum]))
        return SubsetGradient(*self.average(w, grad_sum, loss_sum, self.n),
                              self.n, acc)

    def average(self, w: Vector, grad_sum, loss_sum, m: int) -> tuple:
        """Gradient and loss averaged over ``m`` examples plus the
        sigma/2 ||w||^2 term; ``NumericError`` if either is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            grad = grad_sum / m + self.sigma * w
            loss = float(loss_sum / m + 0.5 * self.sigma * float(np.dot(w, w)))
        if not (math.isfinite(loss) and np.isfinite(grad).all()):
            raise NumericError("non-finite average or regularization term")
        return grad, loss

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
