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

``eval_sums`` is the batch kernel: one call gathers a batch's rows once and
returns the unaveraged gradient and loss sums of each of its consecutive
parts, which the driver recombines into batch and overlap gradients.
``average`` adds the averaging and the regularization term and raises
``NumericError`` when either is not finite.

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
computes anyway, so metrology reads ``X`` once per point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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
        self._nnz = int(self.X.indptr[-1])
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
    def eval_sums(self, w: Vector, subset, ends=None) -> tuple:
        """Sums of per-example gradients and losses over consecutive parts
        of ``subset``, gathering its rows once.

        ``subset`` is a 1-D sequence of integer row indices, repeats
        allowed. ``ends`` are the cumulative ends of the parts within
        ``subset`` (one part by default). Returns ``(G, L)``: ``G[p]`` is
        the gradient sum and ``L[p]`` the loss sum of part ``p``. Each
        part's sums are bit-identical to a one-part call on its slice of
        ``subset``.

        A batch of at most ``_SMALL_BATCH_ENTRIES`` expected stored entries
        is gathered with numpy from the CSR arrays, a larger one with
        ``X[subset]``; both give the same bytes (see the module docstring).
        """
        idx = np.asarray(subset)
        if idx.size == 0:
            raise UsageError("empty subset")
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise UsageError("subset must be a 1-D sequence of integer row indices")
        idx = idx.astype(np.int64, copy=False)
        # one reduction checks both ends: a negative index viewed as
        # unsigned is at least 2**63
        if idx.view(np.uint64).max() >= self.n:
            raise UsageError("subset index out of range")
        ends = [idx.size] if ends is None else [int(e) for e in ends]
        if (not ends or ends[-1] != idx.size
                or any(b < a for a, b in zip([0] + ends, ends))):
            raise UsageError("part ends must be non-decreasing and end at the subset size")
        self._check_length(w)
        G = np.empty((len(ends), self.d))
        L = np.empty(len(ends))
        with np.errstate(over="ignore", invalid="ignore"):
            indptr, row_nnz, cols, vals, z = self._gather(w, idx)
            if self.kind == "quadratic":
                terms, weights = self._quad_csq.take(idx), vals
            else:
                terms, coeff = self._row_terms(z, self.labels.take(idx))
                # each stored entry times its row's coefficient, summed per
                # column in row order: the arithmetic of Xs.T.dot(coeff)
                weights = vals * np.repeat(coeff, row_nnz)
            r0 = p0 = 0
            for k, (r1, p1) in enumerate(zip(ends, indptr[ends].tolist())):
                G[k] = np.bincount(cols[p0:p1], weights=weights[p0:p1],
                                   minlength=self.d)
                L[k] = terms[r0:r1].sum()
                if self.kind == "quadratic":
                    G[k], L[k] = self._quad_sums(w, r1 - r0, G[k], L[k])
                r0, p0 = r1, p1
        self._check_finite(w, idx, ends, G, L)
        return G, L

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
        if w.shape[0] != self.d:
            raise UsageError(f"w has length {w.shape[0]}, expected {self.d}")

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

    def _check_finite(self, w: Vector, idx, ends, G, L):
        """Raise ``NumericError`` naming the first non-finite row of the first
        part whose sums are not finite; ``idx`` None stands for all rows."""
        if np.isfinite(L).all() and np.isfinite(G).all():
            return
        k = int(np.argmin(np.isfinite(L) & np.isfinite(G).all(axis=1)))
        if idx is None:
            idx = np.arange(self.n)
        rows = idx[(ends[k - 1] if k else 0):ends[k]]
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
                z = X.dot(w)
                terms, coeff = self._row_terms(z, self.labels)
                grad_sum, loss_sum = X.T.dot(coeff), np.sum(terms)
                acc = _sign_accuracy(z, self.labels)
        self._check_finite(w, None, [self.n], grad_sum[None, :],
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
