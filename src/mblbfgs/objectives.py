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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import NumericError, UsageError
from .linalg import Dataset, Vector

KINDS = ("logistic_l2", "sigmoid_lsq", "quadratic")


@dataclass
class SubsetGradient:
    """Gradient and loss of a subset-restricted objective."""

    gradient: Vector
    loss: float
    subset_size: int


def _softplus(z):
    # log(1 + exp(z)) without overflow at large |z|
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


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
    def eval_sums(self, w: Vector, subset) -> tuple:
        """Sum of per-example gradients and losses over ``subset``."""
        idx = np.asarray(subset, dtype=np.int64)
        if idx.size == 0:
            raise UsageError("empty subset")
        return self._sums(w, idx, self.X[idx])

    def _sums(self, w: Vector, rows, Xs) -> tuple:
        """``eval_sums`` over the rows ``Xs = X[rows]``; ``rows`` is an index
        array or ``slice(None)``, which reads the whole of X in place."""
        if w.shape[0] != self.d:
            raise UsageError(f"w has length {w.shape[0]}, expected {self.d}")
        m = Xs.shape[0]
        # an overflow is reported by the finiteness check below, not as a
        # numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "quadratic":
                a = self.quad_weights
                colsum = np.asarray(Xs.sum(axis=0)).ravel()
                grad_sum = a * (m * w - colsum)
                loss_sum = 0.5 * (
                    m * float(np.dot(a, w * w))
                    - 2.0 * float(np.dot(w, a * colsum))
                    + float(np.sum(self._quad_csq[rows]))
                )
            else:
                z = Xs.dot(w)
                y = self.labels[rows]
                if self.kind == "logistic_l2":
                    t = y * z
                    loss_sum = float(np.sum(_softplus(-t)))
                    coeff = -y * expit(-t)
                else:  # sigmoid_lsq, labels remapped from +-1 to {0,1}
                    target = 0.5 * (y + 1.0)
                    p = expit(z)
                    loss_sum = float(np.sum((p - target) ** 2))
                    coeff = 2.0 * (p - target) * p * (1.0 - p)
                grad_sum = Xs.T.dot(coeff)
        if not (np.isfinite(loss_sum) and np.all(np.isfinite(grad_sum))):
            idx = np.arange(self.n, dtype=np.int64)[rows]
            raise NumericError(
                f"non-finite evaluation at example {self._first_bad(w, idx)}"
            )
        return np.ascontiguousarray(grad_sum), loss_sum

    def _first_bad(self, w, idx):
        z = self.X[idx].dot(w)
        bad = ~np.isfinite(_softplus(np.abs(z)))
        bad |= ~np.isfinite(z)
        where = np.nonzero(bad)[0]
        return int(idx[where[0]]) if where.size else int(idx[0])

    # ------------------------------------------------------------------
    # subset and full evaluations
    # ------------------------------------------------------------------
    def eval_subset(self, w: Vector, subset) -> SubsetGradient:
        """Average loss/gradient over ``subset`` plus the sigma/2 ||w||^2 term."""
        idx = np.asarray(subset, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise UsageError("subset index out of range")
        return self._average(w, self.eval_sums(w, idx), idx.size)

    def eval_full(self, w: Vector) -> SubsetGradient:
        """``eval_subset`` over all rows, reading X without a row copy."""
        return self._average(w, self._sums(w, slice(None), self.X), self.n)

    def _average(self, w: Vector, sums: tuple, m: int) -> SubsetGradient:
        grad_sum, loss_sum = sums
        loss = loss_sum / m + 0.5 * self.sigma * float(np.dot(w, w))
        grad = grad_sum / m + self.sigma * w
        return SubsetGradient(grad, loss, int(m))

    def accuracy(self, w: Vector) -> float:
        """Fraction of correct sign predictions; 0 for the quadratic kind."""
        if self.kind == "quadratic":
            return 0.0
        z = self.X.dot(w)
        pred = np.where(z >= 0, 1.0, -1.0)
        return float(np.mean(pred == self.labels))


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
