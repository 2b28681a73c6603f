"""Limited-memory BFGS machinery: curvature-pair storage with cautious
admission, initial scaling, the two-loop recursion, and dense oracles used
by eigenvalue audits and tests.

The hot path (``admit``, ``gamma``, ``direction``) calls ``np.dot`` and
forms each update as one numpy expression, with no shape-checking wrappers;
``direction`` checks finiteness once, on its result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .linalg import Vector

# admission additionally requires y's > RHO_GUARD * |s||y|, hence y's > 0, so
# rho stays finite
RHO_GUARD = 1e-12

DENSE_DIM_LIMIT = 200


def _cautious(ys: float, ss: float, eps: float) -> bool:
    if ss == 0.0:
        raise UsageError("cautious_accept: zero step should never reach admission")
    return ys >= eps * ss


def cautious_accept(s: Vector, y: Vector, eps: float) -> bool:
    """Curvature test y's >= eps * ||s||^2 (the cautious-update condition)."""
    return _cautious(float(np.dot(y, s)), float(np.dot(s, s)), eps)


@dataclass
class CurvaturePair:
    """Displacement s, overlap gradient difference y, and rho = 1/(y's)."""

    s: Vector
    y: Vector
    rho: float


class LbfgsMemory:
    """Bounded FIFO store of curvature pairs plus the initial-scaling policy.

    ``scaling`` is either the string "bb" (Barzilai-Borwein scaling from the
    newest stored pair) or a positive float used as a fixed gamma.
    """

    def __init__(self, capacity: int, scaling="bb", cautious_eps: float = 1e-4):
        if capacity < 1:
            raise UsageError("memory capacity must be >= 1")
        if cautious_eps < 0:
            raise UsageError("cautious eps must be >= 0")
        if scaling != "bb":
            scaling = float(scaling)
            if scaling <= 0:
                raise UsageError("fixed scaling gamma must be positive")
        self.capacity = int(capacity)
        self.scaling = scaling
        self.cautious_eps = float(cautious_eps)
        self.pairs: list[CurvaturePair] = []  # oldest first

    def __len__(self):
        return len(self.pairs)

    def admit(self, s: Vector, y: Vector) -> bool:
        """Store (s, y) if it passes the cautious test and the rho guard;
        evict the oldest pair when full. Returns whether the pair was
        accepted. Overflowing inner products reject the pair."""
        with np.errstate(over="ignore", invalid="ignore"):
            ys = float(np.dot(y, s))
            ss = float(np.dot(s, s))
            yy = float(np.dot(y, y))
        if not _cautious(ys, ss, self.cautious_eps):
            return False
        if not ys > RHO_GUARD * math.sqrt(ss * yy):
            return False
        pair = CurvaturePair(s=s.copy(), y=y.copy(), rho=1.0 / ys)
        self.pairs.append(pair)
        if len(self.pairs) > self.capacity:
            self.pairs.pop(0)
        return True

    def gamma(self) -> float:
        """Initial inverse-Hessian scale H0 = gamma * I."""
        if self.scaling != "bb":
            return self.scaling
        if not self.pairs:
            return 1.0
        newest = self.pairs[-1]
        return float(np.dot(newest.s, newest.y)) / float(np.dot(newest.y, newest.y))

    def direction(self, g: Vector) -> Vector:
        """Search direction -H g via the two-loop recursion.

        The stored pairs are applied newest-to-oldest in the first loop and
        oldest-to-newest in the second, equivalent to building H from
        gamma*I with the pairs in storage order. The recursion never
        divides, so a value that overflows stays non-finite to the end:
        one check on the result catches it.
        """
        if not np.isfinite(g).all():
            raise NumericError("two-loop input gradient is not finite")
        q = g
        alphas = []
        with np.errstate(over="ignore", invalid="ignore"):
            for pair in reversed(self.pairs):
                a = pair.rho * float(np.dot(pair.s, q))
                alphas.append(a)
                q = -a * pair.y + q
            r = self.gamma() * q
            for pair, a in zip(self.pairs, reversed(alphas)):
                beta = pair.rho * float(np.dot(pair.y, r))
                r = (a - beta) * pair.s + r
        if not np.isfinite(r).all():
            raise NumericError("two-loop: non-finite value")
        return -r

    # ------------------------------------------------------------------
    # dense oracles (test-scale only)
    # ------------------------------------------------------------------
    def _check_dense_dim(self, dim):
        if dim is None:
            if not self.pairs:
                raise UsageError("dense oracle on empty memory needs an explicit dim")
            dim = self.pairs[-1].s.shape[0]
        if dim > DENSE_DIM_LIMIT:
            raise UsageError(f"dense oracle limited to d <= {DENSE_DIM_LIMIT}")
        return dim

    def dense_inverse(self, dim: int | None = None) -> np.ndarray:
        """Materialize H by applying the stored pairs (oldest to newest) to
        gamma*I with H <- V' H V + rho s s', V = I - rho y s'."""
        d = self._check_dense_dim(dim)
        H = self.gamma() * np.eye(d)
        for pair in self.pairs:
            V = np.eye(d) - pair.rho * np.outer(pair.y, pair.s)
            H = V.T @ H @ V + pair.rho * np.outer(pair.s, pair.s)
        return H

    def dense_direct(self, dim: int | None = None) -> np.ndarray:
        """Materialize B = H^-1 by the forward recursion: B0 scaled by the
        newest pair's y'y / s'y, then one rank-two update per stored pair."""
        d = self._check_dense_dim(dim)
        if self.pairs:
            newest = self.pairs[-1]
            b0 = float(np.dot(newest.y, newest.y)) / float(np.dot(newest.s, newest.y))
        else:
            b0 = 1.0 / self.gamma()
        B = b0 * np.eye(d)
        for pair in self.pairs:
            Bs = B @ pair.s
            B = (B - np.outer(Bs, Bs) / float(np.dot(pair.s, Bs))
                 + np.outer(pair.y, pair.y) / float(np.dot(pair.y, pair.s)))
        return B

    def eigen_bounds(self, dim: int | None = None) -> tuple:
        """(lambda_min, lambda_max) of the dense Hessian approximation B."""
        B = self.dense_direct(dim)
        eigs = np.linalg.eigvalsh(B)
        return float(eigs[0]), float(eigs[-1])
