"""Limited-memory BFGS machinery: curvature-pair storage with cautious
admission, initial scaling, the two-loop recursion, and dense oracles used
by eigenvalue audits and tests.

The hot path (``admit``, ``gamma``, ``direction``) calls ``ndarray.dot``,
np.dot's BLAS call without its dispatch, and no shape-checking wrappers;
``direction`` updates a copy of ``g`` in place and checks its result once.
``admit`` and ``direction`` are ``linalg.quiet`` calls: silent on overflow
for any caller, and inside a run, whose one quiet call has entered numpy's
error state already, they check one flag and run.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError, UsageError
from .linalg import Vector, all_finite, quiet

# admission additionally requires y's > RHO_GUARD * |s||y|, hence y's > 0, so
# rho stays finite
RHO_GUARD = 1e-12

DENSE_DIM_LIMIT = 200


def memory_settings(capacity: int, scaling, cautious_eps: float) -> tuple:
    """The ``(capacity, scaling, cautious_eps)`` an ``LbfgsMemory`` keeps, or
    ``ConfigurationError`` (a ``UsageError``); NaN and non-numbers fail every rule."""
    if not (isinstance(capacity, numbers.Integral) and capacity >= 1):
        raise ConfigurationError(f"memory capacity {capacity!r} is not an integer >= 1")
    if not (isinstance(cautious_eps, numbers.Real) and 0 <= cautious_eps < math.inf):
        raise ConfigurationError("cautious eps must be finite and >= 0")
    if scaling != "bb":
        if not (isinstance(scaling, numbers.Real) and 0 < scaling < math.inf):
            raise ConfigurationError("scaling must be 'bb' or a finite positive gamma")
        scaling = float(scaling)
    return int(capacity), scaling, float(cautious_eps)


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
        self.capacity, self.scaling, self.cautious_eps = memory_settings(
            capacity, scaling, cautious_eps)
        self.pairs: list[CurvaturePair] = []  # oldest first
        self._shape = None  # every stored s's and y's shape, once one is stored

    def __len__(self):
        return len(self.pairs)

    @quiet
    def admit(self, s: Vector, y: Vector) -> bool:
        """Store (s, y) if it passes the cautious test, the rho guard, s's > 0
        and y'y > 0; evict the oldest pair when full. Returns whether the pair
        was accepted. Overflowing or underflowing inner products reject the
        pair; an ``s`` and ``y`` of different shapes, or of another length
        than the stored pairs, are a ``UsageError``."""
        shape = s.shape
        # O(1) on the hot path; only the first stored pair fixes the shape
        if (shape != self._shape or y.shape != shape) and (
                self._shape is not None or y.shape != shape or len(shape) != 1):
            raise UsageError(f"pair shapes {shape}, {y.shape} do not match the memory's")
        ys, ss, yy = float(y.dot(s)), float(s.dot(s)), float(y.dot(y))
        # a nonzero step whose s's underflows to 0 passes no curvature test
        if not (ss > 0.0 and ys >= self.cautious_eps * ss):
            return False
        # y'y > 0 keeps the scaling gamma = s'y / y'y finite
        if not (yy > 0.0 and ys > RHO_GUARD * math.sqrt(ss * yy)):
            return False
        pair = CurvaturePair(s=s.copy(), y=y.copy(), rho=1.0 / ys)
        self.pairs.append(pair)
        self._shape = shape
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
        return float(newest.s.dot(newest.y)) / float(newest.y.dot(newest.y))

    @quiet
    def direction(self, g: Vector) -> Vector:
        """Search direction -H g via the two-loop recursion.

        The stored pairs are applied newest-to-oldest in the first loop and
        oldest-to-newest in the second, equivalent to building H from
        gamma*I with the pairs in storage order. The recursion never
        divides, so a non-finite entry of ``g``, or a value that overflows,
        stays non-finite to the end: one check on the result catches it.
        A ``g`` of another shape than the stored pairs is a ``UsageError``.
        """
        if g.shape != self._shape and self.pairs:
            raise UsageError(f"gradient shape {g.shape} does not match the memory's")
        q, tmp = g.copy(), np.empty_like(g)
        alphas = []
        for pair in reversed(self.pairs):
            a = pair.rho * float(pair.s.dot(q))
            alphas.append(a)
            # q - a*y: the bits of -a*y + q
            np.subtract(q, np.multiply(pair.y, a, tmp), q)
        r = np.multiply(q, self.gamma(), q)
        for pair, a in zip(self.pairs, reversed(alphas)):
            beta = pair.rho * float(pair.y.dot(r))
            np.add(r, np.multiply(pair.s, a - beta, tmp), r)
        if not all_finite(r):
            raise NumericError("two-loop: non-finite value")
        return np.negative(r, r)

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
