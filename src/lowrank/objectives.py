"""Convex objectives R(A) evaluated on factored iterates A = U V^T.

Gradient sign convention, used by every solver in this package: for the
observed-entry quadratic the gradient is Pi_Omega(A - M), i.e. prediction
minus target on the observed set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import FactorPair, LinearOp, SparseObservations, project_observed

__all__ = [
    "GradientHandle",
    "ObservedQuadratic",
    "HuberLowRank",
    "ClippedObservedQuadratic",
    "huber_value",
]


@dataclass
class GradientHandle:
    """A gradient matrix, held sparse (support in Omega) or dense.

    Solvers read it only through `operator()` and `bilinear()`.
    """

    sparse: SparseObservations | None = None
    dense: np.ndarray | None = None

    def __post_init__(self):
        if (self.sparse is None) == (self.dense is None):
            raise ValueError("exactly one of sparse/dense must be set")
        if self.dense is not None:
            self.dense = np.asarray(self.dense, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, int]:
        return self.sparse.shape if self.sparse is not None else self.dense.shape

    def operator(self) -> LinearOp:
        if self.dense is not None:
            return LinearOp.from_dense(self.dense)
        return LinearOp.from_observations(self.sparse)

    def bilinear(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """left^T G right, the r x r projection used by the inner solver."""
        g = self.dense if self.dense is not None else self.sparse.csr()
        return left.T @ (g @ right)


class ObservedQuadratic:
    """R(A) = 1/2 * sum_{(i,j) in Omega} (A - M)_ij^2.

    The projection of the last FactorPair seen is cached, so `value` at the
    end of one outer step and `gradient` (or `insertion_gradient`) at the
    start of the next share one gather. The cache is one (pair, prediction)
    tuple, matched by identity and replaced in one assignment, so threads
    sharing an objective at worst project again. A FactorPair must
    therefore not be mutated after it has been passed to an objective.
    """

    def __init__(self, target: SparseObservations):
        self.target = target
        self._last: tuple[FactorPair | None, np.ndarray | None] = (None, None)

    @property
    def shape(self) -> tuple[int, int]:
        return self.target.shape

    def _prediction(self, pair: FactorPair) -> np.ndarray:
        """Pi_Omega(U V^T) in entry order, from the cache when `pair` is the last one."""
        last, pred = self._last
        if last is not pair:
            pred = project_observed(pair, self.target)
            self._last = (pair, pred)
        return pred

    def residual(self, pair: FactorPair) -> np.ndarray:
        """Prediction minus target on Omega."""
        return self._prediction(pair) - self.target.vals

    def value(self, pair: FactorPair) -> float:
        r = self.residual(pair)
        return 0.5 * float(r @ r)

    def gradient(self, pair: FactorPair) -> GradientHandle:
        return GradientHandle(sparse=self.target.with_vals(self.residual(pair)))

    def quad_term(self, left: np.ndarray, right: np.ndarray) -> GradientHandle:
        """Hessian applied to left @ right^T (here: Pi_Omega of the product)."""
        vals = project_observed(FactorPair(left, right), self.target)
        return GradientHandle(sparse=self.target.with_vals(vals))


def huber_value(residual: np.ndarray, delta: float) -> float:
    """sum_ij H_delta(residual): quadratic inside +-delta, linear outside."""
    a = np.abs(residual)
    quad = a <= delta
    return float(np.where(quad, 0.5 * residual * residual,
                          delta * a - 0.5 * delta * delta).sum())


class HuberLowRank:
    """R(A) = sum_ij H_delta((A - M)_ij) with a dense target M."""

    def __init__(self, target: np.ndarray, delta: float):
        if delta <= 0:
            raise ValueError("delta must be > 0")
        self.target = np.asarray(target, dtype=np.float64)
        self.delta = float(delta)

    @property
    def shape(self) -> tuple[int, int]:
        return self.target.shape

    def residual(self, pair: FactorPair) -> np.ndarray:
        return pair.matrix() - self.target

    def value(self, pair: FactorPair) -> float:
        return huber_value(self.residual(pair), self.delta)

    def gradient(self, pair: FactorPair) -> GradientHandle:
        g = np.clip(self.residual(pair), -self.delta, self.delta)
        return GradientHandle(dense=g)


class ClippedObservedQuadratic(ObservedQuadratic):
    """Observed quadratic whose rank-1 insertion step sees a clipped gradient.

    The clip applies only to the gradient used when extracting the top
    singular pair (ratings live in [clip_lo, clip_hi]); value() and the
    inner optimization keep the plain quadratic.
    """

    def __init__(self, target: SparseObservations, clip_lo: float, clip_hi: float):
        if not clip_lo < clip_hi:
            raise ValueError("clip_lo must be < clip_hi")
        super().__init__(target)
        self.clip_lo = float(clip_lo)
        self.clip_hi = float(clip_hi)

    def insertion_gradient(self, pair: FactorPair) -> GradientHandle:
        pred = self._prediction(pair)
        vals = np.clip(pred, self.clip_lo, self.clip_hi) - self.target.vals
        return GradientHandle(sparse=self.target.with_vals(vals))
