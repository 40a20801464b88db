"""Convex objectives R(A) evaluated on factored iterates A = U V^T.

Gradient sign convention, used by every solver in this package: for the
observed-entry quadratic the gradient is Pi_Omega(A - M), i.e. prediction
minus target on the observed set.

Gradients are plain matrices: the observed quadratics' are zero off Omega,
as the target's `matrix_with` builds them (dense or sparse by
`linalg.fits_dense`); the Huber objective's is a dense array.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .linalg import FactorPair, SparseObservations, project_observed

__all__ = [
    "ObservedQuadratic",
    "HuberLowRank",
    "ClippedObservedQuadratic",
    "huber_value",
]


class ObservedQuadratic:
    """R(A) = 1/2 * sum_{(i,j) in Omega} (A - M)_ij^2.

    The residual of the last FactorPair seen is cached, so `value` at the
    end of one outer step and `gradient` (or `insertion_gradient`) at the
    start of the next share one gather and one subtraction. The cache is one
    (pair, residual) tuple, matched by identity and replaced in one
    assignment, so threads sharing an objective at worst project again; the
    cached array is read-only, and so is every gradient built from it. A
    FactorPair must therefore not be mutated after it has been passed to an
    objective.
    """

    def __init__(self, target: SparseObservations):
        self.target = target
        self._last: tuple[FactorPair | None, np.ndarray | None] = (None, None)

    @property
    def shape(self) -> tuple[int, int]:
        return self.target.shape

    def residual(self, pair: FactorPair) -> np.ndarray:
        """Prediction minus target on Omega, in entry order (read-only; from
        the cache when `pair` is the last one)."""
        last, res = self._last
        if last is not pair:
            res = project_observed(pair, self.target)
            res -= self.target.vals
            res.flags.writeable = False
            self._last = (pair, res)
        return res

    def value(self, pair: FactorPair) -> float:
        r = self.residual(pair)
        return 0.5 * float(r @ r)

    def gradient(self, pair: FactorPair) -> np.ndarray | sp.spmatrix:
        return self.target.matrix_with(self.residual(pair))

    def quad_term(self, left: np.ndarray, right: np.ndarray) -> np.ndarray | sp.spmatrix:
        """Hessian applied to left @ right^T (here: Pi_Omega of the product)."""
        vals = project_observed(FactorPair(left, right), self.target)
        return self.target.matrix_with(vals)


def huber_value(residual: np.ndarray, delta: float, clipped=None) -> float:
    """sum_ij H_delta(r) = sum g r - g^2 / 2 with g = clip(r, -delta, delta), or
    `clipped` when given; each term is at least g r / 2, so nothing cancels."""
    g = np.clip(residual, -delta, delta) if clipped is None else clipped
    return float(np.vdot(g, residual) - 0.5 * np.vdot(g, g))


class HuberLowRank:
    """R(A) = sum_ij H_delta((A - M)_ij) with a dense target M."""

    def __init__(self, target: np.ndarray, delta: float):
        if not (np.isfinite(delta) and delta > 0):
            raise ValueError(f"delta must be finite and > 0, got {delta}")
        self.target = np.asarray(target, dtype=np.float64)
        if not np.isfinite(self.target).all():
            raise ValueError("target has non-finite values")
        self.delta = float(delta)

    @property
    def shape(self) -> tuple[int, int]:
        return self.target.shape

    def residual(self, pair: FactorPair) -> np.ndarray:
        return pair.matrix() - self.target

    def value(self, pair: FactorPair) -> float:
        return huber_value(self.residual(pair), self.delta)

    def gradient(self, pair: FactorPair) -> np.ndarray:
        return np.clip(self.residual(pair), -self.delta, self.delta)


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

    def insertion_gradient(self, pair: FactorPair) -> np.ndarray | sp.spmatrix:
        """clip(pred, lo, hi) - vals on Omega, taken as the cached residual
        clipped to [lo - vals, hi - vals]. Bit for bit the same: rounding is
        monotone, so pred - vals passes a rounded bound exactly where pred
        passes the bound, and a clipped entry is the rounded bound itself."""
        vals = self.target.vals
        bound = np.subtract(self.clip_hi, vals)
        grad = np.minimum(self.residual(pair), bound)
        np.maximum(grad, np.subtract(self.clip_lo, vals, out=bound), out=grad)
        return self.target.matrix_with(grad)
