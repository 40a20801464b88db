"""Convex objectives R(A) evaluated on factored iterates A = U V^T.

Gradient sign convention, used by every solver in this package: for the
observed-entry quadratic the gradient is Pi_Omega(A - M), i.e. prediction
minus target on the observed set.

Gradients are plain matrices: the observed quadratics' are zero off Omega,
as the target's `matrix_with` builds them (dense or sparse by
`linalg.fits_dense`); the Huber objective's is one dense m x n array, built
in place. The Huber value, and the factor gradients of the L-BFGS
half-step, walk the residual in M's row blocks (`_HUBER_BLOCK_CELLS`) on
either side and make no m x n array.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .linalg import FactorPair, SparseObservations, project_observed, row_grams

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

    The value at the zero matrix, 1/2 ||vals||^2, must be finite: values
    large enough to overflow it (about 1e154 and up) would make every
    objective value infinite, so they are rejected when the objective is
    built.
    """

    def __init__(self, target: SparseObservations):
        with np.errstate(over="ignore"):  # reported by the ValueError below
            start = 0.5 * float(target.vals @ target.vals)
        if not np.isfinite(start):
            raise ValueError(f"observed values overflow the objective: "
                             f"1/2 ||vals||^2 = {start}")
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

    def normal_equations(self, U: np.ndarray, V: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
        """(H, b): the r^2 x r^2 matrix H of X -> U^T Pi_Omega(U X V^T) V on
        row-major vec(X), and b = U^T M_Omega V, M_Omega the target zero off
        Omega. H[(a, b), (c, d)] = sum_i U_ia U_ic K_i[b, d], K_i the Gram
        matrix of the rows of V observed in row i (`linalg.row_grams`).

        The sum runs over both factors' packed column products, so one
        p x p GEMM of two m x p arrays forms it, p = r(r+1)/2; one broadcast
        index, packed[slot[a, c], slot[b, d]], unpacks it."""
        grams, slot = row_grams(V, self.target, 0)
        upper = np.triu_indices(U.shape[1])
        packed = (U[:, upper[0]] * U[:, upper[1]]).T @ grams
        r2 = U.shape[1] ** 2
        h = packed[slot[:, None, :, None], slot[None, :, None, :]].reshape(r2, r2)
        return h, U.T @ (self.target.matrix_with(self.target.vals) @ V)


def huber_value(residual: np.ndarray, delta: float, clipped=None) -> float:
    """sum_ij H_delta(r) = sum g r - g^2 / 2 with g = clip(r, -delta, delta), or
    `clipped` when given; each term is at least g r / 2, so nothing cancels."""
    g = np.clip(residual, -delta, delta) if clipped is None else clipped
    return float(np.vdot(g, residual) - 0.5 * np.vdot(g, g))


# Cells per row block of the Huber pass (`HuberLowRank.evaluate`): rows =
# this // n, so the residual and clipped buffers (256 KB each) stay in cache
# next to the target's block. At 500 x 500, r = 5, an evaluation takes 1.01
# ms, near the best block (0.98 at 65536), against 3.42 for two whole m x n
# buffers; small blocks pay the per-block calls. A 100 x 100 target is a
# single block. Full sweep: CHANGES.md, "Timing tables".
_HUBER_BLOCK_CELLS = 32768


class HuberLowRank:
    """R(A) = sum_ij H_delta((A - M)_ij) with a dense target M.

    The value of the last FactorPair seen is kept, so the solvers' `value`
    after a half-step costs nothing: the L-BFGS half-step records the value
    it ended on (`record_value`), which is the same block sum bit for bit.
    The entry is one (pair, value) tuple, matched by identity and replaced
    in one assignment, so threads sharing an objective at worst evaluate
    again. As with `ObservedQuadratic`, a FactorPair must not be mutated
    after it has been passed to an objective.

    The value at the zero matrix must be finite, as `ObservedQuadratic`'s
    must: a target and delta whose terms overflow it (1e160 each, say) make
    it NaN or infinite, and the L-BFGS half-step divides its objective by its
    start value, so they are rejected when the objective is built.
    """

    def __init__(self, target: np.ndarray, delta: float):
        if not (np.isfinite(delta) and delta > 0):
            raise ValueError(f"delta must be finite and > 0, got {delta}")
        self.target = np.asarray(target, dtype=np.float64)
        if self.target.ndim != 2 or 0 in self.target.shape:
            raise ValueError(f"target must be a 2-d array with both sides >= 1, "
                             f"got shape {self.target.shape}")
        if not np.isfinite(self.target).all():
            raise ValueError("target has non-finite values")
        self.delta = float(delta)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            start = huber_value(self.target, self.delta)  # H is even: -M as M
        if not np.isfinite(start):
            raise ValueError(f"target overflows the objective: its value at the "
                             f"zero matrix is {start}")
        self._last: tuple[FactorPair | None, float | None] = (None, None)

    @property
    def shape(self) -> tuple[int, int]:
        return self.target.shape

    def _check(self, pair: FactorPair) -> None:
        if pair.shape != self.shape:
            raise ValueError(f"factor shape {pair.shape} != target shape {self.shape}")

    def residual(self, pair: FactorPair) -> np.ndarray:
        """A - M as one new m x n array: U V^T, then M subtracted in place."""
        self._check(pair)
        out = pair.matrix()
        out -= self.target
        return out

    def evaluate(self, pair: FactorPair, side: int | None = None
                 ) -> tuple[float, np.ndarray | None]:
        """The value at `pair` and, for side 0 / 1, its gradient with respect
        to U / V: clip(R, -delta, delta) V or clip(R)^T U, R = U V^T - M.

        One pass over M's row blocks of `_HUBER_BLOCK_CELLS` cells on every
        side, with two block buffers made per call (nothing is stored on the
        objective). Side 0 writes the block's gradient rows clip(R_b) V; side
        1 accumulates clip(R_b)^T U_b over the blocks, so no copy of M^T and
        no m x n array is made. The value is the sum of the blocks'
        `huber_value`s, the same bit for bit on every side."""
        self._check(pair)
        U, V, target = pair.U, pair.V, self.target
        m, n = target.shape
        rows = max(1, min(m, _HUBER_BLOCK_CELLS // n))
        resid, clipped = np.empty((rows, n)), np.empty((rows, n))
        grad = None if side is None else np.zeros_like(V if side else U)
        total = 0.0
        for s in range(0, m, rows):
            e = min(s + rows, m)
            r, g = resid[:e - s], clipped[:e - s]
            np.matmul(U[s:e], V.T, out=r)
            np.subtract(r, target[s:e], out=r)
            np.clip(r, -self.delta, self.delta, out=g)
            total += huber_value(r, self.delta, g)
            if side == 0:
                np.matmul(g, V, out=grad[s:e])
            elif side == 1:
                grad += g.T @ U[s:e]
        return total, grad

    def value(self, pair: FactorPair) -> float:
        last, value = self._last
        if last is not pair:
            value = self.evaluate(pair)[0]
            self._last = (pair, value)
        return value

    def record_value(self, pair: FactorPair, value: float) -> None:
        """Keep `value`, which `evaluate` returned at `pair`, as the entry."""
        self._last = (pair, value)

    def gradient(self, pair: FactorPair) -> np.ndarray:
        out = self.residual(pair)
        return np.clip(out, -self.delta, self.delta, out=out)


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
