"""Matrix containers, factored low-rank pairs, and top-singular-pair extraction.

Dense matrices are plain float64 numpy arrays. Sparse observed sets and
factored pairs get small dataclasses because the solvers move them around
a lot. Everything here is deterministic given its inputs.

One size rule, `fits_dense`, picks dense or sparse work: a matrix of at most
65536 cells, or with a side of 1, is handled as a dense array. The top
singular pair of such a matrix (dense, or sparse CSR/CSC) is the top
eigenpair of the densified matrix's smaller Gram matrix (LAPACK); above the
cap it comes from ARPACK, converged to machine precision or raising. Both
work on the matrix divided by its largest absolute entry. The capped refit
in `inner` follows the same rule: masked dense products on a small observed
set, the gather and CSR kernel below on a larger one.

An observed set built from outside input is validated once, by its
constructor. The sets derived from it (`transpose`, `_take`) reuse its
checked index arrays and skip the checks.

Entries keep the order they were given in ("entry order"); every per-entry
array (`vals`, `project_observed`'s output) follows it. Sparse matrices need
CSR order, row-major with columns increasing. Each root set (one built by the
constructor or by `_take`) builds one CSR skeleton `(indptr, indices, perm)`,
the first time a matrix is asked for, and its `transpose` shares it. `perm`
maps entry order to CSR order and is None when the entries already are in
CSR order, which an O(nnz) check finds before any sort. `csr_with` then
wraps the given values without copying: scipy gets the skeleton and a
read-only view of the values, so nothing written through the matrix reaches
the set. A transposed set reads the root's skeleton as a CSC matrix of the
transposed shape, with no CSR of its own. In the same way a root set builds
its dense 0/1 mask and zero-filled target once, when `dense` is first asked
for, and its transpose reads their `.T`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dsyevr
from scipy.sparse.linalg import svds

__all__ = [
    "SparseObservations",
    "FactorPair",
    "SingularTriplet",
    "top_singular_triplet",
    "svd_threshold",
    "project_observed",
]

@dataclass
class SparseObservations:
    """The observed set Omega of an m x n matrix together with its values.

    Doubles as mask and target: `row[k], col[k]` locate entry k, `vals[k]`
    holds its value. No duplicate (i, j) pairs. Treat instances as
    immutable once constructed; all derived structures are cached.
    """

    rows: int
    cols: int
    row: np.ndarray
    col: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("rows and cols must be >= 0")
        for name in ("row", "col"):
            idx = np.asarray(getattr(self, name))
            # integer dtypes pass unchecked; other values must be whole numbers
            if idx.dtype.kind not in "iu" and not np.all(
                    np.isfinite(idx) & (np.trunc(idx) == idx)):
                raise ValueError(f"{name} indices must be integers")
            setattr(self, name, idx.astype(np.int64, copy=False))
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (self.row.shape == self.col.shape == self.vals.shape):
            raise ValueError("row, col, vals must have identical shapes")
        if self.row.size:
            if self.row.min() < 0 or self.row.max() >= self.rows:
                raise ValueError("row index out of range")
            if self.col.min() < 0 or self.col.max() >= self.cols:
                raise ValueError("col index out of range")
            flat = self.row * self.cols + self.col
            if np.unique(flat).size != flat.size:
                raise ValueError("duplicate (i, j) entries")
        if not np.all(np.isfinite(self.vals)):
            raise ValueError("non-finite observation values")
        # the set whose CSR skeleton this one reads (None: itself), and
        # whether this set is that root's transpose
        self._root, self._flip = None, False

    @property
    def nnz(self) -> int:
        return self.vals.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _derived(self, row: np.ndarray, col: np.ndarray, vals: np.ndarray,
                 flip: bool) -> "SparseObservations":
        """A set over checked indices, built without re-validation: this set's
        transpose, reading its CSR skeleton, when `flip`, else a root set."""
        out = object.__new__(SparseObservations)
        out.rows, out.cols = (self.cols, self.rows) if flip else self.shape
        out.row, out.col, out.vals = row, col, vals
        root = self if self._root is None else self._root
        out._root, out._flip = (root, not self._flip) if flip else (None, False)
        return out

    def _take(self, indices: np.ndarray) -> "SparseObservations":
        """The entries at `indices`, in that order, without re-validation.

        The caller passes distinct positions; repeated ones would yield a set
        with duplicate (i, j) entries that the constructor rejects. The result
        is a root set with a skeleton of its own."""
        return self._derived(self.row[indices], self.col[indices],
                             self.vals[indices], False)

    @cached_property
    def _row_counts(self) -> np.ndarray:
        """Observed entries per row."""
        return np.bincount(self.row, minlength=self.rows)

    @cached_property
    def _skeleton(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(indptr, indices, perm) of this root set's CSR matrix, read-only."""
        big = max(self.rows, self.cols, self.nnz) > np.iinfo(np.int32).max
        idx = np.int64 if big else np.int32
        indptr = np.zeros(self.rows + 1, dtype=idx)
        np.cumsum(self._row_counts, out=indptr[1:])
        flat = self.row * self.cols + self.col
        if np.all(flat[1:] > flat[:-1]):
            perm, indices = None, self.col.astype(idx)
        else:
            perm = np.lexsort((self.col, self.row))
            indices = self.col[perm].astype(idx)
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices, perm

    def csr_with(self, vals: np.ndarray) -> sp.csr_matrix | sp.csc_matrix:
        """`vals`, given in entry order, as a sparse matrix on the support.

        The matrix shares the root set's skeleton and, for entries in CSR
        order, holds a read-only view of `vals` (a permuted copy otherwise).
        A transposed set returns the root's skeleton as a CSC matrix.
        """
        root = self if self._root is None else self._root
        indptr, indices, perm = root._skeleton
        data = np.ascontiguousarray(vals, dtype=np.float64)
        data = data.view() if perm is None else data[perm]
        data.flags.writeable = False
        kind = sp.csc_matrix if self._flip else sp.csr_matrix
        return kind((data, indices, indptr), shape=self.shape, copy=False)

    def csr(self) -> sp.csr_matrix | sp.csc_matrix:
        return self.csr_with(self.vals)

    @cached_property
    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(0/1 mask, zero-filled target) of this root set, read-only."""
        mask, target = np.zeros(self.shape), np.zeros(self.shape)
        mask[self.row, self.col] = 1.0
        target[self.row, self.col] = self.vals
        mask.flags.writeable = target.flags.writeable = False
        return mask, target

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0/1 mask of Omega and the target zero-filled off Omega, as
        m x n arrays. A transposed set returns the root's arrays' `.T`."""
        root = self if self._root is None else self._root
        mask, target = root._dense
        return (mask.T, target.T) if self._flip else (mask, target)

    @cached_property
    def transpose(self) -> "SparseObservations":
        return self._derived(self.col, self.row, self.vals, True)


@dataclass
class FactorPair:
    """A low-rank matrix held as A = U V^T with U (m x r), V (n x r).

    Treat the factors as immutable: objectives cache results by pair identity.
    """

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise ValueError("factors must be 2-d")
        if self.U.shape[1] != self.V.shape[1]:
            raise ValueError("U and V must have the same number of columns")

    @classmethod
    def empty(cls, m: int, n: int) -> "FactorPair":
        return cls(np.zeros((m, 0)), np.zeros((n, 0)))

    @classmethod
    def zeros(cls, m: int, n: int, r: int) -> "FactorPair":
        return cls(np.zeros((m, r)), np.zeros((n, r)))

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U.shape[0], self.V.shape[0])

    def matrix(self) -> np.ndarray:
        return self.U @ self.V.T

    def append(self, u: np.ndarray, v: np.ndarray) -> "FactorPair":
        return FactorPair(
            np.column_stack([self.U, np.asarray(u, dtype=np.float64)]),
            np.column_stack([self.V, np.asarray(v, dtype=np.float64)]),
        )


@dataclass
class SingularTriplet:
    """(sigma, u, v) with unit vectors; largest-magnitude entry of u >= 0."""

    sigma: float
    u: np.ndarray
    v: np.ndarray


# The one size rule (`fits_dense`): matrices with at most this many cells, or
# with a side of 1, are handled as dense arrays, both for insertion (the Gram
# eigenpair, else ARPACK) and for the capped refit's products (masked GEMMs,
# else the gather and CSR kernel). Median ms per insertion on square
# 20%-dense random matrices, 2-core host, one OpenBLAS thread, Gram vs svds:
# 0.45-0.54 vs 2.1-2.3 at n = 100, 4.8 vs 4.7-5.1 at 256 (the cap), 6.5-6.8
# vs 5.1-5.9 at 300. Median us per refit product, same host, dense vs sparse
# kernel at r = 5 / 30: 20 / 46 vs 121 / 451 at n = 100, 20% observed;
# 108 / 267 vs 435 / 2120 at n = 256, 20%; 102 / 314 vs 108 / 163 at
# n = 256, 2%. The cap also bounds each dense copy at 512 kB.
_DENSE_CELLS = 65536


def fits_dense(shape: tuple[int, int]) -> bool:
    """Whether a matrix of this shape is worked on as a dense array."""
    rows, cols = shape
    return rows * cols <= _DENSE_CELLS or min(rows, cols) == 1


def top_singular_triplet(g: np.ndarray | sp.spmatrix, seed: int = 0) -> SingularTriplet:
    """Dominant singular triplet of the matrix `g`, to machine precision.

    `g` is a dense array or a scipy CSR/CSC matrix. It is first divided by
    its largest absolute entry, and sigma is scaled back at the end, so that
    neither path under- or overflows. A matrix with at most 65536 cells or a
    side of 1 is densified (C order, so CSR, CSC and dense inputs give
    bit-identical results) and its top pair comes from the top eigenpair of
    its smaller Gram matrix, by LAPACK's dsyevr. Any other matrix goes to
    ARPACK (`svds`) with the residual tolerance at machine precision and a
    start vector drawn from ``np.random.default_rng(seed)``; identical
    (g, seed) give bit-identical results, and a run that does not converge
    raises ``ArpackNoConvergence`` rather than returning an inexact pair.
    Non-finite entries raise ValueError. A zero matrix yields (0, e_1, e_1).
    The sign is fixed so that the largest-magnitude entry of u is
    nonnegative.
    """
    rows, cols = g.shape
    if rows < 1 or cols < 1:
        raise ValueError("matrix must have positive dimensions")
    dense = fits_dense(g.shape)
    if not sp.issparse(g):
        g = np.asarray(g, dtype=np.float64)
    elif dense:
        g = g.toarray(order="C")  # CSC would give Fortran order and other sums
    scale = float(np.abs(g.data if sp.issparse(g) else g).max(initial=0.0))
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite values")
    if scale == 0.0:
        return SingularTriplet(0.0, np.eye(1, rows)[0], np.eye(1, cols)[0])
    g = g / scale
    sigma, u, v = _gram_triplet(g) if dense else _krylov_triplet(g, seed)
    if u[np.argmax(np.abs(u))] < 0.0:
        u, v = -u, -v
    return SingularTriplet(sigma * scale, u, v)


def _gram_triplet(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Top pair of the nonzero dense `a` from its smaller Gram matrix b^T b."""
    b = a if a.shape[0] >= a.shape[1] else a.T
    n = b.shape[1]
    # the upper triangle by scipy's BLAS, not numpy's `b.T @ b`: numpy and scipy
    # each bundle an OpenBLAS with its own thread pool, and numpy's threaded
    # syrk just before dsyevr took a 100 x 100 call from 0.6 to 8.7 ms on 2 cores
    gram = dsyrk(1.0, b, trans=1)
    _, z, _, _, info = dsyevr(gram, range="I", il=n, iu=n)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
    x = z[:, 0]
    w = b @ x
    sigma = math.sqrt(w.dot(w))
    return (sigma, w / sigma, x) if b is a else (sigma, x, w / sigma)


def _krylov_triplet(g: np.ndarray | sp.spmatrix,
                    seed: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Top pair of `g` (both sides >= 2) by ARPACK at machine precision."""
    v0 = np.random.default_rng(seed).standard_normal(min(g.shape))
    u, s, vt = svds(g, k=1, v0=v0, tol=0)
    return float(s[0]), u[:, 0], vt[0]


def svd_threshold(a: np.ndarray, r: int) -> tuple[FactorPair, np.ndarray]:
    """H_r(a): keep the r largest singular values, returned in factored form.

    The retained singular values (nonincreasing) are folded into the left
    factor. For r >= rank(a) the result represents `a` itself.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite input")
    m, n = a.shape
    if r == 0:
        return FactorPair.empty(m, n), np.zeros(0)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    k = min(r, s.size)
    return FactorPair(u[:, :k] * s[:k], vt[:k].T), s[:k].copy()


# Entries per block of `project_observed`'s gather: the two r-column buffers
# then stay in cache. Median ms of 3 on 1M entries of a 6040 x 3706 set,
# 2-core host, at r = 5 / 10 / 30: 1024 -> 28 / 41 / 66, 2048 -> 29 / 35 / 65,
# 4096 -> 26 / 32 / 86, 8192 -> 25 / 33 / 91, 32768 -> 25 / 35 / 143,
# 131072 -> 35 / 58 / 172; one fancy-indexed gather of all entries took
# 76 / 101 / 235. 4096 is near the best at the ranks the solvers reach.
_GATHER_BLOCK = 4096


def project_observed(pair: FactorPair, omega: SparseObservations) -> np.ndarray:
    """(U V^T)_ij for each (i, j) in Omega, in Omega's entry order.

    Gathers the factor rows of `_GATHER_BLOCK` entries at a time into two
    reused buffers and takes the row-wise dot products there, so no
    nnz x r copy of either factor is made. Each entry's value equals
    ``np.einsum("ij,ij->i", U[row], V[col])`` bit for bit.
    """
    if pair.shape != omega.shape:
        raise ValueError(f"factor shape {pair.shape} != observation shape {omega.shape}")
    if pair.rank == 0:
        return np.zeros(omega.nnz)
    out = np.empty(omega.nnz)
    bu = np.empty((min(_GATHER_BLOCK, omega.nnz), pair.rank))
    bv = np.empty_like(bu)
    for s in range(0, omega.nnz, _GATHER_BLOCK):
        e = min(s + _GATHER_BLOCK, omega.nnz)
        u, v = bu[:e - s], bv[:e - s]
        # the constructor checked the indices; mode="clip" lets take write
        # straight into `out` (the default "raise" buffers it)
        np.take(pair.U, omega.row[s:e], axis=0, out=u, mode="clip")
        np.take(pair.V, omega.col[s:e], axis=0, out=v, mode="clip")
        np.einsum("ij,ij->i", u, v, out=out[s:e])
    return out
