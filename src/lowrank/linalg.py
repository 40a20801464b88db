"""Matrix containers, factored low-rank pairs, and top-singular-pair extraction.

Dense matrices are plain float64 numpy arrays. Sparse observed sets and
factored pairs get small dataclasses because the solvers move them around
a lot. Everything here is deterministic given its inputs.

The top singular pair of a matrix (dense, or sparse CSR/CSC) is exact, from
LAPACK, when one of its sides is at most 64 long and it has at most 2^20
cells, and comes from capped power iteration otherwise. A sparse matrix on
that exact path, or with at most 65536 cells, is densified first.

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
transposed shape, with no CSR of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseObservations",
    "FactorPair",
    "SingularTriplet",
    "top_singular_triplet",
    "svd_threshold",
    "project_observed",
]

# Below this many cells a sparse matrix is cheaper to apply densified.
_DENSIFY_CELLS = 65536


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
    converged: bool = True


# Matrices with a side of at most _EXACT_SIDE and at most _EXACT_CELLS cells
# are densified and decomposed by LAPACK; others go through power iteration.
# The side limit lies between the largest matrices that need an exact pair
# (the <= 20 x 20 lifts of `check_equivalence`) and the smallest completion
# gradients (100 x 100), where power iteration is cheaper. Median per call on
# first-insertion completion gradients at 20% observed, single-threaded
# OpenBLAS, LAPACK vs power: 0.26 vs 0.26 ms at n = 32, 0.99 vs 0.52 ms at 64,
# 2.5 vs 0.68 ms at 100. The cell limit bounds the dense copy's memory (the
# matrix and its left factor, 8 MB each at the cap) on tall or wide matrices.
_EXACT_SIDE = 64
_EXACT_CELLS = 1 << 20
_POWER_ITERS = 200
_POWER_TOL = 1e-9


def top_singular_triplet(g: np.ndarray | sp.spmatrix, seed: int = 0) -> SingularTriplet:
    """Dominant singular triplet of the matrix `g`, exact where that is cheap.

    `g` is a dense array or a scipy sparse matrix. When min(rows, cols) <= 64
    and rows * cols <= 2^20 the matrix is decomposed by LAPACK, densified
    first if sparse, which takes O(rows * cols) memory; the result is exact
    and ``converged=True``. Other matrices use power iteration on G^T G
    from a start vector drawn from ``np.random.default_rng(seed)``; a
    sparse one with at most 65536 cells is densified for it, a larger one
    keeps a CSR copy of its transpose. `seed` moves only the start vector,
    and identical (g, seed) give bit-identical results. The power path
    stops when successive sigma estimates differ relatively by less than
    1e-9 and returns ``converged=False`` when 200 steps do not get there.
    A numerically zero matrix yields (0, e_1, e_1). The sign is fixed so
    that the largest-magnitude entry of u is nonnegative.
    """
    rows, cols = g.shape
    if rows < 1 or cols < 1:
        raise ValueError("matrix must have positive dimensions")
    exact = min(rows, cols) <= _EXACT_SIDE and rows * cols <= _EXACT_CELLS
    if not sp.issparse(g):
        g = np.asarray(g, dtype=np.float64)
    elif exact or rows * cols <= _DENSIFY_CELLS:
        g = g.toarray(order="C")  # CSC would give Fortran order and other sums
    if exact:
        return _exact_triplet(g)
    return _power_triplet(g, seed)


def _zero_triplet(rows: int, cols: int) -> SingularTriplet:
    return SingularTriplet(0.0, np.eye(1, rows)[0], np.eye(1, cols)[0], True)


def _oriented(sigma: float, u: np.ndarray, v: np.ndarray,
              converged: bool) -> SingularTriplet:
    """Flip (u, v) so that the largest-magnitude entry of u is nonnegative."""
    i = int(np.argmax(np.abs(u)))
    if u[i] < 0.0:
        u = -u
        v = -v
    return SingularTriplet(sigma, u, v, converged)


def _exact_triplet(a: np.ndarray) -> SingularTriplet:
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite values")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        return _zero_triplet(*a.shape)
    return _oriented(float(s[0]), u[:, 0], vt[0], True)


def _power_triplet(g: np.ndarray | sp.spmatrix, seed: int) -> SingularTriplet:
    # math.sqrt(x.dot(x)) is np.linalg.norm(x) bit for bit, minus its call overhead
    # a CSR transpose: its products run 1.3x faster than the CSC view's
    gt = g.T.tocsr() if sp.issparse(g) else g.T
    rng = np.random.default_rng(seed)
    v = w = None
    sigma = 0.0
    for _ in range(3):
        v = rng.standard_normal(g.shape[1])
        v /= np.linalg.norm(v)
        w = g @ v
        if not np.all(np.isfinite(w)):
            raise ValueError("matrix has non-finite values")
        sigma = math.sqrt(w.dot(w))
        if sigma > 0.0:
            break
    else:
        return _zero_triplet(*g.shape)

    converged = False
    u = w / sigma
    for _ in range(_POWER_ITERS):
        z = gt @ u
        zn = math.sqrt(z.dot(z))
        if zn == 0.0:
            converged = True
            break
        v = z / zn
        w = g @ v
        sigma_new = math.sqrt(w.dot(w))
        if sigma_new == 0.0:
            return _zero_triplet(*g.shape)
        u = w / sigma_new
        if abs(sigma_new - sigma) < _POWER_TOL * sigma_new:
            sigma = sigma_new
            converged = True
            break
        sigma = sigma_new

    if not (np.isfinite(sigma) and np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("power iteration produced non-finite values")
    return _oriented(sigma, u, v, converged)


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
