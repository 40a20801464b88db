"""Matrix containers, factored low-rank pairs, and top-singular-pair extraction.

Dense matrices are plain float64 numpy arrays; observed sets and factored
pairs are small dataclasses. Everything here is deterministic given its
inputs, and `fits_dense` is the one size rule for dense or sparse work.

An observed set is validated once, by its constructor (`_take` reuses the
checked arrays). The duplicate check reads the flat cell index
`row * cols + col`: one O(nnz) pass for row-major input, otherwise one sort
and a neighbour compare, which also names the first repeated cell. It
avoids `np.unique`, whose hash path (numpy 2.4) took 0.9 s per 1M distinct
cells against 12.5 ms for `np.sort`. Entries keep the order they were given
in ("entry order"), and so does every per-entry array (`vals`,
`project_observed`'s output). A set builds its CSR skeleton, dense arrays
and 0/1 pattern once each, when first asked for; the transposed problem
reads their `.T`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dstebz, dstein, dsyevr

__all__ = [
    "SparseObservations",
    "DuplicateEntryError",
    "FactorPair",
    "SingularTriplet",
    "top_singular_triplet",
    "project_observed",
]


def check_integers(obj, **least: int) -> None:
    """Each named field of `obj` must be an integer at least its given value;
    numpy integers are stored as ints."""
    for name, low in least.items():
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        setattr(obj, name, int(value))


class DuplicateEntryError(ValueError):
    """An observed set repeats a cell; `cell` is the first such (i, j) in
    row-major order."""

    def __init__(self, i: int, j: int):
        super().__init__(f"duplicate (i, j) entries: ({i}, {j}) appears more than once")
        self.cell = (i, j)


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
        for name in ("rows", "cols"):
            size = getattr(self, name)
            if not isinstance(size, numbers.Integral) or size < 0:
                raise ValueError(f"rows and cols must be integers >= 0, "
                                 f"got {name}={size!r}")
            setattr(self, name, int(size))
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
            # strictly increasing (row-major) input has no duplicates
            flat = self._flat
            if not np.all(flat[1:] > flat[:-1]):
                flat = np.sort(flat)
                dup = np.flatnonzero(flat[1:] == flat[:-1])
                if dup.size:
                    i, j = divmod(int(flat[dup[0]]), self.cols)
                    raise DuplicateEntryError(i, j)
        if not np.all(np.isfinite(self.vals)):
            raise ValueError("non-finite observation values")

    @property
    def nnz(self) -> int:
        return self.vals.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def _flat(self) -> np.ndarray:
        """The flat cell index `row * cols + col` of each entry, in entry order."""
        return self.row * self.cols + self.col

    def _take(self, indices: np.ndarray) -> "SparseObservations":
        """The entries at `indices`, in that order, without re-validation.

        The caller passes distinct positions; repeated ones would yield a set
        with duplicate (i, j) entries that the constructor rejects."""
        out = object.__new__(SparseObservations)
        out.rows, out.cols = self.shape
        out.row, out.col = self.row[indices], self.col[indices]
        out.vals = self.vals[indices]
        return out

    @cached_property
    def _counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Observed entries per row and per column."""
        return (np.bincount(self.row, minlength=self.rows),
                np.bincount(self.col, minlength=self.cols))

    @cached_property
    def _skeleton(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(indptr, indices, perm) of this set's CSR matrix, read-only.

        One O(nnz) pass for row-major input, otherwise one sort: `perm` is the
        argsort of the flat cell index, which equals the (row, col) lexsort
        because the cells are distinct, at an eighth of its cost."""
        big = max(self.rows, self.cols, self.nnz) > np.iinfo(np.int32).max
        idx = np.int64 if big else np.int32
        indptr = np.zeros(self.rows + 1, dtype=idx)
        np.cumsum(self._counts[0], out=indptr[1:])
        flat = self._flat
        if np.all(flat[1:] > flat[:-1]):
            perm, indices = None, self.col.astype(idx)
        else:
            perm = np.argsort(flat)
            indices = self.col[perm].astype(idx)
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices, perm

    def csr_with(self, vals: np.ndarray) -> sp.csr_matrix:
        """`vals`, given in entry order, as a CSR matrix on the support.

        The matrix shares the set's skeleton and, for entries in CSR order,
        holds a read-only view of `vals` (a permuted copy otherwise). Its `.T`
        is the CSC matrix of the transposed set on the same arrays.
        """
        indptr, indices, perm = self._skeleton
        data = np.ascontiguousarray(vals, dtype=np.float64)
        data = data.view() if perm is None else data[perm]
        data.flags.writeable = False
        return sp.csr_matrix((data, indices, indptr), shape=self.shape, copy=False)

    def csr(self) -> sp.csr_matrix:
        return self.csr_with(self.vals)

    def matrix_with(self, vals: np.ndarray) -> np.ndarray | sp.csr_matrix:
        """`vals`, given in entry order, as a read-only m x n matrix on the
        support: a dense array, zero off the support, when the set
        `fits_dense` (shape and fill), else `csr_with(vals)`."""
        if not fits_dense(self.shape, self.nnz):
            return self.csr_with(vals)
        out = np.zeros(self.shape)
        out.ravel()[self._flat] = vals
        out.flags.writeable = False
        return out

    @cached_property
    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0/1 mask of Omega and the target zero-filled off Omega, as
        read-only m x n arrays."""
        mask, target = np.zeros(self.shape), np.zeros(self.shape)
        mask[self.row, self.col] = 1.0
        target[self.row, self.col] = self.vals
        mask.flags.writeable = target.flags.writeable = False
        return mask, target

    @cached_property
    def pattern(self) -> sp.csr_matrix:
        """The 0/1 matrix of Omega: the CSR skeleton with read-only ones."""
        indptr, indices, _ = self._skeleton
        ones = np.ones(self.nnz)
        ones.flags.writeable = False
        return sp.csr_matrix((ones, indices, indptr), shape=self.shape, copy=False)


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


# The cap of `fits_dense` (2-core host, one OpenBLAS thread). At n = 256 and
# 20% fill the Gram insertion still beats the Krylov one on Gaussian entries
# (3.5-4.4 vs 6.4-6.6 ms), and the dense refit product the sparse one
# (108 / 267 vs 435 / 2120 us at r = 5 / 30). The cap also bounds each dense
# copy at 512 kB. Full sweep: CHANGES.md, "Timing tables".
_DENSE_CELLS = 65536

# The fill floor of `fits_dense`: dense work costs a GEMM over every cell,
# the gather and CSR kernels a multiply-add per entry and about 40 us of
# fixed cost. At 256 x 256 they cross between 2% and 5% observed (the
# Hessian product Pi_Omega(L R^T), as a matrix on the set, and its product
# by V, dense vs sparse at r = 5 / 30: 106 / 328 vs 149 / 205 us at 2%,
# 122 / 344 vs 266 / 1318 at 5%). Full sweep: CHANGES.md, "Timing tables".
_DENSE_FILL = 32


def fits_dense(shape: tuple[int, int], nnz: int | None = None) -> bool:
    """Whether a matrix of this shape is worked on as a dense array: at most
    `_DENSE_CELLS` cells, or a side of 1; given the `nnz` of an observed set,
    also at least 1 / `_DENSE_FILL` of its cells observed.

    The package's one size rule for an observed set's matrices and for
    gradients. On a shape that fits:
    - insertion: `top_singular_triplet` densifies the matrix and takes its
      Gram eigenpair (else the Krylov path, on the matrix as given).
    If the set's fill passes too:
    - refit: `inner._normal_products` takes masked dense GEMMs (else the
      Gram or gather kernel);
    - predictions: `project_observed` takes one GEMM and one gather (else
      the blocked gather);
    - gradients: `SparseObservations.matrix_with` builds a dense array,
      zero off the set (else a CSR matrix), for the observed objectives'
      gradients.
    """
    rows, cols = shape
    if nnz is not None and nnz * _DENSE_FILL < rows * cols:
        return False
    return rows * cols <= _DENSE_CELLS or min(rows, cols) == 1


# The measurements behind `fits_gram`: at 2 steps, Gram beats gather on both
# sides and both set sizes through r = 11 (62 vs 92 ms per refit on a
# 6040 x 3706 set with 1M entries), and loses on some by r = 14-17 (V side
# 9.0 vs 8.4 ms at 14 on 943 x 1682 with 80k entries). Full sweep:
# CHANGES.md, "Timing tables".
_GRAM_STEP_RANKS = 6
_GRAM_CELLS = 1 << 22


def fits_gram(rows: int, rank: int, steps: int) -> bool:
    """Whether a capped refit of `rows` row systems at this rank, for at most
    `steps` CG steps, works on per-row Gram matrices: while rank + 1 is at
    most `_GRAM_STEP_RANKS` times `steps`, and the rows x rank x rank array
    holds at most `_GRAM_CELLS` cells (32 MB).

    The package's one rule for the capped refit on an observed set above the
    `fits_dense` cap. If the refit fits, `inner._normal_products` forms each
    row's r x r Gram matrix once (one SpMM, nnz x r(r+1)/2 multiply-adds) and
    each CG step is one batched r x r product; else each step gathers the
    observed entries and multiplies a CSR view of them (nnz x r per step).
    The rank bound leaves some gain at 1 and 5 steps. The cell cap keeps a
    large step cap from growing the array with r^2; the SpMM's packed output
    beside it is about half its size.
    """
    return rank + 1 <= _GRAM_STEP_RANKS * steps and rows * rank * rank <= _GRAM_CELLS


def row_grams(F: np.ndarray, omega: SparseObservations, side: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """(packed, slot): the Gram matrix K_i = sum_j F[j]^T F[j] over the
    entries j observed in row i of `omega` (column i on side 1), for every
    i, packed by symmetry: K_i[a, b] = packed[i, slot[a, b]].

    One SpMM of the set's 0/1 pattern by the r(r+1)/2 column products of F
    (nnz x r(r+1)/2 multiply-adds). The capped refit's Gram kernel and the
    observed quadratic's normal matrix both start from it."""
    r = F.shape[1]
    upper = np.triu_indices(r)
    pattern = omega.pattern.T if side else omega.pattern
    packed = pattern @ (F[:, upper[0]] * F[:, upper[1]])
    slot = np.empty((r, r), dtype=np.intp)
    slot[upper] = slot[upper[::-1]] = np.arange(upper[0].size)
    return packed, slot


def top_singular_triplet(g: np.ndarray | sp.spmatrix, seed: int = 0) -> SingularTriplet:
    """Dominant singular triplet of the matrix `g`, to machine precision.

    `g` is a dense array or a scipy CSR/CSC matrix, worked on as divided by
    its largest absolute entry, so that nothing under- or overflows; sigma
    is scaled back at the end. A matrix that `fits_dense` is densified (C
    order, so CSR, CSC and dense inputs give bit-identical results) and its
    pair comes from the top eigenpair of its smaller Gram matrix (dsyevr).
    Any other matrix goes uncopied to `_krylov_triplet`, from a start vector
    drawn from ``np.random.default_rng(seed)``: identical (g, seed) give
    bit-identical results, and a run that does not converge raises
    ``np.linalg.LinAlgError`` rather than return an inexact pair. Non-finite
    entries raise ValueError. A zero matrix yields (0, e_1, e_1). The sign is
    fixed so that the largest-magnitude entry of u is nonnegative.
    """
    rows, cols = g.shape
    if rows < 1 or cols < 1:
        raise ValueError("matrix must have positive dimensions")
    dense = fits_dense(g.shape)
    if not sp.issparse(g):
        g = np.asarray(g, dtype=np.float64)
    elif dense:
        g = g.toarray(order="C")  # CSC would give Fortran order and other sums
    # max and min rather than abs: no temporary the size of the entries
    entries = g.data if sp.issparse(g) else g
    hi, lo = float(entries.max(initial=0.0)), float(entries.min(initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("matrix has non-finite values")
    scale = max(hi, -lo)
    if scale == 0.0:
        return SingularTriplet(0.0, np.eye(1, rows)[0], np.eye(1, cols)[0])
    if dense:
        sigma, u, v = _gram_triplet(g / scale)
    else:
        sigma, u, v = _krylov_triplet(g, seed, scale)
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


# The Krylov path's basis cap and restart budget (`_krylov_triplet`). Step k
# costs two products and a reorthogonalization against k vectors. 64 steps
# hold every insertion of a 6040 x 3706, 1M-entry `fast_greedy` solve (12-30
# steps); on noise, where runs take 96-108 steps uncapped, the restart makes
# them 109-140 steps and about 10% slower (ROADMAP item 4). The basis holds
# 64 x min(rows, cols) doubles. Full timings: CHANGES.md, "Timing tables".
_KRYLOV_STEPS = 64
_KRYLOV_RESTARTS = 16
_EPS = float(np.finfo(np.float64).eps)


def _krylov_triplet(g: np.ndarray | sp.spmatrix, seed: int,
                    scale: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Top pair of `g / scale` (both sides >= 2) by symmetric Lanczos on
    a^T a with full reorthogonalization.

    With `a` the orientation of `g` whose columns are the smaller side, the
    run builds an orthonormal basis V (from the start vector) with
    a^T a V_k = V_k T_k + b_k v_{k+1} e_k^T, T_k symmetric tridiagonal
    (alpha on the diagonal, beta beside it). For the top eigenpair
    (theta, q) of T_k, the Ritz vector v = V_k q gives sigma = ||a v|| and
    u = a v / sigma, so a v = sigma u and a^T u - sigma v has norm
    b_k |q_k| / sigma: the run stops once b_k |q_k| <= eps * theta
    (theta = sigma^2), an O(k) solve per step. After `_KRYLOV_STEPS` steps
    the run restarts from v, and after `_KRYLOV_RESTARTS` restarts it
    raises. The factor 1 / scale goes on the vectors, half before and half
    after each product, so that no finite scale over- or underflows and `g`
    is never copied.
    """
    a = g if g.shape[0] >= g.shape[1] else g.T
    at = a.T
    pre = math.ldexp(1.0, -math.frexp(scale)[1] // 2)
    post = 1.0 / (scale * pre)

    def times(m, x):
        """m @ (x / scale)."""
        y = m @ (x * pre)
        y *= post
        return y

    steps = _KRYLOV_STEPS
    V = np.empty((steps, a.shape[1]))
    alpha, beta = np.empty(steps), np.empty(steps)
    x = np.random.default_rng(seed).standard_normal(a.shape[1])
    for _ in range(_KRYLOV_RESTARTS + 1):
        V[0] = x / math.sqrt(x.dot(x))
        for k in range(steps):
            r = times(at, times(a, V[k]))
            alpha[k] = V[k].dot(r)
            r -= alpha[k] * V[k]
            if k:
                r -= beta[k - 1] * V[k - 1]
            _orthogonalize(r, V[:k + 1])
            b = math.sqrt(r.dot(r))
            theta, q = _top_tridiagonal_pair(alpha[:k + 1], beta[:k])
            if b * abs(q[-1]) <= _EPS * theta:
                v = q @ V[:k + 1]
                u = times(a, v)
                sigma = math.sqrt(u.dot(u))
                if sigma == 0.0:
                    raise np.linalg.LinAlgError("start vector in the null space")
                u /= sigma
                return (sigma, u, v) if a is g else (sigma, v, u)
            if k + 1 == steps:
                break
            beta[k] = b
            V[k + 1] = r / b
        x = q @ V
    raise np.linalg.LinAlgError(
        f"top singular pair not converged in {_KRYLOV_RESTARTS} restarts "
        f"of {_KRYLOV_STEPS} steps")


def _orthogonalize(r: np.ndarray, basis: np.ndarray) -> None:
    """Remove from `r`, in place, its components along the orthonormal rows of
    `basis`: classical Gram-Schmidt, repeated once when the pass removed more
    than half of r's squared norm (the Daniel-Gragg-Kaufman-Stewart test)."""
    before = r.dot(r)
    r -= (basis @ r) @ basis
    if r.dot(r) < 0.5 * before:
        r -= (basis @ r) @ basis


def _top_tridiagonal_pair(d: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest eigenvalue and its unit eigenvector of the symmetric
    tridiagonal matrix with diagonal `d` and off-diagonal `e`, by LAPACK's
    bisection (dstebz) and inverse iteration (dstein): scipy's
    `eigh_tridiagonal` makes the same two calls after 35-45 us of argument
    handling, which is 2-10 times their own cost at k = 64 down to 5."""
    n = d.size
    if n == 1:
        return float(d[0]), np.ones(1)
    _, w, block, split, info = dstebz(d, e, 2, 0.0, 0.0, n, n, 0.0, "B")
    if not info:
        z, info = dstein(d, e, w[:1], block, split)
    if info:
        raise np.linalg.LinAlgError(f"tridiagonal eigenproblem failed with info={info}")
    return float(w[0]), z[:, 0]


# Entries per block of `project_observed`'s gather: the two r-column buffers
# then stay in cache. On 1M entries of a 6040 x 3706 set, 4096 is near the
# best at r = 5 / 10 / 30 (26 / 32 / 86 ms, against 76 / 101 / 235 for one
# gather of all entries). Full sweep: CHANGES.md, "Timing tables".
_GATHER_BLOCK = 4096


def project_observed(pair: FactorPair, omega: SparseObservations) -> np.ndarray:
    """(U V^T)_ij for each (i, j) in Omega, in Omega's entry order.

    On a set that `fits_dense` (shape and fill) this is one GEMM and one
    gather of its entries. Any other set gathers the factor rows of `_GATHER_BLOCK` entries
    at a time into two reused buffers and takes the row-wise dot products
    there, so no nnz x r copy of either factor is made; each entry's value
    equals ``np.einsum("ij,ij->i", U[row], V[col])`` bit for bit.
    """
    if pair.shape != omega.shape:
        raise ValueError(f"factor shape {pair.shape} != observation shape {omega.shape}")
    if pair.rank == 0:
        return np.zeros(omega.nnz)
    if fits_dense(omega.shape, omega.nnz):
        return (pair.U @ pair.V.T).ravel()[omega._flat]
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
