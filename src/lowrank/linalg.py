"""Matrix containers, factored low-rank pairs, and top-singular-pair extraction.

Dense matrices are plain float64 numpy arrays; observed sets and factored
pairs are small dataclasses. Everything here is deterministic given its
inputs, and `fits_dense` is the one size rule for dense or sparse work.
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
    holds its value. The constructor validates its input once: shapes,
    bounds, whole-number indices, finite values and no repeated (i, j)
    cell; `_take` reuses the checked arrays. Entries, and every per-entry
    array (`vals`, `project_observed`'s output), are in row-major order:
    input that is not is permuted by one argsort of the flat cell index
    `row * cols + col`, whose neighbour compare names the first repeated
    cell (not `np.unique`, whose hash path is far slower; CHANGES.md,
    "Timing tables"). The CSR skeleton, the dense arrays and the 0/1 pattern
    are built once each, when first asked for, the dense arrays by
    `matrix_with`'s scatter and the pattern by `csr_with`; the transposed
    problem reads their `.T`. Treat instances as immutable once constructed.
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
                order = np.argsort(flat)
                flat = flat[order]
                dup = np.flatnonzero(flat[1:] == flat[:-1])
                if dup.size:
                    raise DuplicateEntryError(*divmod(int(flat[dup[0]]), self.cols))
                self.row, self.col = self.row[order], self.col[order]
                self.vals = self.vals[order]
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
        """The flat cell index `row * cols + col` of each entry."""
        return self.row * self.cols + self.col

    def _take(self, indices: np.ndarray) -> "SparseObservations":
        """The entries at the distinct positions `indices`, in row-major order
        (the positions are sorted), without re-validation: repeated positions
        would yield a set with duplicate (i, j) entries."""
        indices = np.sort(indices)
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
    def _skeleton(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of this set's CSR matrix, read-only; the entries
        are in row-major order, so the indices are `col`."""
        big = max(self.rows, self.cols, self.nnz) > np.iinfo(np.int32).max
        idx = np.int64 if big else np.int32
        indptr = np.zeros(self.rows + 1, dtype=idx)
        np.cumsum(self._counts[0], out=indptr[1:])
        indices = self.col.astype(idx)
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    def csr_with(self, vals: np.ndarray) -> sp.csr_matrix:
        """`vals`, one per entry, as a CSR matrix on the support: the set's
        skeleton and a read-only view of `vals`. Its `.T` is the CSC matrix
        of the transposed set on the same arrays."""
        indptr, indices = self._skeleton
        data = np.ascontiguousarray(vals, dtype=np.float64).view()
        data.flags.writeable = False
        return sp.csr_matrix((data, indices, indptr), shape=self.shape, copy=False)

    def csr(self) -> sp.csr_matrix:
        return self.csr_with(self.vals)

    def matrix_with(self, vals: np.ndarray) -> np.ndarray | sp.csr_matrix:
        """`vals`, one per entry, as a read-only m x n matrix on the support,
        dense or CSR as `fits_dense` picks."""
        if not fits_dense(self.shape, self.nnz):
            return self.csr_with(vals)
        return self._scatter(vals)

    def _scatter(self, vals) -> np.ndarray:
        """`vals` (one per entry, or one scalar) as a read-only dense m x n
        array, zero off the support."""
        out = np.zeros(self.shape)
        out.ravel()[self._flat] = vals
        out.flags.writeable = False
        return out

    @cached_property
    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0/1 mask of Omega and the target zero-filled off Omega, as
        read-only m x n arrays."""
        return self._scatter(1.0), self._scatter(self.vals)

    @cached_property
    def pattern(self) -> sp.csr_matrix:
        """The 0/1 matrix of Omega: the CSR skeleton with read-only ones."""
        return self.csr_with(np.ones(self.nnz))


@dataclass
class FactorPair:
    """A low-rank matrix held as A = U V^T with U (m x r), V (n x r).

    Objectives cache their result for the last pair they saw by identity:
    one (pair, result) entry, replaced in one assignment, so threads sharing
    an objective at worst compute again. A pair, its factors included, must
    therefore not be mutated once it has been passed to an objective.
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


# The cap of `fits_dense`: up to it, at 20% fill, the Gram insertion beats
# the Krylov one on Gaussian entries and the dense refit product the sparse
# one. It also bounds each dense copy at 512 kB. Sweep: CHANGES.md, "Timing
# tables".
_DENSE_CELLS = 65536

# The fill floor of `fits_dense`: dense work costs a GEMM over every cell,
# the gather and CSR kernels a multiply-add per entry and a fixed cost per
# call. At 256 x 256 they cross between 2% and 5% observed. Sweep:
# CHANGES.md, "Timing tables".
_DENSE_FILL = 32


def fits_dense(shape: tuple[int, int], nnz: int | None = None) -> bool:
    """Whether a matrix of this shape is worked on as a dense array: at most
    `_DENSE_CELLS` cells, or a side of 1; given the `nnz` of an observed set,
    also at least 1 / `_DENSE_FILL` of its cells observed.

    The package's one size rule for an observed set's matrices and for
    gradients. A gradient's shape picks its insertion path
    (`top_singular_triplet`). On an observed set that fits, shape and fill:
    - refit (`inner._normal_products`): each capped CG product is two GEMMs
      and a multiply by the dense 0/1 mask; any other set takes the Gram or
      the gather kernel, as `fits_gram` rules;
    - predictions (`project_observed`): one GEMM and one gather of the
      entries; any other set gathers the factor rows of `_BLOCK_CELLS` // r
      entries at a time into two reused buffers, so no nnz x r copy of
      either factor is made, and each value equals
      ``np.einsum("ij,ij->i", U[row], V[col])`` bit for bit;
    - gradients (`SparseObservations.matrix_with`): a dense array, zero off
      the set; any other set, a CSR matrix.
    The refit kernels add the same terms in different orders, so they agree
    to rounding, not bit for bit. A V-side refit reads the set's matrices
    through `.T`: the dense arrays' transposes and CSC views of the CSR
    skeleton. scipy's CSC product adds each output row's terms in the same
    order as a CSR product over the transposed entries, so the V side is the
    U side on the transposed set bit for bit.
    """
    rows, cols = shape
    if nnz is not None and nnz * _DENSE_FILL < rows * cols:
        return False
    return rows * cols <= _DENSE_CELLS or min(rows, cols) == 1


# The rank bound of `fits_gram`, per CG step: the Gram matrices are formed
# once per refit, and they pay while the steps that reuse them are many
# next to the rank. Sweep: CHANGES.md, "Timing tables".
_GRAM_STEP_RANKS = 6
# The refit cap: no array a refit builds holds more than this many cells
# (32 MB), neither the Gram kernel's (`fits_gram`) nor the full refit's
# (`inner.check_full_refit`).
_REFIT_CELLS = 1 << 22


def fits_gram(rows: int, rank: int, steps: int) -> bool:
    """Whether a capped refit of `rows` row systems at this rank, for at most
    `steps` CG steps, works on per-row Gram matrices: while rank + 1 is at
    most `_GRAM_STEP_RANKS` times `steps`, and the rows x rank x rank array
    is within the refit cap `_REFIT_CELLS`.

    The package's one rule for the capped refit on an observed set above the
    `fits_dense` cap. If the refit fits, `inner._normal_products` forms each
    row's r x r Gram matrix G_i = F[omega_i]^T F[omega_i] once (`row_grams`:
    one SpMM, nnz x r(r+1)/2 multiply-adds), and each CG step is the batched
    product G_i P_i; else each step gathers the observed entries of P F^T
    and multiplies a CSR view of them by F (nnz x r per step). The cell cap
    keeps a large step cap from growing the array with r^2; the SpMM's
    packed output beside it is about half its size.
    """
    return rank + 1 <= _GRAM_STEP_RANKS * steps and rows * rank * rank <= _REFIT_CELLS


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
    Any other matrix goes uncopied to symmetric Lanczos on its smaller Gram
    operator (`_krylov_triplet`), from a start vector drawn from
    ``np.random.default_rng(seed)``: identical (g, seed) give bit-identical
    results. The run is never restarted. It stops once the pair's residual
    is at most eps times sigma, and at the latest at step min(rows, cols),
    where its pair is exact to rounding; only a start vector in the null
    space raises ``np.linalg.LinAlgError``. Non-finite entries raise
    ValueError. A zero matrix yields (0, e_1, e_1). The sign is fixed so
    that the largest-magnitude entry of u is nonnegative.
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
    # syrk just before scipy's dsyevr made small calls many times slower
    # (CHANGES.md, "Timing tables")
    gram = dsyrk(1.0, b, trans=1)
    _, z, _, _, info = dsyevr(gram, range="I", il=n, iu=n)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
    x = z[:, 0]
    w = b @ x
    sigma = math.sqrt(w.dot(w))
    return (sigma, w / sigma, x) if b is a else (sigma, x, w / sigma)


# The Krylov path's first basis allocation (`_krylov_triplet`), in vectors of
# the smaller side n. A run that fills the basis doubles it, up to n vectors,
# so the basis holds at most twice the steps taken, and n x n doubles at the
# extreme. Step k costs two products and a reorthogonalization against k
# vectors. Sized so that the insertions of low-rank fits never grow it. No
# result depends on this size. Step counts and memory peaks: CHANGES.md,
# "Timing tables".
_KRYLOV_BASIS = 64
_EPS = float(np.finfo(np.float64).eps)


def _krylov_triplet(g: np.ndarray | sp.spmatrix, seed: int,
                    scale: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Top pair of `g / scale` (both sides >= 2) by symmetric Lanczos on
    a^T a with full reorthogonalization; `top_singular_triplet` states the
    stop rule.

    With `a` the orientation of `g` whose columns are the smaller side (n
    of them), the run builds an orthonormal basis V (from the start vector)
    with a^T a V_k = V_k T_k + b_k v_{k+1} e_k^T, T_k symmetric tridiagonal
    (alpha on the diagonal, beta beside it). For the top eigenpair
    (theta, q) of T_k, the Ritz vector v = V_k q gives sigma = ||a v|| and
    u = a v / sigma, so a v = sigma u and a^T u - sigma v has norm
    b_k |q_k| / sigma: the residual test is b_k |q_k| <= eps * theta
    (theta = sigma^2), an O(k) solve per step; at step n, V spans the
    space. The factor 1 / scale goes on the vectors, half before and half
    after each product, so that no finite scale over- or underflows and `g`
    is never copied.
    """
    a = g if g.shape[0] >= g.shape[1] else g.T
    at = a.T
    n = a.shape[1]
    pre = math.ldexp(1.0, -math.frexp(scale)[1] // 2)
    post = 1.0 / (scale * pre)

    def times(m, x):
        """m @ (x / scale)."""
        y = m @ (x * pre)
        y *= post
        return y

    V = np.empty((min(_KRYLOV_BASIS, n), n))
    alpha, beta = np.empty(n), np.empty(n)
    x = np.random.default_rng(seed).standard_normal(n)
    V[0] = x / math.sqrt(x.dot(x))
    for k in range(n):
        r = times(at, times(a, V[k]))
        alpha[k] = V[k].dot(r)
        r -= alpha[k] * V[k]
        if k:
            r -= beta[k - 1] * V[k - 1]
        _orthogonalize(r, V[:k + 1])
        b = math.sqrt(r.dot(r))
        theta, q = _top_tridiagonal_pair(alpha[:k + 1], beta[:k])
        if b * abs(q[-1]) <= _EPS * theta or k + 1 == n:
            break
        beta[k] = b
        if k + 1 == len(V):
            grown = np.empty((min(2 * len(V), n), n))
            grown[:len(V)] = V
            V = grown
        V[k + 1] = r / b
    v = q @ V[:k + 1]
    u = times(a, v)
    sigma = math.sqrt(u.dot(u))
    if sigma == 0.0:
        raise np.linalg.LinAlgError("start vector in the null space")
    u /= sigma
    return (sigma, u, v) if a is g else (sigma, v, u)


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
    bisection (dstebz) and inverse iteration (dstein), called directly:
    scipy's `eigh_tridiagonal` makes the same two calls behind argument
    handling that costs more than they do (CHANGES.md, "Timing tables")."""
    n = d.size
    if n == 1:
        return float(d[0]), np.ones(1)
    _, w, block, split, info = dstebz(d, e, 2, 0.0, 0.0, n, n, 0.0, "B")
    if not info:
        z, info = dstein(d, e, w[:1], block, split)
    if info:
        raise np.linalg.LinAlgError(f"tridiagonal eigenproblem failed with info={info}")
    return float(w[0]), z[:, 0]


# Cells per block of the blocked passes: `project_observed`'s gather takes
# this // r entries, `objectives.HuberLowRank.evaluate` this // n rows, so
# each pass's two block buffers (256 KB each) stay in cache; smaller blocks
# pay the per-block calls. Sweeps: CHANGES.md, "Timing tables".
_BLOCK_CELLS = 32768


def project_observed(pair: FactorPair, omega: SparseObservations) -> np.ndarray:
    """(U V^T)_ij for each (i, j) in Omega, in row-major order, on the
    kernel `fits_dense` picks."""
    if pair.shape != omega.shape:
        raise ValueError(f"factor shape {pair.shape} != observation shape {omega.shape}")
    if pair.rank == 0:
        return np.zeros(omega.nnz)
    if fits_dense(omega.shape, omega.nnz):
        return (pair.U @ pair.V.T).ravel()[omega._flat]
    out = np.empty(omega.nnz)
    block = max(1, _BLOCK_CELLS // pair.rank)
    bu = np.empty((min(block, omega.nnz), pair.rank))
    bv = np.empty_like(bu)
    for s in range(0, omega.nnz, block):
        e = min(s + block, omega.nnz)
        u, v = bu[:e - s], bv[:e - s]
        # the constructor checked the indices; mode="clip" lets take write
        # straight into `out` (the default "raise" buffers it)
        np.take(pair.U, omega.row[s:e], axis=0, out=u, mode="clip")
        np.take(pair.V, omega.col[s:e], axis=0, out=v, mode="clip")
        np.einsum("ij,ij->i", u, v, out=out[s:e])
    return out
