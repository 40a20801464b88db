import gc
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

import lowrank
from lowrank.data import split_ratings
from lowrank.linalg import (_BLOCK_CELLS, _DENSE_CELLS, _DENSE_FILL, _KRYLOV_BASIS,
                            DuplicateEntryError, FactorPair, SparseObservations,
                            fits_dense, project_observed, top_singular_triplet)

from conftest import full_observations, top_r_svd


# ---------------------------------------------------------------- containers

def test_sparse_observations_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        SparseObservations(2, 2, [0, 0], [1, 1], [1.0, 2.0])


def test_duplicate_error_names_first_repeated_cell():
    # row-major input: the repeat sits next to its copy
    with pytest.raises(DuplicateEntryError, match=r"\(1, 2\)") as info:
        SparseObservations(3, 4, [0, 1, 1, 2], [3, 2, 2, 0], np.ones(4))
    assert info.value.cell == (1, 2)
    # shuffled input: (2, 3) repeats first in entry order, (1, 2) in row-major
    with pytest.raises(ValueError, match="duplicate") as info:
        SparseObservations(3, 4, [2, 0, 2, 1, 1], [3, 1, 3, 2, 2], np.ones(5))
    assert info.value.cell == (1, 2)
    assert "(1, 2)" in str(info.value)


def test_sparse_observations_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseObservations(2, 2, [0, 2], [0, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SparseObservations(2, 2, [0], [-1], [1.0])


def test_sparse_observations_rejects_fractional_indices():
    with pytest.raises(ValueError, match="row indices must be integers"):
        SparseObservations(3, 3, [0.5, 2.9], [1.7, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError, match="col indices must be integers"):
        SparseObservations(3, 3, [0, 2], [1.0, 0.2], [1.0, 2.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="integers"):
            SparseObservations(3, 3, [bad], [0], [1.0])
    # whole numbers in a float array are indices
    obs = SparseObservations(3, 3, [0.0, 2.0], np.array([1.0, 0.0]), [1.0, 2.0])
    assert obs.row.dtype == np.int64 and obs.row.tolist() == [0, 2]
    assert obs.col.tolist() == [1, 0]


def test_sparse_observations_integer_indices_skip_whole_number_check(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("integer indices checked for fractions")

    monkeypatch.setattr(np, "trunc", fail)
    for dtype in (np.int32, np.int64, np.uint16):
        obs = SparseObservations(3, 3, np.array([0, 2], dtype), np.array([1, 0], dtype),
                                 [1.0, 2.0])
        assert obs.row.dtype == obs.col.dtype == np.int64


def test_sparse_observations_rejects_negative_shape():
    for rows, cols in ((-2, 3), (3, -1)):
        with pytest.raises(ValueError, match="(rows|cols) must be an integer >= 0"):
            SparseObservations(rows, cols, [], [], [])
    assert SparseObservations(0, 0, [], [], []).nnz == 0
    # non-integer sizes are named; numpy integers are stored as ints
    for rows, cols, name in ((np.nan, 3, "rows"), (2.5, 3, "rows"), (3, np.inf, "cols"),
                             (3.0, 3, "rows")):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
            SparseObservations(rows, cols, [0], [0], [1.0])
    obs = SparseObservations(np.int64(3), np.uint8(255), [0], [254], [1.0])
    assert obs.shape == (3, 255) and all(type(x) is int for x in obs.shape)
    assert obs.csr().shape == (3, 255) and obs._skeleton[0].size == 4


def test_sparse_observations_rejects_non_finite():
    with pytest.raises(ValueError):
        SparseObservations(2, 2, [0], [0], [np.nan])


def test_sparse_observations_rejects_mismatched_entry_arrays():
    for row, col, vals in (([0, 1], [0], [1.0]), ([0], [0, 1], [1.0]),
                           ([0], [0], [1.0, 2.0]), ([[0]], [0], [1.0])):
        with pytest.raises(ValueError, match="row, col, vals must have identical shapes"):
            SparseObservations(2, 2, row, col, vals)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(2, 8))
def test_csr_consistent_with_entries(seed, m, n):
    rng = np.random.default_rng(seed)
    idx = rng.permutation(np.flatnonzero(rng.random(m * n) < 0.6))
    obs = SparseObservations(m, n, idx // n, idx % n, rng.standard_normal(idx.size))
    dense = np.zeros((m, n))
    dense[obs.row, obs.col] = obs.vals
    assert np.array_equal(obs.csr().toarray(), dense)
    # new values on the shared support are read in entry order
    assert np.array_equal(obs.csr_with(2.0 * obs.vals).toarray(), 2.0 * dense)



def _scrambled_set(m=4, n=5, seed=0):
    rng = np.random.default_rng(seed)
    idx = rng.permutation(np.flatnonzero(rng.random(m * n) < 0.6))
    return SparseObservations(m, n, idx // n, idx % n, rng.standard_normal(idx.size))


def test_transpose_matches_validated_construction():
    # the .T of a set's matrices is the validated transposed set's matrices
    obs = _scrambled_set()
    t = obs.csr().T
    built = SparseObservations(obs.cols, obs.rows, obs.col, obs.row, obs.vals)
    assert t.format == "csc" and t.shape == built.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(t.tocsr(), name), getattr(built.csr(), name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(t.toarray(), built.csr().toarray())
    assert np.array_equal(t.toarray(), obs.csr().toarray().T)
    assert np.array_equal(obs.pattern.T.toarray(), built.pattern.toarray())
    for got, want in zip(obs.dense, built.dense):
        assert np.array_equal(got.T, want)
    assert [c.tolist() for c in obs._counts] == [c.tolist() for c in built._counts[::-1]]


def test_derived_sets_skip_validation(monkeypatch):
    obs = _scrambled_set(seed=2)

    def fail(self):
        raise AssertionError("derived set re-validated")

    monkeypatch.setattr(SparseObservations, "__post_init__", fail)
    # the transposed matrix is a view on the set's own skeleton
    assert np.shares_memory(obs.csr().T.indices, obs._skeleton[1])
    assert obs.csr().T.T.format == "csr"


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 8))
def test_any_entry_order_builds_the_same_row_major_set(seed, m, n):
    rng = np.random.default_rng(seed)
    flat = np.flatnonzero(rng.random(m * n) < 0.6)
    vals = rng.standard_normal(flat.size)
    want = SparseObservations(m, n, flat // n, flat % n, vals)
    order = rng.permutation(flat.size)
    got = SparseObservations(m, n, flat[order] // n, flat[order] % n, vals[order])
    for name in ("row", "col", "vals"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    # a split draws its halves' positions in random order, and each half
    # holds them row-major; it refuses to leave the training half empty
    if flat.size < 2:
        with pytest.raises(ValueError, match="train_fraction"):
            split_ratings(got, 0.5, seed)
        return
    train, test = split_ratings(got, 0.5, seed)
    pick = np.random.default_rng(seed).permutation(flat.size)
    for half, positions in ((train, pick[:flat.size // 2]), (test, pick[flat.size // 2:])):
        assert np.all(np.diff(half._flat) > 0)
        assert np.array_equal(half._flat, np.sort(got._flat[positions]))
        assert np.array_equal(half.vals, got.vals[np.sort(positions)])


def test_used_set_is_freed_without_a_collection():
    # a set's caches and transposed views hold no reference back to it, so a
    # set whose caches were all built goes as soon as its last reference
    # does, while the views live on
    obs = _scrambled_set(seed=3)
    views = obs.csr().T, obs.pattern.T, [a.T for a in obs.dense], obs._counts
    gone = weakref.ref(obs)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del obs
        assert gone() is None
        assert views[0].nnz == views[1].nnz
    finally:
        if enabled:
            gc.enable()


def _entries(m, n, nnz, seed, shuffled):
    """`nnz` distinct cells of an m x n grid, in CSR order or shuffled."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(m * n, size=nnz, replace=False)
    if not shuffled:
        flat = np.sort(flat)
    return SparseObservations(m, n, flat // n, flat % n, rng.standard_normal(nnz))


@pytest.mark.parametrize("shuffled", [False, True])
def test_csr_with_equals_coo_construction(shuffled):
    obs = _entries(40, 30, 500, 3, shuffled)
    v = np.random.default_rng(4).standard_normal(obs.nnz)
    got = obs.csr_with(v)
    want = sp.csr_matrix((v, (obs.row, obs.col)), shape=obs.shape)
    assert got.format == "csr"
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    F = np.random.default_rng(5).standard_normal((obs.cols, 4))
    assert np.array_equal(got @ F, want @ F)


@pytest.mark.parametrize("shuffled", [False, True])
def test_transposed_csr_with_equals_validated_transpose(shuffled):
    obs = _entries(40, 30, 500, 6, shuffled)
    v = np.random.default_rng(7).standard_normal(obs.nnz)
    built = SparseObservations(obs.cols, obs.rows, obs.col, obs.row, v)
    F = np.random.default_rng(8).standard_normal((obs.rows, 4))
    got = obs.csr_with(v).T
    assert got.shape == (obs.cols, obs.rows)
    assert np.array_equal(got @ F, built.csr() @ F)
    assert np.array_equal(got @ F[:, 0], built.csr() @ F[:, 0])
    assert np.array_equal(got.toarray(), built.csr().toarray())


@pytest.mark.parametrize("shuffled", [False, True])
def test_csr_data_is_read_only(shuffled):
    obs = _entries(10, 12, 40, 9, shuffled)
    before = obs.vals.copy()
    for mat in (obs.csr(), obs.csr().T):
        with pytest.raises(ValueError):
            mat.data[0] = 123.0
    assert np.array_equal(obs.vals, before)


def test_csr_skeleton_shared_and_sorted_once(monkeypatch):
    # a shuffled set is sorted once, when it is built; a solve above the
    # dense cap, where gradients and refits read the skeleton, sorts nothing
    calls = []

    def counting(name):
        sort = getattr(np, name)

        def counted(a, *args, **kwargs):
            calls.append((name, np.size(a)))
            return sort(a, *args, **kwargs)
        return counted

    monkeypatch.setattr(np, "argsort", counting("argsort"))
    in_order = _entries(300, 250, 7500, 10, shuffled=False)
    assert calls == []
    shuffled = _entries(300, 250, 7500, 10, shuffled=True)
    assert calls == [("argsort", shuffled.nnz)]
    assert in_order.rows * in_order.cols > _DENSE_CELLS
    calls.clear()
    for name in ("sort", "lexsort"):
        monkeypatch.setattr(np, name, counting(name))
    config = lowrank.SolverConfig(target_rank=4, seed=1)
    for obs in (in_order, shuffled):
        lowrank.fast_greedy(lowrank.ObservedQuadratic(obs), config)
        assert "_skeleton" in vars(obs)
    assert calls == []


def test_small_set_solve_builds_no_sparse_matrix(monkeypatch):
    # under the dense cap gradients, predictions and refits stay dense
    calls = []
    csr_with = SparseObservations.csr_with

    def counting(self, vals):
        calls.append(self.shape)
        return csr_with(self, vals)

    monkeypatch.setattr(SparseObservations, "csr_with", counting)
    for shuffled in (False, True):
        obs = _entries(100, 100, 2000, 12, shuffled)
        config = lowrank.SolverConfig(target_rank=5, seed=2)
        lowrank.fast_local_search(lowrank.ObservedQuadratic(obs), config)
        lowrank.fast_local_search(lowrank.ClippedObservedQuadratic(obs, -1.0, 1.0), config)
        assert "_skeleton" not in vars(obs) and "pattern" not in vars(obs)
    assert calls == []


def test_fill_floor_keeps_sparse_sets_on_the_gather_and_csr_kernels():
    # under the dense cap but below 1 / _DENSE_FILL observed, predictions
    # gather the entries and gradients are CSR matrices, as above the cap
    m, n = 200, 160
    floor = m * n // _DENSE_FILL
    assert fits_dense((m, n), floor) and not fits_dense((m, n), floor - 1)
    obs = _entries(m, n, floor - 1, 5, shuffled=True)
    rng = np.random.default_rng(5)
    pair = FactorPair(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    want = np.einsum("ij,ij->i", pair.U[obs.row], pair.V[obs.col])
    assert np.array_equal(project_observed(pair, obs), want)
    g = lowrank.ObservedQuadratic(obs).gradient(pair)
    assert sp.issparse(g) and g.format == "csr"


def _lexsort_skeleton(m, row, col, vals):
    """(indptr, indices, data) of the CSR matrix, from a (row, col) lexsort."""
    perm = np.lexsort((col, row))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=m))])
    return indptr, col[perm], vals[perm]


@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 49),
       st.sampled_from(["sorted", "shuffled", "duplicated"]),
       st.integers(0, 2 ** 32 - 1))
@example(3, 4, 0, "sorted", 0)       # empty set
@example(3, 4, 1, "shuffled", 0)     # one entry
@example(1, 7, 5, "shuffled", 1)     # 1 x n
@example(7, 1, 3, "duplicated", 2)   # m x 1
def test_constructor_and_skeleton_match_unique_and_lexsort(m, n, nnz, kind, seed):
    """The constructor accepts what the np.unique size check accepted, names
    the first repeated cell otherwise, and both orientations' matrices hold
    the arrays of a (row, col) lexsort build."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(m * n, size=min(nnz, m * n), replace=False)
    if kind == "sorted":
        flat = np.sort(flat)
    elif kind == "duplicated" and flat.size:
        flat = np.insert(flat, rng.integers(flat.size + 1),
                         flat[rng.integers(flat.size)])
        if rng.random() < 0.5:
            flat = np.sort(flat)
    row, col = flat // n, flat % n
    vals = rng.standard_normal(flat.size)
    if np.unique(flat).size != flat.size:
        with pytest.raises(DuplicateEntryError) as info:
            SparseObservations(m, n, row, col, vals)
        uniq, counts = np.unique(flat, return_counts=True)
        assert info.value.cell == divmod(int(uniq[counts > 1][0]), n)
        return
    obs = SparseObservations(m, n, row, col, vals)
    want = _lexsort_skeleton(m, row, col, vals)
    for mat in (obs.csr(), obs.csr().T):
        for got, ref in zip((mat.indptr, mat.indices, mat.data), want):
            assert np.array_equal(got, ref)


def test_shuffled_set_builds_without_unique_or_lexsort(monkeypatch):
    rng = np.random.default_rng(11)
    flat = rng.choice(300 * 200, size=5000, replace=False)
    row, col, vals = flat // 200, flat % 200, rng.standard_normal(flat.size)

    def fail(*args, **kwargs):
        raise AssertionError("hash unique or lexsort called")

    monkeypatch.setattr(np, "unique", fail)
    monkeypatch.setattr(np, "lexsort", fail)
    obs = SparseObservations(300, 200, row, col, vals)
    assert obs.csr().has_sorted_indices and obs.csr().T.nnz == 5000


def test_factor_pair_append_and_rank():
    pair = FactorPair.empty(3, 4)
    assert pair.rank == 0
    assert np.allclose(pair.matrix(), 0)
    pair = pair.append(np.ones(3), np.ones(4))
    assert pair.rank == 1
    assert np.allclose(pair.matrix(), 1.0)
    with pytest.raises(ValueError, match="same number of columns"):
        FactorPair(np.zeros((3, 2)), np.zeros((4, 1)))
    for U, V in ((np.zeros(3), np.zeros((4, 1))), (np.zeros((3, 1)), np.zeros(4)),
                 (np.zeros((3, 1, 1)), np.zeros((4, 1)))):
        with pytest.raises(ValueError, match="factors must be 2-d"):
            FactorPair(U, V)


# ---------------------------------------------------- top singular triplet
# Matrices with at most 65536 cells or a side of 1 take the Gram path; the
# Krylov path (Lanczos on the smaller Gram operator) is exercised on larger
# matrices with both sides at least 2.

def _sparse_op_set(m, n, seed, density=0.3):
    """A random observed set around a rank-1 spike, and its dense copy."""
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((m, n)) + 0.5 * np.outer(rng.standard_normal(m),
                                                        rng.standard_normal(n))
    keep = np.flatnonzero(rng.random(m * n) < density)
    obs = SparseObservations(m, n, keep // n, keep % n, full.ravel()[keep])
    dense = np.zeros((m, n))
    dense[obs.row, obs.col] = obs.vals
    return obs, dense


def _path_sentinel(monkeypatch):
    """Record (path, matrix type, shape) for every `_gram_triplet` and
    `_krylov_triplet` call."""
    seen = []
    for path in ("gram", "krylov"):
        def recording(g, *args, _path=path, _fn=getattr(lowrank.linalg, f"_{path}_triplet")):
            seen.append((_path, type(g), g.shape))
            return _fn(g, *args)
        monkeypatch.setattr(lowrank.linalg, f"_{path}_triplet", recording)
    return seen


def _assert_matches_svd(trip, a, scale=1.0, tol=1e-12):
    """trip is the top triplet of scale * a, by the LAPACK SVD of a."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    i = int(np.argmax(np.abs(trip.u)))
    assert trip.u[i] >= 0
    assert trip.sigma == pytest.approx(scale * s[0], rel=tol)
    assert abs(abs(trip.u @ u[:, 0]) - 1.0) < tol
    assert abs(abs(trip.v @ vt[0]) - 1.0) < tol
    assert np.linalg.norm(a @ trip.v - s[0] * trip.u) <= tol * s[0]
    assert np.linalg.norm(a.T @ trip.u - s[0] * trip.v) <= tol * s[0]


def test_top_triplet_rank_one():
    rng = np.random.default_rng(3)
    u0 = rng.standard_normal(5)
    u0 /= np.linalg.norm(u0)
    v0 = rng.standard_normal(4)
    v0 /= np.linalg.norm(v0)
    trip = top_singular_triplet(3.0 * np.outer(u0, v0), seed=1)
    assert trip.sigma == pytest.approx(3.0, rel=1e-12)
    # sign convention: largest-magnitude entry of u nonnegative
    i = np.argmax(np.abs(trip.u))
    assert trip.u[i] >= 0
    sign = np.sign(u0[i]) * np.sign(trip.u[i]) or 1.0
    assert np.allclose(trip.u, sign * u0, atol=1e-9)
    assert np.allclose(trip.v, sign * v0, atol=1e-9)


def test_exact_triplet_sign_convention_and_oracle():
    rng = np.random.default_rng(6)
    for shape in ((8, 6), (6, 8), (64, 200), (200, 64), (300, 260), (260, 300)):
        a = rng.standard_normal(shape)
        for flip in (1.0, -1.0):
            trip = top_singular_triplet(flip * a, seed=0)
            i = int(np.argmax(np.abs(trip.u)))
            assert trip.u[i] >= 0
            assert trip.sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
            assert np.allclose(flip * a @ trip.v, trip.sigma * trip.u, atol=1e-10)
            assert np.allclose(flip * a.T @ trip.u, trip.sigma * trip.v, atol=1e-10)


def _oracle_inputs():
    """(name, matrix, path) cases for the SVD oracle: tall, wide, rank-1,
    rank-deficient, single row and single column, on both paths."""
    rng = np.random.default_rng(21)

    def low_rank(m, n, r):
        return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))

    return [
        ("tall", rng.standard_normal((120, 40)), "gram"),
        ("wide", rng.standard_normal((40, 120)), "gram"),
        ("tall", rng.standard_normal((400, 200)), "krylov"),
        ("wide", rng.standard_normal((200, 400)), "krylov"),
        ("rank-1", low_rank(90, 70, 1), "gram"),
        ("rank-1", low_rank(400, 300, 1), "krylov"),
        ("rank-deficient", low_rank(90, 70, 3), "gram"),
        ("rank-deficient", low_rank(300, 400, 3), "krylov"),
        ("1 x N", rng.standard_normal((1, 70000)), "gram"),
        ("N x 1", rng.standard_normal((70000, 1)), "gram"),
        ("N x 1 CSR", sp.random(70000, 1, density=0.1, format="csr", rng=rng), "gram"),
    ]


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_top_triplet_matches_svd_on_both_paths(scale, monkeypatch):
    seen = _path_sentinel(monkeypatch)
    for name, a, path in _oracle_inputs():
        trip = top_singular_triplet(a * scale, seed=1)
        assert seen.pop()[0] == path and not seen, name
        assert np.isfinite(trip.sigma) and trip.sigma > 0.0, name
        dense = a.toarray() if sp.issparse(a) else a
        _assert_matches_svd(trip, dense, scale)


def test_exact_triplet_on_tall_and_wide_sparse_operators(monkeypatch):
    seen = _path_sentinel(monkeypatch)
    # at most 65536 cells: densified for the Gram path; above: CSR to the Krylov path
    for shape, path in (((1600, 40), "gram"), ((40, 1600), "gram"),
                        ((2000, 40), "krylov"), ((40, 2000), "krylov")):
        obs, dense = _sparse_op_set(*shape, seed=4, density=0.05)
        assert (obs.rows * obs.cols <= _DENSE_CELLS) == (path == "gram")
        trip = top_singular_triplet(obs.csr(), seed=0)
        kind = np.ndarray if path == "gram" else sp.csr_matrix
        assert seen.pop() == (path, kind, shape) and not seen
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        assert trip.sigma == pytest.approx(s[0], rel=1e-12)
        assert abs(abs(trip.u @ u[:, 0]) - 1.0) < 1e-12
        assert abs(abs(trip.v @ vt[0]) - 1.0) < 1e-12


def test_tall_operator_above_cell_cap_takes_krylov_path(monkeypatch):
    # a short side of 40 but more than 65536 cells: no dense copy
    m, n = _DENSE_CELLS // 40 + 1, 40
    sigmas = np.r_[10.0, np.linspace(1.0, 0.1, n - 1)]
    obs = SparseObservations(m, n, np.arange(n) * 40, np.arange(n), sigmas)
    seen = _path_sentinel(monkeypatch)

    def no_dense(self, *args, **kwargs):
        raise AssertionError("densified above the cell cap")

    monkeypatch.setattr(sp.csr_matrix, "toarray", no_dense)
    trip = top_singular_triplet(obs.csr(), seed=0)
    assert seen == [("krylov", sp.csr_matrix, (m, n))]
    assert trip.sigma == pytest.approx(10.0, rel=1e-12)
    assert np.allclose(np.abs(trip.v), np.eye(n)[0], atol=1e-12)
    assert np.allclose(np.abs(trip.u), np.eye(m)[0], atol=1e-12)


def test_top_triplet_zero_operator():
    for m, n in ((3, 4), (300, 260), (1, 70000)):  # Gram, Krylov, Gram
        for g in (np.zeros((m, n)), sp.csr_matrix((m, n)),
                  sp.csr_matrix((np.zeros(2), ([0, 0], [0, 1])), shape=(m, n))):
            trip = top_singular_triplet(g, seed=5)
            assert trip.sigma == 0.0
            assert np.array_equal(trip.u, np.eye(1, m)[0])
            assert np.array_equal(trip.v, np.eye(1, n)[0])


def test_top_triplet_rejects_an_empty_side():
    for shape in ((0, 4), (4, 0), (0, 0)):
        for g in (np.zeros(shape), sp.csr_matrix(shape)):
            with pytest.raises(ValueError, match="matrix must have positive dimensions"):
                top_singular_triplet(g)


def test_top_triplet_non_finite_raises():
    for n in (3, 300):  # Gram path, Krylov path
        for bad in (np.inf, -np.inf, np.nan):
            a = np.ones((n, n))
            a[1, 2] = bad
            for g in (a, sp.csr_matrix(a)):
                with pytest.raises(ValueError, match="non-finite"):
                    top_singular_triplet(g, seed=0)


def test_top_triplet_diagonal():
    trip = top_singular_triplet(np.diag([2.0, 1.0]), seed=0)
    assert trip.sigma == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(np.abs(trip.u), [1, 0], atol=1e-10)
    assert np.allclose(trip.u, trip.v, atol=1e-10)
    for m, n in ((70, 80), (300, 260)):  # Gram path, Krylov path
        d = np.zeros((m, n))
        k = min(m, n)
        d[np.arange(k), np.arange(k)] = np.r_[1.0, 2.0, np.linspace(1.0, 0.1, k - 2)]
        trip = top_singular_triplet(d, seed=0)
        assert trip.sigma == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(np.abs(trip.u), np.eye(m)[1], atol=1e-12)
        assert np.allclose(np.abs(trip.v), np.eye(n)[1], atol=1e-12)
        assert trip.u[1] > 0 and trip.v[1] > 0


def test_top_triplet_matches_svd_oracle():
    obs, dense = _sparse_op_set(300, 260, seed=7)
    assert obs.rows * obs.cols > _DENSE_CELLS  # CSR-backed, not densified
    u, s, vt = np.linalg.svd(dense)
    trip = top_singular_triplet(obs.csr(), seed=2)
    assert trip.sigma == pytest.approx(s[0], rel=1e-6)
    # subspace angle, sign-insensitive
    assert abs(abs(trip.u @ u[:, 0]) - 1.0) < 1e-4
    assert abs(abs(trip.v @ vt[0]) - 1.0) < 1e-4


def test_top_triplet_residual_invariant():
    # ||G^T u - sigma v|| small after convergence on gapped instances
    rng = np.random.default_rng(11)
    for k in range(5):
        q1, _ = np.linalg.qr(rng.standard_normal((90, 90)))
        q2, _ = np.linalg.qr(rng.standard_normal((70, 70)))
        s = np.r_[2.2, 2.0, np.linspace(1.4, 0.1, 68)]  # gap 1.1
        a = q1[:, :70] @ np.diag(s) @ q2
        trip = top_singular_triplet(a, seed=k)
        assert np.linalg.norm(a @ trip.v - trip.sigma * trip.u) <= 1e-4 * trip.sigma
        assert np.linalg.norm(a.T @ trip.u - trip.sigma * trip.v) <= 1e-4 * trip.sigma


def test_top_triplet_residual_at_small_gap():
    # sigma_2 / sigma_1 = 0.999 on the Krylov path: the residual, not the
    # drift in sigma, decides convergence
    rng = np.random.default_rng(13)
    q1, _ = np.linalg.qr(rng.standard_normal((300, 260)))
    q2, _ = np.linalg.qr(rng.standard_normal((260, 260)))
    s = np.r_[1.0, 0.999, np.linspace(0.9, 0.1, 258)]
    a = (q1 * s) @ q2
    for seed in range(3):
        trip = top_singular_triplet(a, seed=seed)
        assert trip.sigma == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(a @ trip.v - trip.sigma * trip.u) <= 1e-12 * trip.sigma
        assert np.linalg.norm(a.T @ trip.u - trip.sigma * trip.v) <= 1e-12 * trip.sigma
        assert abs(abs(trip.v @ q2[0]) - 1.0) < 1e-10


def test_top_triplet_deterministic():
    rng = np.random.default_rng(9)
    for shape in ((80, 70), (300, 260)):  # Gram path, Krylov path
        a = rng.standard_normal(shape)
        for g in (a, sp.csr_matrix(a)):
            t1 = top_singular_triplet(g, seed=42)
            t2 = top_singular_triplet(g, seed=42)
            assert t1.sigma == t2.sigma
            assert np.array_equal(t1.u, t2.u)
            assert np.array_equal(t1.v, t2.v)
        # CSR and CSC give the same sums on the Krylov path too
        t3 = top_singular_triplet(sp.csc_matrix(a), seed=42)
        assert t3.sigma == t1.sigma
        assert np.array_equal(t3.u, t1.u) and np.array_equal(t3.v, t1.v)


def test_top_triplet_threads_match_serial():
    # callers may run the Krylov path from their own threads at once
    rng = np.random.default_rng(17)
    mats = [sp.random(400, 300, density=0.2, format="csr", rng=rng) for _ in range(8)]
    serial = [top_singular_triplet(g, seed=k) for k, g in enumerate(mats)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(top_singular_triplet, mats, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert a.sigma == b.sigma
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def _small_gap_matrix():
    """The 300 x 260 instance of `test_top_triplet_residual_at_small_gap`."""
    rng = np.random.default_rng(13)
    q1, _ = np.linalg.qr(rng.standard_normal((300, 260)))
    q2, _ = np.linalg.qr(rng.standard_normal((260, 260)))
    return (q1 * np.r_[1.0, 0.999, np.linspace(0.9, 0.1, 258)]) @ q2


def _counting_ritz_solves(monkeypatch):
    """Count the Krylov path's steps (one tridiagonal solve each)."""
    calls = []
    solve = lowrank.linalg._top_tridiagonal_pair

    def counting(d, e):
        calls.append(d.size)
        return solve(d, e)

    monkeypatch.setattr(lowrank.linalg, "_top_tridiagonal_pair", counting)
    return calls


def _noise(m, n, nnz, seed):
    """An m x n CSR matrix of `nnz` Gaussian entries at distinct random cells:
    its top singular values cluster, so the Krylov path takes many steps."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(m * n, size=nnz, replace=False)
    return sp.csr_matrix((rng.standard_normal(flat.size), (flat // n, flat % n)),
                         shape=(m, n))


def test_krylov_basis_growth_changes_no_bit(monkeypatch):
    # the first allocation only sizes memory: started at 1, 2 or 16 vectors
    # and doubled when full, every run gives the default's bits in one run
    # of the same steps (the 0.999-gap instance takes 47-49, the noise 70-79)
    cases = [(_small_gap_matrix(), seed) for seed in range(2)]
    cases += [(_noise(300, 500, 30_000, seed), seed) for seed in range(2)]
    steps = _counting_ritz_solves(monkeypatch)
    for g, seed in cases:
        runs = {}
        for rows in (_KRYLOV_BASIS, 1, 2, 16):
            monkeypatch.setattr(lowrank.linalg, "_KRYLOV_BASIS", rows)
            steps.clear()
            trip = top_singular_triplet(g, seed=seed)
            assert steps == list(range(1, len(steps) + 1)), (rows, seed)
            runs[rows] = (len(steps), trip.sigma, trip.u, trip.v)
        count, sigma, u, v = runs.pop(_KRYLOV_BASIS)
        for rows, got in runs.items():
            assert got[:2] == (count, sigma), (rows, seed)
            assert np.array_equal(got[2], u) and np.array_equal(got[3], v), (rows, seed)


def test_krylov_runs_once_past_the_first_basis_on_noise(monkeypatch):
    # Gaussian noise clusters the top singular values: these calls take
    # 70 and 79 steps, one Lanczos run through the basis doubling, to the
    # 1e-12 oracle
    steps = _counting_ritz_solves(monkeypatch)
    for seed in range(2):
        g = _noise(300, 500, 30_000, seed)
        steps.clear()
        trip = top_singular_triplet(g, seed=seed)
        assert len(steps) > _KRYLOV_BASIS, seed
        assert steps == list(range(1, len(steps) + 1)), seed
        _assert_matches_svd(trip, g.toarray())


@pytest.mark.parametrize("n", [2, 5, 40])
def test_krylov_returns_the_exact_pair_at_the_dimension(n, monkeypatch):
    # with no residual test that can pass, the run ends at step n, where the
    # basis spans the space; sigma_2 = (1 - 1e-9) sigma_1 on the Krylov path
    rng = np.random.default_rng(n)
    m = _DENSE_CELLS // n + 1
    q1, _ = np.linalg.qr(rng.standard_normal((m, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q1 * np.r_[1.0, 1.0 - 1e-9, np.linspace(0.9, 0.1, n - 2)]) @ q2
    monkeypatch.setattr(lowrank.linalg, "_EPS", 0.0)
    seen = _path_sentinel(monkeypatch)
    steps = _counting_ritz_solves(monkeypatch)
    trip = top_singular_triplet(a, seed=0)
    assert seen == [("krylov", np.ndarray, (m, n))]
    assert steps == list(range(1, n + 1))
    _assert_matches_svd(trip, a)


def test_krylov_path_copies_nothing_of_matrix_size():
    # no scaled copy, no transposed copy, no |g| temporary: the call allocates
    # vectors and one basis of `_KRYLOV_BASIS` vectors on the smaller side
    # (here 0.5 MB; a second basis on the other side would exceed the bound)
    rng = np.random.default_rng(23)
    g = sp.random(1000, 1000, density=0.5, format="csr", rng=rng)
    for a in (g, g.tocsc(), g.toarray()):
        top_singular_triplet(a, seed=0)
        tracemalloc.start()
        try:
            top_singular_triplet(a, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * _KRYLOV_BASIS * min(g.shape) * 8, (type(a), peak)


def test_krylov_basis_grows_with_the_steps_taken(monkeypatch):
    # noise takes more steps than the first allocation holds: the basis
    # doubles as it fills, so the peak (old and new basis during the copy)
    # stays within 3 x max(first allocation, steps) vectors of the smaller
    # side, well under the n x n of a basis sized for the worst case
    g = _noise(943, 1682, 100_000, 0)
    n = min(g.shape)
    steps = _counting_ritz_solves(monkeypatch)
    top_singular_triplet(g, seed=0)
    steps.clear()
    tracemalloc.start()
    try:
        top_singular_triplet(g, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(steps) > _KRYLOV_BASIS
    assert peak < 1.25 * 3 * max(_KRYLOV_BASIS, len(steps)) * n * 8 < n * n * 8, peak


def test_hr_optimality_quick():
    # value at H_r(A)/lam is maximal over random rank-r candidates
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 6))
    lam = 0.7
    r = 2
    best = top_r_svd(a, r)
    m_star = best.matrix() / lam

    def val(mat):
        return float(np.sum(a * mat)) - 0.5 * lam * float(np.sum(mat * mat))

    v_star = val(m_star)
    for _ in range(200):
        cand = rng.standard_normal((8, r)) @ rng.standard_normal((r, 6))
        cand *= rng.uniform(0.1, 3.0) * np.linalg.norm(m_star) / np.linalg.norm(cand)
        assert val(cand) <= v_star + 1e-9


# ---------------------------------------------------------------- projection

def test_project_observed_rank_zero():
    obs = SparseObservations(3, 3, [0, 1], [1, 2], [5.0, 6.0])
    assert np.array_equal(project_observed(FactorPair.empty(3, 3), obs), [0.0, 0.0])


def test_project_observed_all_ones():
    obs = SparseObservations(3, 4, [0, 2], [0, 3], [0.0, 0.0])
    pair = FactorPair(np.ones((3, 1)), np.ones((4, 1)))
    assert np.array_equal(project_observed(pair, obs), [1.0, 1.0])


def test_project_observed_dimension_mismatch():
    obs = SparseObservations(3, 4, [0], [0], [1.0])
    with pytest.raises(ValueError):
        project_observed(FactorPair.empty(3, 5), obs)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7), st.integers(1, 7),
       st.integers(0, 4))
def test_project_observed_matches_dense(seed, m, n, r):
    rng = np.random.default_rng(seed)
    pair = FactorPair(rng.standard_normal((m, r)), rng.standard_normal((n, r)))
    keep = rng.random(m * n) < 0.5
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return
    obs = SparseObservations(m, n, idx // n, idx % n, np.zeros(idx.size))
    dense = pair.matrix()
    expect = dense[obs.row, obs.col]
    assert np.allclose(project_observed(pair, obs), expect, atol=1e-12, rtol=0)


@pytest.mark.parametrize("r", [1, 5, 30])
@pytest.mark.parametrize("nnz", [0, 1, 4095, 4096, 4097, 12295])
def test_project_observed_blocks_match_one_gather_exactly(nnz, r):
    # the blocked gather runs above the dense cap (and below its fill floor);
    # at r = 30 these sizes span several blocks, the last one partial
    obs = _entries(300, 250, nnz, nnz + r, shuffled=True)
    rng = np.random.default_rng(r)
    pair = FactorPair(rng.standard_normal((300, r)), rng.standard_normal((250, r)))
    want = np.einsum("ij,ij->i", pair.U[obs.row], pair.V[obs.col])
    assert np.array_equal(project_observed(pair, obs), want)


@pytest.mark.parametrize("r", [1, 3, 5, 30, 100])
def test_project_observed_matches_one_gather_at_each_ranks_block_edges(r):
    # a block holds _BLOCK_CELLS // r entries: one short, exact, one over,
    # and three blocks and a partial fourth
    block = _BLOCK_CELLS // r
    rng = np.random.default_rng(r)
    pair = FactorPair(rng.standard_normal((400, r)), rng.standard_normal((300, r)))
    for nnz in (block - 1, block, block + 1, 3 * block + 7):
        obs = _entries(400, 300, nnz, nnz + r, shuffled=True)
        want = np.einsum("ij,ij->i", pair.U[obs.row], pair.V[obs.col])
        assert np.array_equal(project_observed(pair, obs), want)


def test_operator_from_observations_matches_dense():
    rng = np.random.default_rng(8)
    obs = SparseObservations(4, 5, [0, 1, 3], [2, 0, 4], [1.5, -2.0, 0.5])
    dense = np.zeros((4, 5))
    dense[obs.row, obs.col] = obs.vals
    x = rng.standard_normal(5)
    y = rng.standard_normal(4)
    for op in (obs.csr(), obs.csr().T.T):
        assert np.allclose(op @ x, dense @ x, atol=1e-12)
        assert np.allclose(op.T @ y, dense.T @ y, atol=1e-12)


@pytest.mark.parametrize("shape", [(30, 50), (50, 30), (200, 300), (1600, 40)])
def test_triplet_identical_for_csr_csc_and_dense(shape, monkeypatch):
    # all at most 65536 cells: densified in C order for the Gram path
    obs, dense = _sparse_op_set(*shape, seed=sum(shape), density=0.2)
    assert obs.rows * obs.cols <= _DENSE_CELLS
    seen = _path_sentinel(monkeypatch)
    csr = obs.csr()
    trips = [top_singular_triplet(g, seed=3) for g in (csr, csr.tocsc(), dense)]
    assert seen == [("gram", np.ndarray, shape)] * 3
    for trip in trips[1:]:
        assert trip.sigma == trips[0].sigma
        assert np.array_equal(trip.u, trips[0].u) and np.array_equal(trip.v, trips[0].v)
