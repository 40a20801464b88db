import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import lowrank
from lowrank.linalg import (_DENSIFY_CELLS, _EXACT_CELLS, _GATHER_BLOCK, FactorPair,
                            SparseObservations, project_observed,
                            svd_threshold, top_singular_triplet)

from conftest import full_observations


# ---------------------------------------------------------------- containers

def test_sparse_observations_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        SparseObservations(2, 2, [0, 0], [1, 1], [1.0, 2.0])


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
        with pytest.raises(ValueError, match="rows and cols"):
            SparseObservations(rows, cols, [], [], [])
    assert SparseObservations(0, 0, [], [], []).nnz == 0


def test_sparse_observations_rejects_non_finite():
    with pytest.raises(ValueError):
        SparseObservations(2, 2, [0], [0], [np.nan])


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
    obs = _scrambled_set()
    t = obs.transpose
    built = SparseObservations(obs.cols, obs.rows, obs.col, obs.row, obs.vals)
    assert (t.rows, t.cols) == (built.rows, built.cols)
    for name in ("row", "col", "vals"):
        got, want = getattr(t, name), getattr(built, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(t.csr().toarray(), built.csr().toarray())
    assert np.array_equal(t.csr().toarray(), obs.csr().toarray().T)


def test_derived_sets_skip_validation(monkeypatch):
    obs = _scrambled_set(seed=2)

    def fail(self):
        raise AssertionError("derived set re-validated")

    monkeypatch.setattr(SparseObservations, "__post_init__", fail)
    assert obs.transpose.row is obs.col
    assert obs.transpose.transpose.csr().format == "csr"
    taken = obs._take(np.arange(obs.nnz)[::-1])
    assert np.array_equal(taken.csr().toarray(), obs.csr().toarray())

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
    got = obs.transpose.csr_with(v)
    assert got.shape == (obs.cols, obs.rows)
    assert np.array_equal(got @ F, built.csr() @ F)
    assert np.array_equal(got @ F[:, 0], built.csr() @ F[:, 0])
    assert np.array_equal(got.toarray(), built.csr().toarray())


@pytest.mark.parametrize("shuffled", [False, True])
def test_csr_data_is_read_only(shuffled):
    obs = _entries(10, 12, 40, 9, shuffled)
    before = obs.vals.copy()
    for mat in (obs.csr(), obs.transpose.csr()):
        with pytest.raises(ValueError):
            mat.data[0] = 123.0
    assert np.array_equal(obs.vals, before)


def test_csr_skeleton_shared_and_sorted_once(monkeypatch):
    calls = []
    lexsort = np.lexsort

    def counting(keys):
        calls.append(len(keys[0]))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", counting)
    in_order = _entries(60, 50, 900, 10, shuffled=False)
    shuffled = _entries(60, 50, 900, 10, shuffled=True)
    config = lowrank.SolverConfig(target_rank=4, seed=1)
    lowrank.fast_greedy(lowrank.ObservedQuadratic(in_order), config)
    assert calls == []
    lowrank.fast_greedy(lowrank.ObservedQuadratic(shuffled), config)
    assert calls == [shuffled.nnz]


def test_factor_pair_append_and_rank():
    pair = FactorPair.empty(3, 4)
    assert pair.rank == 0
    assert np.allclose(pair.matrix(), 0)
    pair = pair.append(np.ones(3), np.ones(4))
    assert pair.rank == 1
    assert np.allclose(pair.matrix(), 1.0)
    with pytest.raises(ValueError):
        FactorPair(np.zeros((3, 2)), np.zeros((4, 1)))


# ---------------------------------------------------- top singular triplet
# Matrices with a side of at most 64 take the exact LAPACK path; the power
# path is exercised on matrices with both sides above 64.

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
    for shape in ((8, 6), (6, 8), (64, 200), (200, 64)):
        a = rng.standard_normal(shape)
        for flip in (1.0, -1.0):
            trip = top_singular_triplet(flip * a, seed=0)
            i = int(np.argmax(np.abs(trip.u)))
            assert trip.u[i] >= 0 and trip.converged
            assert trip.sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
            assert np.allclose(flip * a @ trip.v, trip.sigma * trip.u, atol=1e-10)
            assert np.allclose(flip * a.T @ trip.u, trip.sigma * trip.v, atol=1e-10)


def _path_sentinel(monkeypatch):
    """Record the dense matrices `_exact_triplet` decomposes."""
    seen = []
    exact = lowrank.linalg._exact_triplet

    def recording(a):
        seen.append((type(a), a.shape))
        return exact(a)

    monkeypatch.setattr(lowrank.linalg, "_exact_triplet", recording)
    return seen


def test_exact_triplet_on_tall_and_wide_sparse_operators(monkeypatch):
    seen = _path_sentinel(monkeypatch)
    for shape in ((2000, 40), (40, 2000)):
        obs, dense = _sparse_op_set(*shape, seed=4, density=0.05)
        assert obs.rows * obs.cols > _DENSIFY_CELLS  # densified for the exact path only
        trip = top_singular_triplet(obs.csr(), seed=0)
        assert seen.pop() == (np.ndarray, shape) and not seen
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        assert trip.converged
        assert trip.sigma == pytest.approx(s[0], rel=1e-12)
        assert abs(abs(trip.u @ u[:, 0]) - 1.0) < 1e-12
        assert abs(abs(trip.v @ vt[0]) - 1.0) < 1e-12


def test_tall_operator_above_cell_cap_takes_power_path(monkeypatch):
    # a short side of 40 but more than 2^20 cells: no dense copy
    m, n = _EXACT_CELLS // 40 + 1, 40
    sigmas = np.r_[10.0, np.linspace(1.0, 0.1, n - 1)]
    obs = SparseObservations(m, n, np.arange(n) * 600, np.arange(n), sigmas)
    seen = _path_sentinel(monkeypatch)

    def no_dense(self, *args, **kwargs):
        raise AssertionError("densified above the cell cap")

    monkeypatch.setattr(sp.csr_matrix, "toarray", no_dense)
    trip = top_singular_triplet(obs.csr(), seed=0)
    assert seen == []
    assert trip.converged
    assert trip.sigma == pytest.approx(10.0, rel=1e-9)
    assert np.allclose(np.abs(trip.v), np.eye(n)[0], atol=1e-4)


def test_top_triplet_zero_operator():
    for m, n in ((3, 4), (70, 80)):  # exact path, power path
        trip = top_singular_triplet(np.zeros((m, n)), seed=5)
        assert trip.sigma == 0.0
        assert np.array_equal(trip.u, np.eye(m)[0])
        assert np.array_equal(trip.v, np.eye(n)[0])
        assert trip.converged


def test_top_triplet_non_finite_raises():
    for n in (3, 70):  # exact path, power path
        a = np.full((n, n), np.inf)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            top_singular_triplet(a, seed=0)


def test_top_triplet_diagonal():
    trip = top_singular_triplet(np.diag([2.0, 1.0]), seed=0)
    assert trip.sigma == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(np.abs(trip.u), [1, 0], atol=1e-10)
    assert np.allclose(trip.u, trip.v, atol=1e-10)
    # the power path stops once sigma settles to 1e-9, before the vectors do
    d = np.zeros((70, 80))
    d[np.arange(70), np.arange(70)] = np.r_[1.0, 2.0, np.linspace(1.0, 0.1, 68)]
    trip = top_singular_triplet(d, seed=0)
    assert trip.converged
    assert trip.sigma == pytest.approx(2.0, rel=1e-9)
    assert np.allclose(np.abs(trip.u), np.eye(70)[1], atol=1e-4)
    assert np.allclose(np.abs(trip.v), np.eye(80)[1], atol=1e-4)
    assert trip.u[1] > 0 and trip.v[1] > 0


def test_top_triplet_matches_svd_oracle():
    obs, dense = _sparse_op_set(300, 260, seed=7)
    assert obs.rows * obs.cols > _DENSIFY_CELLS  # CSR-backed, not densified
    u, s, vt = np.linalg.svd(dense)
    trip = top_singular_triplet(obs.csr(), seed=2)
    assert trip.converged
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


def test_top_triplet_deterministic():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((80, 70))
    t1 = top_singular_triplet(a, seed=42)
    t2 = top_singular_triplet(a, seed=42)
    assert t1.sigma == t2.sigma
    assert np.array_equal(t1.u, t2.u)
    assert np.array_equal(t1.v, t2.v)
    assert t1.converged == t2.converged


# ------------------------------------------------------------ svd threshold

def test_svd_threshold_diagonal():
    pair, vals = svd_threshold(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(pair.matrix(), np.diag([3.0, 2.0, 0.0]), atol=1e-12)
    assert np.allclose(vals, [3.0, 2.0])


def test_svd_threshold_identity_when_r_exceeds_rank():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
    pair, _ = svd_threshold(a, 4)
    assert np.allclose(pair.matrix(), a, atol=1e-10)


def test_svd_threshold_error_matches_tail():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((10, 7))
    s = np.linalg.svd(a, compute_uv=False)
    pair, _ = svd_threshold(a, 3)
    err = np.linalg.norm(a - pair.matrix())
    assert err == pytest.approx(np.sqrt((s[3:] ** 2).sum()), abs=1e-8)


def test_svd_threshold_rank_zero():
    pair, vals = svd_threshold(np.eye(3), 0)
    assert pair.rank == 0
    assert vals.size == 0


def test_hr_optimality_quick():
    # value at H_r(A)/lam is maximal over random rank-r candidates
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 6))
    lam = 0.7
    r = 2
    best, _ = svd_threshold(a, r)
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
@pytest.mark.parametrize("nnz", [0, 1, _GATHER_BLOCK - 1, _GATHER_BLOCK,
                                 _GATHER_BLOCK + 1, 3 * _GATHER_BLOCK + 7])
def test_project_observed_blocks_match_one_gather_exactly(nnz, r):
    obs = _entries(150, 110, nnz, nnz + r, shuffled=True)
    rng = np.random.default_rng(r)
    pair = FactorPair(rng.standard_normal((150, r)), rng.standard_normal((110, r)))
    want = np.einsum("ij,ij->i", pair.U[obs.row], pair.V[obs.col])
    assert np.array_equal(project_observed(pair, obs), want)


def test_operator_from_observations_matches_dense():
    rng = np.random.default_rng(8)
    obs = SparseObservations(4, 5, [0, 1, 3], [2, 0, 4], [1.5, -2.0, 0.5])
    dense = np.zeros((4, 5))
    dense[obs.row, obs.col] = obs.vals
    x = rng.standard_normal(5)
    y = rng.standard_normal(4)
    for op in (obs.csr(), obs.transpose.csr().T):
        assert np.allclose(op @ x, dense @ x, atol=1e-12)
        assert np.allclose(op.T @ y, dense.T @ y, atol=1e-12)


@pytest.mark.parametrize("shape", [(30, 50), (50, 30), (200, 300), (2000, 40)])
def test_triplet_identical_for_csr_csc_and_dense(shape, monkeypatch):
    # (30, 50), (50, 30), (2000, 40): exact path; (200, 300): densified power path
    obs, dense = _sparse_op_set(*shape, seed=sum(shape), density=0.2)
    exact = min(shape) <= 64
    assert exact or obs.rows * obs.cols <= _DENSIFY_CELLS
    seen = _path_sentinel(monkeypatch)
    csr = obs.csr()
    trips = [top_singular_triplet(g, seed=3) for g in (csr, csr.tocsc(), dense)]
    assert len(seen) == (3 if exact else 0)
    for trip in trips[1:]:
        assert trip.sigma == trips[0].sigma and trip.converged == trips[0].converged
        assert np.array_equal(trip.u, trips[0].u) and np.array_equal(trip.v, trips[0].v)
