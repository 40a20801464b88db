import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowrank.linalg import (FactorPair, LinearOp, SparseObservations,
                            project_observed, svd_threshold,
                            top_singular_triplet)

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
    # a value swap on the shared support keeps entry order
    other = obs.with_vals(2.0 * obs.vals)
    assert np.array_equal(other.csr().toarray(), 2.0 * dense)



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


def test_with_vals_transpose_carries_new_values():
    obs = _scrambled_set(seed=1)
    obs.transpose  # cache the parent's transpose first
    v = np.arange(obs.nnz, dtype=float) + 1.0
    t = obs.with_vals(v).transpose
    assert np.array_equal(t.vals, v)
    assert np.array_equal(t.csr().toarray(), obs.with_vals(v).csr().toarray().T)


def test_derived_sets_skip_validation(monkeypatch):
    obs = _scrambled_set(seed=2)

    def fail(self):
        raise AssertionError("derived set re-validated")

    monkeypatch.setattr(SparseObservations, "__post_init__", fail)
    assert obs.with_vals(-obs.vals).row is obs.row
    assert obs.transpose.row is obs.col
    with pytest.raises(ValueError, match="length"):
        obs.with_vals(obs.vals[:-1])

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

def test_top_triplet_diagonal():
    trip = top_singular_triplet(LinearOp.from_dense(np.diag([2.0, 1.0])), seed=0,
                                max_iters=400, tol=0.0)
    assert trip.sigma == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(np.abs(trip.u), [1, 0], atol=1e-10)
    assert np.allclose(trip.u, trip.v, atol=1e-10)


def test_top_triplet_rank_one():
    rng = np.random.default_rng(3)
    u0 = rng.standard_normal(5)
    u0 /= np.linalg.norm(u0)
    v0 = rng.standard_normal(4)
    v0 /= np.linalg.norm(v0)
    trip = top_singular_triplet(LinearOp.from_dense(3.0 * np.outer(u0, v0)), seed=1)
    assert trip.sigma == pytest.approx(3.0, rel=1e-12)
    # sign convention: largest-magnitude entry of u nonnegative
    i = np.argmax(np.abs(trip.u))
    assert trip.u[i] >= 0
    sign = np.sign(u0[i]) * np.sign(trip.u[i]) or 1.0
    assert np.allclose(trip.u, sign * u0, atol=1e-9)
    assert np.allclose(trip.v, sign * v0, atol=1e-9)


def test_top_triplet_matches_svd_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 6))
    u, s, vt = np.linalg.svd(a)
    trip = top_singular_triplet(LinearOp.from_dense(a), seed=2, max_iters=500, tol=1e-13)
    assert trip.sigma == pytest.approx(s[0], rel=1e-6)
    # subspace angle, sign-insensitive
    assert abs(abs(trip.u @ u[:, 0]) - 1.0) < 1e-4
    assert abs(abs(trip.v @ vt[0]) - 1.0) < 1e-4


def test_top_triplet_residual_invariant():
    # ||G^T u - sigma v|| small after convergence on gapped instances
    rng = np.random.default_rng(11)
    for k in range(5):
        q1, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        q2, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        s = np.array([2.2, 2.0, 1.4, 0.8, 0.5, 0.3, 0.1])  # gap 1.1
        a = q1[:, :7] @ np.diag(s) @ q2
        trip = top_singular_triplet(LinearOp.from_dense(a), seed=k)
        assert np.linalg.norm(a @ trip.v - trip.sigma * trip.u) <= 1e-4 * trip.sigma
        assert np.linalg.norm(a.T @ trip.u - trip.sigma * trip.v) <= 1e-4 * trip.sigma


def test_top_triplet_zero_operator():
    trip = top_singular_triplet(LinearOp.from_dense(np.zeros((3, 4))), seed=5)
    assert trip.sigma == 0.0
    assert np.array_equal(trip.u, [1, 0, 0])
    assert np.array_equal(trip.v, [1, 0, 0, 0])
    assert trip.converged


def test_top_triplet_deterministic():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 5))
    op = LinearOp.from_dense(a)
    t1 = top_singular_triplet(op, seed=42, max_iters=100, tol=1e-9)
    t2 = top_singular_triplet(op, seed=42, max_iters=100, tol=1e-9)
    assert t1.sigma == t2.sigma
    assert np.array_equal(t1.u, t2.u)
    assert np.array_equal(t1.v, t2.v)
    assert t1.converged == t2.converged


def test_top_triplet_non_finite_raises():
    a = np.full((3, 3), np.inf)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        top_singular_triplet(LinearOp.from_dense(a), seed=0)


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


def test_operator_from_observations_matches_dense():
    rng = np.random.default_rng(8)
    obs = SparseObservations(4, 5, [0, 1, 3], [2, 0, 4], [1.5, -2.0, 0.5])
    dense = np.zeros((4, 5))
    dense[obs.row, obs.col] = obs.vals
    op = LinearOp.from_observations(obs)
    x = rng.standard_normal(5)
    y = rng.standard_normal(4)
    assert np.allclose(op.matvec(x), dense @ x, atol=1e-12)
    assert np.allclose(op.rmatvec(y), dense.T @ y, atol=1e-12)
