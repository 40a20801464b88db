import sys
import threading

import numpy as np
import pytest

from lowrank import inner
from lowrank.inner import InnerConfig, optimize_fast, optimize_full
from lowrank.linalg import FactorPair, SparseObservations, fits_dense, project_observed
from lowrank.objectives import HuberLowRank, ObservedQuadratic

from conftest import dense_gradient, full_observations


def sparse_instance(seed, m=20, n=20, p=0.5):
    rng = np.random.default_rng(seed)
    keep = np.flatnonzero(rng.random(m * n) < p)
    obs = SparseObservations(m, n, keep // n, keep % n, rng.standard_normal(keep.size))
    return obs, rng


# ------------------------------------------------------------- optimize_full

def test_optimize_full_closed_form_orthonormal():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 7))
    u, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((7, 3)))
    obj = ObservedQuadratic(full_observations(m))
    pair, info = optimize_full(u, v, obj)
    assert info.converged
    x_expect = u.T @ m @ v
    assert np.allclose(pair.U, u @ x_expect, atol=1e-8)
    assert np.allclose(pair.V, v)


def test_optimize_full_single_entry_scalar():
    obs = SparseObservations(3, 3, [1], [2], [6.0])
    u = np.array([[0.0], [2.0], [0.0]])
    v = np.array([[0.0], [0.0], [3.0]])
    pair, _ = optimize_full(u, v, ObservedQuadratic(obs))
    # u_1 * X * v_2 = 6 -> X = 1
    assert pair.matrix()[1, 2] == pytest.approx(6.0, abs=1e-10)


def test_optimize_full_first_order_optimality():
    obs, rng = sparse_instance(3)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((20, 3))
    v = rng.standard_normal((20, 3))
    pair, info = optimize_full(u, v, obj)
    g = dense_gradient(obj.gradient(pair))
    # U^T grad V = 0 at the optimum (Eq.-(2) optimality condition)
    resid = np.linalg.norm(pair.U.T @ g @ pair.V) / (1 + np.linalg.norm(g, 2))
    assert resid <= 1e-7


def test_optimize_full_never_increases_objective():
    for seed in range(5):
        obs, rng = sparse_instance(seed, m=12, n=10, p=0.6)
        obj = ObservedQuadratic(obs)
        u = rng.standard_normal((12, 2))
        v = rng.standard_normal((10, 2))
        before = obj.value(FactorPair(u, v))
        pair, _ = optimize_full(u, v, obj)
        assert obj.value(pair) <= before + 1e-12


def test_optimize_full_rank_zero_noop():
    obs = SparseObservations(3, 3, [0], [0], [1.0])
    pair, info = optimize_full(np.zeros((3, 0)), np.zeros((3, 0)),
                               ObservedQuadratic(obs))
    assert pair.rank == 0
    assert info.converged


def test_optimize_full_rejects_non_quadratic():
    obj = HuberLowRank(np.zeros((3, 3)), 1.0)
    with pytest.raises(ValueError, match="quadratic"):
        optimize_full(np.ones((3, 1)), np.ones((3, 1)), obj)


def test_optimize_full_singular_system_min_norm():
    # duplicate columns make the normal system singular; CG from zero still
    # returns a finite (minimum-norm) solution and reports itself
    obs, rng = sparse_instance(8, m=10, n=10, p=0.7)
    obj = ObservedQuadratic(obs)
    col_u = rng.standard_normal((10, 1))
    col_v = rng.standard_normal((10, 1))
    u = np.hstack([col_u, col_u])
    v = np.hstack([col_v, col_v])
    pair, info = optimize_full(u, v, obj)
    assert np.all(np.isfinite(pair.U))
    before = obj.value(FactorPair(u, v))
    assert obj.value(pair) <= before + 1e-12


# ------------------------------------------------------------- optimize_fast

def test_optimize_fast_fully_observed_orthonormal():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((9, 6))
    v, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    obj = ObservedQuadratic(full_observations(m))
    u0 = rng.standard_normal((9, 2))
    pair = optimize_fast(u0, v, 0, obj, InnerConfig(ls_iters=50))
    assert np.allclose(pair.U, m @ v, atol=1e-8)
    assert np.array_equal(pair.V, v)


def test_optimize_fast_unobserved_row_unchanged():
    # row 2 of V's side (column 2 of the matrix) has no observations
    obs = SparseObservations(3, 3, [0, 1], [0, 1], [1.0, 2.0])
    rng = np.random.default_rng(2)
    u = rng.standard_normal((3, 2))
    v0 = rng.standard_normal((3, 2))
    pair = optimize_fast(u, v0, 1, ObservedQuadratic(obs), InnerConfig(ls_iters=3))
    assert np.array_equal(pair.V[2], v0[2])
    assert np.array_equal(pair.U, u)


def test_optimize_fast_matches_dense_oracle_at_high_cap():
    obs, rng = sparse_instance(4, m=15, n=12, p=0.7)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((15, 3))
    v0 = rng.standard_normal((12, 3))
    pair = optimize_fast(u, v0, 1, obj, InnerConfig(ls_iters=100))
    # oracle: per-column dense least squares for V given U
    v_star = np.array(v0)
    for j in range(obs.cols):
        mask = obs.col == j
        if not mask.any():
            continue
        sol, *_ = np.linalg.lstsq(u[obs.row[mask]], obs.vals[mask], rcond=None)
        v_star[j] = sol
    oracle_obj = obj.value(FactorPair(u, v_star))
    assert obj.value(pair) == pytest.approx(oracle_obj, abs=1e-8)
    # capped solves cannot beat the exact per-column optimum
    capped = optimize_fast(u, v0, 1, obj, InnerConfig(ls_iters=3))
    assert obj.value(capped) >= oracle_obj - 1e-10


def test_optimize_fast_alternation_sides():
    obs, rng = sparse_instance(5, m=8, n=9, p=0.8)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((8, 2))
    v = rng.standard_normal((9, 2))
    even = optimize_fast(u, v, 0, obj, InnerConfig())
    assert np.array_equal(even.V, v)
    assert not np.array_equal(even.U, u)
    odd = optimize_fast(u, v, 1, obj, InnerConfig())
    assert np.array_equal(odd.U, u)
    assert not np.array_equal(odd.V, v)


def test_optimize_fast_column_permutation_invariance():
    obs, rng = sparse_instance(6, m=10, n=8, p=0.6)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((10, 3))
    v = rng.standard_normal((8, 3))
    base = optimize_fast(u, v, 1, obj, InnerConfig(ls_iters=3))

    perm = rng.permutation(8)
    inv = np.argsort(perm)
    obs_p = SparseObservations(10, 8, obs.row, inv[obs.col], obs.vals)
    v_p = v[perm]
    out_p = optimize_fast(u, v_p, 1, ObservedQuadratic(obs_p), InnerConfig(ls_iters=3))
    assert np.allclose(out_p.V[inv], base.V, atol=1e-12, rtol=0)


def test_optimize_fast_deterministic():
    obs, rng = sparse_instance(7)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((20, 3))
    v = rng.standard_normal((20, 3))
    a = optimize_fast(u, v, 0, obj, InnerConfig(ls_iters=3))
    b = optimize_fast(u, v, 0, obj, InnerConfig(ls_iters=3))
    assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)


def test_optimize_fast_high_cap_stays_finite():
    # CG iterated past convergence must freeze, not blow up
    obs, rng = sparse_instance(9, m=30, n=30, p=0.2)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((30, 10))
    v = rng.standard_normal((30, 10))
    pair = optimize_fast(u, v, 0, obj, InnerConfig(ls_iters=200))
    assert np.all(np.isfinite(pair.U))
    assert np.abs(pair.U).max() < 1e6



def _capped_cgnr_without_break(W, F, omega, iters, dense=False):
    """The capped CGNR loop run for all `iters` steps, frozen rows or not, on
    the dense masked products or on the sparse gather and CSR ones."""
    X = np.zeros_like(W)
    if dense:
        mask, target = omega.dense()
        R = target @ F
    else:
        R = omega.csr_with(omega.vals) @ F
    P = R.copy()
    rs = np.einsum("ij,ij->i", R, R)
    floor = 1e-26 * rs
    for _ in range(iters):
        if dense:
            Q = ((P @ F.T) * mask) @ F
        else:
            Q = omega.csr_with(project_observed(FactorPair(P, F), omega)) @ F
        pq = np.einsum("ij,ij->i", P, Q)
        ok = (pq > 0.0) & (rs > floor)
        alpha = np.where(ok, rs / np.where(ok, pq, 1.0), 0.0)
        X += alpha[:, None] * P
        R = R - alpha[:, None] * Q
        rs_new = np.einsum("ij,ij->i", R, R)
        beta = np.where(ok, rs_new / np.where(ok, rs, 1.0), 0.0)
        P = np.where(ok[:, None], R + beta[:, None] * P, P)
        rs = np.where(ok, rs_new, rs)
    untouched = omega._row_counts == 0
    X[untouched] = W[untouched]
    return X


# 300 x 240 = 72,000 cells, above the 65,536-cell cap: the sparse kernel.
# About 7 entries per row keep the rank-4 row systems solvable, so rows
# freeze well inside a 100-step cap.
ABOVE_CAP = dict(m=300, n=240, p=0.03)


def test_optimize_fast_stop_on_frozen_rows_is_bit_identical():
    cases = [(13, 3, dict(m=25, n=18, p=0.3)), (14, 40, dict(m=25, n=18, p=0.3)),
             (15, 100, dict(m=25, n=18, p=0.3)), (13, 3, ABOVE_CAP),
             (14, 40, ABOVE_CAP), (15, 100, ABOVE_CAP)]
    for seed, iters, size in cases:
        obs, rng = sparse_instance(seed, **size)
        dense = fits_dense(obs.shape)
        assert dense == (size is not ABOVE_CAP)
        obj = ObservedQuadratic(obs)
        u = rng.standard_normal((size["m"], 4))
        v = rng.standard_normal((size["n"], 4))
        config = InnerConfig(ls_iters=iters)
        assert np.array_equal(optimize_fast(u, v, 0, obj, config).U,
                              _capped_cgnr_without_break(u, v, obs, iters, dense))
        assert np.array_equal(optimize_fast(u, v, 1, obj, config).V,
                              _capped_cgnr_without_break(v, u, obs.transpose, iters, dense))


def test_optimize_fast_stops_once_every_row_froze(monkeypatch):
    # rank-4 row systems reach their floor in a few steps; on either kernel
    # the loop must not keep multiplying frozen rows for the rest of the
    # 100-step cap
    calls = []
    normal_products = inner._normal_products

    def counting(F, omega):
        R, product = normal_products(F, omega)

        def counted(P):
            calls.append(1)
            return product(P)

        return R, counted

    monkeypatch.setattr(inner, "_normal_products", counting)
    for size in (dict(m=25, n=18, p=0.6), ABOVE_CAP):
        obs, rng = sparse_instance(16, **size)
        u = rng.standard_normal((size["m"], 4))
        v = rng.standard_normal((size["n"], 4))
        for t in (0, 1):
            calls.clear()
            optimize_fast(u, v, t, ObservedQuadratic(obs), InnerConfig(ls_iters=100))
            assert 0 < len(calls) < 100


def test_capped_cgnr_takes_the_sparse_kernel_above_the_cap(monkeypatch):
    # sentinel: a set above _DENSE_CELLS never builds its m x n dense arrays
    # and projects through the gather; a set below it does neither
    calls = []

    def counting(pair, omega):
        calls.append(1)
        return project_observed(pair, omega)

    monkeypatch.setattr(inner, "project_observed", counting)
    for size, dense in ((dict(m=256, n=256, p=0.02), True), (dict(m=257, n=256, p=0.02), False),
                        (dict(m=1, n=70_000, p=0.001), True)):
        obs, rng = sparse_instance(17, **size)
        calls.clear()
        u = rng.standard_normal((size["m"], 3))
        v = rng.standard_normal((size["n"], 3))
        optimize_fast(u, v, 0, ObservedQuadratic(obs), InnerConfig(ls_iters=3))
        optimize_fast(u, v, 1, ObservedQuadratic(obs), InnerConfig(ls_iters=3))
        assert ("_dense" in vars(obs)) == dense
        assert (len(calls) == 0) == dense


# Dense and sparse kernels add the same terms in different orders; the bound
# is fixed from the float64 rounding of 100-step refits, with room to spare.
KERNEL_RTOL = 1e-10


def _with_empty_lines(obs):
    """`obs` without any entry in rows 0 and 3 or in columns 1 and 2."""
    keep = ~np.isin(obs.row, [0, 3]) & ~np.isin(obs.col, [1, 2])
    return SparseObservations(obs.rows, obs.cols, obs.row[keep], obs.col[keep],
                              obs.vals[keep])


def test_dense_kernel_matches_sparse_kernel(monkeypatch):
    cases = []
    for seed in range(3):
        for rank in (1, 5, 15):
            obs, rng = sparse_instance(30 + seed, m=60, n=45, p=0.3)
            u = rng.standard_normal((60, rank))
            v = rng.standard_normal((45, rank))
            cases.append((obs, u, v))
    obs, rng = sparse_instance(40, m=30, n=25, p=0.4)
    u = rng.standard_normal((30, 4))
    v = rng.standard_normal((25, 4))
    u[:, 2] = 0.0
    v[:, 2] = 0.0  # each side's fixed factor has a zero column
    holes = _with_empty_lines(obs)
    assert holes._row_counts[[0, 3]].sum() == holes.transpose._row_counts[[1, 2]].sum() == 0
    cases.append((holes, u, v))

    def refits(obs, u, v):
        obj = ObservedQuadratic(obs)
        return [optimize_fast(u, v, t, obj, InnerConfig(ls_iters=iters))
                for t in (0, 1) for iters in (3, 100)]

    dense = [refits(*case) for case in cases]
    monkeypatch.setattr(inner, "fits_dense", lambda shape: False)
    sparse = [refits(*case) for case in cases]
    for got, want in zip(dense, sparse):
        for a, b in zip(got, want):
            for x, y in ((a.U, b.U), (a.V, b.V)):
                assert np.all(np.isfinite(x))
                assert np.linalg.norm(x - y) <= KERNEL_RTOL * np.linalg.norm(y)


def test_optimize_fast_v_side_matches_u_side_on_transposed_set():
    obs, rng = sparse_instance(12, m=15, n=11)
    u = rng.standard_normal((15, 3))
    v = rng.standard_normal((11, 3))
    config = InnerConfig(ls_iters=3)
    v_side = optimize_fast(u, v, 1, ObservedQuadratic(obs), config)
    flipped = SparseObservations(obs.cols, obs.rows, obs.col, obs.row, obs.vals)
    u_side = optimize_fast(v, u, 0, ObservedQuadratic(flipped), config)
    assert v_side.U is u and u_side.V is u
    assert np.array_equal(v_side.V, u_side.U)

def test_optimize_fast_huber_decreases_objective():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((12, 12))
    obj = HuberLowRank(m, 0.7)
    u = rng.standard_normal((12, 2)) * 0.1
    v = rng.standard_normal((12, 2)) * 0.1
    before = obj.value(FactorPair(u, v))
    pair = optimize_fast(u, v, 0, obj, InnerConfig())
    assert obj.value(pair) < before
    pair2 = optimize_fast(pair.U, pair.V, 1, obj, InnerConfig())
    assert obj.value(pair2) <= obj.value(pair) + 1e-12



def _huber_instance(seed, m=60, n=50, r=3):
    """Low rank plus sparse spikes, so residuals fall on both Huber branches."""
    rng = np.random.default_rng(seed)
    target = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    spikes = rng.random((m, n)) < 0.1
    target[spikes] += 10.0 * rng.choice([-1.0, 1.0], size=int(spikes.sum()))
    u = rng.standard_normal((m, r))
    v = rng.standard_normal((n, r))
    return HuberLowRank(target, 1.0), u, v


def _reference_half_step(U, V, t, objective):
    """The two-closure L-BFGS half-step with fresh temporaries and the
    elementwise np.where Huber value, for comparison with the buffered one."""
    M, d = objective.target, objective.delta

    def value(resid):
        a = np.abs(resid)
        return float(np.where(a <= d, 0.5 * resid * resid, d * a - 0.5 * d * d).sum())

    opts = {"maxiter": inner._LBFGS_ITERS, "maxcor": inner._LBFGS_MEMORY}
    if t % 2 == 0:
        def fun(x):
            resid = x.reshape(U.shape) @ V.T - M
            return value(resid), (np.clip(resid, -d, d) @ V).ravel()

        res = inner.minimize(fun, U.ravel(), jac=True, method="L-BFGS-B", options=opts)
        return FactorPair(res.x.reshape(U.shape), V)

    def fun(x):
        resid = U @ x.reshape(V.shape).T - M
        return value(resid), (np.clip(resid, -d, d).T @ U).ravel()

    res = inner.minimize(fun, V.ravel(), jac=True, method="L-BFGS-B", options=opts)
    return FactorPair(U, res.x.reshape(V.shape))


def test_huber_half_step_follows_reference_path(monkeypatch):
    runs = []
    minimize = inner.minimize

    def recording(*args, **kwargs):
        res = minimize(*args, **kwargs)
        runs.append((res.nit, res.nfev))
        return res

    monkeypatch.setattr(inner, "minimize", recording)
    obj, u, v = _huber_instance(20)
    for t in (0, 1):
        got = optimize_fast(u, v, t, obj, InnerConfig())
        want = _reference_half_step(u, v, t, obj)
        assert runs[-2] == runs[-1] and runs[-1][1] > 2
        for a, b in ((got.U, want.U), (got.V, want.V)):
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
    assert len(runs) == 4


def test_huber_half_step_threads_sharing_one_objective():
    # the evaluation buffers are per call: concurrent half-steps on one
    # objective must give the serial results bit for bit
    obj, _, _ = _huber_instance(21)
    rng = np.random.default_rng(22)
    starts = [(rng.standard_normal((60, 3)), rng.standard_normal((50, 3)))
              for _ in range(4)]
    want = [[optimize_fast(u, v, t, obj, InnerConfig()) for t in (0, 1)]
            for u, v in starts]
    wrong = []

    def work(k):
        u, v = starts[k]
        for _ in range(5):
            for t in (0, 1):
                pair = optimize_fast(u, v, t, obj, InnerConfig())
                if not (np.array_equal(pair.U, want[k][t].U)
                        and np.array_equal(pair.V, want[k][t].V)):
                    wrong.append((k, t))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(starts))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []

def test_objective_after_inner():
    # the value the solvers trace after each refit, against brute force
    rng = np.random.default_rng(11)
    pair = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))
    obs = full_observations(pair.matrix())
    obj = ObservedQuadratic(obs)
    assert obj.value(pair) == pytest.approx(0.0, abs=1e-18)
    assert obj.value(FactorPair.empty(4, 5)) == pytest.approx(
        0.5 * float(obs.vals @ obs.vals))
    half = FactorPair(pair.U * 0.5, pair.V)
    dense = half.matrix()
    expect = 0.5 * sum((v - dense[i, j]) ** 2
                       for i, j, v in zip(obs.row, obs.col, obs.vals))
    assert obj.value(half) == pytest.approx(expect, abs=1e-12)
    refit, info = optimize_full(half.U, half.V, obj)
    assert info.converged
    assert obj.value(refit) <= 1e-12 * expect


def test_inner_config_validation():
    with pytest.raises(ValueError):
        InnerConfig(ls_iters=0)
