import numpy as np
import pytest

from lowrank.baselines import SoftImputeConfig, lambda_grid, soft_impute
from lowrank.data import SynthCompletionConfig, gen_completion
from lowrank.linalg import SparseObservations

from conftest import full_observations


def test_soft_impute_zero_lambda_fully_observed_fixed_point():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 7))
    obs = full_observations(m)
    pair, _ = soft_impute(obs, SoftImputeConfig(lam=0.0, max_rank=5, tol=1e-12))
    assert np.allclose(pair.matrix(), m, atol=1e-8)


def test_soft_impute_full_shrinkage_returns_zero():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 6))
    obs = full_observations(m)
    sigma1 = np.linalg.svd(m, compute_uv=False)[0]
    pair, traces = soft_impute(obs, SoftImputeConfig(lam=sigma1 * 1.01, max_rank=6))
    assert pair.rank == 0
    assert np.allclose(pair.matrix(), 0.0)


def test_soft_impute_rounding_level_shrinkage_is_zero():
    # at lam = sigma_1, or one ulp below it, the shrunk top value is rounding
    # noise: the iterate is zero at once, not noise chased to max_iters
    rng = np.random.default_rng(4)
    keep = np.flatnonzero(rng.random(900) < 0.3)
    obs = SparseObservations(30, 30, keep // 30, keep % 30,
                             rng.standard_normal(keep.size))
    sigma1 = lambda_grid(obs, seed=0)[-1]
    assert sigma1 == pytest.approx(np.linalg.norm(obs.csr().toarray(), 2), rel=1e-14)
    for lam in (sigma1, np.nextafter(sigma1, 0.0)):
        pair, traces = soft_impute(obs, SoftImputeConfig(lam=lam, max_rank=6))
        assert pair.rank == 0 and len(traces) == 1


def test_soft_impute_nuclear_objective_monotone():
    rng = np.random.default_rng(2)
    keep = np.flatnonzero(rng.random(900) < 0.5)
    obs = SparseObservations(30, 30, keep // 30, keep % 30,
                             rng.standard_normal(keep.size))
    for lam in (0.5, 2.0, 5.0):
        pair, traces = soft_impute(obs, SoftImputeConfig(lam=lam, max_rank=10))
        objs = [t.objective for t in traces]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
        # cross-check the traced objective at the returned iterate with an
        # oracle SVD nuclear norm
        resid = obs.vals - pair.matrix()[obs.row, obs.col]
        nuclear = np.linalg.svd(pair.matrix(), compute_uv=False).sum()
        expect = 0.5 * float(resid @ resid) + lam * nuclear
        assert objs[-1] == pytest.approx(expect, rel=1e-8, abs=1e-8)


def _plain_soft_impute_objective(obs, lam, max_rank, tol):
    """Momentum-free reference: A <- SVT_lam(Pi_Omega(M) + Pi_Omega_perp(A))."""
    a = np.zeros(obs.shape)
    while True:
        z = a.copy()
        z[obs.row, obs.col] = obs.vals
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        s2 = np.maximum(s[:max_rank] - lam, 0.0)
        a_new = (u[:, :max_rank] * s2) @ vt[:max_rank]
        change = np.linalg.norm(a_new - a) / max(np.linalg.norm(a), 1e-30)
        a = a_new
        if change <= tol:
            resid = obs.vals - a[obs.row, obs.col]
            return 0.5 * float(resid @ resid) + lam * float(s2.sum())


def test_soft_impute_accelerated_reaches_plain_optimum_and_warm_start_stops():
    # max_rank = n keeps the problem convex (a binding rank cap has local
    # minima), so both iterations share one optimal value
    rng = np.random.default_rng(2)
    keep = np.flatnonzero(rng.random(900) < 0.5)
    obs = SparseObservations(30, 30, keep // 30, keep % 30,
                             rng.standard_normal(keep.size))
    for lam in (0.5, 2.0, 5.0):
        expect = _plain_soft_impute_objective(obs, lam, 30, 1e-12)
        config = SoftImputeConfig(lam=lam, max_rank=30, max_iters=100_000, tol=1e-12)
        pair, traces = soft_impute(obs, config)
        assert traces[-1].rel_change <= 1e-12
        assert traces[-1].objective == pytest.approx(expect, rel=1e-8)
        _, warm = soft_impute(obs, SoftImputeConfig(lam=lam, max_rank=30), start=pair)
        assert len(warm) <= 2


def test_soft_impute_respects_max_rank():
    rng = np.random.default_rng(3)
    keep = np.flatnonzero(rng.random(400) < 0.6)
    obs = SparseObservations(20, 20, keep // 20, keep % 20,
                             rng.standard_normal(keep.size))
    pair, traces = soft_impute(obs, SoftImputeConfig(lam=0.1, max_rank=4))
    assert pair.rank <= 4
    assert all(t.rank <= 4 for t in traces)


def test_lambda_grid_spans_sigma1():
    rng = np.random.default_rng(4)
    keep = np.flatnonzero(rng.random(400) < 0.5)
    obs = SparseObservations(20, 20, keep // 20, keep % 20,
                             rng.standard_normal(keep.size))
    grid = lambda_grid(obs, seed=0)
    dense = np.zeros((20, 20))
    dense[obs.row, obs.col] = obs.vals
    sigma1 = np.linalg.svd(dense, compute_uv=False)[0]
    assert grid.size == 10
    assert grid[0] == pytest.approx(0.01 * sigma1, rel=1e-6)
    assert grid[-1] == pytest.approx(sigma1, rel=1e-6)
    assert np.all(np.diff(grid) > 0)


def test_soft_impute_config_validation():
    with pytest.raises(ValueError):
        SoftImputeConfig(lam=-1.0, max_rank=3)
    with pytest.raises(ValueError):
        SoftImputeConfig(lam=0.0, max_rank=0)


def test_soft_impute_flags_binding_rank_cap():
    # the 30x30 instance of the monotone test: at max_rank=10 the cap binds
    # for the two smaller lambdas, and only the last row says so
    rng = np.random.default_rng(2)
    keep = np.flatnonzero(rng.random(900) < 0.5)
    obs = SparseObservations(30, 30, keep // 30, keep % 30,
                             rng.standard_normal(keep.size))
    for lam, binds in ((0.5, True), (2.0, True), (5.0, False)):
        pair, traces = soft_impute(obs, SoftImputeConfig(lam=lam, max_rank=10))
        assert traces[-1].rank_capped == binds
        assert not any(t.rank_capped for t in traces[:-1])
        assert (pair.rank == 10) == binds


def _block_path_instance(m, n, seed, p=0.5):
    # rank-3 signal plus noise: at the lambdas used below the optimum has
    # rank < 10, so max_rank=10 does not bind and the block step is active
    rng = np.random.default_rng(seed)
    signal = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    keep = np.flatnonzero(rng.random(m * n) < p)
    vals = signal.ravel()[keep] + 0.3 * rng.standard_normal(keep.size)
    return SparseObservations(m, n, keep // n, keep % n, vals)


def _svd_shapes(monkeypatch):
    """Record the shape of every matrix np.linalg.svd sees."""
    shapes = []
    real = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


def test_soft_impute_block_path_reaches_exact_optimum(monkeypatch):
    obs = _block_path_instance(60, 60, seed=5)
    shapes = _svd_shapes(monkeypatch)
    for lam in (3.0, 6.0):
        shapes.clear()
        config = SoftImputeConfig(lam=lam, max_rank=10, max_iters=100_000, tol=1e-12)
        pair, traces = soft_impute(obs, config)
        assert (20, 60) in shapes  # block steps ran
        assert pair.rank < 10 and not traces[-1].rank_capped
        expect = _plain_soft_impute_objective(obs, lam, 10, 1e-12)
        assert traces[-1].rel_change <= 1e-12
        assert traces[-1].objective == pytest.approx(expect, rel=1e-8)


def test_soft_impute_lambda_path_stops_on_exact_steps(monkeypatch):
    # the warm-started lambda path of a synth-complete trial (100x100, rank
    # 5, 20% observed, max_rank 30): a run ends on an exact step and needs
    # few of them, the rest are block steps
    _, obs, _ = gen_completion(SynthCompletionConfig(100, 100, 5, 0.2, 10.0, 3))
    grid = lambda_grid(obs, seed=3)[::-1]
    shapes = _svd_shapes(monkeypatch)
    pair, dense = None, 0
    for lam in grid:
        shapes.clear()
        pair, traces = soft_impute(obs, SoftImputeConfig(lam=float(lam), max_rank=30),
                                   start=pair)
        assert shapes[-1] == (100, 100)
        assert traces[-1].rel_change <= 1e-5
        dense += shapes.count((100, 100))
    assert dense <= 3 * grid.size


def test_soft_impute_block_path_is_deterministic():
    obs = _block_path_instance(60, 60, seed=7)
    config = SoftImputeConfig(lam=2.0, max_rank=10)
    first, traces = soft_impute(obs, config)
    again, traces_again = soft_impute(obs, config)
    assert np.array_equal(first.U, again.U) and np.array_equal(first.V, again.V)
    assert traces == traces_again
