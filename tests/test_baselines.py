import contextlib
import dataclasses

import numpy as np
import pytest

from lowrank import baselines
from lowrank.baselines import SoftImputeConfig, _block_svd, lambda_grid, soft_impute
from lowrank.data import SynthCompletionConfig, gen_completion
from lowrank.linalg import FactorPair, SparseObservations

from conftest import full_observations


@contextlib.contextmanager
def _strict_stop(max_iters=SoftImputeConfig.max_iters):
    """SoftImpute runs to a relative change of 1e-12 within `max_iters`
    steps, for the runs whose optimum an oracle checks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SoftImputeConfig, "max_iters", max_iters)
        patch.setattr(SoftImputeConfig, "tol", 1e-12)
        yield


def test_soft_impute_zero_lambda_fully_observed_fixed_point():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 7))
    obs = full_observations(m)
    with _strict_stop():
        pair, _ = soft_impute(obs, SoftImputeConfig(lam=0.0, max_rank=5))
    assert np.allclose(pair.matrix(), m, atol=1e-8)


def test_soft_impute_full_shrinkage_returns_zero():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 6))
    obs = full_observations(m)
    sigma1 = np.linalg.svd(m, compute_uv=False)[0]
    pair, traces = soft_impute(obs, SoftImputeConfig(lam=sigma1 * 1.01, max_rank=6))
    assert pair.rank == 0
    assert np.allclose(pair.matrix(), 0.0)
    # a zero step from zero: the relative change is 0, and the run stops
    assert [t.rel_change for t in traces] == [0.0]


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


def test_soft_impute_stop_rule_is_scale_free():
    # the relative change divided by max(||A||, 1e-30): a run that takes 94
    # steps at scale 1 stopped after 2 at 2^-120 and after 1 at 2^-140. Each
    # scaled run takes the same steps and returns 2^k times the unscaled one
    _, obs, _ = gen_completion(SynthCompletionConfig(60, 50, 3, 0.3, 10.0, 1))
    lam = lambda_grid(obs, seed=0)[3]
    base, base_traces = soft_impute(obs, SoftImputeConfig(lam=lam, max_rank=10))
    assert len(base_traces) == 94
    want = base.matrix()
    for k in (-100, -120, -140, 100):
        scaled = SparseObservations(60, 50, obs.row, obs.col, np.ldexp(obs.vals, k))
        pair, traces = soft_impute(scaled, SoftImputeConfig(lam=np.ldexp(lam, k),
                                                            max_rank=10))
        assert len(traces) == len(base_traces), k
        err = np.abs(np.ldexp(pair.matrix(), -k) - want).max()
        assert err <= 1e-12 * np.abs(want).max(), (k, err)


def test_soft_impute_relative_change_from_zero_is_inf():
    rng = np.random.default_rng(1)
    obs = full_observations(rng.standard_normal((6, 6)))
    sigma1 = lambda_grid(obs, seed=0)[-1]
    _, traces = soft_impute(obs, SoftImputeConfig(lam=0.5 * sigma1, max_rank=6))
    assert traces[0].rel_change == np.inf and len(traces) > 1


def _plain_soft_impute_objective(obs, lam, max_rank, tol):
    """Momentum-free reference: A <- SVT_lam(Pi_Omega(M) + Pi_Omega_perp(A))."""
    a = np.zeros(obs.shape)
    while True:
        z = a.copy()
        z[obs.row, obs.col] = obs.vals
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        s2 = np.maximum(s[:max_rank] - lam, 0.0)
        a_new = (u[:, :max_rank] * s2) @ vt[:max_rank]
        change = (np.linalg.norm(a_new - a) / np.linalg.norm(a) if a.any()
                  else np.inf if a_new.any() else 0.0)
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
        with _strict_stop(100_000):
            pair, traces = soft_impute(obs, SoftImputeConfig(lam=lam, max_rank=30))
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
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lam"):
            SoftImputeConfig(lam=lam, max_rank=3)


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


def _dense_calls(monkeypatch):
    """Record ("svd" | "eigh", shape) for every np.linalg.svd and
    np.linalg.eigh call: a dense SVD is an exact step, a w x w eigh a block
    step."""
    calls = []
    for name in ("svd", "eigh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, a.shape))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _eigh_widths(calls, side):
    """The widths of the recorded block steps; asserts that every call is a
    side x side SVD or a square eigh."""
    widths = [shape[0] for name, shape in calls if name == "eigh"]
    assert set(calls) <= {("svd", (side, side))} | {("eigh", (w, w)) for w in widths}
    return widths


def _record_kept_ranks(monkeypatch, calls):
    """Also record ("kept", r) as each SoftImpute iteration ends, r the rank
    its step kept: the taken step is the last one recorded before it."""
    real = baselines.SoftImputeTrace

    def traced(*args):
        row = real(*args)
        calls.append(("kept", row.rank))
        return row

    monkeypatch.setattr(baselines, "SoftImputeTrace", traced)


def _check_block_widths(calls, max_rank):
    """Assert that each block step's eigh is min(max_rank, r) + 10 wide, r the
    rank the previous step kept, or that step's block width when r has grown
    into its oversampling; returns (steps at r + 10, steps at the narrower
    width)."""
    full = short = 0
    kept = rows = last = None
    for name, value in calls:
        if name == "svd":
            last = min(value)
        elif name == "eigh":
            want = min(max_rank, kept) + 10
            assert value == (min(want, rows),) * 2
            if want <= rows:
                full += 1
            else:
                short += 1
            last = value[0]
        else:
            kept, rows = value, last
    return full, short


def test_soft_impute_block_path_reaches_exact_optimum(monkeypatch):
    obs = _block_path_instance(60, 60, seed=5)
    calls = _dense_calls(monkeypatch)
    for lam in (3.0, 6.0):
        calls.clear()
        with _strict_stop(100_000):
            pair, traces = soft_impute(obs, SoftImputeConfig(lam=lam, max_rank=10))
        widths = _eigh_widths(calls, 60)
        assert widths and max(widths) <= 20 and min(widths) < 20  # block steps ran
        assert calls[-1] == ("svd", (60, 60))
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
    calls = _dense_calls(monkeypatch)
    pair, dense, block, narrower = None, 0, 0, 0
    for lam in grid:
        calls.clear()
        pair, traces = soft_impute(obs, SoftImputeConfig(lam=float(lam), max_rank=30),
                                   start=pair)
        assert calls[-1] == ("svd", (100, 100))
        assert traces[-1].rel_change <= 1e-5
        widths = _eigh_widths(calls, 100)
        assert all(w <= 40 for w in widths)
        dense += calls.count(("svd", (100, 100)))
        block += len(widths)
        narrower += sum(w < 40 for w in widths)
    assert dense <= 3 * grid.size
    assert block > dense
    assert narrower > 0


def test_soft_impute_block_width_follows_kept_rank(monkeypatch):
    # the lambda path above: on trial seed 3 the kept rank also grows into
    # a block's oversampling, so both halves of the width rule are taken
    _, obs, _ = gen_completion(SynthCompletionConfig(100, 100, 5, 0.2, 10.0, 3))
    grid = lambda_grid(obs, seed=3)[::-1]
    calls = _dense_calls(monkeypatch)
    _record_kept_ranks(monkeypatch, calls)
    pair = None
    for lam in grid:
        pair, _ = soft_impute(obs, SoftImputeConfig(lam=float(lam), max_rank=30),
                              start=pair)
    full, short = _check_block_widths(calls, 30)
    assert full > short > 0


def test_soft_impute_block_path_catches_rising_rank(monkeypatch):
    # warm started from the rank-3 iterate at lam = 8, the lam = 2.5 run keeps
    # rank 12 at first, then 9, and rises to its optimal rank 10 during the
    # block steps, whose blocks are then narrower than kept + 10: the exact
    # redo at tol still ends the run on the plain optimum (max_rank = 12
    # does not bind there)
    obs = _block_path_instance(60, 60, seed=7)
    start, _ = soft_impute(obs, SoftImputeConfig(lam=8.0, max_rank=12))
    assert start.rank == 3
    calls = _dense_calls(monkeypatch)
    _record_kept_ranks(monkeypatch, calls)
    with _strict_stop(100_000):
        pair, traces = soft_impute(obs, SoftImputeConfig(lam=2.5, max_rank=12),
                                   start=start)
    ranks = [t.rank for t in traces]
    assert any(b > a for a, b in zip(ranks, ranks[1:]))
    _, short = _check_block_widths(calls, 12)
    assert short > 0
    assert calls[-2:] == [("svd", (60, 60)), ("kept", pair.rank)]
    assert pair.rank == 10 and not traces[-1].rank_capped
    assert traces[-1].rel_change <= 1e-12
    expect = _plain_soft_impute_objective(obs, 2.5, 12, 1e-12)
    assert traces[-1].objective == pytest.approx(expect, rel=1e-8)


def _step_objective(obs, lam, k, u, s, vt):
    """The traced objective of the step with factors (u, s, vt)."""
    s2 = np.maximum(s[:k] - lam, 0.0)
    a = (u[:, :k] * s2) @ vt[:k]
    resid = obs.vals - a[obs.row, obs.col]
    return 0.5 * float(resid @ resid) + lam * float(s2.sum())


def test_block_step_matches_the_small_svd_step():
    # one block step from the Gram eigenpairs against the same step by the
    # SVD of the w x n matrix q^T z, from a start subspace near the top
    obs = _block_path_instance(60, 60, seed=9)
    rng = np.random.default_rng(9)
    z = obs.csr().toarray()
    _, _, start = np.linalg.svd(z + 0.1 * rng.standard_normal(z.shape))
    z[z == 0.0] = 0.5 * rng.standard_normal(int((z == 0.0).sum()))
    vt = start[:20]
    u, s, v = _block_svd(z, vt)
    q, _ = np.linalg.qr(z @ vt.T)
    ub, s_ref, v_ref = np.linalg.svd(q.T @ z, full_matrices=False)
    assert np.allclose(s, s_ref, rtol=1e-12, atol=0.0)
    assert np.allclose(u.T @ u, np.eye(20), rtol=0.0, atol=1e-12)
    assert np.allclose(v @ v.T, np.eye(20), rtol=0.0, atol=1e-12)
    for lam in (0.0, 0.1 * s_ref[0], 0.3 * s_ref[0]):
        want = _step_objective(obs, lam, 10, q @ ub, s_ref, v_ref)
        assert _step_objective(obs, lam, 10, u, s, v) == pytest.approx(want, rel=1e-12)


def test_block_step_completes_the_basis_below_rounding():
    # an exactly rank-3 z leaves 17 of the 20 Gram eigenvalues at rounding
    # level: their rows must still complete an orthonormal right basis, with
    # values near 0, and the run must still reach the plain optimum
    rng = np.random.default_rng(11)
    m = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 60))
    vt = np.linalg.qr(rng.standard_normal((60, 20)))[0].T
    u, s, v = _block_svd(m, vt)
    s_true = np.linalg.svd(m, compute_uv=False)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
    assert np.allclose(v @ v.T, np.eye(20), rtol=0.0, atol=1e-12)
    assert np.allclose(s[:3], s_true[:3], rtol=1e-12, atol=0.0)
    assert np.all(s[3:] <= 1e-12 * s[0])
    assert np.allclose((u * s) @ v, m, rtol=0.0, atol=1e-12 * s[0])

    obs = full_observations(m)
    for lam in (0.0, 1.0):
        expect = _plain_soft_impute_objective(obs, lam, 10, 1e-12)
        with _strict_stop(100_000):
            pair, traces = soft_impute(obs, SoftImputeConfig(lam=lam, max_rank=10))
        assert pair.rank == 3
        assert traces[-1].objective == pytest.approx(expect, rel=1e-8, abs=1e-12)


def test_soft_impute_block_path_is_deterministic():
    obs = _block_path_instance(60, 60, seed=7)
    config = SoftImputeConfig(lam=2.0, max_rank=10)
    first, traces = soft_impute(obs, config)
    again, traces_again = soft_impute(obs, config)
    assert np.array_equal(first.U, again.U) and np.array_equal(first.V, again.V)
    assert all(t.wall_nanos > 0 for t in traces)
    assert ([dataclasses.replace(t, wall_nanos=0) for t in traces]
            == [dataclasses.replace(t, wall_nanos=0) for t in traces_again])


def test_soft_impute_rejects_start_of_wrong_shape():
    obs = _block_path_instance(20, 20, seed=8)
    start = FactorPair(np.ones((30, 2)), np.ones((25, 2)))
    with pytest.raises(ValueError,
                       match=r"start shape \(30, 25\) != observation shape \(20, 20\)"):
        soft_impute(obs, SoftImputeConfig(lam=1.0, max_rank=5), start=start)
