import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowrank.baselines import SoftImputeConfig, lambda_grid, soft_impute
from lowrank.data import SynthCompletionConfig, gen_completion, nmse_on
from lowrank.experiments import _solver_config
from lowrank.linalg import FactorPair, SparseObservations, top_singular_triplet
from lowrank.objectives import ClippedObservedQuadratic, ObservedQuadratic
from lowrank.solvers import (SolverConfig, fast_greedy, fast_local_search,
                             fast_local_sweep, greedy, local_search,
                             truncate_fast, truncate_svd)

from conftest import dense_gradient, full_observations, top_r_svd


def quadratic_on(mat):
    return ObservedQuadratic(full_observations(mat))


# ------------------------------------------------------------------- greedy

def test_greedy_diag_truncation():
    obj = quadratic_on(np.diag([5.0, 3.0, 1.0]))
    pair, traces = greedy(obj, SolverConfig(target_rank=2, seed=0))
    assert np.allclose(pair.matrix(), np.diag([5.0, 3.0, 0.0]), atol=1e-8)
    assert [t.rank for t in traces] == [1, 2]


def test_greedy_zero_target_exits_immediately():
    obj = quadratic_on(np.zeros((4, 4)))
    pair, traces = greedy(obj, SolverConfig(target_rank=3, seed=0))
    assert pair.rank == 0
    assert [(t.iter, t.top_sigma, t.flags) for t in traces] == [(0, 0.0, "gradient_zero")]


def test_greedy_matches_truncated_svd():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((20, 20))
    obj = quadratic_on(m)
    pair, _ = greedy(obj, SolverConfig(target_rank=4, seed=1))
    h4 = top_r_svd(m, 4)
    err = np.linalg.norm(pair.matrix() - h4.matrix())
    assert err <= 1e-6 * np.linalg.norm(m)


def test_greedy_rank_bookkeeping_and_monotonicity():
    rng = np.random.default_rng(22)
    m = rng.standard_normal((10, 12))
    obj = quadratic_on(m)
    pair, traces = greedy(obj, SolverConfig(target_rank=5, seed=2))
    assert [t.rank for t in traces] == [1, 2, 3, 4, 5]
    objs = [t.objective for t in traces]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_greedy_theorem1_endpoint():
    # r >= 2 r* log(gap0/eps) on kappa=1 instances reaches R(A*) + eps
    rng = np.random.default_rng(23)
    m = rng.standard_normal((20, 20))
    obj = quadratic_on(m)
    r_star = 2
    a_star = top_r_svd(m, r_star)
    opt = obj.value(a_star)
    gap0 = obj.value(FactorPair.empty(20, 20)) - opt
    eps = gap0 / 100.0
    r = int(np.ceil(2 * r_star * np.log(gap0 / eps)))
    assert r <= 20
    pair, _ = greedy(obj, SolverConfig(target_rank=r, seed=3))
    assert obj.value(pair) <= opt + eps


def test_greedy_gradient_zero_invariant_via_callback():
    rng = np.random.default_rng(24)
    m = rng.standard_normal((15, 15))
    obj = quadratic_on(m)
    worst = 0.0

    def probe(t, pair):
        nonlocal worst
        g = dense_gradient(obj.gradient(pair))
        top = np.linalg.norm(g, 2)
        for _ in range(8):
            u = pair.U @ rng.standard_normal(pair.rank)
            v = pair.V @ rng.standard_normal(pair.rank)
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            if nu == 0 or nv == 0:
                continue
            worst = max(worst, abs(u @ g @ v) / (nu * nv * (1.0 + top)))

    greedy(obj, SolverConfig(target_rank=4, seed=4), callback=probe)
    assert worst <= 1e-6


def test_greedy_refits_exactly_at_movielens_100k_size():
    # 943 x 1682 with 100k observed entries: every refit is solved (the span
    # probe of criterion 4, at 1e-8) and nothing is flagged
    config = SynthCompletionConfig(943, 1682, 5, 100_000 / (943 * 1682), 10.0, 0)
    _, observed, _ = gen_completion(config)
    obj = ObservedQuadratic(observed)
    rng = np.random.default_rng(0)
    worst = []

    def probe(t, pair):
        g = obj.gradient(pair)
        top = top_singular_triplet(g).sigma
        for _ in range(8):
            u = pair.U @ rng.standard_normal(pair.rank)
            v = pair.V @ rng.standard_normal(pair.rank)
            worst.append(abs(u @ (g @ v)) / (np.linalg.norm(u) * np.linalg.norm(v)
                                             * (1.0 + top)))

    pair, traces = greedy(obj, SolverConfig(target_rank=12), callback=probe)
    assert pair.rank == 12 and len(worst) == 12 * 8
    assert max(worst) <= 1e-8
    assert [t.flags for t in traces] == [""] * 12


def test_greedy_deterministic():
    rng = np.random.default_rng(25)
    m = rng.standard_normal((9, 9))
    obj = quadratic_on(m)
    cfg = SolverConfig(target_rank=3, seed=5)
    p1, _ = greedy(obj, cfg)
    p2, _ = greedy(obj, cfg)
    assert np.array_equal(p1.U, p2.U) and np.array_equal(p1.V, p2.V)


# ------------------------------------------------------------- local search

def test_local_search_diag_rank_one():
    obj = quadratic_on(np.diag([5.0, 3.0, 1.0]))
    cfg = SolverConfig(target_rank=1, max_outer_iters=3, seed=0)
    pair, _ = local_search(obj, cfg)
    assert np.allclose(pair.matrix(), np.diag([5.0, 0.0, 0.0]), atol=1e-8)


def test_local_search_zero_target():
    obj = quadratic_on(np.zeros((4, 4)))
    pair, traces = local_search(obj, SolverConfig(target_rank=2, max_outer_iters=5, seed=0))
    assert np.allclose(pair.matrix(), 0.0)
    assert [(t.iter, t.top_sigma, t.flags) for t in traces] == [(0, 0.0, "gradient_zero")]


def test_local_search_not_worse_than_greedy():
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        m = rng.standard_normal((12, 12))
        obj = quadratic_on(m)
        g_pair, _ = greedy(obj, SolverConfig(target_rank=3, seed=seed))
        l_pair, _ = local_search(obj, SolverConfig(target_rank=3, max_outer_iters=20,
                                                   seed=seed))
        assert obj.value(l_pair) <= obj.value(g_pair) + 1e-9


def test_local_search_flags_final_non_improving_step():
    rng = np.random.default_rng(29)
    obj = quadratic_on(rng.standard_normal((10, 10)))
    cfg = SolverConfig(target_rank=2, max_outer_iters=50, seed=1)
    pair, traces = local_search(obj, cfg)
    *improving, last = traces
    assert last.flags.split(";")[-1] == "stalled"
    assert all("stalled" not in t.flags for t in improving)
    assert improving[-1].objective - last.objective <= 1e-10
    # the stalled iterate is reported but not returned
    assert obj.value(pair) == improving[-1].objective


def test_local_search_width_bounded():
    rng = np.random.default_rng(26)
    m = rng.standard_normal((10, 10))
    obj = quadratic_on(m)
    widths = []
    cfg = SolverConfig(target_rank=4, max_outer_iters=10, seed=1)
    local_search(obj, cfg, callback=lambda t, p: widths.append(p.rank))
    assert widths == [1, 2, 3, 4] + [4] * (len(widths) - 4)


def _same_pair(a, b):
    return np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)


def test_local_search_first_iterate_is_greedys():
    # a start from zero factors of full width put the first insertion next to
    # arbitrary null-space directions of the truncation's SVD, and the refit
    # used them: u w^T with |cos(w, v)| = 0.99905, objective 815.0984 against
    # greedy's 815.6572
    _, observed, _ = gen_completion(SynthCompletionConfig(60, 50, 3, 0.3, 10.0, 0))
    obj = ObservedQuadratic(observed)
    cfg = SolverConfig(target_rank=4)
    seen = []
    local_search(obj, cfg, callback=lambda t, p: seen.append(p))
    g_pair, _ = greedy(obj, dataclasses.replace(cfg, target_rank=1))
    assert _same_pair(seen[0], g_pair)


@given(seed=st.integers(0, 2 ** 16), rank=st.integers(1, 4),
       observed=st.booleans())
def test_local_search_grows_as_greedy_does(seed, rank, observed):
    # before the budget no step truncates, so each iterate is greedy's
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((9, 7))
    if observed:
        cells = rng.permutation(63)[:45]
        obj = ObservedQuadratic(SparseObservations(9, 7, cells // 7, cells % 7,
                                                   mat.ravel()[cells]))
    else:
        obj = quadratic_on(mat)
    cfg = SolverConfig(target_rank=rank, max_outer_iters=rank + 3, seed=seed % 7)
    g_seen, l_seen = [], []
    greedy(obj, cfg, callback=lambda t, p: g_seen.append(p))
    local_search(obj, cfg, callback=lambda t, p: l_seen.append(p))
    assert [p.rank for p in l_seen[:rank]] == list(range(1, rank + 1))
    assert all(_same_pair(g, p) for g, p in zip(g_seen, l_seen[:rank]))


@pytest.mark.parametrize("seed", range(3))
def test_local_search_stop_does_not_depend_on_the_data_scale(seed):
    # an absolute improvement slack of 1e-10 stopped the run at step 3 on
    # data scaled by 2^-20, against 14-19 unscaled, 43-60% off the answer
    _, observed, _ = gen_completion(SynthCompletionConfig(60, 50, 3, 0.3, 10.0, seed))
    cfg = SolverConfig(target_rank=4)

    def solve(scale):
        scaled = SparseObservations(60, 50, observed.row, observed.col,
                                    observed.vals * scale)
        pair, traces = local_search(ObservedQuadratic(scaled), cfg)
        return pair.matrix() / scale, traces[-1].iter

    answer, stop = solve(1.0)
    for scale in (2.0 ** -20, 2.0 ** -10, 2.0 ** 10):
        scaled_answer, scaled_stop = solve(scale)
        assert scaled_stop == stop
        assert np.max(np.abs(scaled_answer - answer)) <= 1e-8 * np.max(np.abs(answer))


# -------------------------------------------------------------- truncations

def test_truncate_svd_rank_one_to_empty():
    pair = FactorPair(np.ones((3, 1)), np.ones((4, 1)))
    out = truncate_svd(pair)
    assert out.rank == 0


def test_truncate_svd_drops_smaller_singular_value():
    u, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 2)))
    v, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 2)))
    pair = FactorPair(u @ np.diag([4.0, 2.0]), v)
    out = truncate_svd(pair)
    expect = 4.0 * np.outer(u[:, 0], v[:, 0])
    assert np.allclose(out.matrix(), expect, atol=1e-10)


def test_truncate_svd_matches_dense_oracle():
    rng = np.random.default_rng(27)
    pair = FactorPair(rng.standard_normal((9, 5)), rng.standard_normal((8, 5)))
    out = truncate_svd(pair)
    oracle = top_r_svd(pair.matrix(), 4)
    assert np.allclose(out.matrix(), oracle.matrix(), atol=1e-8)
    assert np.allclose(out.V.T @ out.V, np.eye(4), atol=1e-12)
    # a rank above the short side keeps that side's rank
    wide = FactorPair(rng.standard_normal((3, 5)), rng.standard_normal((8, 5)))
    out = truncate_svd(wide)
    oracle = top_r_svd(wide.matrix(), 4)
    assert out.rank == oracle.rank == 3
    assert np.allclose(out.matrix(), oracle.matrix(), atol=1e-8)


def test_truncate_fast_examples():
    pair = FactorPair(np.diag([1.0, 5.0])[:, :2], np.ones((3, 2)))
    # column norms U: (1, 5); V: (sqrt3, sqrt3) -> products (sqrt3, 5 sqrt3)
    out, removed = truncate_fast(pair)
    assert removed == 0
    tied = FactorPair(np.ones((3, 3)), np.ones((4, 3)))
    _, removed = truncate_fast(tied)
    assert removed == 0  # tie broken to lowest index


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30))
def test_truncate_fast_matches_bruteforce(seed, r):
    rng = np.random.default_rng(seed)
    pair = FactorPair(rng.standard_normal((6, r)), rng.standard_normal((7, r)))
    _, removed = truncate_fast(pair)
    products = [np.linalg.norm(pair.U[:, i]) * np.linalg.norm(pair.V[:, i])
                for i in range(r)]
    assert removed == int(np.argmin(products))


# -------------------------------------------------------------- fast greedy

def test_fast_greedy_diag_high_cap():
    obj = quadratic_on(np.diag([5.0, 3.0, 1.0]))
    cfg = SolverConfig(target_rank=2, seed=0, ls_iters=50)
    pair, _ = fast_greedy(obj, cfg)
    assert np.allclose(pair.matrix(), np.diag([5.0, 3.0, 0.0]), atol=1e-5)


def test_fast_greedy_zero_target():
    obj = quadratic_on(np.zeros((5, 5)))
    pair, traces = fast_greedy(obj, SolverConfig(target_rank=3, seed=0))
    assert pair.rank == 0
    assert [(t.iter, t.top_sigma, t.flags) for t in traces] == [(0, 0.0, "gradient_zero")]


def test_fast_greedy_flags_objective_up():
    # with 2 capped inner steps per refit, some insertions raise the objective
    cfg = SynthCompletionConfig(20, 20, 2, 0.4, 10.0, 0)
    _, observed, _ = gen_completion(cfg)
    _, traces = fast_greedy(ObservedQuadratic(observed),
                            SolverConfig(target_rank=6, seed=0,
                                         ls_iters=2))
    went_up = [b.objective > a.objective for a, b in zip(traces, traces[1:])]
    assert any(went_up)
    assert ["objective_up" in t.flags.split(";") for t in traces] == [False] + went_up


def test_fast_greedy_beats_softimpute_train():
    # qualitative Fig.-1 property at desk scale: wherever the SoftImpute
    # lambda path produces a solution of rank k, the greedy train error at
    # rank k (near-exact inner solves) is at least as good. The property is
    # a sparse-regime one (at high observed fractions SoftImpute's EM can
    # out-fit a single greedy pass at ranks below the true rank).
    cfg = SynthCompletionConfig(50, 50, 3, 0.2, 10.0, 31)
    _, observed, _ = gen_completion(cfg)
    obj = ObservedQuadratic(observed)

    train_at_rank = {}
    scfg = SolverConfig(target_rank=10, seed=31, ls_iters=100)
    fast_greedy(obj, scfg,
                callback=lambda t, p: train_at_rank.update({p.rank: nmse_on(p, observed)}))
    for lam in lambda_grid(observed, seed=31):
        si_pair, _ = soft_impute(observed, SoftImputeConfig(lam=float(lam), max_rank=10))
        if si_pair.rank in train_at_rank:
            assert train_at_rank[si_pair.rank] <= nmse_on(si_pair, observed) + 1e-12


# -------------------------------------------------------- fast local search

def test_fast_local_search_never_worse_than_greedy():
    for seed in range(10):
        cfg = SynthCompletionConfig(30, 30, 2, 0.5, 10.0, 200 + seed)
        _, observed, _ = gen_completion(cfg)
        obj = ObservedQuadratic(observed)
        scfg = SolverConfig(target_rank=4, seed=seed)
        g_pair, _ = fast_greedy(obj, scfg)
        l_pair, _ = fast_local_search(obj, scfg)
        assert obj.value(l_pair) <= obj.value(g_pair) + 1e-12


def test_fast_local_search_returns_init_when_optimal():
    # fully observed, target rank = true rank, near-exact solves: greedy is
    # already optimal and the swap passes cannot improve it
    rng = np.random.default_rng(28)
    m = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8))
    obj = quadratic_on(m)
    cfg = SolverConfig(target_rank=2, seed=3, ls_iters=60)
    g_pair, _ = fast_greedy(obj, cfg)
    l_pair, _ = fast_local_search(obj, cfg)
    assert obj.value(l_pair) == pytest.approx(obj.value(g_pair), abs=1e-12)


def test_fast_local_search_trace_strictly_decreasing_except_final():
    cfg = SynthCompletionConfig(40, 40, 3, 0.3, 10.0, 77)
    _, observed, _ = gen_completion(cfg)
    obj = ObservedQuadratic(observed)
    _, traces = fast_local_search(obj, SolverConfig(target_rank=8, seed=7))
    objs = [t.objective for t in traces]
    for a, b in zip(objs[:-2], objs[1:-1]):
        assert b < a
    if len(objs) >= 2:
        assert objs[-1] >= objs[-2] or traces[-1].flags != "stalled"


def test_fast_local_search_truncated_column_recorded():
    cfg = SynthCompletionConfig(30, 30, 3, 0.4, 5.0, 55)
    _, observed, _ = gen_completion(cfg)
    obj = ObservedQuadratic(observed)
    _, traces = fast_local_search(obj, SolverConfig(target_rank=5, seed=1))
    assert traces, "expected at least one swap pass"
    assert all(t.truncated_column is not None for t in traces)


def test_fast_local_search_relative_gradient_floor():
    # exactly rank 2 at scale 1e6: after the greedy phase the gradient's top
    # sigma sits above 1e-12 in absolute terms but below 1e-12 * sigma0
    rng = np.random.default_rng(28)
    m = 1e6 * rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8))
    obj = quadratic_on(m)
    cfg = SolverConfig(target_rank=2, seed=3, ls_iters=60)
    g_pair, g_traces = fast_greedy(obj, cfg)
    pair, traces = fast_local_search(obj, cfg)
    assert len(traces) == 1
    assert "gradient_zero" in traces[0].flags.split(";")
    assert 1e-12 < traces[0].top_sigma <= 1e-12 * g_traces[0].top_sigma
    assert np.array_equal(pair.U, g_pair.U) and np.array_equal(pair.V, g_pair.V)


def _completion_at(k):
    """gen_completion(60, 50, rank 3, 30%, SNR 10, seed 1) with its values
    times 2^k."""
    _, obs, _ = gen_completion(SynthCompletionConfig(60, 50, 3, 0.3, 10.0, 1))
    return ObservedQuadratic(SparseObservations(60, 50, obs.row, obs.col,
                                                np.ldexp(obs.vals, k)))


@pytest.mark.parametrize("solver", [greedy, local_search])
def test_reference_solvers_scale_with_the_data(solver):
    # the gradient-zero floor is relative to the first sigma alone: with
    # 1e-12 * (1 + sigma0) both stopped at step 0 with rank 0 at 2^-60.
    # Each run takes the same steps and returns 2^k times the unscaled
    # U V^T (measured max relative difference 0.0)
    cfg = SolverConfig(target_rank=4)
    base, base_traces = solver(_completion_at(0), cfg)
    want = base.matrix()
    for k in (-100, -60, 60, 100):
        pair, traces = solver(_completion_at(k), cfg)
        assert pair.rank == base.rank == 4
        assert [(t.iter, t.rank, t.flags) for t in traces] == \
            [(t.iter, t.rank, t.flags) for t in base_traces]
        err = np.abs(np.ldexp(pair.matrix(), -k) - want).max()
        assert err <= 1e-12 * np.abs(want).max(), (k, err)


def test_fast_greedy_grows_at_small_scale():
    # at 2^-60 the first sigma is about 1e-17, which the old floor
    # 1e-12 * (1 + sigma0) took for a zero gradient at step 0
    pair, traces = fast_greedy(_completion_at(-60), SolverConfig(target_rank=4))
    assert pair.rank == 4
    assert all("gradient_zero" not in t.flags for t in traces)


def test_fast_local_search_callback_sees_every_pass():
    cfg = SynthCompletionConfig(40, 40, 3, 0.3, 10.0, 77)
    _, observed, _ = gen_completion(cfg)
    obj = ObservedQuadratic(observed)
    seen = []
    _, traces = fast_local_search(obj, SolverConfig(target_rank=8, seed=7),
                                  callback=lambda t, p: seen.append((t, obj.value(p))))
    assert [t for t, _ in seen] == list(range(traces[-1].iter + 1))
    assert len(seen) > len(traces)  # the non-improving passes are reported too
    traced = {t.iter: t.objective for t in traces}
    assert all(traced[t] == v for t, v in seen if t in traced)


def _completion_objective(m, true_rank, p, seed):
    _, observed, _ = gen_completion(SynthCompletionConfig(m, m, true_rank, p, 10.0, seed))
    return ObservedQuadratic(observed)


def _shuffled(observed, seed):
    order = np.random.default_rng(seed).permutation(observed.nnz)
    return SparseObservations(*observed.shape, observed.row[order],
                              observed.col[order], observed.vals[order])


def _rank_two_at_scale():
    rng = np.random.default_rng(28)
    return quadratic_on(1e6 * rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8)))


SWEEP_CASES = (
    [(f"40x40-seed{s}", lambda s=s: _completion_objective(40, 3, 0.3, s), 8, s)
     for s in range(6)]
    + [(f"100x100-seed{s}", lambda s=s: _completion_objective(100, 5, 0.2, s), 10, s)
       for s in range(6)]
    # ranks above 25 get a larger max_outer_iters from _solver_config
    + [("100x100-rank30", lambda: _completion_objective(100, 5, 0.2, 7), 30, 7),
       ("clipped", lambda: ClippedObservedQuadratic(
           _completion_objective(40, 3, 0.3, 2).target, -1.0, 1.0), 8, 2),
       ("shuffled", lambda: ObservedQuadratic(
           _shuffled(_completion_objective(40, 3, 0.3, 4).target, 4)), 8, 4),
       # greedy stops at step 0 with gradient_zero: every rank starts empty
       ("zero", lambda: quadratic_on(np.zeros((6, 6))), 3, 0),
       # greedy stops at step 2: ranks 3 and 4 start from the rank-2 iterate
       ("exact-rank-2", _rank_two_at_scale, 4, 3)])


def _bits(pair, traces):
    """A solver result as bytes, with the trace's timing left out."""
    return (pair.U.shape, pair.V.shape, pair.U.tobytes(), pair.V.tobytes(),
            repr([dataclasses.replace(t, wall_nanos=0) for t in traces]))


@pytest.mark.parametrize("make, rank, seed", [c[1:] for c in SWEEP_CASES],
                         ids=[c[0] for c in SWEEP_CASES])
def test_fast_local_sweep_matches_per_rank_runs(make, rank, seed):
    objective = make()
    configs = [_solver_config(r, seed, 3) for r in range(1, rank + 1)]

    def log_into(seen):
        return lambda t, pair: seen.append((t, pair.U.tobytes(), pair.V.tobytes()))

    ref_seen, seen = [], []
    reference = [_bits(*fast_local_search(objective, c, callback=log_into(ref_seen)))
                 for c in configs]
    swept = [_bits(*out) for out in fast_local_sweep(objective, configs,
                                                      callback=log_into(seen))]
    assert swept == reference
    assert seen == ref_seen


def test_fast_local_sweep_of_no_configs_yields_nothing():
    # the greedy prefix runs to the largest target rank, and there was none
    assert list(fast_local_sweep(quadratic_on(np.eye(3)), [])) == []


def test_fast_local_sweep_rejects_mixed_seeds():
    configs = [SolverConfig(target_rank=1, seed=0), SolverConfig(target_rank=2, seed=1)]
    with pytest.raises(ValueError, match="seed"):
        list(fast_local_sweep(quadratic_on(np.eye(3)), configs))


def test_fast_local_sweep_checks_only_what_the_greedy_prefix_reads():
    # the shared greedy run reads seed and ls_iters; target_rank and
    # max_outer_iters are each config's own
    objective = _completion_objective(40, 3, 0.3, 1)
    base = SolverConfig(target_rank=4, seed=1)  # 46 swap passes
    configs = [base] + [dataclasses.replace(base, **change) for change in (
        {"max_outer_iters": 5}, {"target_rank": 5},
        {"target_rank": 5, "max_outer_iters": 3})]
    swept = [_bits(*out) for out in fast_local_sweep(objective, configs)]
    assert swept == [_bits(*fast_local_search(objective, c)) for c in configs]
    # max_outer_iters cuts the swap passes short at either rank
    assert swept[1] != swept[0] and swept[3] != swept[2]
    for change in ({"seed": 6}, {"ls_iters": 2}):
        with pytest.raises(ValueError, match="share seed and ls_iters"):
            next(fast_local_sweep(objective, [base, dataclasses.replace(base, **change)]))


def test_fast_solvers_insert_along_clipped_gradient():
    # at the empty start every prediction is 0, clipped up to 1, so the first
    # fast insertion follows 1 - M on Omega; the reference solvers keep -M
    cfg = SynthCompletionConfig(20, 20, 2, 0.5, 10.0, 9)
    _, observed, _ = gen_completion(cfg)
    obj = ClippedObservedQuadratic(observed, 1.0, 5.0)
    plain, clipped = np.zeros((20, 20)), np.zeros((20, 20))
    plain[observed.row, observed.col] = -observed.vals
    clipped[observed.row, observed.col] = 1.0 - observed.vals
    top = {name: np.linalg.svd(g, compute_uv=False)[0]
           for name, g in (("plain", plain), ("clipped", clipped))}
    assert top["clipped"] != pytest.approx(top["plain"], rel=1e-3)
    scfg = SolverConfig(target_rank=1, seed=0)
    for solver, objective, expect in ((fast_greedy, obj, "clipped"),
                                      (greedy, obj, "plain"),
                                      (fast_greedy, ObservedQuadratic(observed), "plain")):
        _, traces = solver(objective, scfg)
        assert traces[0].top_sigma == pytest.approx(top[expect], rel=1e-9)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(target_rank=0)
    with pytest.raises(ValueError):
        SolverConfig(target_rank=1, seed=-3)
