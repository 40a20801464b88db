import sys
import threading

import numpy as np
import pytest

import lowrank.objectives
from lowrank.linalg import FactorPair, SparseObservations
from lowrank.objectives import (ClippedObservedQuadratic, GradientHandle,
                                HuberLowRank, ObservedQuadratic, huber_value)

from conftest import dense_gradient, full_observations


def random_instance(seed, m=6, n=7, r=3, p=0.6):
    rng = np.random.default_rng(seed)
    keep = np.flatnonzero(rng.random(m * n) < p)
    obs = SparseObservations(m, n, keep // n, keep % n, rng.standard_normal(keep.size))
    pair = FactorPair(rng.standard_normal((m, r)), rng.standard_normal((n, r)))
    return obs, pair, rng


def fd_directional(value, pair, du, dv, t=1e-6):
    """Central finite difference of value along the factor direction (du, dv)."""
    up = FactorPair(pair.U + t * du, pair.V + t * dv)
    dn = FactorPair(pair.U - t * du, pair.V - t * dv)
    return (value(up) - value(dn)) / (2 * t)


def grad_inner(handle, pair, du, dv):
    """<grad, d(UV^T)> for the factor perturbation (du, dv)."""
    g = dense_gradient(handle)
    return float(np.sum(g * (du @ pair.V.T + pair.U @ dv.T)))


# --------------------------------------------------------- observed quadratic

def test_quadratic_exact_fit_is_zero():
    rng = np.random.default_rng(0)
    pair = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))
    obs = full_observations(pair.matrix())
    assert ObservedQuadratic(obs).value(pair) == pytest.approx(0.0, abs=1e-20)


def test_quadratic_single_entry():
    obs = SparseObservations(2, 2, [0], [0], [3.0])
    pair = FactorPair(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))
    assert ObservedQuadratic(obs).value(pair) == pytest.approx(2.0)  # (3-1)^2/2


def test_quadratic_matches_bruteforce():
    obs, pair, _ = random_instance(5)
    obj = ObservedQuadratic(obs)
    dense = pair.matrix()
    total = 0.0
    for i, j, v in zip(obs.row, obs.col, obs.vals):
        total += 0.5 * (v - dense[i, j]) ** 2
    assert obj.value(pair) == pytest.approx(total, abs=1e-12)


def test_quadratic_gradient_trivials():
    rng = np.random.default_rng(1)
    pair = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))
    obs = full_observations(pair.matrix())
    g = ObservedQuadratic(obs).gradient(pair)
    assert np.allclose(g.sparse.vals, 0.0, atol=1e-12)

    zero = FactorPair.empty(obs.rows, obs.cols)
    g0 = ObservedQuadratic(obs).gradient(zero)
    assert np.allclose(g0.sparse.vals, -obs.vals)  # -Pi_Omega(M)


def test_quadratic_gradient_fd():
    obs, pair, rng = random_instance(7)
    obj = ObservedQuadratic(obs)
    g = obj.gradient(pair)
    for _ in range(5):
        du = rng.standard_normal(pair.U.shape)
        dv = rng.standard_normal(pair.V.shape)
        fd = fd_directional(obj.value, pair, du, dv)
        an = grad_inner(g, pair, du, dv)
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gradient_sign_convention():
    # project-wide: grad = Pi_Omega(A - M)
    obs, pair, _ = random_instance(9)
    g = ObservedQuadratic(obs).gradient(pair)
    dense = pair.matrix()
    assert np.allclose(g.sparse.vals, dense[obs.row, obs.col] - obs.vals, atol=1e-12)


# ----------------------------------------------------------------- huber

def _count_projections(monkeypatch):
    calls = []
    project = lowrank.objectives.project_observed

    def counting(pair, omega):
        calls.append(pair)
        return project(pair, omega)

    monkeypatch.setattr(lowrank.objectives, "project_observed", counting)
    return calls


def test_value_then_gradient_projects_once(monkeypatch):
    obs, pair, _ = random_instance(9)
    want_value = ObservedQuadratic(obs).value(pair)
    want_grad = dense_gradient(ObservedQuadratic(obs).gradient(pair))
    calls = _count_projections(monkeypatch)
    obj = ObservedQuadratic(obs)
    assert obj.value(pair) == want_value
    assert np.array_equal(dense_gradient(obj.gradient(pair)), want_grad)
    assert len(calls) == 1
    # a new pair object projects again, even with equal factors
    again = FactorPair(pair.U, pair.V)
    assert obj.value(again) == want_value
    assert len(calls) == 2


def test_clipped_insertion_gradient_shares_projection(monkeypatch):
    obs, pair, _ = random_instance(10)
    want = dense_gradient(ClippedObservedQuadratic(obs, -0.5, 0.5).insertion_gradient(pair))
    calls = _count_projections(monkeypatch)
    obj = ClippedObservedQuadratic(obs, -0.5, 0.5)
    obj.value(pair)
    assert np.array_equal(dense_gradient(obj.insertion_gradient(pair)), want)
    obj.gradient(pair)
    assert len(calls) == 1


def test_shared_objective_cache_under_threads():
    obs, _, rng = random_instance(11, m=30, n=20, p=0.5)
    pairs = [FactorPair(rng.standard_normal((30, 2)), rng.standard_normal((20, 2)))
             for _ in range(8)]
    want = [(ObservedQuadratic(obs).value(p),
             dense_gradient(ObservedQuadratic(obs).gradient(p))) for p in pairs]
    obj = ObservedQuadratic(obs)
    wrong = []

    def work(k):
        for _ in range(200):
            value = obj.value(pairs[k])
            grad = dense_gradient(obj.gradient(pairs[k]))
            if value != want[k][0] or not np.array_equal(grad, want[k][1]):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(pairs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_huber_quadratic_branch():
    m = np.zeros((2, 2))
    m[0, 0] = -0.5  # residual = A - M = 0.5 at (0,0) with A = 0
    obj = HuberLowRank(m, delta=1.0)
    pair = FactorPair.empty(2, 2)
    assert obj.value(pair) == pytest.approx(0.125)
    assert obj.gradient(pair).dense[0, 0] == pytest.approx(0.5)


def test_huber_linear_branch():
    m = np.zeros((2, 2))
    m[0, 0] = -2.0
    obj = HuberLowRank(m, delta=1.0)
    pair = FactorPair.empty(2, 2)
    assert obj.value(pair) == pytest.approx(1.5)  # 1*2 - 1/2
    assert obj.gradient(pair).dense[0, 0] == pytest.approx(1.0)


def test_huber_gradient_fd_away_from_kinks():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6))
    delta = 0.9
    pair = FactorPair(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
    obj = HuberLowRank(m, delta)
    # keep residuals off the kink |r| = delta
    resid = obj.residual(pair)
    assert np.abs(np.abs(resid) - delta).min() > 1e-3
    g = obj.gradient(pair)
    for _ in range(5):
        du = rng.standard_normal(pair.U.shape)
        dv = rng.standard_normal(pair.V.shape)
        fd = fd_directional(obj.value, pair, du, dv, t=1e-7)
        an = grad_inner(g, pair, du, dv)
        assert an == pytest.approx(fd, rel=1e-5)


def test_huber_dominated_by_quadratic():
    rng = np.random.default_rng(4)
    resid = rng.standard_normal((8, 8)) * 3
    for delta in (0.3, 1.0, 2.5):
        assert huber_value(resid, delta) <= 0.5 * float(np.sum(resid * resid)) + 1e-12


def test_huber_rejects_bad_delta():
    with pytest.raises(ValueError):
        HuberLowRank(np.zeros((2, 2)), delta=0.0)


# --------------------------------------------------------------- clipped

def test_clipped_matches_plain_inside_range():
    obs, pair, _ = random_instance(11)
    pair = FactorPair(pair.U * 0.01, pair.V * 0.01)  # predictions near 0, inside range
    obj = ClippedObservedQuadratic(obs, -10.0, 10.0)
    g_clip = obj.insertion_gradient(pair)
    dense = pair.matrix()
    assert np.allclose(g_clip.vals if hasattr(g_clip, "vals") else g_clip.sparse.vals,
                       dense[obs.row, obs.col] - obs.vals, atol=1e-12)


def test_clipped_clamps_then_subtracts():
    obs = SparseObservations(1, 1, [0], [0], [4.0])
    pair = FactorPair(np.array([[7.2]]), np.array([[1.0]]))
    obj = ClippedObservedQuadratic(obs, 1.0, 5.0)
    assert obj.insertion_gradient(pair).sparse.vals[0] == pytest.approx(1.0)


def test_clipped_matches_bruteforce():
    obs, pair, _ = random_instance(13)
    lo, hi = -0.5, 0.5
    obj = ClippedObservedQuadratic(obs, lo, hi)
    got = obj.insertion_gradient(pair).sparse.vals
    dense = pair.matrix()
    expect = [min(max(dense[i, j], lo), hi) - v
              for i, j, v in zip(obs.row, obs.col, obs.vals)]
    assert np.allclose(got, expect, atol=1e-12)


def test_clipped_value_reports_unclipped_quadratic():
    obs, pair, _ = random_instance(15)
    clip = ClippedObservedQuadratic(obs, 1.0, 5.0)
    plain = ObservedQuadratic(obs)
    assert clip.value(pair) == plain.value(pair)


def test_clipped_rejects_bad_range():
    obs = SparseObservations(1, 1, [0], [0], [1.0])
    with pytest.raises(ValueError):
        ClippedObservedQuadratic(obs, 5.0, 1.0)


# ---------------------------------------------------------- gradient handle

def test_handle_operator_agrees_with_materialized():
    obs, pair, rng = random_instance(17)
    for handle in (ObservedQuadratic(obs).gradient(pair),
                   HuberLowRank(np.zeros(obs.shape), 1.0).gradient(pair)):
        dense = dense_gradient(handle)
        op = handle.operator()
        x = rng.standard_normal(obs.cols)
        y = rng.standard_normal(obs.rows)
        assert np.allclose(op.matvec(x), dense @ x, atol=1e-12)
        assert np.allclose(op.rmatvec(y), dense.T @ y, atol=1e-12)


def test_handle_requires_exactly_one_form():
    with pytest.raises(ValueError):
        GradientHandle()
    with pytest.raises(ValueError):
        GradientHandle(sparse=SparseObservations(1, 1, [0], [0], [1.0]),
                       dense=np.zeros((1, 1)))


def test_gradients_match_fd_on_twenty_directions():
    # the project-wide invariant: 20 random rank-1 directions per objective
    obs, pair, rng = random_instance(19)
    quad = ObservedQuadratic(obs)
    hub = HuberLowRank(rng.standard_normal(obs.shape), 0.8)
    for obj in (quad, hub):
        g = obj.gradient(pair)
        for _ in range(20):
            du = np.outer(rng.standard_normal(pair.U.shape[0]),
                          rng.standard_normal(pair.U.shape[1]))
            dv = np.zeros(pair.V.shape)
            fd = fd_directional(obj.value, pair, du, dv, t=1e-7)
            an = grad_inner(g, pair, du, dv)
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-7)
