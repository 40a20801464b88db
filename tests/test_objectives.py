import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import lowrank.objectives
from lowrank.linalg import FactorPair, SparseObservations, fits_dense, project_observed
from lowrank.objectives import (ClippedObservedQuadratic, HuberLowRank,
                                ObservedQuadratic, huber_value)
from lowrank.sparse_equiv import LiftedQuadratic, SparseRegressionProblem

from conftest import dense_gradient, full_observations


def random_instance(seed, m=6, n=7, r=3, p=0.6):
    rng = np.random.default_rng(seed)
    keep = np.flatnonzero(rng.random(m * n) < p)
    obs = SparseObservations(m, n, keep // n, keep % n, rng.standard_normal(keep.size))
    pair = FactorPair(rng.standard_normal((m, r)), rng.standard_normal((n, r)))
    return obs, pair, rng


# a set that fits_dense, one under the dense cap below its fill floor and
# one above the cap: the gradients there are a dense array and CSR matrices
SIZES = [dict(m=6, n=7), dict(m=100, n=80, p=0.02), dict(m=300, n=250, p=0.05)]


def fd_directional(value, pair, du, dv, t=1e-6):
    """Central finite difference of value along the factor direction (du, dv)."""
    up = FactorPair(pair.U + t * du, pair.V + t * dv)
    dn = FactorPair(pair.U - t * du, pair.V - t * dv)
    return (value(up) - value(dn)) / (2 * t)


def grad_inner(grad, pair, du, dv):
    """<grad, d(UV^T)> for the factor perturbation (du, dv)."""
    g = dense_gradient(grad)
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
    for m, n in ((4, 5), (260, 260)):
        pair = FactorPair(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
        obs = full_observations(pair.matrix())
        g = ObservedQuadratic(obs).gradient(pair)
        assert sp.issparse(g) != fits_dense(obs.shape, obs.nnz)
        assert np.allclose(dense_gradient(g), 0.0, atol=1e-12)

        zero = FactorPair.empty(obs.rows, obs.cols)
        g0 = dense_gradient(ObservedQuadratic(obs).gradient(zero))
        assert np.array_equal(g0[obs.row, obs.col], -obs.vals)  # -Pi_Omega(M)


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
    for size in SIZES:
        obs, pair, _ = random_instance(9, **size)
        g = dense_gradient(ObservedQuadratic(obs).gradient(pair))
        dense = pair.matrix()
        assert np.allclose(g[obs.row, obs.col], dense[obs.row, obs.col] - obs.vals,
                           atol=1e-12)


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


def test_cached_residual_cannot_be_written():
    # value and gradient share one cached residual; no caller can change it
    for size in SIZES:
        for shuffled in (False, True):
            obs, pair, rng = random_instance(12, **size)
            if shuffled:
                order = rng.permutation(obs.nnz)
                obs = SparseObservations(obs.rows, obs.cols, obs.row[order],
                                         obs.col[order], obs.vals[order])
            obj = ObservedQuadratic(obs)
            res = obj.residual(pair)
            assert obj.residual(pair) is res
            assert np.array_equal(res, project_observed(pair, obs) - obs.vals)
            grad = obj.gradient(pair)
            if fits_dense(obs.shape, obs.nnz):
                # the dense gradient is the cached residual scattered onto zeros
                want = np.zeros(obs.shape)
                want[obs.row, obs.col] = res
                assert grad.tobytes() == want.tobytes()
            for arr in (res, grad.data if sp.issparse(grad) else grad):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0
            assert obj.value(pair) == 0.5 * float(res @ res)


def test_clipped_insertion_gradient_is_clip_of_prediction_bit_for_bit():
    # clipping the residual to [lo - vals, hi - vals] equals clip(pred) - vals,
    # also for predictions on or next to a bound
    # (targets of mixed sign and size, so that pred - vals rounds)
    rng = np.random.default_rng(14)
    m, n, r = 40, 30, 3
    keep = np.flatnonzero(rng.random(m * n) < 0.7)
    vals = rng.standard_normal(keep.size) * 10.0 ** rng.uniform(-3, 1, keep.size)
    obs = SparseObservations(m, n, keep // n, keep % n, vals)
    pair = FactorPair(rng.standard_normal((m, r)), rng.standard_normal((n, r)))
    pred = project_observed(pair, obs)
    for lo, hi in ((-1.0, 1.0), (np.quantile(pred, 0.2), np.quantile(pred, 0.8)),
                   (np.nextafter(pred.min(), -np.inf), pred.max())):
        want = np.clip(pred, lo, hi) - vals
        got = dense_gradient(ClippedObservedQuadratic(obs, lo, hi).insertion_gradient(pair))
        assert np.array_equal(got[obs.row, obs.col], want)


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
    assert obj.gradient(pair)[0, 0] == pytest.approx(0.5)


def test_huber_linear_branch():
    m = np.zeros((2, 2))
    m[0, 0] = -2.0
    obj = HuberLowRank(m, delta=1.0)
    pair = FactorPair.empty(2, 2)
    assert obj.value(pair) == pytest.approx(1.5)  # 1*2 - 1/2
    assert obj.gradient(pair)[0, 0] == pytest.approx(1.0)


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


def test_huber_value_matches_piecewise_definition():
    rng = np.random.default_rng(5)
    for delta in (0.3, 1.0, 2.5):
        edges = np.array([delta, -delta, 0.0, 1e8, -1e8, np.nextafter(delta, 0.0),
                          np.nextafter(delta, np.inf)])
        resid = np.concatenate([edges, 0.9 * delta * rng.uniform(-1, 1, 30),
                                delta * rng.uniform(1.1, 50, 30) * rng.choice([-1, 1], 30)])
        for r in (resid, resid[:5], resid[5:]):
            want = sum(0.5 * x * x if abs(x) <= delta else delta * abs(x) - 0.5 * delta * delta
                       for x in r.tolist())
            assert huber_value(r, delta) == pytest.approx(want, rel=1e-14)
            assert huber_value(r, delta, np.clip(r, -delta, delta)) == huber_value(r, delta)


# several row blocks of M, the last one partial
@pytest.mark.parametrize("m, n", [(300, 200), (37, 2000)])
def test_huber_blocked_pass_matches_whole_residual(m, n):
    rng = np.random.default_rng(m + n)
    target = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    target[rng.random((m, n)) < 0.1] += 10.0
    pair = FactorPair(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    obj = HuberLowRank(target, 1.0)
    resid = pair.matrix() - target
    clipped = np.clip(resid, -1.0, 1.0)
    want = huber_value(resid, 1.0)
    assert obj.value(pair) == pytest.approx(want, rel=1e-13)
    # both sides walk M's row blocks
    per_block = lowrank.objectives._HUBER_BLOCK_CELLS // n
    assert per_block < m and m % per_block
    for side, grad in ((0, clipped @ pair.V), (1, clipped.T @ pair.U)):
        value, got = obj.evaluate(pair, side)
        assert value == pytest.approx(want, rel=1e-13)
        assert value == obj.evaluate(pair)[0]  # the same block sum on every side
        assert np.linalg.norm(got - grad) <= 1e-13 * np.linalg.norm(grad)
    assert np.array_equal(obj.gradient(pair), clipped)


@pytest.mark.parametrize("rows, cols", [(5, 1), (1, 4)])
def test_huber_rejects_pair_of_wrong_shape(rows, cols):
    obj = HuberLowRank(np.ones((5, 4)), 1.0)
    pair = FactorPair(np.ones((rows, 2)), np.ones((cols, 2)))
    calls = (obj.value, obj.gradient, lambda p: obj.evaluate(p, 0),
             lambda p: obj.evaluate(p, 1))
    for call in calls:
        with pytest.raises(ValueError, match=rf"factor shape \({rows}, {cols}\) "
                                             r"!= target shape \(5, 4\)"):
            call(pair)


def test_huber_rejects_bad_delta():
    with pytest.raises(ValueError):
        HuberLowRank(np.zeros((2, 2)), delta=0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="delta"):
            HuberLowRank(np.zeros((2, 2)), delta=bad)


def test_huber_rejects_non_finite_target():
    for bad in (np.nan, np.inf, -np.inf):
        target = np.zeros((2, 3))
        target[1, 2] = bad
        with pytest.raises(ValueError, match="target"):
            HuberLowRank(target, delta=1.0)


# --------------------------------------------------------------- clipped

def test_clipped_matches_plain_inside_range():
    obs, pair, _ = random_instance(11)
    pair = FactorPair(pair.U * 0.01, pair.V * 0.01)  # predictions near 0, inside range
    obj = ClippedObservedQuadratic(obs, -10.0, 10.0)
    g_clip = dense_gradient(obj.insertion_gradient(pair))
    dense = pair.matrix()
    assert np.allclose(g_clip[obs.row, obs.col], dense[obs.row, obs.col] - obs.vals,
                       atol=1e-12)


def test_clipped_clamps_then_subtracts():
    obs = SparseObservations(1, 1, [0], [0], [4.0])
    pair = FactorPair(np.array([[7.2]]), np.array([[1.0]]))
    obj = ClippedObservedQuadratic(obs, 1.0, 5.0)
    assert dense_gradient(obj.insertion_gradient(pair))[0, 0] == pytest.approx(1.0)


def test_clipped_matches_bruteforce():
    obs, pair, _ = random_instance(13)
    lo, hi = -0.5, 0.5
    obj = ClippedObservedQuadratic(obs, lo, hi)
    got = dense_gradient(obj.insertion_gradient(pair))[obs.row, obs.col]
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


# ---------------------------------------------------------- gradient matrices

def _on_omega(obs, a):
    """Pi_Omega(a) as a dense array."""
    out = np.zeros(obs.shape)
    out[obs.row, obs.col] = a[obs.row, obs.col]
    return out


def _check_matrix(g, want, sparse, rng):
    """g is a CSR matrix (sparse) or an ndarray equal to `want`, products included."""
    assert sp.issparse(g) == sparse and g.shape == want.shape
    if sparse:
        assert g.format == "csr"
    else:
        assert isinstance(g, np.ndarray)
    assert np.allclose(dense_gradient(g), want, atol=1e-12, rtol=0)
    x, y = rng.standard_normal(want.shape[1]), rng.standard_normal(want.shape[0])
    assert np.allclose(g @ x, want @ x, atol=1e-12)
    assert np.allclose(g.T @ y, want.T @ y, atol=1e-12)


def test_gradient_matrices_match_dense_reference():
    # the small instance last: the Huber and lifted checks reuse its draws
    for size in SIZES[::-1]:
        obs, pair, rng = random_instance(17, **size)
        a, m = pair.matrix(), np.zeros(obs.shape)
        m[obs.row, obs.col] = obs.vals
        perm = rng.permutation(obs.nnz)
        shuffled = SparseObservations(obs.rows, obs.cols, obs.row[perm], obs.col[perm],
                                      obs.vals[perm])
        got = {}
        for key, omega in (("sorted", obs), ("shuffled", shuffled)):
            quad, clip = ObservedQuadratic(omega), ClippedObservedQuadratic(omega, -0.5, 0.5)
            got[key] = [quad.gradient(pair), clip.insertion_gradient(pair)]
            wants = [_on_omega(omega, a - m), _on_omega(omega, np.clip(a, -0.5, 0.5) - m)]
            for g, want in zip(got[key], wants):
                _check_matrix(g, want, not fits_dense(obs.shape, obs.nnz), rng)
        # entry order changes nothing: each entry's value is computed alone
        for g, h in zip(got["sorted"], got["shuffled"]):
            assert np.array_equal(dense_gradient(g), dense_gradient(h))

    huber = HuberLowRank(m, 0.7)
    _check_matrix(huber.gradient(pair), np.clip(a - m, -0.7, 0.7), False, rng)

    design = rng.standard_normal((12, 6))
    problem = SparseRegressionProblem(design, rng.standard_normal(12), 2)
    lifted, beta = LiftedQuadratic(problem, 2.0), 2.0
    sq = FactorPair(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
    a6 = sq.matrix()
    off = np.ones((6, 6)) - np.eye(6)
    _check_matrix(lifted.gradient(sq),
                  np.diag(problem.grad(np.diag(a6).copy())) + beta * off * a6, False, rng)


def _dense_normal_matrix(U, V, hessian):
    """The matrix of X -> vec(U^T hessian(U X V^T) V), one basis X at a time."""
    r = U.shape[1]
    cols = []
    for k in range(r * r):
        x = np.zeros(r * r)
        x[k] = 1.0
        cols.append((U.T @ hessian(U @ x.reshape(r, r) @ V.T) @ V).ravel())
    return np.column_stack(cols)


def test_observed_normal_matrix_matches_dense_hessian():
    # both sides of fits_dense, sorted and shuffled entries
    dense = set()
    for size in SIZES:
        m, n = size["m"], size["n"]
        obs, _, rng = random_instance(23, m=m, n=n, p=size.get("p", 0.6))
        perm = rng.permutation(obs.nnz)
        shuffled = SparseObservations(m, n, obs.row[perm], obs.col[perm],
                                      obs.vals[perm])
        dense.add(fits_dense(obs.shape, obs.nnz))
        U, V = rng.standard_normal((m, 3)), rng.standard_normal((n, 3))
        want = _dense_normal_matrix(U, V, lambda e: _on_omega(obs, e))
        for omega in (obs, shuffled):
            h = ObservedQuadratic(omega).normal_equations(U, V)[0]
            assert h.shape == (9, 9)
            assert np.allclose(h, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            x = rng.standard_normal(9)
            assert np.allclose(h @ x, want @ x, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max() * np.abs(x).sum())
    assert dense == {True, False}


def test_lifted_normal_matrix_matches_dense_hessian():
    rng = np.random.default_rng(29)
    design = rng.standard_normal((12, 7))
    problem = SparseRegressionProblem(design, rng.standard_normal(12), 3)
    gram = design.T @ design
    top = float(np.linalg.eigvalsh(gram)[-1])
    U, V = rng.standard_normal((7, 3)), rng.standard_normal((7, 3))
    for beta in (1.01 * top, 0.3 * top):  # G - beta I negative / indefinite
        lifted = LiftedQuadratic(problem, beta)

        def hessian(e):
            return np.diag(gram @ np.diag(e)) + beta * (e - np.diag(np.diag(e)))

        want = _dense_normal_matrix(U, V, hessian)
        h = lifted.normal_equations(U, V)[0]
        assert np.allclose(h, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        x = rng.standard_normal(9)
        assert np.allclose(h @ x, want @ x, rtol=1e-12,
                           atol=1e-12 * np.abs(want).max() * np.abs(x).sum())


def test_normal_equations_right_side_is_minus_the_zero_gradient_bit_for_bit():
    # b = -U^T grad R(0) V, as the full refit formed it from the gradient at
    # the empty pair; both sides of fits_dense for the observed objective
    rng = np.random.default_rng(31)
    design = rng.standard_normal((12, 7))
    lifted = LiftedQuadratic(SparseRegressionProblem(design, rng.standard_normal(12), 3), 2.0)
    objectives = [lifted]
    for size in SIZES:
        obs, _, _ = random_instance(37, m=size["m"], n=size["n"], p=size.get("p", 0.6))
        objectives.append(ObservedQuadratic(obs))
    for objective in objectives:
        m, n = objective.shape
        U, V = rng.standard_normal((m, 3)), rng.standard_normal((n, 3))
        g0 = objective.gradient(FactorPair.empty(m, n))
        assert np.array_equal(objective.normal_equations(U, V)[1], -(U.T @ (g0 @ V)))


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
