import itertools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lowrank import inner, linalg, objectives
from lowrank.inner import optimize_fast, optimize_full
from lowrank.linalg import (FactorPair, SparseObservations, fits_dense, fits_gram,
                            project_observed)
from lowrank.objectives import HuberLowRank, ObservedQuadratic
from lowrank.solvers import SolverConfig, greedy, local_search

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
    pair = optimize_full(u, v, obj)
    x_expect = u.T @ m @ v
    assert np.allclose(pair.U, u @ x_expect, atol=1e-8)
    assert np.allclose(pair.V, v)


def test_optimize_full_single_entry_scalar():
    obs = SparseObservations(3, 3, [1], [2], [6.0])
    u = np.array([[0.0], [2.0], [0.0]])
    v = np.array([[0.0], [0.0], [3.0]])
    pair = optimize_full(u, v, ObservedQuadratic(obs))
    # u_1 * X * v_2 = 6 -> X = 1
    assert pair.matrix()[1, 2] == pytest.approx(6.0, abs=1e-10)


def test_optimize_full_first_order_optimality():
    obs, rng = sparse_instance(3)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((20, 3))
    v = rng.standard_normal((20, 3))
    pair = optimize_full(u, v, obj)
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
        pair = optimize_full(u, v, obj)
        assert obj.value(pair) <= before + 1e-12


def test_optimize_full_rank_zero_noop():
    obs = SparseObservations(3, 3, [0], [0], [1.0])
    pair = optimize_full(np.zeros((3, 0)), np.zeros((3, 0)), ObservedQuadratic(obs))
    assert pair.rank == 0


def test_optimize_full_rejects_non_quadratic():
    obj = HuberLowRank(np.zeros((3, 3)), 1.0)
    with pytest.raises(ValueError, match="quadratic"):
        optimize_full(np.ones((3, 1)), np.ones((3, 1)), obj)


def test_optimize_full_singular_system_min_norm():
    # duplicate columns make the normal system singular; the refit still
    # returns a finite (minimum-norm) solution
    obs, rng = sparse_instance(8, m=10, n=10, p=0.7)
    obj = ObservedQuadratic(obs)
    col_u = rng.standard_normal((10, 1))
    col_v = rng.standard_normal((10, 1))
    u = np.hstack([col_u, col_u])
    v = np.hstack([col_v, col_v])
    pair = optimize_full(u, v, obj)
    assert np.all(np.isfinite(pair.U))
    before = obj.value(FactorPair(u, v))
    assert obj.value(pair) <= before + 1e-12


def _lstsq_coefficients(obs, U, V):
    """The minimum-norm X of min ||U[row] X V[col]^T - vals||, by lstsq on the
    explicit nnz x r^2 design (row-major vec(X))."""
    design = (U[obs.row][:, :, None] * V[obs.col][:, None, :]).reshape(obs.nnz, -1)
    r = U.shape[1]
    return np.linalg.lstsq(design, obs.vals, rcond=None)[0].reshape(r, r)


@pytest.mark.parametrize("kind", ["random", "duplicate", "ill"])
def test_optimize_full_matches_min_norm_lstsq(kind):
    # U has orthonormal columns, so X = U^T (U X); the duplicate and
    # ill-conditioned cases put their defect in V. Wide and tall sets and
    # both gradient kernels are covered.
    for seed, (m, n, p) in enumerate([(12, 15, 0.6), (15, 12, 0.6), (300, 260, 0.05)]):
        obs, rng = sparse_instance(40 + seed, m, n, p)
        U, _ = np.linalg.qr(rng.standard_normal((m, 3)))
        V = rng.standard_normal((n, 3))
        if kind == "duplicate":
            V[:, 2] = V[:, 0]
        elif kind == "ill":
            V[:, 2] = V[:, 0] + 1e-3 * V[:, 2]
        want = _lstsq_coefficients(obs, U, V)
        got = U.T @ optimize_full(U, V, ObservedQuadratic(obs)).U
        tol = {"random": 1e-12, "duplicate": 1e-12, "ill": 1e-7}[kind]
        assert np.abs(got - want).max() <= tol * np.abs(want).max(), kind


def test_optimize_full_rank_cap():
    # the cap is checked before anything is built, and the solvers check
    # their target rank before the first step
    obs = SparseObservations(60, 60, [0], [0], [1.0])
    obj = ObservedQuadratic(obs)
    rank = 46  # 46^4 cells > 2^22
    with pytest.raises(ValueError, match=rf"rank {rank} .*cap of {linalg._REFIT_CELLS}"):
        optimize_full(np.zeros((60, rank)), np.zeros((60, rank)), obj)
    for solver in (greedy, local_search):
        with pytest.raises(ValueError, match=rf"rank {rank} .*cap"):
            solver(obj, SolverConfig(target_rank=rank))
    inner.check_full_refit(45, obs.shape)  # 45^4 cells fit
    # column products count too: r^2 cells for each row of the longer side
    inner.check_full_refit(26, (6040, 3706))
    with pytest.raises(ValueError, match="rank 27"):
        inner.check_full_refit(27, (3706, 6040))


# ------------------------------------------------------------- optimize_fast

def test_optimize_fast_rank_zero_noop():
    obs = SparseObservations(3, 4, [0], [0], [1.0])
    U, V = np.zeros((3, 0)), np.zeros((4, 0))
    for objective in (ObservedQuadratic(obs), HuberLowRank(np.ones((3, 4)), 1.0), None):
        for t in (0, 1):
            pair = optimize_fast(U, V, t, objective, 3)
            assert pair.U is U and pair.V is V


def test_optimize_fast_rejects_an_objective_it_has_no_refit_for():
    pair = FactorPair(np.ones((3, 1)), np.ones((4, 1)))
    with pytest.raises(TypeError, match="objective object has no fast inner solve"):
        optimize_fast(pair.U, pair.V, 0, object(), 3)


def test_optimize_fast_fully_observed_orthonormal():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((9, 6))
    v, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    obj = ObservedQuadratic(full_observations(m))
    u0 = rng.standard_normal((9, 2))
    pair = optimize_fast(u0, v, 0, obj, 50)
    assert np.allclose(pair.U, m @ v, atol=1e-8)
    assert np.array_equal(pair.V, v)


def test_optimize_fast_unobserved_row_unchanged():
    # row 2 of V's side (column 2 of the matrix) has no observations
    obs = SparseObservations(3, 3, [0, 1], [0, 1], [1.0, 2.0])
    rng = np.random.default_rng(2)
    u = rng.standard_normal((3, 2))
    v0 = rng.standard_normal((3, 2))
    pair = optimize_fast(u, v0, 1, ObservedQuadratic(obs), 3)
    assert np.array_equal(pair.V[2], v0[2])
    assert np.array_equal(pair.U, u)


def test_optimize_fast_matches_dense_oracle_at_high_cap():
    obs, rng = sparse_instance(4, m=15, n=12, p=0.7)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((15, 3))
    v0 = rng.standard_normal((12, 3))
    pair = optimize_fast(u, v0, 1, obj, 100)
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
    capped = optimize_fast(u, v0, 1, obj, 3)
    assert obj.value(capped) >= oracle_obj - 1e-10


def test_optimize_fast_alternation_sides():
    obs, rng = sparse_instance(5, m=8, n=9, p=0.8)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((8, 2))
    v = rng.standard_normal((9, 2))
    even = optimize_fast(u, v, 0, obj, 3)
    assert np.array_equal(even.V, v)
    assert not np.array_equal(even.U, u)
    odd = optimize_fast(u, v, 1, obj, 3)
    assert np.array_equal(odd.U, u)
    assert not np.array_equal(odd.V, v)


def test_optimize_fast_column_permutation_invariance():
    obs, rng = sparse_instance(6, m=10, n=8, p=0.6)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((10, 3))
    v = rng.standard_normal((8, 3))
    base = optimize_fast(u, v, 1, obj, 3)

    perm = rng.permutation(8)
    inv = np.argsort(perm)
    obs_p = SparseObservations(10, 8, obs.row, inv[obs.col], obs.vals)
    v_p = v[perm]
    out_p = optimize_fast(u, v_p, 1, ObservedQuadratic(obs_p), 3)
    assert np.allclose(out_p.V[inv], base.V, atol=1e-12, rtol=0)


def test_optimize_fast_deterministic():
    obs, rng = sparse_instance(7)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((20, 3))
    v = rng.standard_normal((20, 3))
    a = optimize_fast(u, v, 0, obj, 3)
    b = optimize_fast(u, v, 0, obj, 3)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)


def test_optimize_fast_high_cap_stays_finite():
    # CG iterated past convergence must freeze, not blow up
    obs, rng = sparse_instance(9, m=30, n=30, p=0.2)
    obj = ObservedQuadratic(obs)
    u = rng.standard_normal((30, 10))
    v = rng.standard_normal((30, 10))
    pair = optimize_fast(u, v, 0, obj, 200)
    assert np.all(np.isfinite(pair.U))
    assert np.abs(pair.U).max() < 1e6



def _capped_cgnr_without_break(W, F, omega, iters, kernel, side):
    """The capped CGNR loop run for all `iters` steps, frozen rows or not, on
    the dense masked products, the per-row Gram matrices or the sparse gather
    and CSR products; side 1 reads each matrix of `omega` through `.T`."""
    def oriented(a):
        return a.T if side else a

    X = np.zeros_like(W)
    if kernel == "dense":
        mask, target = map(oriented, omega.dense)
        R = target @ F
    else:
        R = oriented(omega.csr_with(omega.vals)) @ F
    if kernel == "gram":
        r = F.shape[1]
        a, b = np.triu_indices(r)
        packed = oriented(omega.pattern) @ (F[:, a] * F[:, b])
        gram = np.empty((W.shape[0], r, r))
        gram[:, a, b] = packed
        gram[:, b, a] = packed
    P = R.copy()
    rs = np.einsum("ij,ij->i", R, R)
    floor = 1e-26 * rs
    for _ in range(iters):
        if kernel == "dense":
            Q = ((P @ F.T) * mask) @ F
        elif kernel == "gram":
            Q = np.einsum("ijk,ik->ij", gram, P)
        else:
            pair = FactorPair(F, P) if side else FactorPair(P, F)
            Q = oriented(omega.csr_with(project_observed(pair, omega))) @ F
        pq = np.einsum("ij,ij->i", P, Q)
        ok = (pq > 0.0) & (rs > floor)
        alpha = np.where(ok, rs / np.where(ok, pq, 1.0), 0.0)
        X += alpha[:, None] * P
        R = R - alpha[:, None] * Q
        rs_new = np.einsum("ij,ij->i", R, R)
        beta = np.where(ok, rs_new / np.where(ok, rs, 1.0), 0.0)
        P = np.where(ok[:, None], R + beta[:, None] * P, P)
        rs = np.where(ok, rs_new, rs)
    untouched = omega._counts[side] == 0
    X[untouched] = W[untouched]
    return X


def _kernel(omega, rank, iters, side):
    """The kernel `_capped_cgnr` takes for this set, rank, step cap and side."""
    if fits_dense(omega.shape, omega.nnz):
        return "dense"
    return "gram" if fits_gram(omega.shape[side], rank, iters) else "gather"


# 300 x 240 = 72,000 cells, above the 65,536-cell cap: a sparse kernel.
# About 7 entries per row keep the rank-4 row systems solvable, so rows
# freeze well inside a 100-step cap.
ABOVE_CAP = dict(m=300, n=240, p=0.03)


def test_optimize_fast_stop_on_frozen_rows_is_bit_identical():
    small = dict(m=25, n=18, p=0.3)
    cases = [(13, 3, small, 4, "dense"), (14, 40, small, 4, "dense"),
             (15, 100, small, 4, "dense"), (13, 3, ABOVE_CAP, 4, "gram"),
             (14, 40, ABOVE_CAP, 4, "gram"), (15, 100, ABOVE_CAP, 4, "gram"),
             (16, 2, ABOVE_CAP, 12, "gather")]
    for seed, iters, size, rank, kernel in cases:
        obs, rng = sparse_instance(seed, **size)
        assert _kernel(obs, rank, iters, 0) == _kernel(obs, rank, iters, 1) == kernel
        obj = ObservedQuadratic(obs)
        u = rng.standard_normal((size["m"], rank))
        v = rng.standard_normal((size["n"], rank))
        assert np.array_equal(optimize_fast(u, v, 0, obj, iters).U,
                              _capped_cgnr_without_break(u, v, obs, iters, kernel, 0))
        assert np.array_equal(optimize_fast(u, v, 1, obj, iters).V,
                              _capped_cgnr_without_break(v, u, obs, iters, kernel, 1))


def test_optimize_fast_stops_once_every_row_froze(monkeypatch):
    # rank-4 row systems reach their floor in a few steps; on the dense and
    # the Gram kernel the loop must not keep multiplying frozen rows for the
    # rest of the 100-step cap
    calls = []
    normal_products = inner._normal_products

    def counting(F, omega, iters, side):
        R, product = normal_products(F, omega, iters, side)

        def counted(P):
            calls.append(1)
            return product(P)

        return R, counted

    monkeypatch.setattr(inner, "_normal_products", counting)
    for size, kernel in ((dict(m=25, n=18, p=0.6), "dense"), (ABOVE_CAP, "gram")):
        obs, rng = sparse_instance(16, **size)
        u = rng.standard_normal((size["m"], 4))
        v = rng.standard_normal((size["n"], 4))
        for t in (0, 1):
            calls.clear()
            optimize_fast(u, v, t, ObservedQuadratic(obs), 100)
            assert 0 < len(calls) < 100
        assert ("pattern" in vars(obs)) == (kernel == "gram")


def _kernels_run(monkeypatch, size, rank, iters, t):
    """The kernels one refit of a fresh set ran, told apart by what they
    leave behind: dense arrays, a cached 0/1 pattern, or gathers."""
    gathers = []

    def counting(pair, omega):
        gathers.append(1)
        return project_observed(pair, omega)

    monkeypatch.setattr(inner, "project_observed", counting)
    obs, rng = sparse_instance(17, **size)
    u = rng.standard_normal((size["m"], rank))
    v = rng.standard_normal((size["n"], rank))
    optimize_fast(u, v, t, ObservedQuadratic(obs), iters)
    ran = {"dense": "dense" in vars(obs), "gram": "pattern" in vars(obs),
           "gather": bool(gathers)}
    return {kernel for kernel, yes in ran.items() if yes}


def test_capped_cgnr_takes_the_sparse_kernel_above_the_cap(monkeypatch):
    # a set that fits_dense (at most _DENSE_CELLS cells or a side of 1, and at
    # least 1 / _DENSE_FILL of them observed) takes the dense kernel; any
    # other never builds its m x n dense arrays, and forms Gram matrices while
    # rank + 1 <= 6 * steps, else gathers at every step
    above = dict(m=257, n=256, p=0.02)
    for size, rank, iters, kernel in (
            (dict(m=256, n=256, p=0.05), 3, 3, "dense"),
            (dict(m=256, n=256, p=0.02), 3, 3, "gram"),
            (dict(m=1, n=70_000, p=0.05), 3, 3, "dense"),
            (dict(m=1, n=70_000, p=0.001), 3, 3, "gram"),
            (above, 3, 3, "gram"), (above, 17, 3, "gram"), (above, 18, 3, "gather"),
            (above, 11, 2, "gram"), (above, 12, 2, "gather"),
            (above, 5, 1, "gram"), (above, 6, 1, "gather")):
        for t in (0, 1):
            assert _kernels_run(monkeypatch, size, rank, iters, t) == {kernel}


def test_large_ranks_and_gram_arrays_take_the_gather_kernel(monkeypatch):
    # the recsys recipe's refit (ml-100k shape: 943 x 1682, 80k entries;
    # rank 100, 2 steps) stays on the gather kernel, on both sides
    recipe = dict(m=943, n=1682, p=80_000 / (943 * 1682))
    for t in (0, 1):
        assert _kernels_run(monkeypatch, recipe, 100, 2, t) == {"gather"}
    # a step cap that admits the rank still gathers once the rows x r x r
    # Gram array would pass the cell bound
    rank, cells = 27, linalg._REFIT_CELLS
    rows = cells // (rank * rank) + 1
    assert fits_gram(rows - 1, rank, 100) and not fits_gram(rows, rank, 100)
    assert _kernels_run(monkeypatch, dict(m=rows, n=12, p=0.3), rank, 100, 0) == {"gather"}
    # the V side's 12 row systems are the set's columns: Gram matrices
    assert _kernels_run(monkeypatch, dict(m=rows, n=12, p=0.3), rank, 100, 1) == {"gram"}


# Dense, Gram and gather kernels add the same terms in different orders; the
# bound is fixed from the float64 rounding of 100-step refits, with room to
# spare.
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
    assert holes._counts[0][[0, 3]].sum() == holes._counts[1][[1, 2]].sum() == 0
    cases.append((holes, u, v))

    def refits(obs, u, v):
        obj = ObservedQuadratic(obs)
        return [optimize_fast(u, v, t, obj, iters)
                for t in (0, 1) for iters in (3, 100)]

    def copied(obs):
        return SparseObservations(*obs.shape, obs.row, obs.col, obs.vals)

    dense = [refits(*case) for case in cases]
    monkeypatch.setattr(inner, "fits_dense", lambda shape, nnz=None: False)
    gram_sets = [copied(obs) for obs, _, _ in cases]
    gram = [refits(obs, u, v) for obs, (_, u, v) in zip(gram_sets, cases)]
    assert all("pattern" in vars(obs) for obs in gram_sets)
    monkeypatch.setattr(inner, "fits_gram", lambda rows, rank, steps: False)
    gather = [refits(*case) for case in cases]
    for kernel in (dense, gram):
        for got, want in zip(kernel, gather):
            for a, b in zip(got, want):
                for x, y in ((a.U, b.U), (a.V, b.V)):
                    assert np.all(np.isfinite(x))
                    assert np.linalg.norm(x - y) <= KERNEL_RTOL * np.linalg.norm(y)


def test_optimize_fast_v_side_matches_u_side_on_transposed_set():
    # bit for bit on each kernel: dense below the cap, Gram and gather above;
    # on sets given in row-major order, shuffled (stored row-major), and
    # with empty rows and columns (the V side reads the column counts)
    for (size, rank, iters), kind in itertools.product(
            ((dict(m=15, n=11, p=0.5), 3, 3), (ABOVE_CAP, 3, 3), (ABOVE_CAP, 12, 2)),
            ("row-major", "shuffled", "empty lines")):
        obs, rng = sparse_instance(12, **size)
        if kind == "shuffled":
            order = rng.permutation(obs.nnz)
            obs = SparseObservations(obs.rows, obs.cols, obs.row[order],
                                     obs.col[order], obs.vals[order])
            assert np.all(np.diff(obs._flat) > 0)
        elif kind == "empty lines":
            obs = _with_empty_lines(obs)
            assert (obs._counts[0] == 0).any() and (obs._counts[1] == 0).any()
        u = rng.standard_normal((size["m"], rank))
        v = rng.standard_normal((size["n"], rank))
        v_side = optimize_fast(u, v, 1, ObservedQuadratic(obs), iters)
        flipped = SparseObservations(obs.cols, obs.rows, obs.col, obs.row, obs.vals)
        u_side = optimize_fast(v, u, 0, ObservedQuadratic(flipped), iters)
        assert v_side.U is u and u_side.V is u
        assert np.array_equal(v_side.V, u_side.U)

def test_optimize_fast_huber_decreases_objective():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((12, 12))
    obj = HuberLowRank(m, 0.7)
    u = rng.standard_normal((12, 2)) * 0.1
    v = rng.standard_normal((12, 2)) * 0.1
    before = obj.value(FactorPair(u, v))
    pair = optimize_fast(u, v, 0, obj, 3)
    assert obj.value(pair) < before
    pair2 = optimize_fast(pair.U, pair.V, 1, obj, 3)
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


def _reference_half_step(U, V, t, objective, scaled_start=True):
    """The two-closure L-BFGS half-step with fresh temporaries and the
    elementwise np.where Huber value, on the same variables and stops as the
    buffered one: y = W * d / c for the free factor W, d the fixed factor's
    column norms and c the power of two in (||g||, 2 ||g||], g the gradient
    in W * d at the start; the objective divided by s, the power of two in
    (f0, 2 f0] for the start value f0; the gradient stop at 1e-5 c in W * d
    and the value stop at `inner._LBFGS_FTOL`. `scaled_start=False` runs on
    y = W * d, the variables of the diagonal scaling alone, with the same
    stops."""
    M, d = objective.target, objective.delta
    side = t % 2
    free, fixed = (V, U) if side else (U, V)
    scale = np.linalg.norm(fixed, axis=0)
    scale[scale == 0.0] = 1.0
    c = s = 1.0

    def value(resid):
        a = np.abs(resid)
        return float(np.where(a <= d, 0.5 * resid * resid, d * a - 0.5 * d * d).sum())

    def fun(y):
        W = y.reshape(free.shape) * c / scale
        resid = (U @ W.T if side else W @ V.T) - M
        clipped = np.clip(resid, -d, d)
        grad = clipped.T @ U if side else clipped @ V
        return value(resid) / s, (grad * c / scale / s).ravel()

    x0 = (free * scale).ravel()
    f0, g0 = fun(x0)
    gnorm = math.ldexp(1.0, math.frexp(float(np.linalg.norm(g0)))[1])
    s = math.ldexp(1.0, math.frexp(f0)[1])
    c = gnorm if scaled_start else 1.0
    res = inner.minimize(fun, x0 / c, jac=True, method="L-BFGS-B",
                         options={"maxiter": inner._LBFGS_ITERS,
                                  "maxcor": inner._LBFGS_MEMORY,
                                  "gtol": 1e-5 * gnorm * c / s,
                                  "ftol": inner._LBFGS_FTOL})
    W = res.x.reshape(free.shape) * c / scale
    return FactorPair(U, W) if side else FactorPair(W, V)


def test_huber_half_step_follows_reference_path(monkeypatch):
    runs = []
    minimize = inner.minimize

    def recording(*args, **kwargs):
        res = minimize(*args, **kwargs)
        runs.append((res.nit, res.nfev))
        return res

    monkeypatch.setattr(inner, "minimize", recording)
    # one row block, then several on both sides, each ending on a partial one
    for seed, shape in ((20, (60, 50)), (23, (300, 200)), (24, (37, 2000))):
        obj, u, v = _huber_instance(seed, *shape)
        for t in (0, 1):
            got = optimize_fast(u, v, t, obj, 3)
            want = _reference_half_step(u, v, t, obj)
            assert runs[-2] == runs[-1] and runs[-1][1] > 2
            for a, b in ((got.U, want.U), (got.V, want.V)):
                assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
    assert len(runs) == 12


def test_huber_half_step_evaluates_its_start_once(monkeypatch):
    # the start's pass, which picks the first-step scale, is L-BFGS's first
    # evaluation, not an extra one; and the scaled first step takes fewer
    # evaluations than the diagonal scaling alone on the same runs
    nfev = []
    minimize = inner.minimize

    def recording(*args, **kwargs):
        res = minimize(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(inner, "minimize", recording)
    instances = [_huber_instance(seed, *shape)
                 for seed, shape in ((20, (60, 50)), (23, (300, 200)), (24, (37, 2000)))]
    for obj, u, v in instances:
        evaluate, calls = obj.evaluate, []

        def counting(*args, evaluate=evaluate, calls=calls):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(obj, "evaluate", counting)
        for t in (0, 1):
            calls.clear()
            optimize_fast(u, v, t, obj, 3)
            assert len(calls) == nfev[-1]
    scaled = sum(nfev)
    nfev.clear()
    for obj, u, v in instances:
        for t in (0, 1):
            _reference_half_step(u, v, t, obj, scaled_start=False)
    assert len(nfev) == 6 and scaled < sum(nfev)


def test_huber_half_step_is_scale_equivariant(monkeypatch):
    # both stops measure the run against its own start, so scaling M, delta
    # and the free factor by 2^k scales the result, and the value recorded
    # for it, by 2^k and 4^k bit for bit on every side, far from scale 1
    # too; absolute stops ended such runs early or at their start
    nit = []
    minimize = inner.minimize

    def recording(*args, **kwargs):
        res = minimize(*args, **kwargs)
        nit.append(res.nit)
        return res

    monkeypatch.setattr(inner, "minimize", recording)
    for seed, shape in ((20, (60, 50)), (23, (300, 200)), (24, (37, 2000))):
        obj, u, v = _huber_instance(seed, *shape)
        want = [optimize_fast(u, v, t, obj, 3) for t in (0, 1)]
        values = [obj.value(pair) for pair in want]
        assert min(nit[-2:]) >= 1
        for k in (-40, -20, -1, 1, 20, 40):
            f = math.ldexp(1.0, k)
            scaled = HuberLowRank(obj.target * f, obj.delta * f)
            for t in (0, 1):
                got = optimize_fast(u, v * f, t, scaled, 3) if t else \
                    optimize_fast(u * f, v, t, scaled, 3)
                a, b = (got.V, want[t].V) if t else (got.U, want[t].U)
                assert np.array_equal(a, b * f)
                assert scaled.value(got) == values[t] * f * f


def test_huber_half_step_records_the_value_of_its_result(monkeypatch):
    # the value L-BFGS ends on is the objective's own block sum at the
    # returned pair, bit for bit, on both sides; one row block, then several
    # ending on a partial one
    for seed, shape in ((20, (60, 50)), (23, (300, 200)), (24, (37, 2000))):
        obj, u, v = _huber_instance(seed, *shape)
        fresh = HuberLowRank(obj.target, obj.delta)
        outs = []
        for t in (0, 1):
            out = optimize_fast(u, v, t, obj, 3)
            with monkeypatch.context() as m:
                m.setattr(obj, "evaluate", None)  # the value must come from the entry
                assert obj.value(out) == fresh.value(out)
            outs.append(out)
        # two pairs in turn: each evaluates again and reads its own value
        for _ in range(2):
            for out in outs:
                assert obj.value(out) == fresh.value(out)


def test_huber_half_step_keeps_column_facing_a_zero_column():
    # a zero column of the fixed factor scales by 1, not 0, and its free
    # column, whose gradient is zero, stays as it was
    obj, u, v = _huber_instance(25)
    v[:, 1] = 0.0
    out = optimize_fast(u, v, 0, obj, 3)
    assert np.isfinite(out.U).all() and np.array_equal(out.U[:, 1], u[:, 1])
    assert obj.value(out) < obj.value(FactorPair(u, v))


def test_huber_half_step_threads_sharing_one_objective(monkeypatch):
    # the evaluation buffers are per call: concurrent half-steps on one
    # objective must give the serial results bit for bit. A small block
    # budget splits each side into 5 row blocks, the last one partial; a
    # larger instance would reach threaded BLAS vector kernels, which
    # contend under the short switch interval below
    monkeypatch.setattr(objectives, "_BLOCK_CELLS", 700)
    obj, _, _ = _huber_instance(21)
    rng = np.random.default_rng(22)
    starts = [(rng.standard_normal((60, 3)), rng.standard_normal((50, 3)))
              for _ in range(4)]
    want = [[optimize_fast(u, v, t, obj, 3) for t in (0, 1)]
            for u, v in starts]
    wrong = []

    def work(k):
        u, v = starts[k]
        for _ in range(5):
            for t in (0, 1):
                pair = optimize_fast(u, v, t, obj, 3)
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

def test_import_leaves_optimizer_and_arpack_unloaded():
    # scipy's optimizer (Huber half-step) loads on first use, not with the
    # package; scipy.sparse.linalg (ARPACK) is not used at all, not even by
    # an insertion above the dense cap (the Krylov path)
    loaded = ("sorted(m for m in ('scipy.optimize', 'scipy.sparse.linalg', "
              "'scipy.sparse', 'scipy.linalg') if m in sys.modules)")
    code = (f"import sys, lowrank; print({loaded}); import scipy.sparse as sp; "
            "g = sp.random(300, 260, density=0.2, format='csr', rng=0); "
            "lowrank.top_singular_triplet(g); lowrank.top_singular_triplet(g.toarray()); "
            f"print({loaded})")
    src = str(Path(inner.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines() == ["['scipy.linalg', 'scipy.sparse']"] * 2


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
    refit = optimize_full(half.U, half.V, obj)
    assert obj.value(refit) <= 1e-12 * expect


def test_inner_config_validation():
    # the inner solves' settings are SolverConfig fields
    with pytest.raises(ValueError, match="ls_iters"):
        SolverConfig(target_rank=1, ls_iters=0)
