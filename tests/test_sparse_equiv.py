import numpy as np
import pytest

from lowrank.experiments import make_equivalence_problem
from lowrank.linalg import FactorPair
from lowrank.sparse_equiv import (LiftedQuadratic, SparseRegressionProblem,
                                  check_equivalence, omp, ompr)

from conftest import dense_gradient


def planted(seed, examples, n, s, orthonormal=False):
    return make_equivalence_problem(n, s, seed, examples=examples,
                                    orthonormal=orthonormal)


# ----------------------------------------------------------------------- omp

def test_omp_orthonormal_picks_by_magnitude():
    problem = planted(0, 30, 8, 3, orthonormal=True)
    order = np.argsort(-np.abs(problem.design.T @ problem.response))
    fit = omp(problem, 3)
    assert fit.support == [int(i) for i in order[:3]]


def test_omp_recovers_single_column():
    rng = np.random.default_rng(1)
    design = rng.standard_normal((20, 6))
    problem = SparseRegressionProblem(design, design[:, 0].copy(), 1)
    fit = omp(problem, 1)
    assert fit.support == [0]
    resid = design @ fit.coef - problem.response
    assert np.linalg.norm(resid) < 1e-10


def test_omp_matches_rule_resimulation():
    problem = planted(2, 30, 10, 3)
    fit = omp(problem, 4)
    # independent re-simulation of the selection rule with plain loops
    x = np.zeros(10)
    support = []
    for _ in range(4):
        g = problem.design.T @ (problem.design @ x - problem.response)
        best, best_i = -1.0, None
        for i in range(10):
            if abs(g[i]) > best:
                best, best_i = abs(g[i]), i
        if best <= 1e-12 * (1 + np.abs(problem.design.T @ problem.response).max()):
            break
        if best_i not in support:
            support.append(best_i)
        sol, *_ = np.linalg.lstsq(problem.design[:, support], problem.response,
                                  rcond=None)
        x = np.zeros(10)
        x[support] = sol
    assert fit.support == support
    assert np.allclose(fit.coef, x, atol=1e-10)


def test_omp_steps_bounded():
    problem = planted(3, 10, 4, 2)
    with pytest.raises(ValueError):
        omp(problem, 5)


# ---------------------------------------------------------------------- ompr

def test_ompr_optimal_support_is_fixed_point():
    problem = planted(4, 30, 8, 2, orthonormal=True)
    base = ompr(problem, 2, 2)
    again = ompr(problem, 2, 6)
    assert set(base.support) == set(again.support)
    assert np.allclose(base.coef, again.coef, atol=1e-12)


def test_ompr_full_sparsity_is_least_squares():
    problem = planted(5, 30, 6, 2)
    fit = ompr(problem, 6, 8)
    sol, *_ = np.linalg.lstsq(problem.design, problem.response, rcond=None)
    assert np.allclose(fit.coef, sol, atol=1e-8)


def test_ompr_matches_rule_resimulation():
    problem = planted(6, 40, 8, 4)
    s = 3  # smaller budget than the planted sparsity forces real swaps
    fit = ompr(problem, s, 6)
    x = np.zeros(8)
    support = []
    g0 = np.abs(problem.design.T @ problem.response).max()
    for _ in range(6):
        g = problem.design.T @ (problem.design @ x - problem.response)
        if np.abs(g).max() <= 1e-12 * (1 + g0):
            break
        i = int(np.argmax(np.abs(g)))
        if len(support) >= s:
            j = min(support, key=lambda k: (abs(x[k]), k))
            support.remove(j)
        if i not in support:
            support.append(i)
        sol, *_ = np.linalg.lstsq(problem.design[:, support], problem.response,
                                  rcond=None)
        x = np.zeros(8)
        x[support] = sol
    assert fit.support == support
    assert np.allclose(fit.coef, x, atol=1e-10)


# ------------------------------------------------------------ lifted objective

def test_lifted_value_and_gradient_on_diagonal():
    problem = planted(7, 20, 6, 2)
    lifted = LiftedQuadratic(problem, beta=3.0)
    x = np.array([1.0, 0.0, -2.0, 0.0, 0.5, 0.0])
    pair = FactorPair(np.diag(x), np.eye(6))
    resid = problem.design @ x - problem.response
    assert lifted.value(pair) == pytest.approx(0.5 * float(resid @ resid))
    g = dense_gradient(lifted.gradient(pair))
    assert np.allclose(g, np.diag(problem.grad(x)), atol=1e-12)


def test_lifted_offdiagonal_penalty():
    problem = planted(8, 20, 5, 2)
    beta = 2.5
    lifted = LiftedQuadratic(problem, beta)
    base = FactorPair.empty(5, 5)
    c = 0.7
    u = np.zeros((5, 1)); u[1, 0] = 1.0
    v = np.zeros((5, 1)); v[3, 0] = c
    bumped = FactorPair(u, v)
    assert lifted.value(bumped) - lifted.value(base) == pytest.approx(
        0.5 * beta * c * c)


def test_lifted_gradient_finite_difference():
    problem = planted(9, 20, 5, 2)
    lifted = LiftedQuadratic(problem, beta=1.7)
    rng = np.random.default_rng(9)
    pair = FactorPair(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
    g = dense_gradient(lifted.gradient(pair))
    t = 1e-6
    for _ in range(6):
        du = rng.standard_normal(pair.U.shape)
        dv = rng.standard_normal(pair.V.shape)
        up = FactorPair(pair.U + t * du, pair.V + t * dv)
        dn = FactorPair(pair.U - t * du, pair.V - t * dv)
        fd = (lifted.value(up) - lifted.value(dn)) / (2 * t)
        an = float(np.sum(g * (du @ pair.V.T + pair.U @ dv.T)))
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_lifted_rejects_bad_beta():
    with pytest.raises(ValueError):
        LiftedQuadratic(planted(0, 10, 4, 1), beta=0.0)


# ------------------------------------------------------------ the equivalence

def test_equivalence_orthonormal_greedy():
    problem = make_equivalence_problem(10, 5, 0, orthonormal=True)
    report = check_equivalence(problem, 2.0, 5, mode="greedy", seed=0)
    assert report.passed, report.first_violation


def test_equivalence_orthonormal_local():
    problem = make_equivalence_problem(10, 5, 1, orthonormal=True)
    report = check_equivalence(problem, 2.0, 5, mode="local", seed=1)
    assert report.passed, report.first_violation


def test_equivalence_zero_response():
    problem = SparseRegressionProblem(np.eye(6), np.zeros(6), 0)
    report = check_equivalence(problem, 1.0, 3, mode="greedy", seed=0)
    assert report.passed
    assert report.max_iterate_diff == 0.0


def test_equivalence_correlated_design():
    # seeds 2, 5, 15, 17 and 28 failed while insertions used power iteration
    for seed in range(30):
        problem = make_equivalence_problem(20, 6, seed, correlation=0.3)
        gram = problem.design.T @ problem.design
        beta = 1.01 * float(np.linalg.eigvalsh(gram)[-1])
        for mode in ("greedy", "local"):
            report = check_equivalence(problem, beta, 6, mode=mode, seed=seed)
            assert report.passed, (seed, mode, report.first_violation)


def test_equivalence_single_step_stays_diagonal():
    # one greedy step on the lifted objective inserts a multiple of e_i e_i^T
    problem = make_equivalence_problem(8, 3, 5, orthonormal=True)
    report = check_equivalence(problem, 2.0, 1, mode="greedy", seed=5)
    assert report.passed
    assert report.max_offdiag <= 1e-10


def test_equivalence_dimension_limit():
    # no dimension limit: the lifts of n = 80 take the Gram path, those of
    # n = 300 (90000 cells) the Krylov path, both at machine precision
    for n in (64, 80, 300):
        problem = make_equivalence_problem(n, 3, 1)
        gram = problem.design.T @ problem.design
        beta = 1.01 * float(np.linalg.eigvalsh(gram)[-1])
        for mode in ("greedy", "local"):
            report = check_equivalence(problem, beta, 3, mode=mode, seed=1)
            assert report.passed, (n, mode, report.first_violation)
            assert report.max_offdiag <= 1e-8
            if n <= 80:
                assert report.max_offdiag == 0.0


def test_equivalence_rejects_no_steps():
    # a check of no steps compares nothing, so it must not pass
    problem = planted(0, 10, 4, 1)
    for steps in (0, -3):
        for mode in ("greedy", "local"):
            with pytest.raises(ValueError, match="steps must be >= 1"):
                check_equivalence(problem, 1.0, steps, mode=mode)


def test_equivalence_rejects_bad_mode():
    problem = planted(0, 10, 4, 1)
    with pytest.raises(ValueError):
        check_equivalence(problem, 1.0, 2, mode="both")
