import numpy as np
import pytest

import lowrank.sparse_equiv as sparse_equiv
from lowrank.experiments import make_equivalence_problem
from lowrank.linalg import FactorPair
from lowrank.sparse_equiv import (LiftedQuadratic, SparseRegressionProblem,
                                  _pursuit_iterates, check_equivalence, omp, ompr)

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
        if best <= 1e-12 * np.abs(problem.design.T @ problem.response).max():
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


def test_problem_rejects_bad_fields():
    design = np.random.default_rng(0).standard_normal((6, 4))
    response = design[:, 0].copy()
    for sparsity in (-1, 5):
        with pytest.raises(ValueError, match="sparsity"):
            SparseRegressionProblem(design, response, sparsity)
    for bad in (np.nan, np.inf):
        poisoned = design.copy()
        poisoned[2, 1] = bad
        with pytest.raises(ValueError, match="design must be finite"):
            SparseRegressionProblem(poisoned, response, 1)
        with pytest.raises(ValueError, match="response must be finite"):
            SparseRegressionProblem(design, np.full(6, bad), 1)
    with pytest.raises(ValueError, match="response length"):
        SparseRegressionProblem(design, response[:5], 1)
    with pytest.raises(ValueError, match="column"):
        SparseRegressionProblem(np.zeros((6, 0)), response, 0)


def test_make_equivalence_problem_rejects_bad_sizes():
    with pytest.raises(ValueError, match="sparsity"):
        make_equivalence_problem(5, 9, 0)
    with pytest.raises(ValueError, match="n must be"):
        make_equivalence_problem(0, 0, 0)
    with pytest.raises(ValueError, match="examples"):
        make_equivalence_problem(5, 2, 0, examples=3, orthonormal=True)
    # numpy's own TypeError / ValueError used to name no field
    for seed in (2.5, -1):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            make_equivalence_problem(6, 2, seed)
    for correlation in (np.nan, -0.1, 1.0):
        with pytest.raises(ValueError, match="correlation"):
            make_equivalence_problem(5, 2, 0, correlation=correlation)


# ---------------------------------------------------------------------- ompr

def test_ompr_optimal_support_is_fixed_point():
    problem = planted(4, 30, 8, 2, orthonormal=True)
    base = ompr(problem, 2, 2)
    again = ompr(problem, 2, 6)
    assert set(base.support) == set(again.support)
    assert np.allclose(base.coef, again.coef, atol=1e-12)


def test_ompr_rejects_empty_budget():
    with pytest.raises(ValueError, match="sparsity must be >= 1"):
        ompr(planted(4, 30, 8, 2), 0, 3)


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
        if np.abs(g).max() <= 1e-12 * g0:
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


def _with_response_at(problem, k):
    """`problem` with its response times 2^k: every iterate scales by 2^k."""
    return SparseRegressionProblem(problem.design, np.ldexp(problem.response, k),
                                   problem.sparsity)


def test_pursuits_keep_their_support_at_small_scale():
    # the gradient floor is relative to the first step's top entry alone:
    # with 1e-12 * (1 + g0) both stopped at once at 2^-60, with no support
    problem = make_equivalence_problem(20, 6, 1, correlation=0.3)
    small = _with_response_at(problem, -60)
    want = omp(problem, 6).support
    assert len(want) == 6 and omp(small, 6).support == want
    want = ompr(problem, 3, 8).support
    assert len(want) == 3 and ompr(small, 3, 8).support == want


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
    for beta in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="beta"):
            LiftedQuadratic(planted(0, 10, 4, 1), beta=beta)


def diag_formulas(lifted, a):
    """value and gradient at A by the np.diag formulas the cached objective
    must reproduce bit for bit."""
    problem = lifted.problem
    x = np.diag(a).copy()
    resid = problem.design @ x - problem.response
    off = a - np.diag(np.diag(a))
    value = 0.5 * float(resid @ resid) + 0.5 * lifted.beta * float(np.sum(off * off))
    grad = np.diag(problem.grad(x)) + lifted.beta * (a - np.diag(np.diag(a)))
    return value, grad


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def lifted_pairs(n, rng):
    pairs = [FactorPair(rng.standard_normal((n, r)), rng.standard_normal((n, r)))
             for r in (1, 2, 5)]
    pairs += [FactorPair.empty(n, n), FactorPair(np.zeros((n, 3)), np.zeros((n, 3)))]
    eye = np.eye(n)
    pairs.append(FactorPair(eye[:, [0, 2]] * [-1.5, 0.25], eye[:, [0, 2]]))
    # beta < 1/2 times the least negative subnormal rounds to -0.0, which the
    # sum Diag(g) + beta * offdiag turns into 0.0
    pairs.append(FactorPair(eye[:, [0]] * -5e-324, eye[:, [1]]))
    return pairs


def test_lifted_matches_diag_formulas_bit_for_bit():
    problem = planted(11, 20, 6, 2)
    for beta in (1.7, 0.25):
        lifted = LiftedQuadratic(problem, beta)
        for pair in lifted_pairs(6, np.random.default_rng(11)):
            value, grad = diag_formulas(lifted, pair.matrix())
            assert bits(lifted.value(pair)) == bits(value)
            assert bits(lifted.gradient(pair)) == bits(grad)


def test_lifted_cache_alternating_pairs():
    problem = planted(12, 20, 6, 2)
    lifted = LiftedQuadratic(problem, beta=2.3)
    pairs = lifted_pairs(6, np.random.default_rng(12))
    expected = [diag_formulas(lifted, pair.matrix()) for pair in pairs]
    for _ in range(2):
        for i in (0, 1, 0, 3, 4, 3, 5, 2, 1):
            value, grad = expected[i]
            assert bits(lifted.gradient(pairs[i])) == bits(grad)
            assert bits(lifted.value(pairs[i])) == bits(value)
            # a caller's write to a gradient does not reach the cache
            lifted.gradient(pairs[i])[:] = 7.0
            assert bits(lifted.value(pairs[i])) == bits(value)


# ------------------------------------------------------------ the equivalence

def test_equivalence_orthonormal_greedy():
    problem = make_equivalence_problem(10, 5, 0, orthonormal=True)
    report = check_equivalence(problem, 2.0, 5, mode="greedy", seed=0)
    assert report.passed, report.first_violation


def test_equivalence_orthonormal_local():
    problem = make_equivalence_problem(10, 5, 1, orthonormal=True)
    report = check_equivalence(problem, 2.0, 5, mode="local", seed=1)
    assert report.passed, report.first_violation


def _scale_instances():
    for problem in (make_equivalence_problem(20, 6, 1, correlation=0.3),
                    make_equivalence_problem(10, 5, 2, orthonormal=True)):
        gram = problem.design.T @ problem.design
        yield problem, 1.01 * float(np.linalg.eigvalsh(gram)[-1])


@pytest.mark.parametrize("mode", ["greedy", "local"])
def test_equivalence_check_is_scale_free(mode):
    # the tolerances are relative to the vector iterate's largest entry: with
    # absolute ones a correct check failed at 2^30 and 2^60 (and, at 2^-30
    # and 2^-60, passed only with empty supports)
    for problem, beta in _scale_instances():
        base = check_equivalence(problem, beta, problem.sparsity, mode=mode)
        assert base.passed, base.first_violation
        for k in (-60, -30, 30, 60):
            report = check_equivalence(_with_response_at(problem, k), beta,
                                       problem.sparsity, mode=mode)
            assert report.passed, (k, report.first_violation)
            for name in ("matrix_support", "vector_support"):
                assert [d[name] for d in report.details] == \
                    [d[name] for d in base.details], (k, name)


@pytest.mark.parametrize("mode", ["greedy", "local"])
def test_equivalence_check_fails_a_zero_matrix_at_every_scale(mode, monkeypatch):
    # a matrix solver that returns the empty pair is wrong at every scale;
    # the absolute tolerances passed it at 2^-30 and 2^-60
    def empty(objective, config):
        return FactorPair.empty(*objective.shape), []

    monkeypatch.setattr(sparse_equiv, "greedy", empty)
    monkeypatch.setattr(sparse_equiv, "local_search", empty)
    for problem, beta in _scale_instances():
        for k in (-60, -30, 30, 60):
            report = check_equivalence(_with_response_at(problem, k), beta,
                                       problem.sparsity, mode=mode)
            assert not report.passed, k
            assert report.first_violation == \
                f"step 1: iterate mismatch {report.details[0]['iterate_diff']:.3e}"


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
            with pytest.raises(ValueError, match="steps must be an integer >= 1"):
                check_equivalence(problem, 1.0, steps, mode=mode)


def test_equivalence_rejects_bad_tolerances(monkeypatch):
    # the tolerances are module constants, not settings; a strict one still
    # fails the check on an iterate mismatch
    problem = make_equivalence_problem(10, 3, 0, correlation=0.3)
    gram = problem.design.T @ problem.design
    beta = 1.01 * float(np.linalg.eigvalsh(gram)[-1])
    assert check_equivalence(problem, beta, 3).passed
    monkeypatch.setattr(sparse_equiv, "_ITERATE_TOL", 1e-30)
    strict = check_equivalence(problem, beta, 3)
    assert not strict.passed and "iterate mismatch" in strict.first_violation


def criterion_6_set():
    problems = [make_equivalence_problem(10, 5, s, orthonormal=True) for s in range(5)]
    return problems + [make_equivalence_problem(20, 6, s, correlation=0.3)
                       for s in (0, 1, 3, 4, 6)]


def assert_same_fit(a, b):
    assert a.support == b.support
    assert bits(a.coef) == bits(b.coef)


def test_pursuit_iterates_match_fresh_runs():
    # iterate k of one run of `steps` steps is the k-step run's result
    stop = make_equivalence_problem(8, 2, 0, orthonormal=True)
    cases = [(problem, problem.sparsity) for problem in criterion_6_set()]
    cases.append((stop, 6))
    for problem, steps in cases:
        fresh = {"greedy": lambda k: omp(problem, k),
                 "local": lambda k: ompr(problem, problem.sparsity, k)}
        for mode in ("greedy", "local"):
            fits = _pursuit_iterates(problem, mode, steps)
            assert len(fits) == steps
            for k, fit in enumerate(fits, start=1):
                assert_same_fit(fit, fresh[mode](k))


def test_pursuit_stopped_at_gradient_floor_repeats_last_iterate():
    # the planted 2-sparse orthonormal instance is solved after two steps
    problem = make_equivalence_problem(8, 2, 0, orthonormal=True)
    seen = []
    omp(problem, 6, lambda t, fit: seen.append(t))
    assert seen == [0, 1]
    fits = _pursuit_iterates(problem, "greedy", 6)
    for fit in fits[2:]:
        assert_same_fit(fit, fits[1])
    report = check_equivalence(problem, 2.0, 6, mode="local")
    assert report.passed, report.first_violation
    assert [d["vector_support"] for d in report.details[1:]] == \
        [sorted(fits[1].support)] * 5


def test_check_runs_one_vector_pursuit(monkeypatch):
    calls = []
    for name in ("omp", "ompr"):
        def spy(*args, _name=name, _real=getattr(sparse_equiv, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(sparse_equiv, name, spy)
    problem = make_equivalence_problem(10, 4, 2, orthonormal=True)
    # omp is ompr with a budget that never binds, and calls it once
    for mode, expected in (("greedy", ["omp", "ompr"]), ("local", ["ompr"])):
        calls.clear()
        assert check_equivalence(problem, 2.0, 4, mode=mode, seed=2).passed
        assert calls == expected, mode


def test_equivalence_rejects_bad_mode():
    problem = planted(0, 10, 4, 1)
    with pytest.raises(ValueError):
        check_equivalence(problem, 1.0, 2, mode="both")
