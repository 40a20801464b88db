"""Every public config and problem builder either rejects a setting with a
ValueError when it is built, or takes it and a small solve on it gives a
finite result."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowrank.baselines import SoftImputeConfig, soft_impute
from lowrank.experiments import make_equivalence_problem
from lowrank.inner import InnerConfig
from lowrank.objectives import ObservedQuadratic
from lowrank.solvers import SolverConfig, fast_greedy, greedy, local_search
from lowrank.sparse_equiv import (LiftedQuadratic, SparseRegressionProblem,
                                  check_equivalence, omp, ompr)

from conftest import full_observations

# NaN, +-inf, negative and zero, next to values every builder accepts
ODD = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -1e-300, 0.0, -0.0,
                       1e-12, 0.3, 2.0])
COUNTS = st.integers(-2, 6)


def pick(data, default, odd=ODD):
    """`default` about half the time, else an odd value, so that examples
    with one odd setting among valid ones are common."""
    return data.draw(st.just(default) | odd)


_MATRIX = np.outer([1.0, -2.0, 0.5, 3.0, -1.0, 2.0], [0.5, 1.0, -1.5, 2.0, 1.0]) + \
    np.outer([0.0, 1.0, 1.0, -1.0, 2.0, 0.5], [1.0, 0.0, 2.0, -0.5, 1.0])
_PROBLEM = make_equivalence_problem(6, 2, 1)


def _solver_config(data):
    cfg = SolverConfig(target_rank=pick(data, 2, COUNTS),
                       max_outer_iters=pick(data, 4, COUNTS),
                       eps=pick(data, None), seed=pick(data, 0, COUNTS))
    def run():
        pair, traces = local_search(ObservedQuadratic(full_observations(_MATRIX)), cfg)
        return [pair.U, pair.V] + [t.objective for t in traces]
    return run


def _inner_config(data):
    inner = InnerConfig(ls_iters=pick(data, 3, COUNTS),
                        full_solve_tol=pick(data, 1e-10))
    def run():
        objective = ObservedQuadratic(full_observations(_MATRIX))
        out = []
        for solver in (greedy, fast_greedy):
            pair, traces = solver(objective, SolverConfig(target_rank=2, inner=inner))
            out += [pair.matrix()] + [t.objective for t in traces]
        return out
    return run


def _soft_impute_config(data):
    cfg = SoftImputeConfig(lam=pick(data, 0.5), max_rank=pick(data, 3, COUNTS),
                           max_iters=pick(data, 5, COUNTS), tol=pick(data, 1e-5))
    def run():
        pair, traces = soft_impute(full_observations(_MATRIX), cfg)
        return [pair.matrix()] + [t.objective for t in traces]
    return run


def _sparse_problem(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 3)))
    rows, cols = pick(data, 5, COUNTS), pick(data, 4, COUNTS)
    design = rng.standard_normal((max(rows, 0), max(cols, 0)))
    extra = pick(data, 0, st.sampled_from([1, -1]))  # a response of the wrong length
    response = rng.standard_normal(max(len(design) + extra, 0))
    target = {None: None, "design": design, "response": response}[
        pick(data, None, st.sampled_from(["design", "response"]))]
    if target is not None and target.size:
        target.flat[data.draw(st.integers(0, target.size - 1))] = data.draw(ODD)
    problem = SparseRegressionProblem(design, response, pick(data, 2, COUNTS))
    return lambda: [omp(problem, min(problem.dim, 2)).coef, ompr(problem, 1, 3).coef]


def _lifted(data):
    lifted = LiftedQuadratic(_PROBLEM, pick(data, 3.0))
    def run():
        pair, traces = greedy(lifted, SolverConfig(target_rank=2))
        return [pair.matrix(), lifted.gradient(pair)] + [t.objective for t in traces]
    return run


def _equivalence_problem(data):
    problem = make_equivalence_problem(
        pick(data, 5, COUNTS), pick(data, 2, COUNTS), data.draw(st.integers(0, 3)),
        examples=pick(data, None, COUNTS), orthonormal=data.draw(st.booleans()),
        correlation=pick(data, 0.0, ODD | st.sampled_from([0.99, 1.0])))
    return lambda: [problem.design, problem.response, omp(problem, 1).coef]


def _tolerances(data):
    beta = 1.01 * float(np.linalg.eigvalsh(_PROBLEM.design.T @ _PROBLEM.design)[-1])
    report = check_equivalence(_PROBLEM, beta, 2, mode=data.draw(st.sampled_from(
        ["greedy", "local"])), offdiag_tol=pick(data, 1e-8), iterate_tol=pick(data, 1e-6))
    return lambda: [report.max_offdiag, report.max_iterate_diff]


@pytest.mark.parametrize("build", [_solver_config, _inner_config, _soft_impute_config,
                                   _sparse_problem, _lifted, _equivalence_problem,
                                   _tolerances])
@given(data=st.data())
def test_builders_reject_or_stay_finite(build, data):
    # each builder returns the solve to run on what it built
    try:
        run = build(data)
    except ValueError:
        return
    for part in run():
        assert np.isfinite(part).all(), (build.__name__, part)
