"""Every public config and problem builder either rejects a setting with a
ValueError when it is built, or takes it and a small solve on it gives a
finite result."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowrank.baselines import SoftImputeConfig, soft_impute
from lowrank.data import SynthCompletionConfig, SynthRpcaConfig, gen_completion, gen_rpca
from lowrank.experiments import make_equivalence_problem
from lowrank.linalg import SparseObservations
from lowrank.objectives import ClippedObservedQuadratic, HuberLowRank, ObservedQuadratic
from lowrank.solvers import SolverConfig, fast_greedy, greedy, local_search
from lowrank.sparse_equiv import (LiftedQuadratic, SparseRegressionProblem,
                                  check_equivalence, omp, ompr)

from conftest import full_observations

# NaN, +-inf, negative and zero, next to values every builder accepts
ODD = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -1e-300, 0.0, -0.0,
                       1e-12, 0.3, 2.0])
COUNTS = st.integers(-2, 6)
# sizes and integer settings: counts, non-integers, and integers of numpy types
SIZES = COUNTS | st.sampled_from([np.nan, np.inf, 2.5, 3.0, np.int64(3), np.uint8(2)])


def pick(data, default, odd=ODD):
    """`default` about half the time, else an odd value, so that examples
    with one odd setting among valid ones are common."""
    return data.draw(st.just(default) | odd)


_MATRIX = np.outer([1.0, -2.0, 0.5, 3.0, -1.0, 2.0], [0.5, 1.0, -1.5, 2.0, 1.0]) + \
    np.outer([0.0, 1.0, 1.0, -1.0, 2.0, 0.5], [1.0, 0.0, 2.0, -0.5, 1.0])
_PROBLEM = make_equivalence_problem(6, 2, 1)


def _solver_config(data):
    cfg = SolverConfig(target_rank=pick(data, 2, SIZES),
                       max_outer_iters=pick(data, 4, SIZES), seed=pick(data, 0, SIZES))
    def run():
        pair, traces = local_search(ObservedQuadratic(full_observations(_MATRIX)), cfg)
        return [pair.U, pair.V] + [t.objective for t in traces]
    return run


def _inner_config(data):
    cfg = SolverConfig(target_rank=2, ls_iters=pick(data, 3, SIZES))
    def run():
        objective = ObservedQuadratic(full_observations(_MATRIX))
        out = []
        for solver in (greedy, fast_greedy):
            pair, traces = solver(objective, cfg)
            out += [pair.matrix()] + [t.objective for t in traces]
        return out
    return run


def _soft_impute_config(data):
    cfg = SoftImputeConfig(lam=pick(data, 0.5), max_rank=pick(data, 3, SIZES),
                           max_iters=pick(data, 5, SIZES), tol=pick(data, 1e-5))
    def run():
        pair, traces = soft_impute(full_observations(_MATRIX), cfg)
        return [pair.matrix()] + [t.objective for t in traces]
    return run


def _size(value, fallback=3):
    """`value` if it is a usable positive size, else `fallback`: the grid an
    odd size's entries are drawn on."""
    return int(value) if isinstance(value, (int, np.integer)) and value > 0 else fallback


def _observations(data):
    rows, cols = pick(data, 4, SIZES), pick(data, 3, SIZES)
    m, n = _size(rows), _size(cols)
    rng = np.random.default_rng(data.draw(st.integers(0, 3)))
    flat = rng.permutation(m * n)[:data.draw(st.integers(0, m * n))]
    arrays = {"row": (flat // n).astype(float), "col": (flat % n).astype(float),
              "vals": rng.standard_normal(flat.size)}
    name = pick(data, None, st.sampled_from(list(arrays)))
    if name is not None and flat.size:
        arrays[name][data.draw(st.integers(0, flat.size - 1))] = data.draw(
            ODD | st.sampled_from([2.5, m, n, 1e150, 1e300]))
    obs = SparseObservations(rows, cols, arrays["row"], arrays["col"], arrays["vals"])
    objective = ObservedQuadratic(obs)

    def run():
        out = [obs.csr().toarray(), *obs.dense, obs.pattern.toarray()]
        if min(obs.shape) >= 1:  # no solver takes a set with no rows or no columns
            pair, traces = fast_greedy(objective, SolverConfig(target_rank=2))
            out += [pair.matrix()] + [t.objective for t in traces]
        return out
    return run


def _synth_completion(data):
    cfg = SynthCompletionConfig(pick(data, 5, SIZES), pick(data, 4, SIZES),
                                pick(data, 2, SIZES), pick(data, 0.5),
                                pick(data, 10.0), pick(data, 0, SIZES))
    def run():
        truth, observed, heldout = gen_completion(cfg)
        return [truth.matrix(), observed.vals, heldout.vals]
    return run


def _synth_rpca(data):
    cfg = SynthRpcaConfig(pick(data, 5, SIZES), pick(data, 4, SIZES), pick(data, 2, SIZES),
                          pick(data, 0.1), pick(data, 4.0), pick(data, 0, SIZES))
    def run():
        truth, corrupted, _ = gen_rpca(cfg)
        return [truth.matrix(), corrupted]
    return run


def _huber(data):
    target = _MATRIX[:pick(data, 6, COUNTS), :pick(data, 5, COUNTS)].copy()
    if target.size and pick(data, False, st.just(True)):
        target.flat[data.draw(st.integers(0, target.size - 1))] = data.draw(ODD)
    if pick(data, False, st.just(True)):
        target = target.ravel()  # not a matrix
    objective = HuberLowRank(target, pick(data, 1.0))
    def run():
        pair, traces = fast_greedy(objective, SolverConfig(target_rank=2))
        return [pair.matrix()] + [t.objective for t in traces]
    return run


def _clipped(data):
    objective = ClippedObservedQuadratic(full_observations(_MATRIX), pick(data, -2.0),
                                         pick(data, 2.0))
    def run():
        pair, traces = fast_greedy(objective, SolverConfig(target_rank=2))
        return [pair.matrix(), objective.insertion_gradient(pair)] + \
            [t.objective for t in traces]
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
    problem = SparseRegressionProblem(design, response, pick(data, 2, SIZES))
    return lambda: [omp(problem, min(problem.dim, 2)).coef, ompr(problem, 1, 3).coef]


def _lifted(data):
    lifted = LiftedQuadratic(_PROBLEM, pick(data, 3.0))
    def run():
        pair, traces = greedy(lifted, SolverConfig(target_rank=2))
        return [pair.matrix(), lifted.gradient(pair)] + [t.objective for t in traces]
    return run


def _equivalence_problem(data):
    problem = make_equivalence_problem(
        pick(data, 5, SIZES), pick(data, 2, SIZES), data.draw(st.integers(0, 3)),
        examples=pick(data, None, SIZES), orthonormal=data.draw(st.booleans()),
        correlation=pick(data, 0.0, ODD | st.sampled_from([0.99, 1.0])))
    return lambda: [problem.design, problem.response, omp(problem, 1).coef]


def _tolerances(data):
    beta = 1.01 * float(np.linalg.eigvalsh(_PROBLEM.design.T @ _PROBLEM.design)[-1])
    report = check_equivalence(
        _PROBLEM, beta, pick(data, 2, SIZES),
        mode=data.draw(st.sampled_from(["greedy", "local"])),
        offdiag_tol=pick(data, 1e-8), iterate_tol=pick(data, 1e-6))
    return lambda: [report.max_offdiag, report.max_iterate_diff]


@pytest.mark.parametrize("build", [_solver_config, _inner_config, _soft_impute_config,
                                   _observations, _synth_completion, _synth_rpca,
                                   _huber, _clipped, _sparse_problem, _lifted,
                                   _equivalence_problem, _tolerances])
@given(data=st.data())
def test_builders_reject_or_stay_finite(build, data):
    # each builder returns the solve to run on what it built
    try:
        run = build(data)
    except ValueError:
        return
    for part in run():
        assert np.isfinite(part).all(), (build.__name__, part)


def test_soft_impute_rejects_non_finite_tol():
    # an infinite tol ended every run after its first step, with nothing
    # marking it unconverged
    for tol in (np.inf, np.nan, -1e-5):
        with pytest.raises(ValueError, match="tol must be finite"):
            SoftImputeConfig(lam=0.1, max_rank=3, tol=tol)


def test_integer_settings_name_their_field():
    # a fraction used to build and then fail with a TypeError inside a solve,
    # or, as check_equivalence's steps, in range(); SparseRegressionProblem
    # took a fractional sparsity; a numpy integer is stored as an int
    for build, name in ((lambda v: SolverConfig(target_rank=v), "target_rank"),
                        (lambda v: SolverConfig(2, max_outer_iters=v), "max_outer_iters"),
                        (lambda v: SolverConfig(2, seed=v), "seed"),
                        (lambda v: SolverConfig(2, ls_iters=v), "ls_iters"),
                        (lambda v: SoftImputeConfig(1.0, v), "max_rank"),
                        (lambda v: SoftImputeConfig(1.0, 3, max_iters=v), "max_iters"),
                        (lambda v: SparseRegressionProblem(_PROBLEM.design,
                                                           _PROBLEM.response, v),
                         "sparsity"),
                        (lambda v: check_equivalence(_PROBLEM, 1.0, v, mode="local"),
                         "steps")):
        for bad in (2.5, 3.0, np.float64(2.0), np.nan, "3", -1):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                build(bad)
        value = getattr(build(np.int64(3)), name)
        assert type(value) is int and value == 3


def test_observed_values_that_overflow_the_objective_are_rejected():
    # one value of 1e300 used to build, and fast_greedy then traced infinite
    # objectives; 1e150 squares to a finite 1e300 and builds
    def observations(big):
        vals = np.arange(1.0, 13.0)
        vals[5] = big
        return SparseObservations(4, 3, np.arange(12) // 3, np.arange(12) % 3, vals)

    for build in (ObservedQuadratic, lambda o: ClippedObservedQuadratic(o, -2.0, 2.0)):
        with pytest.raises(ValueError, match="overflow"):
            build(observations(1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow on the way either
        pair, traces = fast_greedy(ObservedQuadratic(observations(1e150)),
                                   SolverConfig(target_rank=2))
    assert np.isfinite(pair.matrix()).all()
    assert np.isfinite([t.objective for t in traces]).all()
    # a known fault, pinned so that its fix updates this test (CHANGES.md's
    # FOUND line on 1e150): with a value far outside its clip range, the
    # clipped objective's capped refit overflows, and its second step traces
    # 1/2 (1e150)^2, above its first
    with pytest.warns(RuntimeWarning) as record:
        pair, traces = fast_greedy(ClippedObservedQuadratic(observations(1e150), -2.0, 2.0),
                                   SolverConfig(target_rank=2))
    assert any("overflow" in str(w.message) for w in record)
    assert np.isfinite(pair.matrix()).all()
    assert traces[1].objective == 0.5 * 1e150 ** 2 > traces[0].objective


def test_huber_targets_that_overflow_the_objective_are_rejected():
    # a target and delta of 1e160 used to build with a NaN value at the zero
    # matrix (inf - inf in huber_value), and fast_greedy then traced NaN
    # objectives; at 1e150 the value, about 1e302, is finite, and the
    # half-step, which divides the objective by its start value, traces
    # finite objectives with no overflow on the way
    target = np.random.default_rng(0).standard_normal((20, 15))
    with pytest.raises(ValueError, match="overflow.*nan"):
        HuberLowRank(1e160 * target, 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair, traces = fast_greedy(HuberLowRank(1e150 * target, 1e150),
                                   SolverConfig(target_rank=2))
    assert np.isfinite(pair.matrix()).all()
    assert np.isfinite([t.objective for t in traces]).all()
