import dataclasses
import json
import threading

import numpy as np
import pytest

from lowrank import experiments, inner, solvers
from lowrank.baselines import SoftImputeConfig
from lowrank.data import SynthCompletionConfig, gen_completion, nmse_on
from lowrank.experiments import (completion_trial, make_equivalence_problem,
                                 mean_stderr, run_completion, run_recsys, run_rpca)
from lowrank.linalg import FactorPair, SparseObservations
from lowrank.objectives import ObservedQuadratic
from lowrank.solvers import SolverConfig
from lowrank.sparse_equiv import check_equivalence


def test_mean_stderr():
    out = mean_stderr([1.0, 2.0, 3.0])
    assert out["mean"] == pytest.approx(2.0)
    assert out["stderr"] == pytest.approx(np.std([1, 2, 3], ddof=1) / np.sqrt(3))
    assert mean_stderr([5.0])["stderr"] == 0.0


def test_run_completion_trial_seeds_are_offset():
    rows, summary, _ = run_completion(20, 20, 2, 0.5, 10.0, 3, "fast-greedy",
                                      3, 3, trials=2)
    t0 = [r for r in rows if r["trial"] == 0]
    t1 = [r for r in rows if r["trial"] == 1]
    assert len(t0) == len(t1) == 3
    # distinct derived seeds -> distinct instances
    assert t0[0]["train_nmse"] != t1[0]["train_nmse"]
    assert summary["params"]["seed"] == 3


def test_run_completion_runs_trials_in_order_on_caller_thread(monkeypatch):
    args = (20, 20, 2, 0.5, 10.0, 1, "fast-greedy", 3, 3, 3)
    _, expected, _ = run_completion(*args)
    calls = []

    def spy(trial, *rest):
        calls.append((trial, threading.get_ident()))
        return real(trial, *rest)

    real = experiments.completion_trial
    monkeypatch.setattr(experiments, "completion_trial", spy)
    _, summary, _ = run_completion(*args)
    assert calls == [(k, threading.get_ident()) for k in range(3)]
    assert summary == expected


def test_fast_local_trial_runs_greedy_once(monkeypatch):
    # every target rank's swap passes start from one greedy run to the top rank
    calls = []

    def counted(objective, config, callback=None):
        calls.append(config.target_rank)
        return real(objective, config, callback=callback)

    real = solvers.fast_greedy
    monkeypatch.setattr(solvers, "fast_greedy", counted)
    rows, _ = completion_trial(0, 3, 30, 30, 2, 0.5, 10.0, "fast-local", 5, 3)
    assert calls == [5]
    assert [r["rank"] for r in rows] == [1, 2, 3, 4, 5]


def test_local_trial_runs_each_target_rank():
    # one run to --rank used to label all of its iterates with that rank, so
    # best_rank always read --rank
    rows, traces = completion_trial(0, 0, 40, 40, 2, 0.4, 10.0, "local", 4, 3)
    assert [r["rank"] for r in rows] == [1, 2, 3, 4]
    cfg = SynthCompletionConfig(40, 40, 2, 0.4, 10.0, 0)
    _, observed, heldout = gen_completion(cfg)
    for row in rows:
        pair, last = solvers.local_search(ObservedQuadratic(observed),
                                          SolverConfig(row["rank"], ls_iters=3, seed=0))
        assert (row["train_nmse"], row["test_nmse"]) == (nmse_on(pair, observed),
                                                         nmse_on(pair, heldout))
    assert [dataclasses.replace(t, wall_nanos=0) for t in traces] == \
        [dataclasses.replace(t, wall_nanos=0) for t in last]


def test_softimpute_trial_flags_capped_runs(monkeypatch):
    def flags():
        _, traces = completion_trial(0, 2, 30, 30, 2, 0.5, 10.0, "softimpute", 6, 3)
        lams = [float(t.flags.split(";")[0].split("=")[1]) for t in traces]
        assert lams == sorted(lams, reverse=True)  # largest lambda first
        return [t.flags.split(";")[1:] for t in traces]

    # no run stops at max_iters; the rank cap of 6 binds on the smaller
    # lambdas, and those runs say so
    ends = [f for f in flags() if f]
    assert ends and all(f == ["rank_capped"] for f in ends)
    monkeypatch.setattr(SoftImputeConfig, "max_iters", 2)
    capped = flags()
    assert ["capped"] in capped
    assert all(f in ([], ["capped"], ["capped", "rank_capped"]) for f in capped)


def test_run_rpca_report_fields():
    traces, rep = run_rpca(20, 20, 2, 0.05, 8.0, 1.0, 2, seed=0)
    assert set(rep) >= {"rel_frobenius_error", "huber_delta_abs",
                        "final_objective", "seconds", "params"}
    assert traces and traces[-1].rank == 2
    assert rep["rel_frobenius_error"] > 0


def test_run_rpca_recovers_criterion_10_instances_within_0_2():
    # the column-scaled L-BFGS half-step reaches a worst error of 0.148 here;
    # unscaled, it stopped at its step cap and reached 0.619. Criterion 10's
    # bound of 0.05 is still out of reach: test_acceptance keeps its xfail
    worst = max(run_rpca(100, 100, 3, 0.05, 10.0, 1.0, 3, seed)[1]["rel_frobenius_error"]
                for seed in range(5))
    assert worst <= 0.2


def test_run_rpca_half_steps_stop_by_their_own_rule(monkeypatch):
    # every L-BFGS half-step on the criterion-10 instances ends on its
    # gradient or value stop (status 0), none at its step cap
    runs = []
    minimize = inner.minimize

    def recording(*args, **kwargs):
        res = minimize(*args, **kwargs)
        runs.append((res.status, res.nit))
        return res

    monkeypatch.setattr(inner, "minimize", recording)
    for seed in range(5):
        run_rpca(100, 100, 3, 0.05, 10.0, 1.0, 3, seed)
    assert len(runs) == 15
    assert all(status == 0 and nit < inner._LBFGS_ITERS for status, nit in runs)


def test_run_recsys_split_rows():
    rng = np.random.default_rng(1)
    idx = rng.choice(12 * 15, size=150, replace=False)
    ratings = SparseObservations(12, 15, idx // 15, idx % 15,
                                 rng.integers(1, 6, size=150).astype(float))
    rows, summary, traces = run_recsys(ratings, splits=3, split_fraction=0.8, seed=2,
                                       rank=2, inner_iters=2, clip=(1.0, 5.0))
    assert [r["split"] for r in rows] == [0, 1, 2]
    assert all(1.0 <= r["rmse"] <= 5.0 or r["rmse"] >= 0 for r in rows)
    assert summary["rmse"]["stderr"] >= 0
    assert traces and traces[0][0] == 0


def test_run_recsys_builds_the_solver_config_as_completion_does(monkeypatch):
    # with max_outer_iters left at 100, local search at rank 30 would have
    # spent 30 of its 100 iterations growing from zero before it swapped
    rng = np.random.default_rng(1)
    idx = rng.choice(40 * 50, size=600, replace=False)
    ratings = SparseObservations(40, 50, idx // 50, idx % 50,
                                 rng.integers(1, 6, size=600).astype(float))
    for solver, name in (("local", "local_search"), ("fast-local", "fast_local_search"),
                         ("greedy", "greedy"), ("fast-greedy", "fast_greedy")):
        seen = []

        def spy(objective, config):
            seen.append(config)
            return FactorPair.empty(*objective.shape), []

        monkeypatch.setattr(experiments, name, spy)
        run_recsys(ratings, splits=2, split_fraction=0.8, seed=4, rank=30,
                   inner_iters=2, clip=None, solver=solver)
        assert seen == [SolverConfig(30, ls_iters=2, seed=4 + s) for s in range(2)]
        assert seen[0].max_outer_iters == 120


def test_zero_trials_or_splits_raise():
    with pytest.raises(ValueError, match="trials"):
        run_completion(20, 20, 2, 0.5, 10.0, 0, "fast-greedy", 3, 3, trials=0)
    ratings = SparseObservations(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="splits"):
        run_recsys(ratings, splits=0, split_fraction=0.8, seed=0, rank=1,
                   inner_iters=2, clip=None)


def test_trials_and_splits_must_be_integers():
    # fractional counts raised range's TypeError, which names no field, and
    # trials=True wrote "trials": true into the summary
    ratings = SparseObservations(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        run_completion(20, 20, 2, 0.5, 10.0, 0, "fast-greedy", 3, 3, trials=2.5)
    with pytest.raises(ValueError, match="splits must be an integer >= 1"):
        run_recsys(ratings, 1.5, split_fraction=0.8, seed=0, rank=1,
                   inner_iters=2, clip=None)
    _, summary, _ = run_completion(20, 20, 2, 0.5, 10.0, 0, "fast-greedy", 3, 3,
                                   trials=True)
    assert json.dumps(summary["params"]["trials"]) == "1"
    _, summary, _ = run_completion(20, 20, 2, 0.5, 10.0, 0, "fast-greedy", 3, 3,
                                   trials=np.int64(1))
    assert json.dumps(summary["params"]["trials"]) == "1"


def test_completion_trial_rejects_an_unknown_solver():
    with pytest.raises(ValueError, match="unknown solver 'fast_greedy'"):
        completion_trial(0, 0, 10, 10, 2, 0.5, 10.0, "fast_greedy", 2, 3)


def test_run_recsys_names_its_solvers_for_an_unknown_one():
    # softimpute is a completion solver only; the CLI catches ValueError
    ratings = SparseObservations(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    for solver in ("softimpute", "nope"):
        with pytest.raises(ValueError, match=f"unknown solver '{solver}'.*fast-greedy, "
                                             "fast-local, greedy, local"):
            run_recsys(ratings, splits=1, split_fraction=0.8, seed=0, rank=1,
                       inner_iters=2, clip=None, solver=solver)


def test_completion_without_heldout_entries_raises():
    # p = 1 observes every entry and leaves no test NMSE to score
    for solver in ("fast-greedy", "softimpute"):
        with pytest.raises(ValueError, match="held-out"):
            completion_trial(0, 0, 30, 30, 3, 1.0, 10.0, solver, 3, 3)
    with pytest.raises(ValueError, match="held-out"):
        run_completion(30, 30, 3, 1.0, 10.0, 0, "fast-greedy", 3, 3, trials=2)


def test_make_equivalence_problem_planted_optimum():
    # response is exactly design @ x*, so a sparse global minimizer exists
    problem = make_equivalence_problem(12, 4, 5)
    assert problem.sparsity == 4
    assert problem.design.shape == (36, 12)
    fit_resid = np.linalg.lstsq(problem.design, problem.response, rcond=None)[1]
    assert np.allclose(fit_resid, 0.0, atol=1e-18)


def test_check_equivalence_default_beta():
    problem = make_equivalence_problem(8, 3, 0)
    rep = check_equivalence(problem, None, 3, mode="greedy", seed=0)
    assert rep.passed, rep.first_violation
    lam = float(np.linalg.eigvalsh(problem.design.T @ problem.design)[-1])
    assert rep == check_equivalence(problem, 1.01 * lam, 3, mode="greedy", seed=0)


@pytest.mark.xfail(
    strict=True,
    reason="fast_greedy diverges on held-out entries at 1% observed (test NMSE "
    "~1e88-1e90 at rank 1): the first insertion's v holds entries near 1e-48 on "
    "columns outside the gradient's top component, and row 118 of U, observed "
    "once on such a column, is solved exactly to ~1e47-1e48; a refit floor for "
    "row systems that are numerically zero is not implemented yet")
def test_fast_greedy_held_out_error_stays_bounded_when_sparsely_observed():
    rows, _ = completion_trial(0, 1, 256, 256, 5, 0.01, 10.0, "fast-greedy", 4, 3)
    # predicting zero everywhere scores 1; a fit should not do far worse
    assert all(r["test_nmse"] <= 1.0 for r in rows)
