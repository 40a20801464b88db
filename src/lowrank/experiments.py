"""Experiment drivers behind the CLI: completion sweeps, RPCA recovery,
recommender splits, and the pursuit-equivalence instances."""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from .baselines import SoftImputeConfig, lambda_grid, soft_impute
from .data import (SynthCompletionConfig, SynthRpcaConfig, gen_completion,
                   gen_rpca, nmse_on, rmse_on, split_ratings)
from .linalg import SparseObservations, check_integers
from .objectives import ClippedObservedQuadratic, HuberLowRank, ObservedQuadratic
from .sparse_equiv import SparseRegressionProblem
from .solvers import (IterationTrace, SolverConfig, fast_greedy,
                      fast_local_search, fast_local_sweep, greedy, local_search)

__all__ = [
    "COMPLETION_SOLVERS",
    "mean_stderr",
    "run_completion",
    "run_rpca",
    "run_recsys",
    "make_equivalence_problem",
]

COMPLETION_SOLVERS = ("greedy", "local", "fast-greedy", "fast-local", "softimpute")


def mean_stderr(xs) -> dict:
    xs = np.asarray(xs, dtype=np.float64)
    out = {"mean": float(xs.mean())}
    out["stderr"] = float(xs.std(ddof=1) / np.sqrt(xs.size)) if xs.size > 1 else 0.0
    return out


def completion_trial(trial: int, seed: int, m: int, n: int, true_rank: int,
                     p: float, snr: float, solver: str, rank: int,
                     inner_iters: int) -> tuple[list[dict], list[IterationTrace]]:
    """One seeded trial; returns per-rank rows of train/test NMSE plus the
    solver trace (for local and fast-local: the trace of the full-budget
    run; for softimpute: every lambda run, largest lambda first, each last
    row flagged `capped` when it stopped above tol and `rank_capped` when
    the rank cap binds)."""
    cfg = SynthCompletionConfig(m, n, true_rank, p, snr, seed)
    if cfg.true_rank == 0:
        raise ValueError("true_rank must be >= 1 for a completion trial: a rank-0 "
                         "truth leaves no held-out signal to score test NMSE against")
    _, observed, heldout = gen_completion(cfg)
    if observed.nnz == 0:
        raise ValueError("no observed entries to fit: p leaves none observed")
    if heldout.nnz == 0:
        raise ValueError("no held-out entries to score: p leaves none unobserved")
    objective = ObservedQuadratic(observed)
    rows: list[dict] = []
    traces: list[IterationTrace] = []
    start = time.perf_counter()

    def record(pair, rank_label):
        rows.append({
            "trial": trial,
            "rank": rank_label,
            "train_nmse": nmse_on(pair, observed),
            "test_nmse": nmse_on(pair, heldout),
            "seconds": time.perf_counter() - start,
        })

    if solver in ("greedy", "fast-greedy"):
        scfg = SolverConfig(rank, ls_iters=inner_iters, seed=seed)
        fn = {"greedy": greedy, "fast-greedy": fast_greedy}[solver]
        _, traces = fn(objective, scfg, callback=lambda t, pair: record(pair, pair.rank))
    elif solver in ("local", "fast-local"):
        # the swaps change the whole solution, so each target rank has its
        # own run; fast-local's greedy phase is one run shared by all of them
        configs = [SolverConfig(r, ls_iters=inner_iters, seed=seed)
                   for r in range(1, rank + 1)]
        runs = (fast_local_sweep(objective, configs) if solver == "fast-local"
                else (local_search(objective, c) for c in configs))
        for scfg, (pair, traces) in zip(configs, runs):
            record(pair, scfg.target_rank)
    elif solver == "softimpute":
        # the lambda path from the largest value down, each run warm-started
        # from the one before
        pair = None
        for lam in lambda_grid(observed, seed=seed)[::-1]:
            sicfg = SoftImputeConfig(lam=float(lam), max_rank=rank)
            pair, si_traces = soft_impute(observed, sicfg, start=pair)
            record(pair, pair.rank)
            label = f"softimpute lam={float(lam)!r}"
            flags = [label] * len(si_traces)
            if si_traces[-1].rel_change > sicfg.tol:
                flags[-1] += ";capped"
            if si_traces[-1].rank_capped:
                flags[-1] += ";rank_capped"
            traces.extend(IterationTrace(tr.iter, tr.rank, tr.objective,
                                         float("nan"), None, tr.wall_nanos, flag)
                          for tr, flag in zip(si_traces, flags))
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return rows, traces


def run_completion(m: int, n: int, true_rank: int, p: float, snr: float,
                   seed: int, solver: str, rank: int, inner_iters: int,
                   trials: int
                   ) -> tuple[list[dict], dict, list[tuple[int, IterationTrace]]]:
    """Per-rank NMSE sweep over independently seeded trials (seed + index),
    run one after another; every trial's traces come back tagged with its
    index."""
    trials, rank, inner_iters = check_integers(
        SimpleNamespace(trials=trials, rank=rank, inner_iters=inner_iters),
        trials=1, rank=1, inner_iters=1)
    per_trial = [completion_trial(k, seed + k, m, n, true_rank, p, snr, solver,
                                  rank, inner_iters)
                 for k in range(trials)]

    rows = [row for trial_rows, _ in per_trial for row in trial_rows]
    traces = [(k, tr) for k, (_, trial_traces) in enumerate(per_trial)
              for tr in trial_traces]
    trial_stats = []
    for k, (trial_rows, _) in enumerate(per_trial):
        best = min(trial_rows, key=lambda r: r["test_nmse"])
        trial_stats.append({
            "trial": k,
            "best_test_nmse": best["test_nmse"],
            "best_rank": best["rank"],
            "best_train_nmse": min(r["train_nmse"] for r in trial_rows),
        })
    summary = {
        "solver": solver,
        "params": {"m": m, "n": n, "true_rank": true_rank, "p": p, "snr": snr,
                   "seed": seed, "rank": rank, "inner_iters": inner_iters,
                   "trials": trials},
        "trials": trial_stats,
        "best_test_nmse": mean_stderr([t["best_test_nmse"] for t in trial_stats]),
        "best_rank": mean_stderr([t["best_rank"] for t in trial_stats]),
        "best_train_nmse": mean_stderr([t["best_train_nmse"] for t in trial_stats]),
    }
    return rows, summary, traces


def run_rpca(m: int, n: int, true_rank: int, sparse_frac: float,
             sparse_mag: float, delta: float, rank: int, seed: int
             ) -> tuple[list[IterationTrace], dict]:
    """Huber-loss RPCA on a synthetic low-rank + sparse instance.

    sparse_mag and delta are in units of the sd of the clean low-rank
    entries. Returns the solver trace and a recovery report.
    """
    (rank,) = check_integers(SimpleNamespace(rank=rank), rank=1)
    cfg = SynthRpcaConfig(m, n, true_rank, sparse_frac, sparse_mag, seed)
    if cfg.true_rank == 0:
        raise ValueError("true_rank must be >= 1 for RPCA: a rank-0 truth has no "
                         "clean entries to scale delta by or to measure recovery against")
    truth, corrupted, _ = gen_rpca(cfg)
    low = truth.matrix()
    sd = float(np.std(low))
    objective = HuberLowRank(corrupted, delta * sd)
    start = time.perf_counter()
    pair, traces = fast_greedy(objective, SolverConfig(target_rank=rank, seed=seed))
    rel = float(np.linalg.norm(pair.matrix() - low)) / float(np.linalg.norm(low))
    report = {
        "params": {"m": m, "n": n, "true_rank": true_rank,
                   "sparse_frac": sparse_frac, "sparse_mag": sparse_mag,
                   "delta": delta, "rank": rank, "seed": seed},
        "rel_frobenius_error": rel,
        "huber_delta_abs": delta * sd,
        "final_objective": objective.value(pair),
        "seconds": time.perf_counter() - start,
    }
    return traces, report


def run_recsys(ratings: SparseObservations, splits: int, split_fraction: float,
               seed: int, rank: int, inner_iters: int,
               clip: tuple[float, float] | None, solver: str = "fast-greedy"
               ) -> tuple[list[dict], dict, list[tuple[int, IterationTrace]]]:
    """Seeded train/test splits, one solver run per split, test RMSE rows and
    every run's traces tagged with its split."""
    splits, rank, inner_iters = check_integers(
        SimpleNamespace(splits=splits, rank=rank, inner_iters=inner_iters),
        splits=1, rank=1, inner_iters=1)
    # looked up per call, so that a patched module attribute is the one run
    solvers = {"fast-greedy": fast_greedy, "fast-local": fast_local_search,
               "greedy": greedy, "local": local_search}
    if solver not in solvers:
        raise ValueError(f"unknown solver {solver!r}: choose one of {', '.join(solvers)}")
    rows = []
    traces: list[tuple[int, IterationTrace]] = []
    for s in range(splits):
        train, test = split_ratings(ratings, split_fraction, seed + s)
        if clip is not None:
            objective = ClippedObservedQuadratic(train, clip[0], clip[1])
        else:
            objective = ObservedQuadratic(train)
        scfg = SolverConfig(rank, ls_iters=inner_iters, seed=seed + s)
        start = time.perf_counter()
        pair, run_traces = solvers[solver](objective, scfg)
        traces.extend((s, tr) for tr in run_traces)
        rows.append({
            "split": s,
            "rmse": rmse_on(pair, test, clip_range=clip),
            "train_rmse": rmse_on(pair, train, clip_range=clip),
            "seconds": time.perf_counter() - start,
        })
    summary = {
        "solver": solver,
        "params": {"splits": splits, "split_fraction": split_fraction,
                   "seed": seed, "rank": rank, "inner_iters": inner_iters,
                   "clip": list(clip) if clip else None},
        "rmse": mean_stderr([r["rmse"] for r in rows]),
        "train_rmse": mean_stderr([r["train_rmse"] for r in rows]),
    }
    return rows, summary, traces


def make_equivalence_problem(n: int, sparsity: int, seed: int,
                             examples: int | None = None,
                             orthonormal: bool = False,
                             correlation: float = 0.0
                             ) -> SparseRegressionProblem:
    """Random sparse-regression instance whose planted solution is a global
    minimizer (response constructed exactly).

    Planted magnitudes are spaced on [1, 2] so gradient coordinates stay
    well separated (the equivalence lemma assumes generic, tie-free
    instances). `orthonormal` orthonormalizes the design columns;
    `correlation` > 0 mixes in an equicorrelated factor instead.
    """
    n, sparsity, seed = check_integers(SimpleNamespace(n=n, sparsity=sparsity, seed=seed),
                                       n=1, sparsity=0, seed=0)
    if sparsity > n:
        raise ValueError(f"sparsity must be in [0, n = {n}], got {sparsity}")
    examples = 3 * n if examples is None else examples
    (rows,) = check_integers(SimpleNamespace(examples=examples),
                             examples=n if orthonormal else 1)
    if not 0.0 <= correlation < 1.0:
        raise ValueError(f"correlation must be in [0, 1), got {correlation}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((rows, n))
    if orthonormal:
        design, _ = np.linalg.qr(g)
    elif correlation > 0.0:
        cov = np.full((n, n), correlation) + (1.0 - correlation) * np.eye(n)
        design = g @ np.linalg.cholesky(cov).T
    else:
        design = g
    support = rng.choice(n, size=sparsity, replace=False)
    x_star = np.zeros(n)
    mags = np.linspace(2.0, 1.0, sparsity) if sparsity > 1 else np.ones(max(sparsity, 1))
    x_star[support] = rng.choice([-1.0, 1.0], size=sparsity) * mags[:sparsity]
    response = design @ x_star
    return SparseRegressionProblem(design, response, sparsity)
