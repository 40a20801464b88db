"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines. Criterion 10
is implemented exactly as stated and is a verified-unattainable property
(see its docstring); it is marked xfail(strict) so the defect stays visible.
"""

import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lowrank.baselines import SoftImputeConfig, soft_impute
from lowrank.cli import main as cli_main
from lowrank.data import SynthCompletionConfig, gen_completion, nmse_on
from lowrank.experiments import (make_equivalence_problem, run_completion,
                                 run_recsys, run_rpca)
from lowrank.linalg import FactorPair, SparseObservations, svd_threshold
from lowrank.objectives import ObservedQuadratic
from lowrank.sparse_equiv import check_equivalence
from lowrank.solvers import SolverConfig, fast_greedy, greedy, local_search

from conftest import dense_gradient

COMPLETION = dict(m=100, n=100, true_rank=5, p=0.2, snr=10.0, seed=7,
                  rank=30, inner_iters=3, trials=5)


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {detail}")
    assert ok, f"criterion {num}: {detail}"


def full_quadratic(mat):
    m, n = mat.shape
    rows, cols = np.divmod(np.arange(m * n), n)
    return ObservedQuadratic(SparseObservations(m, n, rows, cols, mat.ravel()))


def span_probe(objective, pair, rng, samples=8):
    """max |u^T grad v| / (1 + ||grad||_2) over random unit span vectors."""
    if pair.rank == 0:
        return 0.0
    g = dense_gradient(objective.gradient(pair))
    top = np.linalg.norm(g, 2)
    worst = 0.0
    for _ in range(samples):
        u = pair.U @ rng.standard_normal(pair.rank)
        v = pair.V @ rng.standard_normal(pair.rank)
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            continue
        worst = max(worst, abs(u @ g @ v) / (nu * nv * (1.0 + top)))
    return worst


PROBES = []  # (criterion tag, worst normalized span-probe residual)


# --------------------------------------------------------------- criteria 1-4

def test_criterion_1_greedy_equals_truncated_svd():
    rng = np.random.default_rng(101)
    m = rng.standard_normal((20, 20))
    obj = full_quadratic(m)
    probe_rng = np.random.default_rng(0)
    start = time.monotonic()
    pair, _ = greedy(obj, SolverConfig(target_rank=4, seed=11),
                     callback=lambda t, p: PROBES.append(
                         ("c1", span_probe(obj, p, probe_rng))))
    elapsed = time.monotonic() - start
    h4, _ = svd_threshold(m, 4)
    err = np.linalg.norm(pair.matrix() - h4.matrix()) / np.linalg.norm(m)
    report(1, err <= 1e-6 and elapsed < 1.0,
           f"relative error {err:.2e} (<= 1e-6), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_theorem1_rate():
    worst_ratio_violation = 0.0
    probe_rng = np.random.default_rng(1)
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        m = rng.standard_normal((20, 20))
        obj = full_quadratic(m)
        a_star, _ = svd_threshold(m, 2)
        opt = obj.value(a_star)
        gaps = [obj.value(FactorPair.empty(20, 20)) - opt]

        def cb(t, pair):
            gaps.append(obj.value(pair) - opt)
            PROBES.append(("c2", span_probe(obj, pair, probe_rng)))

        greedy(obj, SolverConfig(target_rank=8, seed=seed), callback=cb)
        for prev, cur in zip(gaps, gaps[1:]):
            worst_ratio_violation = max(worst_ratio_violation,
                                        cur - (0.75 * prev + 1e-9))
    report(2, worst_ratio_violation <= 0.0,
           f"max violation of gap(t) <= 0.75 gap(t-1) + 1e-9: "
           f"{worst_ratio_violation:.2e} over 20 instances")


def test_criterion_3_theorem2_endpoint():
    eps = 1e-6
    r_star = 2
    worst = -np.inf
    probe_rng = np.random.default_rng(2)
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        m = rng.standard_normal((20, 20))
        obj = full_quadratic(m)
        a_star, _ = svd_threshold(m, r_star)
        opt = obj.value(a_star)
        gap0 = obj.value(FactorPair.empty(20, 20)) - opt
        big_l = int(np.ceil(4 * r_star * np.log(gap0 / eps)))
        cfg = SolverConfig(target_rank=9 * r_star, max_outer_iters=big_l,
                           seed=seed)
        pair, _ = local_search(obj, cfg, callback=lambda t, p: PROBES.append(
            ("c3", span_probe(obj, p, probe_rng))))
        worst = max(worst, obj.value(pair) - opt)
    report(3, worst <= eps,
           f"max final objective minus R(A*): {worst:.2e} (<= {eps:g})")


def test_criterion_4_gradient_zero_invariant():
    # probes are collected after every inner full solve of criteria 1-3;
    # when run standalone, regenerate them from the criterion-1/3 configs
    if not PROBES:
        probe_rng = np.random.default_rng(3)
        rng = np.random.default_rng(101)
        obj = full_quadratic(rng.standard_normal((20, 20)))
        greedy(obj, SolverConfig(target_rank=4, seed=11),
               callback=lambda t, p: PROBES.append(
                   ("c1", span_probe(obj, p, probe_rng))))
        local_search(obj, SolverConfig(target_rank=18, max_outer_iters=40,
                                       seed=0),
                     callback=lambda t, p: PROBES.append(
                         ("c3", span_probe(obj, p, probe_rng))))
    worst = max(p for _, p in PROBES)
    report(4, worst <= 1e-6,
           f"max normalized span-probe residual {worst:.2e} over "
           f"{len(PROBES)} optimize_full results (<= 1e-6)")


# ----------------------------------------------------------------- criterion 5

def test_criterion_5_hr_optimality():
    rng = np.random.default_rng(55)
    worst = -np.inf
    for _ in range(50):
        m_dim = int(rng.integers(5, 12))
        n_dim = int(rng.integers(5, 12))
        r = int(rng.integers(1, min(m_dim, n_dim)))
        lam = float(rng.uniform(0.3, 3.0))
        a = rng.standard_normal((m_dim, n_dim))
        best, _ = svd_threshold(a, r)
        m_star = best.matrix() / lam
        v_star = float(np.sum(a * m_star)) - 0.5 * lam * float(np.sum(m_star ** 2))

        x = rng.standard_normal((1000, m_dim, r))
        y = rng.standard_normal((1000, r, n_dim))
        cand = x @ y
        norms = np.linalg.norm(cand.reshape(1000, -1), axis=1)
        scales = rng.uniform(0.1, 2.0, size=1000) * (np.linalg.norm(m_star) + 1e-12)
        cand *= (scales / np.maximum(norms, 1e-300))[:, None, None]
        vals = np.einsum("kij,ij->k", cand, a) - 0.5 * lam * np.einsum(
            "kij,kij->k", cand, cand)
        worst = max(worst, float(vals.max()) - v_star)
    report(5, worst <= 1e-9,
           f"max candidate value minus value at H_r(A)/lambda: {worst:.2e} "
           f"(<= 1e-9; 50 triples x 1000 candidates)")


# ----------------------------------------------------------------- criterion 6

def test_criterion_6_pursuit_equivalence():
    start = time.monotonic()
    failures = []
    worst_off = worst_diff = 0.0
    instances = [make_equivalence_problem(10, 5, s, orthonormal=True)
                 for s in range(5)]
    instances += [make_equivalence_problem(20, 6, s, correlation=0.3)
                  for s in (0, 1, 3, 4, 6)]
    for idx, problem in enumerate(instances):
        gram = problem.design.T @ problem.design
        beta = 1.01 * float(np.linalg.eigvalsh(gram)[-1])
        steps = problem.sparsity
        for mode in ("greedy", "local"):
            rep = check_equivalence(problem, beta, steps, mode=mode, seed=idx)
            worst_off = max(worst_off, rep.max_offdiag)
            worst_diff = max(worst_diff, rep.max_iterate_diff)
            if not rep.passed:
                failures.append((idx, mode, rep.first_violation))
    elapsed = time.monotonic() - start
    report(6, not failures and elapsed < 5.0,
           f"10 instances x 2 modes, max offdiag {worst_off:.2e} (<= 1e-8), "
           f"max iterate diff {worst_diff:.2e} (<= 1e-6), runtime "
           f"{elapsed:.2f}s (< 5s); failures: {failures}")


# -------------------------------------------------------------- criteria 7-9

@pytest.fixture(scope="module")
def completion_bundle():
    c = COMPLETION
    start = time.monotonic()
    fls_rows, fls_sum, _ = run_completion(c["m"], c["n"], c["true_rank"], c["p"],
                                          c["snr"], c["seed"], "fast-local",
                                          c["rank"], c["inner_iters"], c["trials"])
    fg_rows, fg_sum, _ = run_completion(c["m"], c["n"], c["true_rank"], c["p"],
                                        c["snr"], c["seed"], "fast-greedy",
                                        c["rank"], c["inner_iters"], c["trials"])
    si_rows, si_sum, si_traces = run_completion(c["m"], c["n"], c["true_rank"],
                                                c["p"], c["snr"], c["seed"],
                                                "softimpute", c["rank"],
                                                c["inner_iters"], c["trials"],
                                                collect_traces=True)
    elapsed = time.monotonic() - start
    # full-accuracy greedy runs back criteria 8 and 9
    fg_full_rows, _, _ = run_completion(c["m"], c["n"], c["true_rank"], c["p"],
                                        c["snr"], c["seed"], "fast-greedy",
                                        c["rank"], 100, c["trials"])
    return {"fls_rows": fls_rows, "fls_sum": fls_sum, "fg_rows": fg_rows,
            "fg_sum": fg_sum, "si_rows": si_rows, "si_sum": si_sum,
            "si_traces": si_traces,
            "fg_full_rows": fg_full_rows, "elapsed": elapsed}


def test_criterion_7_completion_vs_paper(completion_bundle):
    b = completion_bundle
    trials = COMPLETION["trials"]
    window_ok = True
    details = []
    for k in range(trials):
        window = [r for r in b["fls_rows"] if r["trial"] == k and 5 <= r["rank"] <= 20]
        best = min(window, key=lambda r: r["test_nmse"])
        details.append(f"{best['test_nmse']:.4f}@{best['rank']}")
        window_ok &= best["test_nmse"] <= 0.10

    fg_ok = all(t["best_test_nmse"] <= 0.12 for t in b["fg_sum"]["trials"])
    si_best = [t["best_test_nmse"] for t in b["si_sum"]["trials"]]
    fls_best = [t["best_test_nmse"] for t in b["fls_sum"]["trials"]]
    fg_best = [t["best_test_nmse"] for t in b["fg_sum"]["trials"]]
    beats = all(f < s and g < s for f, g, s in zip(fls_best, fg_best, si_best))

    ok = window_ok and fg_ok and beats and b["elapsed"] < 120.0
    report(7, ok,
           f"FLS best in rank window [5,20]: {details} (each <= 0.10); "
           f"FG best {np.mean(fg_best):.4f} (<= 0.12); SoftImpute best "
           f"{np.mean(si_best):.4f} (both beat it per trial: {beats}); "
           f"runtime {b['elapsed']:.0f}s (< 120s) "
           f"[paper: 0.0613/14, 0.0673/30, SoftImpute 0.1759/10]")


def test_softimpute_baseline_converges_at_every_lambda(completion_bundle):
    # criteria 7 and 8 compare against SoftImpute: none of its runs may stop
    # at max_iters short of its tolerance
    traces = completion_bundle["si_traces"]
    capped = [(k, tr.flags) for k, tr in traces if "capped" in tr.flags.split(";")]
    iters = Counter((k, tr.flags.split(";")[0]) for k, tr in traces)
    max_iters = SoftImputeConfig(lam=0.0, max_rank=1).max_iters
    assert len(iters) == 10 * COMPLETION["trials"]
    assert not capped and max(iters.values()) < max_iters, (capped, iters)


def test_criterion_8_train_dominance(completion_bundle):
    # Fig.-1 reading: wherever the SoftImpute lambda path yields a rank-k
    # solution, full-accuracy Fast Greedy's train NMSE at rank k is lower
    b = completion_bundle
    violations = []
    for k in range(COMPLETION["trials"]):
        fg_train = {r["rank"]: r["train_nmse"] for r in b["fg_full_rows"]
                    if r["trial"] == k}
        for row in b["si_rows"]:
            if row["trial"] != k or row["rank"] < 1 or row["rank"] > 30:
                continue
            if row["rank"] in fg_train and fg_train[row["rank"]] > row["train_nmse"]:
                violations.append((k, row["rank"]))
    report(8, not violations,
           f"Fast Greedy train NMSE <= SoftImpute's at every lambda-path rank "
           f"<= 30, all {COMPLETION['trials']} trials; violations: {violations}")


def test_paper_example_fls_best_rank_not_above_fg(completion_bundle):
    # fast local search reaches its best test NMSE at a rank no larger than
    # fast greedy's (mean over the five trials; per-trial argmins wander
    # inside the flat tail of near-equal values)
    b = completion_bundle
    fls_rank = b["fls_sum"]["best_rank"]["mean"]
    fg_rank = b["fg_sum"]["best_rank"]["mean"]
    print(f"[paper example] FLS mean best rank {fls_rank:.1f} <= "
          f"FG {fg_rank:.1f}")
    assert fls_rank <= fg_rank


def test_criterion_9_regularization_effect(completion_bundle):
    b = completion_bundle
    capped_test = np.mean([r["test_nmse"] for r in b["fg_rows"] if r["rank"] == 25])
    capped_train = np.mean([r["train_nmse"] for r in b["fg_rows"] if r["rank"] == 25])
    full_test = np.mean([r["test_nmse"] for r in b["fg_full_rows"] if r["rank"] == 25])
    full_train = np.mean([r["train_nmse"] for r in b["fg_full_rows"] if r["rank"] == 25])
    ok = capped_test < full_test and full_train < capped_train
    report(9, ok,
           f"rank 25 mean over trials: test capped {capped_test:.4f} < full "
           f"{full_test:.4f}; train full {full_train:.2e} < capped "
           f"{capped_train:.2e}")


# ---------------------------------------------------------------- criterion 10

@pytest.mark.xfail(
    strict=True,
    reason="spec defect, verified: with corruptions +-10 sd(L0) at 5% of the "
    "cells and Huber delta = 1 sd(L0), the exact rank-3 Huber minimizer "
    "already sits at relative error ~0.061-0.063 > 0.05 (truth-initialized "
    "L-BFGS on the stated objective), and Fast Greedy's single half-refit "
    "per insertion saturates near 0.11 regardless of the inner iteration "
    "budget; see the decisions ledger")
def test_criterion_10_rpca_recovery():
    worst = -np.inf
    start = time.monotonic()
    for seed in range(5):
        _, rep = run_rpca(100, 100, 3, 0.05, 10.0, 1.0, 3, seed)
        worst = max(worst, rep["rel_frobenius_error"])
    elapsed = time.monotonic() - start
    report(10, worst <= 0.05 and elapsed < 60.0,
           f"max relative Frobenius error over 5 seeds: {worst:.3f} (<= 0.05), "
           f"runtime {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------- criterion 11

def _movielens_path():
    env = os.environ.get("LOWRANK_ML100K")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "ml-100k" / "u.data"


def test_criterion_11_movielens_100k():
    path = _movielens_path()
    if not path.exists():
        print(f"[criterion 11] SKIP MovieLens 100K not found at {path} "
              f"(set LOWRANK_ML100K); paper value 0.9451, bound 0.97")
        pytest.skip(f"MovieLens 100K dataset not on disk at {path}")
    from lowrank.data import load_movielens

    ds = load_movielens(str(path), "ml100k")
    start = time.monotonic()
    rows, summary, _ = run_recsys(ds, splits=5, split_fraction=0.8, seed=0,
                                  rank=100, inner_iters=2, clip=(1.0, 5.0))
    elapsed = time.monotonic() - start
    mean_rmse = summary["rmse"]["mean"]
    report(11, mean_rmse <= 0.97 and elapsed < 600.0,
           f"mean test RMSE over 5 splits: {mean_rmse:.4f} (<= 0.97; paper "
           f"0.9451), runtime {elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------- criterion 12

def _strip_csv_timing(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    drop = [i for i, name in enumerate(header) if name in ("seconds", "wall_nanos")]
    out = []
    for line in lines:
        cells = line.split(",")
        for i in drop:
            cells[i] = ""
        out.append(",".join(cells))
    return "\n".join(out)


def _strip_json_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_json_timing(v) for k, v in obj.items()
                if k not in ("seconds", "wall_nanos")}
    if isinstance(obj, list):
        return [_strip_json_timing(v) for v in obj]
    return obj


def test_criterion_12_cli_determinism(tmp_path):
    # identical flags must reproduce every computed byte; the wall-clock
    # columns (seconds, wall_nanos) are excluded -- see CHANGES.md
    runs = {
        "synth": ["synth-complete", "--m", "40", "--n", "40", "--true-rank", "3",
                  "--p", "0.3", "--snr", "10", "--seed", "9",
                  "--solver", "fast-local", "--rank", "6", "--trials", "3"],
        "rpca": ["rpca-synth", "--m", "30", "--n", "30", "--true-rank", "2",
                 "--sparse-frac", "0.05", "--sparse-mag", "8", "--delta", "1",
                 "--rank", "2", "--seed", "4"],
    }
    mismatches = []
    for name, argv in runs.items():
        outputs = []
        for attempt in ("a", "b"):
            csv_p = tmp_path / f"{name}_{attempt}.csv"
            json_p = tmp_path / f"{name}_{attempt}.json"
            trace_p = tmp_path / f"{name}_{attempt}_trace.csv"
            code = cli_main(argv + ["--csv", str(csv_p), "--json", str(json_p),
                                    "--trace", str(trace_p)])
            assert code == 0
            outputs.append((
                _strip_csv_timing(csv_p.read_text()),
                _strip_json_timing(json.loads(json_p.read_text())),
                _strip_csv_timing(trace_p.read_text()),
            ))
        if outputs[0] != outputs[1]:
            mismatches.append(name)
    report(12, not mismatches,
           f"repeated CLI runs byte-identical outside timing columns for "
           f"{sorted(runs)}; mismatches: {mismatches}")
