"""The benchmark's workloads: inputs from a seed, the timed calls, the checks.

Each workload builds its inputs through the package's public constructors
(`generate`, timed as set-up), may rebuild objects that cache work before
each pass (`fresh`, untimed), lists the solve calls of one pass
(`operations`, each timed on its own) and checks every result (`check`).
An operation fails if it raises, returns non-finite values or misses the
bound of its acceptance criterion; checks run after every timed pass, so a
faster wrong answer counts as a failure.

The spreads quoted below are single passes in fresh processes on the shared
2-core host before the measures in README.md ("How a run is kept steady")
brought `solve_s` within about a tenth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

import lowrank
# entry points are looked up on their modules at call time, so a traced
# pass sees the tracer's wrappers
from lowrank import experiments


@dataclass
class Outcome:
    """Operations of one pass and what the workload reports about them."""

    attempted: int = 0
    failed: int = 0
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class Workload:
    name = ""
    why = ""

    def generate(self, seed: int):
        raise NotImplementedError

    def fresh(self, inputs):
        """Per-pass inputs (untimed); objects that cache work are rebuilt."""
        return inputs

    def warmup(self, inputs) -> None:
        raise NotImplementedError

    def operations(self, inputs, probe) -> list:
        """The solve calls of one pass, as argument-free callables; each is
        timed on its own, and one that raises yields its exception. A solver
        callback may call `probe()` between steps: it samples the reference
        load, and its time is not counted."""
        raise NotImplementedError

    def check(self, inputs, results) -> Outcome:
        """Checks the results of `operations`, in order."""
        raise NotImplementedError


class Equivalence(Workload):
    """Criterion 6: 10 instances x {greedy, local} = 20 `check_equivalence`.

    Why: insertion-bound. Prototype traced self time put 96% in
    `top_singular_triplet` (360 calls, 720k matvecs on dense operators of
    20x20 or smaller) and the k-th iterate re-runs the solver (110 solver
    runs for 20 checks). There is no observed-entry kernel and no
    SoftImpute, so a change to those should leave it unchanged.
    Spread of one pass in fresh processes: 3.0-4.6 s.

    The instances are the criterion-6 set itself; the seed moves the start
    vectors of the power iterations. Correlated instances drawn from other
    seeds fail the check about one time in five (power iteration cannot
    separate near-tied singular values in 1000 steps), a defect of the
    insertion layer that the criterion-6 seeds do not exercise.
    """

    name = "equivalence"
    why = ("criterion-6 set, 20 check_equivalence calls on <=20x20 dense lifts: "
           "insertion-bound, no observed-entry kernel, no SoftImpute")

    def generate(self, seed):
        problems = [experiments.make_equivalence_problem(10, 5, s, orthonormal=True)
                    for s in range(5)]
        problems += [experiments.make_equivalence_problem(20, 6, s, correlation=0.3)
                     for s in (0, 1, 3, 4, 6)]
        cases = []
        for idx, problem in enumerate(problems):
            gram = problem.design.T @ problem.design
            beta = 1.01 * float(np.linalg.eigvalsh(gram)[-1])
            solver_seed = seed * len(problems) + idx
            cases += [(problem, beta, mode, solver_seed) for mode in ("greedy", "local")]
        return cases

    def warmup(self, inputs):
        problem, beta, mode, seed = inputs[0]
        lowrank.check_equivalence(problem, beta, 2, mode=mode, seed=seed)

    def operations(self, inputs, probe):
        return [functools.partial(lowrank.check_equivalence, problem, beta,
                                  problem.sparsity, mode=mode, seed=seed)
                for problem, beta, mode, seed in inputs]

    def check(self, inputs, results):
        out = Outcome()
        worst_off = worst_diff = 0.0
        for (_, _, mode, seed), rep in zip(inputs, results):
            if isinstance(rep, Exception):
                out.record(False, f"{mode} seed {seed}: {rep!r}")
                continue
            ok = rep.passed and _finite(rep.max_offdiag, rep.max_iterate_diff)
            out.record(ok, f"{mode} seed {seed}: {rep.first_violation}")
            worst_off = max(worst_off, rep.max_offdiag)
            worst_diff = max(worst_diff, rep.max_iterate_diff)
        out.quality = {"max_offdiag": worst_off, "max_iterate_diff": worst_diff}
        return out


# the criterion-7 fixture at 2 trials instead of 5
COMPLETION = dict(m=100, n=100, true_rank=5, p=0.2, snr=10.0, rank=30, trials=2)
COMPLETION_CALLS = (("fast-local", 3), ("fast-greedy", 3), ("softimpute", 3),
                    ("fast-greedy", 100))


class Completion(Workload):
    """The four `run_completion` calls of the criterion-7 fixture at 2 trials.

    Why: many small calls at 100x100, where the operator is densified, run
    through the trial thread pool. One fast-local trial makes about 1.5k
    insertions, 7.6k `project_observed` calls and 6k `csr_with` copies;
    SoftImpute is about half the serial time and 6 of its 10 lambda values
    stop at `max_iters`. Spread of one pass in fresh processes: 7.7-15 s.

    Per trial the checks are criterion 7's bounds: fast-local best test NMSE
    in the rank window [5, 20] <= 0.10, fast-greedy best <= 0.12, and both
    below SoftImpute's best; the full-accuracy fast-greedy run must be
    finite. The instances are drawn inside `run_completion` (trial seeds
    seed and seed + 1), so set-up is the import alone.
    """

    name = "completion"
    why = ("criterion-7 fixture at 2 trials: many small 100x100 calls through the "
           "trial pool; observed-entry kernel, capped refit and SoftImpute")

    def generate(self, seed):
        c = COMPLETION
        lowrank.SynthCompletionConfig(c["m"], c["n"], c["true_rank"], c["p"],
                                      c["snr"], seed)
        return dict(c, seed=seed)

    def _call(self, inputs, solver, inner_iters):
        c = inputs
        return experiments.run_completion(c["m"], c["n"], c["true_rank"], c["p"],
                                          c["snr"], c["seed"], solver, c["rank"],
                                          inner_iters, c["trials"])

    def warmup(self, inputs):
        self._call(inputs, "fast-greedy", 3)

    def operations(self, inputs, probe):
        return [functools.partial(self._call, inputs, solver, inner_iters)
                for solver, inner_iters in COMPLETION_CALLS]

    def check(self, inputs, results):
        trials = inputs["trials"]
        out = Outcome()
        best = {}  # call label -> per-trial best test NMSE, None where it failed
        for (solver, inner_iters), result in zip(COMPLETION_CALLS, results):
            label = f"{solver}/{inner_iters}"
            per_trial = [None] * trials
            if not isinstance(result, Exception):
                rows, summary, _ = result
                for k in range(trials):
                    trial_rows = [r for r in rows if r["trial"] == k]
                    values = [v for r in trial_rows
                              for v in (r["train_nmse"], r["test_nmse"])]
                    if trial_rows and _finite(*values):
                        if solver == "fast-local":
                            window = [r["test_nmse"] for r in trial_rows
                                      if 5 <= r["rank"] <= 20]
                            per_trial[k] = (min(window) if window else math.inf,
                                            summary["trials"][k]["best_test_nmse"])
                        else:
                            per_trial[k] = summary["trials"][k]["best_test_nmse"]
            best[label] = per_trial

        si = best["softimpute/3"]
        for k in range(trials):
            fls, fg = best["fast-local/3"][k], best["fast-greedy/3"][k]
            baseline = si[k] if si[k] is not None else -math.inf
            out.record(fls is not None and fls[0] <= 0.10 and fls[1] < baseline,
                       f"fast-local trial {k}: {fls}")
            out.record(fg is not None and fg <= 0.12 and fg < baseline,
                       f"fast-greedy trial {k}: {fg}")
            out.record(si[k] is not None, f"softimpute trial {k}: {si[k]}")
            out.record(best["fast-greedy/100"][k] is not None,
                       f"fast-greedy/100 trial {k}: not finite")
        if out.failed == 0:
            out.quality = {
                "test_nmse": float(np.mean([b[0] for b in best["fast-local/3"]])),
                "baseline_test_nmse": float(np.mean(si)),
            }
        return out


class ML1M(Workload):
    """A MovieLens-1M-sized synthetic: `fast_greedy` to rank 10.

    6040 x 3706, 1M observed entries of a true-rank-5 matrix at SNR 10, and
    100k held-out cells carrying the clean values. Why: few large calls on
    the same layers as `completion`; in the prototype `project_observed`
    took 43% and `csr_with` 12%, versus 26% for insertion. The objective
    jumps up at step 6 (56.7k -> 1.03M on seed 0). Spread of one pass in
    fresh processes: 5.7-9.2 s.

    The entries are sampled here, not by `gen_completion`, which at this
    size draws a dense m x n noise matrix and the 21M-cell complement (31 s
    and 2.6 GB before any solve). The observed set and objective are rebuilt
    before every pass (untimed), so each pass pays the solver's own cached
    index structures, as a single user call does. The check: held-out NMSE
    finite and below 1/snr^2, the noise-to-signal variance of the
    observations.
    """

    name = "ml1m"
    why = ("6040x3706 synthetic, 1M entries, fast_greedy to rank 10: few large "
           "calls, observed-entry kernel and CSR copies dominate")
    shape = (6040, 3706)
    true_rank, observed, heldout, snr, rank = 5, 1_000_000, 100_000, 10.0, 10

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        m, n = self.shape
        u = rng.standard_normal((m, self.true_rank))
        v = rng.standard_normal((n, self.true_rank))
        total = self.observed + self.heldout
        # distinct uniform cells in draw order: the first `observed` are seen
        draws = rng.integers(0, m * n, size=total + total // 8)
        _, first = np.unique(draws, return_index=True)
        cells = draws[np.sort(first)[:total]]
        if cells.size < total:
            raise RuntimeError("too few distinct cells drawn")

        def entries(flat):
            flat = np.sort(flat)
            i, j = np.divmod(flat, n)
            return i, j, np.einsum("ij,ij->i", u[i], v[j])

        rows, cols, signal = entries(cells[: self.observed])
        noise = rng.standard_normal(self.observed)
        vals = signal + (float(np.std(signal)) / self.snr) * noise
        h_rows, h_cols, h_vals = entries(cells[self.observed:])
        inputs = dict(seed=seed, arrays=(rows, cols, vals),
                      heldout=lowrank.SparseObservations(m, n, h_rows, h_cols, h_vals))
        return self.fresh(inputs)

    def fresh(self, inputs):
        m, n = self.shape
        observed = lowrank.SparseObservations(m, n, *inputs["arrays"])
        return dict(inputs, objective=lowrank.ObservedQuadratic(observed))

    def _solve(self, inputs, rank, probe=None):
        config = lowrank.SolverConfig(target_rank=rank, seed=inputs["seed"])
        return lowrank.fast_greedy(inputs["objective"], config, callback=probe)

    def warmup(self, inputs):
        self._solve(inputs, 2)

    def operations(self, inputs, probe):
        return [functools.partial(self._solve, inputs, self.rank, probe)]

    def check(self, inputs, results):
        out = Outcome()
        result = results[0]
        if isinstance(result, Exception):
            out.record(False, repr(result))
            return out
        pair, traces = result
        nmse = lowrank.nmse_on(pair, inputs["heldout"])
        ok = (_finite(nmse, *(t.objective for t in traces))
              and bool(np.all(np.isfinite(pair.U))) and bool(np.all(np.isfinite(pair.V)))
              and nmse <= 1.0 / self.snr ** 2)
        out.record(ok, f"held-out NMSE {nmse}")
        out.quality = {"test_nmse": nmse}
        return out


class RPCA(Workload):
    """`run_rpca` at 500x500, true rank 5, 5% corruption at +-10 sd, delta 1 sd.

    Three instances per pass (seeds 3*seed .. 3*seed+2). Why: the only user
    of the capped L-BFGS refit (85% of its time) and of the dense Huber
    objective; without it the inner-refit layer of non-quadratic objectives
    goes unmeasured. Only raising or non-finite output fails: criterion 10's
    recovery bound is a strict xfail, so the relative error is reported,
    not checked.
    """

    name = "rpca"
    why = ("run_rpca 500x500, rank 5, 5% corruption: the only user of the capped "
           "L-BFGS refit and the dense Huber objective")
    instances = 3

    def generate(self, seed):
        seeds = [self.instances * seed + k for k in range(self.instances)]
        for s in seeds:
            lowrank.SynthRpcaConfig(500, 500, 5, 0.05, 10.0, s)
        return seeds

    def warmup(self, inputs):
        experiments.run_rpca(100, 100, 3, 0.05, 10.0, 1.0, 3, inputs[0])

    def operations(self, inputs, probe):
        return [functools.partial(experiments.run_rpca, 500, 500, 5, 0.05, 10.0, 1.0, 5, s)
                for s in inputs]

    def check(self, inputs, results):
        out = Outcome()
        errors = []
        for s, result in zip(inputs, results):
            if isinstance(result, Exception):
                out.record(False, f"seed {s}: {result!r}")
                continue
            traces, report = result
            ok = _finite(report["rel_frobenius_error"], report["final_objective"],
                         *(t.objective for t in traces))
            out.record(ok, f"seed {s}: non-finite result")
            errors.append(report["rel_frobenius_error"])
        if out.failed == 0:
            out.quality = {"rel_err": float(np.mean(errors))}
        return out


WORKLOADS = {w.name: w for w in (Equivalence(), Completion(), ML1M(), RPCA())}
