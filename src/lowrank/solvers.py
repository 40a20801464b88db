"""Outer solvers: greedy rank-1 pursuit, local search, and their fast variants.

Each outer iteration extracts the dominant singular pair of the gradient,
appends it as a new factor column pair, and re-optimizes coefficients. Local
search additionally drops one rank-1 component per iteration, so it can make
progress without growing the rank. All four solvers are presets of one loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .inner import check_full_refit, optimize_fast, optimize_full
from .linalg import FactorPair, check_integers, top_singular_triplet

__all__ = [
    "SolverConfig",
    "IterationTrace",
    "greedy",
    "local_search",
    "fast_greedy",
    "fast_local_search",
    "fast_local_sweep",
    "truncate_svd",
    "truncate_fast",
]

# a gradient whose top magnitude is at most this fraction of the run's first
# one counts as zero: the pursuits here and in sparse_equiv stop on it
_GRADIENT_FLOOR = 1e-12


@dataclass
class SolverConfig:
    """Shared configuration for the four outer solvers.

    target_rank is the rank budget r. max_outer_iters is the iteration
    count L of local search, and a safety cap on fast local search passes.
    ls_iters caps the per-row CG steps of the fast solvers' refit (2-3 act
    as regularization). seed picks the start vectors of the insertions that
    top_singular_triplet finds by Lanczos. Each insertion is the gradient's
    top singular pair, to machine precision. The fast solvers take the
    insertion direction from the objective's insertion_gradient when it has
    one (clipped ratings).
    """

    target_rank: int
    max_outer_iters: int = 100
    ls_iters: int = 3
    seed: int = 0

    def __post_init__(self):
        check_integers(self, target_rank=1, max_outer_iters=1, ls_iters=1, seed=0)


@dataclass
class IterationTrace:
    """One outer iteration: rank, objective, insertion sigma, timing.

    flags joins with ';' any of gradient_zero, stalled and objective_up
    (empty when none applies); README.md's CSV section defines them.
    """

    iter: int
    rank: int
    objective: float
    top_sigma: float
    truncated_column: int | None
    wall_nanos: int
    flags: str = ""


def _step_seed(seed: int, t: int) -> int:
    return (int(seed) * 1_000_003 + int(t)) % (2 ** 63)


def truncate_svd(pair: FactorPair) -> FactorPair:
    """Drop the minimum singular value of U V^T; factors keep one fewer column.

    The result is the SVD's leading components: left singular vectors scaled
    by their singular values, and orthonormal right singular vectors. The
    SVD is U V^T = Q_U (R_U R_V^T) Q_V^T from QRs of the factors and the
    SVD of the r x r middle (Golub & Van Loan, section 2.5), so no m x n
    array is made. Local search calls it only on a pair at its rank budget.
    """
    if pair.rank < 1:
        raise ValueError("cannot truncate a rank-0 pair")
    qu, ru = np.linalg.qr(pair.U)
    qv, rv = np.linalg.qr(pair.V)
    u, s, vt = np.linalg.svd(ru @ rv.T, full_matrices=False)
    k = min(pair.rank - 1, s.size)
    return FactorPair(qu @ (u[:, :k] * s[:k]), qv @ vt[:k].T)


def truncate_fast(pair: FactorPair) -> tuple[FactorPair, int]:
    """Remove the column i minimizing ||U e_i|| * ||V e_i||; ties -> lowest i."""
    if pair.rank < 1:
        raise ValueError("cannot truncate a rank-0 pair")
    products = np.linalg.norm(pair.U, axis=0) * np.linalg.norm(pair.V, axis=0)
    i = int(np.argmin(products))
    keep = np.arange(pair.rank) != i
    return FactorPair(pair.U[:, keep], pair.V[:, keep]), i


def _pursue(objective, config: SolverConfig, pair: FactorPair, steps: int, *,
            fast: bool, patience: int | None = None,
            offset: int = 0, sigma0: float | None = None,
            callback=None) -> tuple[FactorPair, list[IterationTrace]]:
    """The outer loop of all four solvers; returns the best iterate and trace.

    Step t inserts the gradient's top singular pair (seed offset + t), after
    truncate_fast / truncate_svd once the pair is at config.target_rank,
    refits with optimize_fast (parity t) or optimize_full, and evaluates. A
    top sigma at most 1e-12 * sigma0 ends the loop with a `gradient_zero`
    row, so the rule does not depend on the data's scale; sigma0 defaults
    to the first sigma, and a zero first sigma ends the loop at once. With
    patience=None every step is kept; otherwise a step is kept only if it
    lowers the best objective, `patience` failures in a row end the loop,
    and only improving steps and the final `stalled` one are traced. A
    traced row whose objective is above the previous traced row's gets
    `objective_up`. The callback sees every iterate. The full refit's rank
    cap (`inner.check_full_refit`) is checked before the first step.
    """
    if not fast:
        check_full_refit(config.target_rank, objective.shape)
    gradient = objective.gradient
    if fast:
        gradient = getattr(objective, "insertion_gradient", gradient)
    best, best_obj = pair, None if patience is None else objective.value(pair)
    traces: list[IterationTrace] = []

    def went_up(obj):
        return ["objective_up"] if traces and obj > traces[-1].objective else []

    stall = 0
    for t in range(steps):
        t0 = time.perf_counter_ns()
        trip = top_singular_triplet(gradient(pair),
                                    seed=_step_seed(config.seed, offset + t))
        sigma0 = trip.sigma if sigma0 is None else sigma0
        if trip.sigma <= _GRADIENT_FLOOR * sigma0:
            obj = objective.value(pair)
            traces.append(IterationTrace(t, pair.rank, obj, trip.sigma, None,
                                         time.perf_counter_ns() - t0,
                                         ";".join(["gradient_zero"] + went_up(obj))))
            break
        flags = []
        removed = None
        if pair.rank >= config.target_rank and fast:
            pair, removed = truncate_fast(pair)
        elif pair.rank >= config.target_rank:
            pair = truncate_svd(pair)
        pair = pair.append(trip.u, trip.v)
        if fast:
            pair = optimize_fast(pair.U, pair.V, t, objective, config.ls_iters)
        else:
            pair = optimize_full(pair.U, pair.V, objective)
        obj = objective.value(pair)
        flags += went_up(obj)
        if patience is None or obj < best_obj:
            best, best_obj, stall = pair, obj, 0
        else:
            stall += 1
        if stall == patience:
            flags.append("stalled")
        if stall in (0, patience):
            traces.append(IterationTrace(t, pair.rank, obj, trip.sigma, removed,
                                         time.perf_counter_ns() - t0,
                                         ";".join(flags)))
        if callback is not None:
            callback(t, pair)
        if stall == patience:
            break
    return best, traces


def greedy(objective, config: SolverConfig, callback=None
           ) -> tuple[FactorPair, list[IterationTrace]]:
    """Rank-1 pursuit with the full joint coefficient refit (reference path)."""
    return _pursue(objective, config, FactorPair.empty(*objective.shape),
                   config.target_rank, fast=False, callback=callback)


def local_search(objective, config: SolverConfig, callback=None
                 ) -> tuple[FactorPair, list[IterationTrace]]:
    """Rank-constrained local search: insert, truncate at the budget, refit,
    for L iterations.

    Starts from the empty pair, so its first target_rank steps are greedy's;
    from then on each step drops the minimum singular value before it
    inserts. Stops at the first step that fails to lower the best objective
    (degraded steps, e.g. the r=1 direction oscillation, are not kept) and
    returns the previous iterate.
    """
    return _pursue(objective, config, FactorPair.empty(*objective.shape),
                   config.max_outer_iters, fast=False, patience=1,
                   callback=callback)


def fast_greedy(objective, config: SolverConfig, callback=None
                ) -> tuple[FactorPair, list[IterationTrace]]:
    """Greedy with the one-sided alternating inner solve (the practical path)."""
    return _pursue(objective, config, FactorPair.empty(*objective.shape),
                   config.target_rank, fast=True, callback=callback)


def fast_local_search(objective, config: SolverConfig, callback=None
                      ) -> tuple[FactorPair, list[IterationTrace]]:
    """Fast greedy init, then swap passes: drop the cheapest column, insert
    the gradient's top singular pair, run one alternating half-refit.

    The truncated half-refits rebuild one factor per pass, so the raw
    objective oscillates by refit side while both sides keep improving; the
    pass chain therefore runs until the best value stops decreasing, i.e.
    until two consecutive passes (one per side) fail to lower the best
    objective. Returns the best (last improving) pair. The trace records the
    improving passes plus the final stalled one, so its objectives are
    strictly decreasing except the final entry. The greedy phase's first
    sigma anchors the gradient-zero floor. This is `fast_local_sweep` over
    the one config.
    """
    return next(fast_local_sweep(objective, [config], callback))


def fast_local_sweep(objective, configs, callback=None):
    """Yield fast_local_search(objective, config, callback) for each config
    in turn, bit for bit, from one shared greedy prefix.

    Step t of fast_greedy depends on the seed, ls_iters and t, not on the
    target rank, so the greedy phase of every config is a prefix of one
    fast_greedy run to the largest target rank: each config's swap passes
    start from that run's iterate at its rank. A greedy run that stops at
    gradient_zero after k < rank steps leaves iterate k, as the shorter run
    would. The configs must share seed and ls_iters (ValueError, raised on
    the first iteration, otherwise); target_rank and max_outer_iters are
    each config's own. No configs yield nothing.
    """
    configs = list(configs)
    if not configs:
        return
    if len({(c.seed, c.ls_iters) for c in configs}) > 1:
        raise ValueError("fast_local_sweep configs must share seed and ls_iters")
    ranks = {c.target_rank for c in configs}
    iterates = {}

    def keep(t, pair):
        if pair.rank in ranks:
            iterates[pair.rank] = pair

    last, init = fast_greedy(objective, max(configs, key=lambda c: c.target_rank),
                             callback=keep)
    for config in configs:
        # a rank the greedy run stopped short of starts from its last iterate
        start = iterates.get(config.target_rank, last)
        yield _pursue(objective, config, start, config.max_outer_iters, fast=True,
                      patience=2, offset=config.target_rank,
                      sigma0=init[0].top_sigma, callback=callback)
