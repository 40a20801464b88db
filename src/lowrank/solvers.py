"""Outer solvers: greedy rank-1 pursuit, local search, and their fast variants.

Each outer iteration extracts the dominant singular pair of the gradient,
appends it as a new factor column pair, and re-optimizes coefficients. Local
search additionally drops one rank-1 component per iteration, so it can make
progress without growing the rank. All four solvers are presets of one loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .inner import InnerConfig, optimize_fast, optimize_full
from .linalg import FactorPair, svd_threshold, top_singular_triplet

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

# relative threshold under which the gradient's top singular value counts as zero
_SIGMA_FLOOR = 1e-12


@dataclass
class SolverConfig:
    """Shared configuration for the four outer solvers.

    target_rank is the rank budget r; max_outer_iters is the iteration
    count L of local search (and a safety cap on fast local search passes).
    eps is the objective-improvement stopping slack; None picks the
    per-algorithm default (1e-10 for local_search, 0 i.e. strict decrease
    for fast_local_search). Each insertion is the gradient's top singular
    pair from top_singular_triplet, to machine precision. The fast solvers
    take the insertion direction from the objective's insertion_gradient
    when it has one (clipped ratings).
    """

    target_rank: int
    max_outer_iters: int = 100
    eps: float | None = None
    inner: InnerConfig = field(default_factory=InnerConfig)
    seed: int = 0

    def __post_init__(self):
        if self.target_rank < 1:
            raise ValueError("target_rank must be >= 1")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.eps is not None and not 0.0 <= self.eps < np.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class IterationTrace:
    """One outer iteration: rank, objective, insertion sigma, timing.

    flags joins with ';' any of gradient_zero, stalled, cg_incomplete and
    objective_up (empty when none applies); README.md's CSV section defines
    them.
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

    Retained singular values are folded into the left factor. When the
    represented matrix has rank below the column count, the dropped
    component is a zero singular value and the matrix is unchanged.
    """
    if pair.rank < 1:
        raise ValueError("cannot truncate a rank-0 pair")
    out, _ = svd_threshold(pair.matrix(), pair.rank - 1)
    return out


def truncate_fast(pair: FactorPair) -> tuple[FactorPair, int]:
    """Remove the column i minimizing ||U e_i|| * ||V e_i||; ties -> lowest i."""
    if pair.rank < 1:
        raise ValueError("cannot truncate a rank-0 pair")
    products = np.linalg.norm(pair.U, axis=0) * np.linalg.norm(pair.V, axis=0)
    i = int(np.argmin(products))
    keep = np.arange(pair.rank) != i
    return FactorPair(pair.U[:, keep], pair.V[:, keep]), i


def _pursue(objective, config: SolverConfig, pair: FactorPair, steps: int, *,
            fast: bool, truncate: bool, patience: int | None = None,
            eps: float = 0.0, offset: int = 0, sigma0: float | None = None,
            callback=None) -> tuple[FactorPair, list[IterationTrace]]:
    """The outer loop of all four solvers; returns the best iterate and trace.

    Step t inserts the gradient's top singular pair (seed offset + t) after
    truncate_fast / truncate_svd if `truncate`, refits with
    optimize_fast (parity t) or optimize_full, and evaluates. A top sigma at
    most 1e-12 * (1 + sigma0) ends the loop with a `gradient_zero` row;
    sigma0 defaults to the first sigma. With patience=None every step is
    kept; otherwise a step must lower the best objective by more than eps,
    `patience` failures in a row end the loop, and only improving steps and
    the final `stalled` one are traced. A traced row whose objective is above
    the previous traced row's gets `objective_up`. The callback sees every
    iterate.
    """
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
        if trip.sigma <= _SIGMA_FLOOR * (1.0 + sigma0):
            obj = objective.value(pair)
            traces.append(IterationTrace(t, pair.rank, obj, trip.sigma, None,
                                         time.perf_counter_ns() - t0,
                                         ";".join(["gradient_zero"] + went_up(obj))))
            break
        flags = []
        removed = None
        if truncate and fast:
            pair, removed = truncate_fast(pair)
        elif truncate:
            pair = truncate_svd(pair)
        pair = pair.append(trip.u, trip.v)
        if fast:
            pair = optimize_fast(pair.U, pair.V, t, objective, config.inner)
        else:
            pair, info = optimize_full(pair.U, pair.V, objective,
                                       tol=config.inner.full_solve_tol)
            if not info.converged:
                flags.append("cg_incomplete")
        obj = objective.value(pair)
        flags += went_up(obj)
        if patience is None or best_obj - obj > eps:
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
                   config.target_rank, fast=False, truncate=False,
                   callback=callback)


def local_search(objective, config: SolverConfig, callback=None
                 ) -> tuple[FactorPair, list[IterationTrace]]:
    """Rank-constrained local search: truncate, insert, refit for L iterations.

    Starts from all-zero factors of width target_rank; while the represented
    rank is below the width, truncation removes a zero singular value and
    the iteration behaves like a greedy step. Stops at the first step that
    fails to improve the objective by more than eps (degraded steps, e.g. the
    r=1 direction oscillation, are not kept) and returns the previous iterate.
    """
    eps = 1e-10 if config.eps is None else config.eps
    pair = FactorPair.zeros(*objective.shape, config.target_rank)
    return _pursue(objective, config, pair, config.max_outer_iters, fast=False,
                   truncate=True, patience=1, eps=eps, callback=callback)


def fast_greedy(objective, config: SolverConfig, callback=None
                ) -> tuple[FactorPair, list[IterationTrace]]:
    """Greedy with the one-sided alternating inner solve (the practical path)."""
    return _pursue(objective, config, FactorPair.empty(*objective.shape),
                   config.target_rank, fast=True, truncate=False,
                   callback=callback)


def _swap_passes(objective, config: SolverConfig, pair: FactorPair,
                 sigma0: float, callback=None
                 ) -> tuple[FactorPair, list[IterationTrace]]:
    """The swap passes of fast_local_search from the greedy pair."""
    eps = 0.0 if config.eps is None else config.eps
    return _pursue(objective, config, pair, config.max_outer_iters, fast=True,
                   truncate=True, patience=2, eps=eps, offset=config.target_rank,
                   sigma0=sigma0, callback=callback)


def fast_local_search(objective, config: SolverConfig, callback=None
                      ) -> tuple[FactorPair, list[IterationTrace]]:
    """Fast greedy init, then swap passes: drop the cheapest column, insert
    the gradient's top singular pair, run one alternating half-refit.

    The truncated half-refits rebuild one factor per pass, so the raw
    objective oscillates by refit side while both sides keep improving; the
    pass chain therefore runs until the best value stops decreasing, i.e.
    until two consecutive passes (one per side) fail to improve it by more
    than eps. Returns the best (last improving) pair. The trace records the
    improving passes plus the final stalled one, so its objectives are
    strictly decreasing except the final entry. The greedy phase's first
    sigma anchors the gradient-zero floor.
    """
    pair, init = fast_greedy(objective, config)
    return _swap_passes(objective, config, pair, init[0].top_sigma, callback)


def fast_local_sweep(objective, configs, callback=None):
    """Yield fast_local_search(objective, config, callback) for each config
    in turn, bit for bit, from one shared greedy prefix.

    Step t of fast_greedy depends on the seed, the inner settings and t, not
    on the target rank, so the greedy phase of every config is a prefix of
    one fast_greedy run to the largest target rank: each config's swap
    passes start from that run's iterate at its rank. A greedy run that
    stops at gradient_zero after k < rank steps leaves iterate k, as the
    shorter run would. The configs must share seed and inner settings
    (ValueError, raised on the first iteration, otherwise).
    """
    configs = list(configs)
    if any((c.seed, c.inner) != (configs[0].seed, configs[0].inner) for c in configs):
        raise ValueError("fast_local_sweep configs must share seed and inner")
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
        yield _swap_passes(objective, config, start, init[0].top_sigma, callback)
