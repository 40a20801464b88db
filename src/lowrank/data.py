"""Synthetic instance generation, MovieLens ingestion, splits, and metrics.

All generators are pure functions of (config, seed), so replays are
bit-identical; observed sets hold their entries in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (DuplicateEntryError, FactorPair, SparseObservations,
                     check_integers, project_observed)

__all__ = [
    "SynthCompletionConfig",
    "SynthRpcaConfig",
    "gen_completion",
    "gen_rpca",
    "load_movielens",
    "split_ratings",
    "nmse_on",
    "rmse_on",
]


def _check_grid(config) -> None:
    """The checks both synthetic configs share."""
    check_integers(config, m=1, n=1, true_rank=0, seed=0)
    if config.m * config.n < 2:
        raise ValueError("m * n must be >= 2: the generators scale by an sd over cells")
    if config.true_rank > min(config.m, config.n):
        raise ValueError("true_rank must be <= min(m, n)")


@dataclass
class SynthCompletionConfig:
    m: int
    n: int
    true_rank: int
    observed_fraction: float  # p in (0, 1]
    snr: float
    seed: int = 0

    def __post_init__(self):
        _check_grid(self)
        if not 0.0 < self.observed_fraction <= 1.0:
            raise ValueError("observed_fraction must be in (0, 1]")
        if not self.snr > 0:  # also rejects NaN
            raise ValueError(f"snr must be > 0, got {self.snr}")


@dataclass
class SynthRpcaConfig:
    m: int
    n: int
    true_rank: int
    sparse_fraction: float
    sparse_magnitude: float  # in units of sd of the clean low-rank entries
    seed: int = 0

    def __post_init__(self):
        _check_grid(self)
        if not 0.0 <= self.sparse_fraction < 1.0:
            raise ValueError("sparse_fraction must be in [0, 1)")
        if not np.isfinite(self.sparse_magnitude):
            raise ValueError("sparse_magnitude must be finite")


def gen_completion(config: SynthCompletionConfig
                   ) -> tuple[FactorPair, SparseObservations, SparseObservations]:
    """Noisy low-rank completion instance: M = U V^T + eta observed on Omega.

    Noise is rescaled so sd(signal entries) / sd(noise entries) equals the
    configured snr. The held-out set carries the noiseless U V^T values on
    the complement of Omega (the test-metric reference).
    """
    rng = np.random.default_rng(config.seed)
    m, n, r = config.m, config.n, config.true_rank
    u = rng.standard_normal((m, r))
    v = rng.standard_normal((n, r))
    eta = rng.standard_normal((m, n))
    signal = u @ v.T
    sd_signal = float(np.std(signal)) if r > 0 else 0.0
    scale = sd_signal / (config.snr * float(np.std(eta)))
    noisy = signal + scale * eta

    count = int(np.floor(config.observed_fraction * m * n))
    flat = np.sort(rng.choice(m * n, size=count, replace=False))
    rows, cols = flat // n, flat % n
    observed = SparseObservations(m, n, rows, cols, noisy[rows, cols])

    complement = np.setdiff1d(np.arange(m * n), flat, assume_unique=True)
    h_rows, h_cols = complement // n, complement % n
    heldout = SparseObservations(m, n, h_rows, h_cols, signal[h_rows, h_cols])
    return FactorPair(u, v), observed, heldout


def gen_rpca(config: SynthRpcaConfig
             ) -> tuple[FactorPair, np.ndarray, np.ndarray]:
    """Low-rank plus sparse corruption: returns (truth, L0 + S, corruption mask).

    Corruptions are +-sparse_magnitude * sd(L0 entries) at uniformly chosen
    cells (sd falls back to 1 for a rank-0 truth).
    """
    rng = np.random.default_rng(config.seed)
    m, n, r = config.m, config.n, config.true_rank
    u = rng.standard_normal((m, r))
    v = rng.standard_normal((n, r))
    low = u @ v.T
    scale = float(np.std(low)) if r > 0 else 1.0

    count = int(np.floor(config.sparse_fraction * m * n))
    flat = np.sort(rng.choice(m * n, size=count, replace=False))
    signs = rng.choice([-1.0, 1.0], size=count)
    mask = np.zeros((m, n), dtype=bool)
    corrupted = low.copy()
    rows, cols = flat // n, flat % n
    mask[rows, cols] = True
    corrupted[rows, cols] += signs * config.sparse_magnitude * scale
    return FactorPair(u, v), corrupted, mask


_FORMATS = {"ml100k": "\t", "ml1m": "::"}


def load_movielens(path: str, fmt: str) -> SparseObservations:
    """Parse a MovieLens ratings file into a users x items observed set, its
    ids remapped to dense indices by ascending original id; the set is
    row-major whatever the line order. A repeated (user, item) pair is an
    error that names the pair by its ids in the file."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(_FORMATS)}")
    sep = _FORMATS[fmt]
    users: list[int] = []
    items: list[int] = []
    values: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                users.append(int(parts[0]))
                items.append(int(parts[1]))
                values.append(float(parts[2]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not 1.0 <= values[-1] <= 5.0:
                raise ValueError(f"{path}:{lineno}: rating {values[-1]} outside [1, 5]")
    if not values:
        raise ValueError(f"{path}: no ratings found")
    uids, umap = np.unique(np.asarray(users), return_inverse=True)
    iids, imap = np.unique(np.asarray(items), return_inverse=True)
    try:
        return SparseObservations(len(uids), len(iids), umap, imap, values)
    except DuplicateEntryError as exc:
        i, j = exc.cell
        raise ValueError(f"{path}: duplicate rating of item {iids[j]} "
                         f"by user {uids[i]}") from None


def split_ratings(ratings: SparseObservations, train_fraction: float, seed: int
                  ) -> tuple[SparseObservations, SparseObservations]:
    """Seeded uniform partition of the ratings, drawn over their row-major
    positions, into train/test sets over the full user x item grid."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ratings.nnz)
    n_train = int(np.floor(train_fraction * ratings.nnz))
    return ratings._take(perm[:n_train]), ratings._take(perm[n_train:])


def nmse_on(pair: FactorPair, ref: SparseObservations) -> float:
    """Normalized MSE against a reference set: sum (ref - pred)^2 / sum ref^2."""
    if ref.nnz == 0:
        raise ValueError("reference set is empty")
    denom = float(ref.vals @ ref.vals)
    if denom == 0.0:
        raise ValueError("reference set has zero norm")
    err = ref.vals - project_observed(pair, ref)
    return float(err @ err) / denom


def rmse_on(pair: FactorPair, ref: SparseObservations,
            clip_range: tuple[float, float] | None = None) -> float:
    """Root mean squared error on a reference set, with optional prediction
    clipping to the rating range."""
    if ref.nnz == 0:
        raise ValueError("reference set is empty")
    pred = project_observed(pair, ref)
    if clip_range is not None:
        pred = np.clip(pred, clip_range[0], clip_range[1])
    err = ref.vals - pred
    return float(np.sqrt(np.mean(err * err)))
