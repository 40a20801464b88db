"""Synthetic instance generation, MovieLens ingestion, splits, and metrics.

All generators are pure functions of (config, seed); entries of observed
sets are emitted in row-major order so replays are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import FactorPair, SparseObservations, project_observed

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


def _check_shape(config) -> None:
    """A synthetic instance needs m, n >= 1 and true_rank >= 0."""
    for name in ("m", "n"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(config, name)}")
    if config.true_rank < 0:
        raise ValueError(f"true_rank must be >= 0, got {config.true_rank}")


@dataclass
class SynthCompletionConfig:
    m: int
    n: int
    true_rank: int
    observed_fraction: float  # p in (0, 1]
    snr: float
    seed: int = 0

    def __post_init__(self):
        _check_shape(self)
        if not 0.0 < self.observed_fraction <= 1.0:
            raise ValueError("observed_fraction must be in (0, 1]")
        if self.true_rank > min(self.m, self.n):
            raise ValueError("true_rank must be <= min(m, n)")
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
        _check_shape(self)
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
    """Parse a MovieLens ratings file into a users x items observed set, in
    file order; user/item ids are remapped to dense indices by ascending
    original id. A repeated (user, item) pair is an error."""
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
    uids = np.unique(users)
    iids = np.unique(items)
    umap = np.searchsorted(uids, users)
    imap = np.searchsorted(iids, items)
    return SparseObservations(len(uids), len(iids), umap, imap, values)


def split_ratings(ratings: SparseObservations, train_fraction: float, seed: int
                  ) -> tuple[SparseObservations, SparseObservations]:
    """Seeded uniform partition of the ratings into train/test sets, both
    over the full user x item grid and each in the ratings' entry order."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ratings.nnz)
    n_train = int(np.floor(train_fraction * ratings.nnz))
    train, test = np.sort(perm[:n_train]), np.sort(perm[n_train:])
    return ratings._take(train), ratings._take(test)


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
