"""SoftImpute baseline: iterative soft-thresholded SVD imputation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import FactorPair, SparseObservations, top_singular_triplet

__all__ = ["SoftImputeConfig", "SoftImputeTrace", "soft_impute", "lambda_grid"]


@dataclass
class SoftImputeConfig:
    lam: float
    max_rank: int
    max_iters: int = 200
    tol: float = 1e-5

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SoftImputeTrace:
    iter: int
    objective: float  # 1/2 ||Pi_Omega(M - A)||^2 + lam * ||A||_*
    rank: int
    rel_change: float


def soft_impute(target: SparseObservations, config: SoftImputeConfig
                ) -> tuple[FactorPair, list[SoftImputeTrace]]:
    """Iterate A <- SVT_lam(Pi_Omega(M) + Pi_Omega_perp(A)), truncated to
    max_rank, until the relative Frobenius change drops below tol.

    The dense iterate keeps this implementation simple; it is meant for
    desk-scale comparison experiments.
    """
    m, n = target.shape
    a = np.zeros((m, n))
    traces: list[SoftImputeTrace] = []
    u = s2 = vt = None
    for it in range(config.max_iters):
        z = a.copy()
        z[target.row, target.col] = target.vals
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        s2 = np.maximum(s - config.lam, 0.0)[: config.max_rank]
        # below numpy's matrix_rank cutoff a shrunk value is rounding noise
        # (lam = sigma_1 leaves +-1 ulp), which would never settle
        s2[s2 <= s[0] * max(m, n) * np.finfo(float).eps] = 0.0
        a_new = (u[:, : s2.size] * s2) @ vt[: s2.size]
        resid = target.vals - a_new[target.row, target.col]
        obj = 0.5 * float(resid @ resid) + config.lam * float(s2.sum())
        change = float(np.linalg.norm(a_new - a)) / max(float(np.linalg.norm(a)), 1e-30)
        rank = int(np.count_nonzero(s2))
        traces.append(SoftImputeTrace(it, obj, rank, change))
        a = a_new
        if change <= config.tol:
            break
    rank = int(np.count_nonzero(s2))
    pair = FactorPair(u[:, :rank] * s2[:rank], vt[:rank].T)
    return pair, traces


def lambda_grid(target: SparseObservations, seed: int = 0) -> np.ndarray:
    """Ten geometric steps from 0.01*sigma_1 to sigma_1 of Pi_Omega(M)."""
    sigma1 = top_singular_triplet(target.csr(), seed=seed).sigma
    if sigma1 == 0.0:
        return np.zeros(10)
    return np.geomspace(0.01 * sigma1, sigma1, 10)
