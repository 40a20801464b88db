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


def soft_impute(target: SparseObservations, config: SoftImputeConfig,
                start: FactorPair | None = None
                ) -> tuple[FactorPair, list[SoftImputeTrace]]:
    """Minimize 1/2 ||Pi_Omega(M - A)||^2 + lam ||A||_* over A of rank at
    most max_rank by accelerated proximal gradient steps.

    A step from Y soft-thresholds the singular values of
    Pi_Omega(M) + Pi_Omega_perp(Y) by lam and keeps the top max_rank: the
    exact prox of lam ||.||_* plus the rank cap at the unit step the
    quadratic allows, so a step from the current iterate A never raises the
    objective. Y is the momentum point A + ((theta - 1) / theta') (A - A_prev)
    with the FISTA theta sequence (Yao & Kwok, IJCAI 2015). When that step
    would raise the objective, theta resets to 1 and the plain step from A
    is taken instead, so the traced objective never goes up. `start` warm
    starts the iteration, e.g. from the previous, larger lambda of a path
    (Mazumder, Hastie & Tibshirani, JMLR 2010); the default is zero. Stops
    when the relative Frobenius change of A drops to tol or after max_iters
    steps; a run that hit the cap ends on a rel_change above tol.

    The dense iterate keeps this implementation simple; it is meant for
    desk-scale comparison experiments.
    """
    m, n = target.shape
    k = config.max_rank
    # below numpy's matrix_rank cutoff a shrunk value is rounding noise
    # (lam = sigma_1 leaves +-1 ulp), which would never settle
    cutoff = max(m, n) * np.finfo(float).eps

    def step(y):
        z = y.copy()
        z[target.row, target.col] = target.vals
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        s2 = np.maximum(s[:k] - config.lam, 0.0)
        s2[s2 <= s[0] * cutoff] = 0.0
        a_new = (u[:, : s2.size] * s2) @ vt[: s2.size]
        resid = target.vals - a_new[target.row, target.col]
        obj = 0.5 * float(resid @ resid) + config.lam * float(s2.sum())
        return a_new, obj, (u, s2, vt)

    a = np.zeros((m, n)) if start is None else start.matrix()
    a_prev, theta, obj = a, 1.0, np.inf
    traces: list[SoftImputeTrace] = []
    for it in range(config.max_iters):
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        momentum = (theta - 1.0) / theta_next
        a_new, obj_new, svd = step(a + momentum * (a - a_prev))
        if momentum > 0.0 and obj_new > obj:
            # restart at theta = 1: the plain step from A cannot go up
            theta_next = 0.5 * (1.0 + np.sqrt(5.0))
            a_new, obj_new, svd = step(a)
        change = float(np.linalg.norm(a_new - a)) / max(float(np.linalg.norm(a)), 1e-30)
        rank = int(np.count_nonzero(svd[1]))
        traces.append(SoftImputeTrace(it, obj_new, rank, change))
        a_prev, a, obj, theta = a, a_new, obj_new, theta_next
        if change <= config.tol:
            break
    u, s2, vt = svd
    rank = int(np.count_nonzero(s2))
    pair = FactorPair(u[:, :rank] * s2[:rank], vt[:rank].T)
    return pair, traces


def lambda_grid(target: SparseObservations, seed: int = 0) -> np.ndarray:
    """Ten geometric steps from 0.01*sigma_1 to sigma_1 of Pi_Omega(M)."""
    sigma1 = top_singular_triplet(target.csr(), seed=seed).sigma
    if sigma1 == 0.0:
        return np.zeros(10)
    return np.geomspace(0.01 * sigma1, sigma1, 10)
