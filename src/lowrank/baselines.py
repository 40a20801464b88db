"""SoftImpute baseline: iterative soft-thresholded SVD imputation."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .linalg import FactorPair, SparseObservations, check_integers, top_singular_triplet

__all__ = ["SoftImputeConfig", "SoftImputeTrace", "soft_impute", "lambda_grid"]


@dataclass
class SoftImputeConfig:
    """The penalty lam and the rank cap max_rank of one SoftImpute run.

    `tol` and `max_iters` are the constants of `soft_impute`'s stop rule:
    class constants, not fields, read from a config by whoever judges
    whether a run was capped.
    """

    lam: float
    max_rank: int
    max_iters: ClassVar[int] = 200
    tol: ClassVar[float] = 1e-5

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and >= 0")
        check_integers(self, max_rank=1)


@dataclass
class SoftImputeTrace:
    iter: int
    objective: float  # 1/2 ||Pi_Omega(M - A)||^2 + lam * ||A||_*
    rank: int
    rel_change: float
    wall_nanos: int  # the iteration's wall time, every step it took included
    # the run's last row only: its last exact step kept max_rank values and
    # would have kept more, so the rank cap binds and the problem is non-convex
    rank_capped: bool = False


class _Step(NamedTuple):
    matrix: np.ndarray  # the new iterate
    objective: float
    exact: bool  # a dense SVD, not a block step
    sigma: np.ndarray  # singular values before shrinking
    u: np.ndarray
    s2: np.ndarray  # shrunk values, at most max_rank
    vt: np.ndarray


def soft_impute(target: SparseObservations, config: SoftImputeConfig,
                start: FactorPair | None = None
                ) -> tuple[FactorPair, list[SoftImputeTrace]]:
    """Minimize 1/2 ||Pi_Omega(M - A)||^2 + lam ||A||_* over A of rank at
    most max_rank by accelerated proximal gradient steps.

    A step from Y soft-thresholds the singular values of
    Pi_Omega(M) + Pi_Omega_perp(Y) by lam and keeps the top max_rank: the
    exact prox of lam ||.||_* plus the rank cap at the unit step the
    quadratic allows, so an exact step from the current iterate A never
    raises the objective. Y is the momentum point
    A + ((theta - 1) / theta') (A - A_prev) with the FISTA theta sequence
    (Yao & Kwok, IJCAI 2015). `start` warm starts the iteration, e.g. from
    the previous, larger lambda of a path (Mazumder, Hastie & Tibshirani,
    JMLR 2010); the default is zero.

    The first step of a run takes the exact dense SVD. When max_rank + 10 is
    below min(m, n), every later step takes a block step instead: one
    subspace iteration on the previous step's top w right singular vectors V
    (Q = qr(Z V), B = Q^T Z; Halko, Martinsson & Tropp, SIAM Review 2011),
    with B's SVD taken from the eigenpairs of its w x w Gram matrix B B^T
    (`_block_svd`). Its u is orthonormal and row i of its V^T is to within
    about eps sigma_1^2 / sigma_i^2, so for the values kept the traced
    objective is that of the iterate it returns. The block oversamples the
    rank the iterates keep, not the cap: w = r + 10, with r <= max_rank the
    rank the previous step kept. A block step's V has only its own w rows,
    so once r grows into that oversampling the next block is no wider; the
    exact redo at tol (below) catches any rank a block missed. When the
    step from Y would raise the objective, theta resets to 1 and the plain
    step from A is taken instead; when a plain block step would raise it
    too, the exact plain step is taken, so the traced objective never goes
    up.

    A run stops when an exact step moves A by a relative Frobenius change
    ||A_new - A|| / ||A|| of at most SoftImputeConfig.tol (1e-5), or after
    SoftImputeConfig.max_iters (200) steps. The change is 0 when A and the
    step are both zero and inf when only A is, so the rule does not depend
    on the data's scale. A block step that reaches tol is
    redone from the same point with the exact SVD, and only the exact step
    is traced, so a run that hit the cap ends on a rel_change above tol. The
    last row's `rank_capped` reports whether the (max_rank + 1)-th singular
    value of the run's last exact step exceeds lam.

    The dense iterate keeps this implementation simple; it is meant for
    desk-scale comparison experiments.
    """
    m, n = target.shape
    if start is not None and start.shape != target.shape:
        raise ValueError(f"start shape {start.shape} != observation shape {target.shape}")
    k = config.max_rank
    block = k + 10 < min(m, n)
    flat = target._flat  # scatter into z and gather from the iterate by cell
    # below numpy's matrix_rank cutoff a shrunk value is rounding noise
    # (lam = sigma_1 leaves +-1 ulp), which would never settle
    cutoff = max(m, n) * np.finfo(float).eps

    def step(y, exact):
        z = y.copy(order="C")  # so that ravel() is a view
        z.ravel()[flat] = target.vals
        if exact:
            u, s, vt = np.linalg.svd(z, full_matrices=False)
        else:  # `taken` is still the last step
            u, s, vt = _block_svd(z, taken.vt[:np.count_nonzero(taken.s2) + 10])
        s2 = np.maximum(s[:k] - config.lam, 0.0)
        s2[s2 <= s[0] * cutoff] = 0.0
        a_new = (u[:, : s2.size] * s2) @ vt[: s2.size]
        resid = target.vals - a_new.ravel()[flat]
        obj = 0.5 * float(resid @ resid) + config.lam * float(s2.sum())
        return _Step(a_new, obj, exact, s, u, s2, vt)

    def advance(y, exact):
        """The step from y, or the plain step from A (exact if need be) when
        that one would raise the objective; also says whether it restarted."""
        new = step(y, exact)
        if y is a or new.objective <= obj:
            return new, False
        new = step(a, exact)
        if new.objective > obj and not exact:
            new = step(a, True)
        return new, True

    def rel_change(new):
        change, size = float(np.linalg.norm(new.matrix - a)), float(np.linalg.norm(a))
        return change / size if size > 0.0 else (np.inf if change else 0.0)

    a = np.zeros((m, n)) if start is None else start.matrix()
    a_prev, theta, obj, taken = a, 1.0, np.inf, None
    tail = 0.0  # sigma_{max_rank + 1} of the last exact step
    traces: list[SoftImputeTrace] = []
    for it in range(config.max_iters):
        t0 = time.perf_counter_ns()
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        momentum = (theta - 1.0) / theta_next
        y = a + momentum * (a - a_prev) if momentum > 0.0 else a
        taken, restarted = advance(y, taken is None or not block)
        change = rel_change(taken)
        if change <= config.tol and not taken.exact:
            # only an exact step may certify convergence: redo this one
            taken, again = advance(a if restarted else y, True)
            restarted |= again
            change = rel_change(taken)
        if restarted:
            theta_next = 0.5 * (1.0 + np.sqrt(5.0))
        if taken.exact:
            tail = float(taken.sigma[k]) if taken.sigma.size > k else 0.0
        traces.append(SoftImputeTrace(it, taken.objective,
                                      int(np.count_nonzero(taken.s2)), change,
                                      time.perf_counter_ns() - t0))
        a_prev, a, obj, theta = a, taken.matrix, taken.objective, theta_next
        if change <= config.tol:
            break
    traces[-1].rank_capped = tail > config.lam
    rank = int(np.count_nonzero(taken.s2))
    pair = FactorPair(taken.u[:, :rank] * taken.s2[:rank], taken.vt[:rank].T)
    return pair, traces


def _block_svd(z: np.ndarray, vt: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, s, vt) of z on the subspace one subspace iteration from the rows
    of `vt`, from the eigenpairs of a w x w Gram matrix.

    With q = qr(z vt^T) and b = q^T z (w x n), the eigenvectors e of b b^T,
    largest first, give u = q e; the rows of c = e^T b are orthogonal, and
    their norms are s. When every eigenvalue exceeds eigh's rounding level
    w eps ev_1, vt is c with its rows scaled to unit norm. Otherwise the
    rows of the eigenvalues at that level are rounding noise (0 / 0 for an
    exact 0), so vt and s come from a QR of c^T instead: its orthonormal
    factor completes a width-w right basis for the next block, and |R_ii|
    puts those values near 0, not at the noise level sqrt(eps) s_1.
    """
    q, _ = np.linalg.qr(z @ vt.T)
    b = q.T @ z
    # the Gram and its eigensolve both by numpy: numpy and scipy each bundle
    # an OpenBLAS with its own thread pool, and a hand-over between them is
    # slow (see `linalg._gram_triplet`)
    ev, e = np.linalg.eigh(b @ b.T)
    ev, e = ev[::-1], e[:, ::-1]
    c = e.T @ b
    if ev[-1] > ev.size * np.finfo(float).eps * ev[0]:
        s = np.sqrt(np.einsum("ij,ij->i", c, c))
        return q @ e, s, c / s[:, None]
    basis, tri = np.linalg.qr(c.T)
    d = np.diag(tri)
    return q @ e, np.abs(d), basis.T * np.where(d < 0.0, -1.0, 1.0)[:, None]


def lambda_grid(target: SparseObservations, seed: int = 0) -> np.ndarray:
    """Ten geometric steps from 0.01*sigma_1 to sigma_1 of Pi_Omega(M)."""
    sigma1 = top_singular_triplet(target.csr(), seed=seed).sigma
    if sigma1 == 0.0:
        return np.zeros(10)
    return np.geomspace(0.01 * sigma1, sigma1, 10)
