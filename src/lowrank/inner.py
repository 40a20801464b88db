"""Inner optimization: full joint coefficient solve and fast one-sided solves.

The full solve refits an r x r coefficient matrix X in R(U X V^T) by
conjugate gradient on the normal equations. The fast solve refits one whole
factor, decomposed into independent per-row least-squares systems, each run
for a fixed (small) number of CG-on-normal-equations steps from a zero
start; the iteration cap doubles as regularization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .linalg import FactorPair, SparseObservations, fits_dense, project_observed
from .objectives import HuberLowRank, ObservedQuadratic, huber_value

__all__ = ["InnerConfig", "FullSolveInfo", "optimize_full", "optimize_fast"]

# iteration cap and memory of the capped L-BFGS half-step for Huber objectives
_LBFGS_ITERS = 10
_LBFGS_MEMORY = 5


@dataclass
class InnerConfig:
    """Knobs for the inner solves.

    ls_iters caps the per-row least-squares iterations of the fast solve
    (2-3 acts as regularization); full_solve_tol is the CG tolerance of the
    full solve. The L-BFGS half-step of non-quadratic objectives uses the
    fixed _LBFGS_ITERS / _LBFGS_MEMORY.
    """

    ls_iters: int = 3
    full_solve_tol: float = 1e-10

    def __post_init__(self):
        if self.ls_iters < 1:
            raise ValueError("ls_iters must be >= 1")


@dataclass
class FullSolveInfo:
    converged: bool
    iterations: int
    rel_residual: float


def optimize_full(U: np.ndarray, V: np.ndarray, objective, tol: float = 1e-10
                  ) -> tuple[FactorPair, FullSolveInfo]:
    """Minimize R(U X V^T) over X in R^{r x r}; returns (U X, V).

    Requires a quadratic objective, i.e. one with a `quad_term`. CG runs on
    the normal equations from a zero start for at most 10 r^2 steps, so
    singular systems yield the minimum-norm solution (the non-converged flag
    is reported, not raised).
    """
    r = U.shape[1]
    if r == 0:
        return FactorPair(U, V), FullSolveInfo(True, 0, 0.0)
    if not hasattr(objective, "quad_term"):
        raise ValueError("optimize_full requires a quadratic objective")

    m, n = objective.shape
    g0 = objective.gradient(FactorPair.empty(m, n))
    b = -(U.T @ (g0 @ V))

    def matvec(x):
        return U.T @ (objective.quad_term(U @ x, V) @ V)

    x, info = _cg(matvec, b, tol, 10 * r * r)
    return FactorPair(U @ x, V), info


def _cg(matvec, b: np.ndarray, tol: float, max_iters: int
        ) -> tuple[np.ndarray, FullSolveInfo]:
    """Plain CG over matrix-shaped unknowns with Frobenius inner products."""
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, FullSolveInfo(True, 0, 0.0)
    r = b.copy()
    p = r.copy()
    rs = float(np.vdot(r, r))
    it = 0
    for it in range(1, max_iters + 1):
        q = matvec(p)
        pq = float(np.vdot(p, q))
        if pq <= 0.0:
            # numerically semidefinite direction: stop at current (min-norm) iterate
            return x, FullSolveInfo(False, it, np.sqrt(rs) / bnorm)
        alpha = rs / pq
        x = x + alpha * p
        r = r - alpha * q
        rs_new = float(np.vdot(r, r))
        if np.sqrt(rs_new) <= tol * bnorm:
            return x, FullSolveInfo(True, it, np.sqrt(rs_new) / bnorm)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, FullSolveInfo(False, it, np.sqrt(rs) / bnorm)


def optimize_fast(U: np.ndarray, V: np.ndarray, t: int, objective,
                  config: InnerConfig) -> FactorPair:
    """One alternating half-step: refit U when t is even, V when t is odd.

    Observed quadratics decompose into independent per-row systems on the
    observed entries, solved by config.ls_iters capped CG steps each;
    rows/columns with no observations are left unchanged. Huber objectives
    run a capped L-BFGS on the non-frozen factor instead.
    """
    if U.shape[1] == 0:
        return FactorPair(U, V)
    if isinstance(objective, ObservedQuadratic):
        omega = objective.target
        if t % 2 == 0:
            return FactorPair(_capped_cgnr(U, V, omega, config.ls_iters), V)
        return FactorPair(U, _capped_cgnr(V, U, omega.transpose, config.ls_iters))
    if isinstance(objective, HuberLowRank):
        return _huber_half_step(U, V, t, objective)
    raise TypeError(f"objective {type(objective).__name__} has no fast inner solve")


def _capped_cgnr(W: np.ndarray, F: np.ndarray, omega: SparseObservations,
                 iters: int) -> np.ndarray:
    """`iters` CG-on-normal-equations steps for every row system, from zero.

    Row i solves min_x ||F[omega_i] x - vals_i||_2. The zero start makes the
    iteration cap act like a truncated-Krylov refit of the whole factor (the
    regularization the fast solvers rely on). All rows advance in lockstep
    with their own step sizes; the systems are disjoint, so this matches
    solving them one by one. Rows that reach their numerical floor freeze
    (CG iterated past convergence turns rounding noise into huge steps), and
    the loop ends once every row has frozen. Rows with no observations keep
    their current value.

    Only the normal-equation products depend on the size of `omega`
    (`_normal_products`). A set that `fits_dense` multiplies its dense 0/1
    mask and zero-filled target by F; a larger one gathers the observed
    entries and multiplies a CSR view of them. On the sparse kernel's V side
    `omega` is a transposed set, whose `csr_with` matrices are CSC views of
    the root set's CSR skeleton. scipy's CSC product adds each output row's
    terms in the same order as a CSR product over the transposed entries,
    so on that kernel both sides match a CSR build bit for bit.
    """
    X = np.zeros_like(W)
    R, normal = _normal_products(F, omega)
    P = R.copy()
    rs = np.einsum("ij,ij->i", R, R)
    floor = 1e-26 * rs
    for _ in range(iters):
        Q = normal(P)
        pq = np.einsum("ij,ij->i", P, Q)
        ok = (pq > 0.0) & (rs > floor)
        if not ok.any():
            break  # a frozen row stays frozen, so no later step moves anything
        alpha = np.where(ok, rs / np.where(ok, pq, 1.0), 0.0)
        X += alpha[:, None] * P
        R = R - alpha[:, None] * Q
        rs_new = np.einsum("ij,ij->i", R, R)
        beta = np.where(ok, rs_new / np.where(ok, rs, 1.0), 0.0)
        P = np.where(ok[:, None], R + beta[:, None] * P, P)
        rs = np.where(ok, rs_new, rs)
    untouched = omega._row_counts == 0
    if untouched.any():
        X[untouched] = W[untouched]
    return X


def _normal_products(F: np.ndarray, omega: SparseObservations):
    """(M_Omega F, P -> Pi_Omega(P F^T) F): the right-hand sides and the
    normal-equation product of `_capped_cgnr`'s row systems. The dense kernel
    takes two GEMMs and a masked multiply per product; the sparse one makes
    no m x n array."""
    if fits_dense(omega.shape):
        mask, target = omega.dense()

        def product(P):
            Q = P @ F.T
            Q *= mask
            return Q @ F

        return target @ F, product

    def product(P):
        return omega.csr_with(project_observed(FactorPair(P, F), omega)) @ F

    return omega.csr_with(omega.vals) @ F, product


def _huber_half_step(U: np.ndarray, V: np.ndarray, t: int,
                     objective: HuberLowRank) -> FactorPair:
    """Capped L-BFGS on the free factor (U when t is even, else V). Its m x n
    buffers are per call, never stored on the objective that threads share."""
    M, d, even = objective.target, objective.delta, t % 2 == 0
    resid, clipped = np.empty(M.shape), np.empty(M.shape)

    def fun(x):
        left, right = (x.reshape(U.shape), V) if even else (U, x.reshape(V.shape))
        np.matmul(left, right.T, out=resid)
        np.subtract(resid, M, out=resid)
        np.clip(resid, -d, d, out=clipped)
        grad = clipped @ V if even else clipped.T @ U
        return huber_value(resid, d, clipped), grad.ravel()

    x = minimize(fun, (U if even else V).ravel(), jac=True, method="L-BFGS-B",
                 options={"maxiter": _LBFGS_ITERS, "maxcor": _LBFGS_MEMORY}).x
    return FactorPair(x.reshape(U.shape), V) if even else FactorPair(U, x.reshape(V.shape))
