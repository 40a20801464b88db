"""Inner optimization: full joint coefficient solve and fast one-sided solves.

The full solve refits an r x r coefficient matrix X in R(U X V^T) by
conjugate gradient on the normal equations. The fast solve refits one whole
factor, decomposed into independent per-row least-squares systems, each run
for a fixed (small) number of CG-on-normal-equations steps from a zero
start; the iteration cap doubles as regularization. Each CG step's product
takes one of three kernels by the size rules in `linalg`: masked dense
GEMMs on a small observed set, per-row r x r Gram matrices formed once per
refit on a larger one at the ranks and step caps where that pays
(`fits_gram`), and a gather of the observed entries at every step
otherwise. Huber objectives refit by a capped L-BFGS instead; scipy's
optimizer is imported on its first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (FactorPair, SparseObservations, fits_dense, fits_gram,
                     project_observed)
from .objectives import HuberLowRank, ObservedQuadratic

__all__ = ["InnerConfig", "FullSolveInfo", "optimize_full", "optimize_fast"]

# iteration cap and memory of the capped L-BFGS half-step for Huber objectives
_LBFGS_ITERS = 10
_LBFGS_MEMORY = 5


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on first use: only the Huber
    half-step needs it, and it is a large share of the package's import time."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


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
        if not 0.0 <= self.full_solve_tol < np.inf:
            raise ValueError(f"full_solve_tol must be finite and >= 0, "
                             f"got {self.full_solve_tol}")


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

    Only the normal-equation products depend on the size of `omega`, the
    rank and `iters` (`_normal_products`): dense masked GEMMs, per-row Gram
    matrices, or a gather at every step. The kernels add the same terms in
    different orders, so their results agree to rounding, not bit for bit.
    On the sparse kernels' V side `omega` is a transposed set, whose sparse
    matrices are CSC views of the root set's CSR skeleton. scipy's CSC
    product adds each output row's terms in the same order as a CSR product
    over the transposed entries, so on those kernels both sides match a CSR
    build bit for bit.
    """
    X = np.zeros_like(W)
    R, normal = _normal_products(F, omega, iters)
    P = R.copy()
    rs = np.einsum("ij,ij->i", R, R)
    floor = 1e-26 * rs
    for _ in range(iters):
        Q = normal(P)
        pq = np.einsum("ij,ij->i", P, Q)
        ok = (pq > 0.0) & (rs > floor)
        if not ok.any():
            break  # a frozen row stays frozen, so no later step moves anything
        # while no row has frozen, the unmasked updates below are the masked
        # ones bit for bit, at a fraction of their per-call cost
        every = ok.all()
        alpha = rs / pq if every else np.divide(rs, pq, out=np.zeros_like(rs), where=ok)
        X += alpha[:, None] * P
        R -= alpha[:, None] * Q
        # a frozen row's R is unchanged, so its new rs equals the old one
        rs_new = np.einsum("ij,ij->i", R, R)
        if every:
            P *= (rs_new / rs)[:, None]
            P += R
        else:
            beta = np.divide(rs_new, rs, out=np.zeros_like(rs), where=ok)
            rows = ok[:, None]
            np.multiply(P, beta[:, None], out=P, where=rows)
            np.add(P, R, out=P, where=rows)
        rs = rs_new
    untouched = omega._row_counts == 0
    if untouched.any():
        X[untouched] = W[untouched]
    return X


def _normal_products(F: np.ndarray, omega: SparseObservations, iters: int):
    """(M_Omega F, P -> Pi_Omega(P F^T) F): the right-hand sides and the
    normal-equation product of `_capped_cgnr`'s row systems, for at most
    `iters` products.

    A set that `fits_dense` takes two GEMMs and a masked multiply per
    product. A larger one makes no m x n array. When the refit `fits_gram`,
    row i's Gram matrix G_i = F[omega_i]^T F[omega_i] is formed once, as one
    SpMM of the set's 0/1 pattern by the r(r+1)/2 column products of F, and
    each product is the batched G_i P_i. Otherwise each product gathers the
    observed entries of P F^T and multiplies a CSR view of them by F."""
    if fits_dense(omega.shape):
        mask, target = omega.dense()

        def product(P):
            Q = P @ F.T
            Q *= mask
            return Q @ F

        return target @ F, product

    rhs = omega.csr_with(omega.vals) @ F
    r = F.shape[1]
    if fits_gram(omega.rows, r, iters):
        upper = np.triu_indices(r)
        packed = omega.pattern() @ (F[:, upper[0]] * F[:, upper[1]])
        # slot[a, b]: the packed column holding G[a, b], so one take fills
        # both triangles
        slot = np.empty((r, r), dtype=np.intp)
        slot[upper] = slot[upper[::-1]] = np.arange(upper[0].size)
        gram = np.take(packed, slot.ravel(), axis=1).reshape(-1, r, r)
        return rhs, lambda P: np.einsum("ijk,ik->ij", gram, P)

    def product(P):
        return omega.csr_with(project_observed(FactorPair(P, F), omega)) @ F

    return rhs, product


def _huber_half_step(U: np.ndarray, V: np.ndarray, t: int,
                     objective: HuberLowRank) -> FactorPair:
    """Capped L-BFGS on the free factor (U when t is even, else V). Each
    function evaluation is one `HuberLowRank.evaluate` pass over the residual
    in cache-sized row blocks (`objectives._HUBER_BLOCK_CELLS`), whose
    buffers are per call, never stored on the objective that threads share."""
    side = t % 2

    def pair(x):
        return FactorPair(U, x.reshape(V.shape)) if side else FactorPair(x.reshape(U.shape), V)

    def fun(x):
        value, grad = objective.evaluate(pair(x), side)
        return value, grad.ravel()

    return pair(minimize(fun, (V if side else U).ravel(), jac=True, method="L-BFGS-B",
                         options={"maxiter": _LBFGS_ITERS, "maxcor": _LBFGS_MEMORY}).x)
