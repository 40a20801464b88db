"""Inner optimization: full joint coefficient solve and fast one-sided solves.

The full solve refits an r x r coefficient matrix X in R(U X V^T) exactly,
by one Cholesky solve of the objective's r^2 x r^2 normal matrix. The fast
solve refits one whole factor, decomposed into independent per-row
least-squares systems, each run for a fixed (small) number of
CG-on-normal-equations steps from a zero start; the iteration cap doubles
as regularization. Each CG step's product takes one of three kernels by
the size rules in `linalg`: masked dense GEMMs on an observed set that
`fits_dense`, per-row r x r Gram matrices formed once per refit on any
other at the ranks and step caps where that pays (`fits_gram`), and a
gather of the observed entries at every step otherwise. The V half-step
is the U half-step on the transposed set, read through the `.T` of the
set's own matrices: the dense arrays' transposes and CSC views of its CSR
skeleton, so nothing is built twice. Huber objectives refit by a capped,
preconditioned L-BFGS instead (`_huber_half_step` says how and why).
scipy's optimizer is imported on its first use.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .linalg import (FactorPair, SparseObservations, fits_dense, fits_gram,
                     project_observed, row_grams)
from .objectives import HuberLowRank, ObservedQuadratic

__all__ = ["optimize_full", "optimize_fast"]

# iteration cap and memory of the capped L-BFGS half-step for Huber objectives
_LBFGS_ITERS = 10
_LBFGS_MEMORY = 5
# the half-step stops once an iteration lowers the objective by at most this
# share of its start value. Over the six 500 x 500 `rpca` instances, 1e-5
# takes 150 L-BFGS evaluations, against 232 for scipy's default stops, and
# is the largest value tried at which no recovery error moves by more than
# 1e-4 (2.2e-4: 120 evaluations, 1.7e-4). Full sweep: CHANGES.md, "Timing
# tables".
_LBFGS_FTOL = 1e-5
# A Cholesky pivot of the full refit's normal matrix at most this share of
# its diagonal entry marks the matrix numerically singular, and the
# fallback then drops the eigenvalues at most this share of the largest
# (`optimize_full`). Every matrix of condition number under 1e10 passes.
_RCOND = 1e-10
# The full refit's cap on the cells of each array it builds
# (`check_full_refit`), 32 MB: the normal matrix has r^4 cells and its
# Cholesky costs r^6 / 3 flops. At the cap (2-core host, one OpenBLAS
# thread) one refit takes 0.21 s and peaks at 51 MB (tracemalloc) at r = 45
# on a 943 x 1682 set with 100k entries, and 0.29 s and 84 MB at r = 26 on
# 6040 x 3706 with 1M; `recsys`'s default rank of 100 would need 800 MB for
# the normal matrix alone.
_NORMAL_CELLS = 1 << 22


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on first use: only the Huber
    half-step needs it, and it is a large share of the package's import time."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def check_full_refit(rank: int, shape: tuple[int, int]) -> None:
    """Raise ValueError if the full refit at this rank would build an array
    of more than `_NORMAL_CELLS` cells: its r^2 x r^2 normal matrix, or the
    objective's products of factor columns, at most r^2 cells for each row
    of the longer side of `shape`."""
    cells = rank * rank * max(rank * rank, max(shape))
    if cells > _NORMAL_CELLS:
        raise ValueError(f"the full refit at rank {rank} on a {shape[0]} x {shape[1]} "
                         f"objective needs {cells} cells, above its cap of "
                         f"{_NORMAL_CELLS}")


def optimize_full(U: np.ndarray, V: np.ndarray, objective) -> FactorPair:
    """Minimize R(U X V^T) over X in R^{r x r}; returns (U X, V).

    Requires a quadratic objective, i.e. one with `normal_equations`: the
    r^2 x r^2 matrix H of X -> U^T Hess R[U X V^T] V on row-major vec(X)
    and b = -U^T grad R(0) V. The refit solves H x = b once, by LAPACK's
    Cholesky. If that fails, or a pivot is at most `_RCOND` of its diagonal
    entry of H, H counts as numerically singular and x is the minimum-norm
    solution instead: the eigh pseudo-inverse, without the eigenvalues at
    most `_RCOND` of the largest. A rank whose arrays exceed the cap raises
    ValueError (`check_full_refit`).
    """
    r = U.shape[1]
    if r == 0:
        return FactorPair(U, V)
    if not hasattr(objective, "normal_equations"):
        raise ValueError("optimize_full requires a quadratic objective")
    check_full_refit(r, objective.shape)

    h, b = objective.normal_equations(U, V)
    b = b.ravel()
    diagonal = h.diagonal().copy()
    # in place: h.T is h's Fortran-order view, and either triangle serves
    c, info = dpotrf(h.T, clean=False, overwrite_a=True)
    if info == 0 and np.all(c.diagonal() ** 2 > _RCOND * diagonal):
        x, info = dpotrs(c, b)
    else:
        w, q = np.linalg.eigh(objective.normal_equations(U, V)[0])
        keep = w > _RCOND * w[-1]
        x = q[:, keep] @ ((b @ q[:, keep]) / w[keep])
    return FactorPair(U @ x.reshape(r, r), V)


def optimize_fast(U: np.ndarray, V: np.ndarray, t: int, objective,
                  ls_iters: int) -> FactorPair:
    """One alternating half-step: refit U when t is even, V when t is odd.

    Observed quadratics decompose into independent per-row systems on the
    observed entries, solved by ls_iters capped CG steps each;
    rows/columns with no observations are left unchanged. Huber objectives
    run a capped L-BFGS on the non-frozen factor instead.
    """
    if U.shape[1] == 0:
        return FactorPair(U, V)
    if isinstance(objective, ObservedQuadratic):
        omega, side = objective.target, t % 2
        if side == 0:
            return FactorPair(_capped_cgnr(U, V, omega, ls_iters, side), V)
        return FactorPair(U, _capped_cgnr(V, U, omega, ls_iters, side))
    if isinstance(objective, HuberLowRank):
        return _huber_half_step(U, V, t, objective)
    raise TypeError(f"objective {type(objective).__name__} has no fast inner solve")


def _capped_cgnr(W: np.ndarray, F: np.ndarray, omega: SparseObservations,
                 iters: int, side: int) -> np.ndarray:
    """`iters` CG-on-normal-equations steps for every row system, from zero.

    Row i of W (U on side 0, V on side 1) solves min_x ||F[omega_i] x -
    vals_i||_2 over the observed entries of row (side 0) or column (side 1)
    i of `omega`. The zero start makes the iteration cap act like a
    truncated-Krylov refit of the whole factor (the regularization the fast
    solvers rely on). All rows advance in lockstep with their own step sizes;
    the systems are disjoint, so this matches solving them one by one. Rows
    that reach their numerical floor freeze (CG iterated past convergence
    turns rounding noise into huge steps), and the loop ends once every row
    has frozen. Rows with no observations keep their current value.

    Only the normal-equation products depend on the size of `omega`, the
    rank and `iters` (`_normal_products`): dense masked GEMMs, per-row Gram
    matrices, or a gather at every step. The kernels add the same terms in
    different orders, so their results agree to rounding, not bit for bit.
    The V side reads the set's matrices through `.T`: the dense arrays'
    transposes and, on the sparse kernels, CSC views of the CSR skeleton.
    scipy's CSC product adds each output row's terms in the same order as a
    CSR product over the transposed entries, so the V side matches the U
    side on the transposed set bit for bit.
    """
    X = np.zeros_like(W)
    R, normal = _normal_products(F, omega, iters, side)
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
    untouched = omega._counts[side] == 0
    if untouched.any():
        X[untouched] = W[untouched]
    return X


def _normal_products(F: np.ndarray, omega: SparseObservations, iters: int,
                     side: int):
    """(M_Omega F, P -> Pi_Omega(P F^T) F): the right-hand sides and the
    normal-equation product of `_capped_cgnr`'s row systems, for at most
    `iters` products, with M_Omega and Pi_Omega transposed on side 1.

    A set that `fits_dense` (shape and fill) takes two GEMMs and a masked
    multiply per product. Any other makes no m x n array. When the refit
    `fits_gram`, row i's Gram matrix G_i = F[omega_i]^T F[omega_i] is formed
    once (`linalg.row_grams`), and each product is the batched G_i P_i.
    Otherwise each product gathers the observed entries of P F^T and
    multiplies a CSR view of them by F."""
    def oriented(a):
        return a.T if side else a

    if fits_dense(omega.shape, omega.nnz):
        mask, target = map(oriented, omega.dense)

        def product(P):
            Q = P @ F.T
            Q *= mask
            return Q @ F

        return target @ F, product

    rhs = oriented(omega.csr()) @ F
    r = F.shape[1]
    if fits_gram(omega.shape[side], r, iters):
        packed, slot = row_grams(F, omega, side)
        # one take fills both triangles
        gram = np.take(packed, slot.ravel(), axis=1).reshape(-1, r, r)
        return rhs, lambda P: np.einsum("ijk,ik->ij", gram, P)

    def product(P):
        pair = FactorPair(F, P) if side else FactorPair(P, F)
        return oriented(omega.csr_with(project_observed(pair, omega))) @ F

    return rhs, product


def _huber_half_step(U: np.ndarray, V: np.ndarray, t: int,
                     objective: HuberLowRank) -> FactorPair:
    """Capped L-BFGS on the free factor W (U when t is even, else V).

    L-BFGS runs on y = W * d / c. d[k] is the norm of the fixed factor's
    column k (1 for a zero column): a diagonal preconditioner for the inlier
    Hessian, about F^T F per row for the fixed factor F. Unscaled, a freshly
    inserted column of unit norm sits beside refit columns that carry the
    singular values, no scalar initial Hessian fits both, and the run stops
    at its step cap far from the minimum; scaled, it stops by its own rule.
    c is the power of two in (||g||, 2 ||g||], g the gradient in x = W * d
    at the start (1 when g = 0). L-BFGS-B's first step has no curvature pair
    to scale it and has unit length along -g. In y that is about the full
    preconditioned gradient step -g in x, which is Newton's step when the
    scaled inlier Hessian is about I; a unit step in x left the line search
    to extrapolate. A power of two scales exactly, so a column facing a zero
    column of F, whose gradient is zero, comes back bit for bit.

    The objective L-BFGS sees is divided by s, the power of two in (f0,
    2 f0] for the start value f0 (1 when f0 = 0), and so is its gradient,
    c g / s in y. Both stops then measure the run against its own start:
    - the projected-gradient stop, gtol = 1e-5 c^2 / s, ends the run once
      no entry of the gradient in x exceeds 1e-5 c, c being about the
      start's gradient norm;
    - L-BFGS-B's value stop divides each iteration's decrease by max(|f|,
      1), which is 1 from the start on, so `_LBFGS_FTOL` ends the run once
      an iteration lowers the objective by at most 1e-5 s, about 1e-5 f0.
    The half-step is solved again at every outer step, so it need not be
    solved tightly: on the `rpca` instances, the iterations past 1e-5 of f0
    moved the final recovery error by at most 1e-4. Scaling M, delta and W
    by a power of two scales g and c by it and f0 and s by its square, so
    L-BFGS sees the same numbers and the result scales bit for bit (short of
    overflow and underflow); absolute stops made the work, and the result,
    depend on the data's units.

    Each function evaluation is one `HuberLowRank.evaluate` pass over M's row
    blocks (`objectives._HUBER_BLOCK_CELLS`), whose buffers are per call. The
    start's pass, which picks c and s, is handed back as L-BFGS's first
    evaluation, so no point is evaluated twice. The value L-BFGS ends on,
    times s, is `evaluate` at the returned point bit for bit, so it is
    recorded as the objective's (pair, value) entry and the solvers' `value`
    of the result costs nothing."""
    side = t % 2
    free, fixed = (V, U) if side else (U, V)
    scale = np.linalg.norm(fixed, axis=0)
    scale[scale == 0.0] = 1.0

    def pair(y):
        W = y.reshape(free.shape) / scale
        return FactorPair(U, W) if side else FactorPair(W, V)

    x0 = (free * scale).ravel()
    value, grad = objective.evaluate(pair(x0), side)
    grad /= scale  # the gradient in x
    c = math.ldexp(1.0, math.frexp(float(np.linalg.norm(grad)))[1])
    s = math.ldexp(1.0, math.frexp(value)[1])
    scale /= c  # d / c, exact, so y0 is the same point as x0
    grad_scale = scale * s  # the gradient of f / s in y is that in W over it
    y0 = x0 / c
    start = [(value / s, (grad * (c / s)).ravel())]

    def fun(y):
        if start and np.array_equal(y, y0):  # L-BFGS-B evaluates its start first
            return start.pop()
        value, grad = objective.evaluate(pair(y), side)
        grad /= grad_scale
        return value / s, grad.ravel()

    res = minimize(fun, y0, jac=True, method="L-BFGS-B",
                   options={"maxiter": _LBFGS_ITERS, "maxcor": _LBFGS_MEMORY,
                            "gtol": 1e-5 * c * c / s, "ftol": _LBFGS_FTOL})
    out = pair(res.x)
    objective.record_value(out, float(res.fun) * s)
    return out
