"""Sparse-vector pursuit and its diagonal lifting into the matrix solvers.

A sparse least-squares problem f(x) = 1/2 ||D x - y||^2 lifts to the matrix
objective R(A) = f(diag(A)) + beta/2 ||A - Diag(diag A)||_F^2. On such
instances the greedy matrix solver reproduces orthogonal matching pursuit
coordinate-for-coordinate, and local search reproduces OMP with replacement;
`check_equivalence` runs both sides and compares the iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inner import InnerConfig
from .linalg import FactorPair
from .solvers import SolverConfig, greedy, local_search

__all__ = [
    "SparseRegressionProblem",
    "SparseFit",
    "LiftedQuadratic",
    "omp",
    "ompr",
    "EquivalenceReport",
    "check_equivalence",
]


@dataclass
class SparseRegressionProblem:
    """min f(x) = 1/2 ||design @ x - response||^2 with an s*-sparse target."""

    design: np.ndarray
    response: np.ndarray
    sparsity: int

    def __post_init__(self):
        self.design = np.asarray(self.design, dtype=np.float64)
        self.response = np.asarray(self.response, dtype=np.float64)
        if self.design.shape[0] != self.response.shape[0]:
            raise ValueError("design rows must match response length")

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.design.T @ (self.design @ x - self.response)


@dataclass
class SparseFit:
    support: list[int]
    coef: np.ndarray  # full-length vector, zero off support
    rank_deficient: bool = False


def _refit(problem: SparseRegressionProblem, support: list[int]) -> tuple[np.ndarray, bool]:
    """Exact least squares on the support (minimum-norm if rank-deficient)."""
    x = np.zeros(problem.dim)
    if not support:
        return x, False
    cols = problem.design[:, support]
    sol, _, rank, _ = np.linalg.lstsq(cols, problem.response, rcond=None)
    x[support] = sol
    return x, rank < len(support)


# relative floor under which the gradient counts as numerically zero
# (mirrors the matrix solvers' early exit: stepping on a zero gradient
# only swaps noise coordinates in and out)
_GRAD_FLOOR = 1e-12


def omp(problem: SparseRegressionProblem, steps: int) -> SparseFit:
    """Orthogonal matching pursuit: grow the support by the top-|gradient|
    coordinate, re-fit exactly each step. Gradient ties break to the lowest
    index; a numerically zero gradient stops the pursuit.

    This is ompr with a budget of `steps`: the support grows by at most one
    coordinate per step, so it never fills and nothing is dropped."""
    if steps > problem.dim:
        raise ValueError("steps must be <= dimension")
    return ompr(problem, steps, steps)


def ompr(problem: SparseRegressionProblem, sparsity: int, steps: int) -> SparseFit:
    """OMP with replacement at a fixed support budget.

    Each step picks the top-|gradient| coordinate; once the support is full
    it first drops the support coordinate with the smallest coefficient
    magnitude (the vector analogue of removing the minimum singular value),
    then re-fits exactly. With sparsity = dim this degenerates to full least
    squares. A numerically zero gradient stops the pursuit.
    """
    support: list[int] = []
    x = np.zeros(problem.dim)
    deficient = False
    g0 = None
    for _ in range(steps):
        g = problem.grad(x)
        top = float(np.max(np.abs(g)))
        if g0 is None:
            g0 = top
        if top <= _GRAD_FLOOR * (1.0 + g0):
            break
        i = int(np.argmax(np.abs(g)))
        if len(support) >= sparsity:
            j = min(support, key=lambda k: (abs(x[k]), k))
            support.remove(j)
        if i not in support:
            support.append(i)
        x, bad = _refit(problem, support)
        deficient = deficient or bad
    return SparseFit(support, x, deficient)


class LiftedQuadratic:
    """R(A) = f(diag A) + beta/2 ||A - Diag(diag A)||_F^2 over n x n matrices.

    On diagonal iterates the gradient reduces to Diag(grad f), so the matrix
    solvers only ever insert e_i e_i^T components.
    """

    def __init__(self, problem: SparseRegressionProblem, beta: float):
        if beta <= 0:
            raise ValueError("beta must be > 0")
        self.problem = problem
        self.beta = float(beta)
        self._gram = problem.design.T @ problem.design

    @property
    def shape(self) -> tuple[int, int]:
        n = self.problem.dim
        return (n, n)

    def value(self, pair: FactorPair) -> float:
        a = pair.matrix()
        x = np.diag(a).copy()
        resid = self.problem.design @ x - self.problem.response
        off = a - np.diag(np.diag(a))
        return 0.5 * float(resid @ resid) + 0.5 * self.beta * float(np.sum(off * off))

    def gradient(self, pair: FactorPair) -> np.ndarray:
        a = pair.matrix()
        g = self.problem.grad(np.diag(a).copy())
        return np.diag(g) + self.beta * (a - np.diag(np.diag(a)))

    def quad_term(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        e = left @ right.T
        d = np.diag(e).copy()
        return np.diag(self._gram @ d) + self.beta * (e - np.diag(d))


@dataclass
class EquivalenceReport:
    mode: str
    steps: int
    passed: bool
    max_offdiag: float
    max_iterate_diff: float
    supports_match: bool
    first_violation: str | None = None
    details: list[dict] = field(default_factory=list)


def check_equivalence(problem: SparseRegressionProblem, beta: float, steps: int,
                      mode: str = "greedy", seed: int = 0,
                      offdiag_tol: float = 1e-8, iterate_tol: float = 1e-6
                      ) -> EquivalenceReport:
    """Run the matrix solver on the lifted objective next to its vector
    analogue and compare every iterate.

    Asserts (a) each matrix iterate is diagonal up to `offdiag_tol`
    off-diagonal Frobenius mass, (b) its diagonal matches the vector iterate
    within `iterate_tol`, (c) the supports coincide. The matrix iterate at
    step k is recovered by re-running the (deterministic) solver for k steps.
    `steps` must be at least 1, since a check of no steps compares nothing.
    """
    if mode not in ("greedy", "local"):
        raise ValueError("mode must be 'greedy' or 'local'")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lifted = LiftedQuadratic(problem, beta)
    n = problem.dim
    report = EquivalenceReport(mode, steps, True, 0.0, 0.0, True)

    # the diagonality assertion needs coefficient refits far below the
    # library's default tolerance
    inner = InnerConfig(full_solve_tol=1e-13)
    for k in range(1, steps + 1):
        if mode == "greedy":
            cfg = SolverConfig(target_rank=k, seed=seed, inner=inner)
            pair, _ = greedy(lifted, cfg)
            vec = omp(problem, k)
        else:
            cfg = SolverConfig(target_rank=problem.sparsity, max_outer_iters=k,
                               eps=0.0, seed=seed, inner=inner)
            pair, _ = local_search(lifted, cfg)
            vec = ompr(problem, problem.sparsity, k)

        a = pair.matrix()
        diag = np.diag(a).copy()
        offdiag = float(np.linalg.norm(a - np.diag(diag)))
        diff = float(np.max(np.abs(diag - vec.coef)))
        # effective supports by magnitude on both sides (an exactly-zero refit
        # coefficient is no support in either representation)
        scale = 1.0 + float(np.max(np.abs(vec.coef)))
        mat_support = set(np.flatnonzero(np.abs(diag) > iterate_tol * scale).tolist())
        vec_support = set(np.flatnonzero(np.abs(vec.coef) > iterate_tol * scale).tolist())
        supports_ok = mat_support == vec_support

        report.max_offdiag = max(report.max_offdiag, offdiag)
        report.max_iterate_diff = max(report.max_iterate_diff, diff)
        report.details.append({
            "step": k, "offdiag": offdiag, "iterate_diff": diff,
            "matrix_support": sorted(mat_support), "vector_support": sorted(vec_support),
        })
        if report.passed:
            if offdiag > offdiag_tol:
                report.passed = False
                report.first_violation = f"step {k}: off-diagonal mass {offdiag:.3e}"
            elif diff > iterate_tol:
                report.passed = False
                report.first_violation = f"step {k}: iterate mismatch {diff:.3e}"
            elif not supports_ok:
                report.passed = False
                report.supports_match = False
                report.first_violation = f"step {k}: support mismatch"
    return report
