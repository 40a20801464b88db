"""Sparse-vector pursuit and its diagonal lifting into the matrix solvers.

A sparse least-squares problem f(x) = 1/2 ||D x - y||^2 lifts to the matrix
objective R(A) = f(diag(A)) + beta/2 ||A - Diag(diag A)||_F^2. On such
instances the greedy matrix solver reproduces orthogonal matching pursuit
coordinate-for-coordinate, and local search reproduces OMP with replacement;
`check_equivalence` runs both sides and compares the iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .linalg import FactorPair, check_integers
from .solvers import _GRADIENT_FLOOR, SolverConfig, greedy, local_search

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
        if self.design.ndim != 2 or self.design.shape[1] < 1:
            raise ValueError("design must be 2-d with at least one column")
        if self.response.shape != self.design.shape[:1]:
            raise ValueError("design rows must match response length")
        for name in ("design", "response"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        check_integers(self, sparsity=0)
        if self.sparsity > self.dim:
            raise ValueError(f"sparsity must be in [0, {self.dim}], got {self.sparsity}")

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.design.T @ (self.design @ x - self.response)


@dataclass
class SparseFit:
    support: list[int]
    coef: np.ndarray  # full-length vector, zero off support


def omp(problem: SparseRegressionProblem, steps: int, callback=None) -> SparseFit:
    """Orthogonal matching pursuit: grow the support by the top-|gradient|
    coordinate, re-fit exactly each step. Gradient ties break to the lowest
    index; a numerically zero gradient stops the pursuit.

    This is ompr with a budget of the whole dimension: the support grows by
    at most one coordinate per step, so within `steps` <= dim steps it never
    fills and nothing is dropped. The callback is ompr's."""
    check_integers(SimpleNamespace(steps=steps), steps=0)
    if steps > problem.dim:
        raise ValueError("steps must be <= dimension")
    return ompr(problem, problem.dim, steps, callback)


def ompr(problem: SparseRegressionProblem, sparsity: int, steps: int,
         callback=None) -> SparseFit:
    """OMP with replacement at a fixed support budget.

    Each step picks the top-|gradient| coordinate; once the support is full
    it first drops the support coordinate with the smallest coefficient
    magnitude (the vector analogue of removing the minimum singular value),
    then re-fits exactly. With sparsity = dim this degenerates to full least
    squares. A top |gradient| entry at most 1e-12 of the run's first one
    stops the pursuit, as in the matrix solvers (stepping on a zero gradient
    only swaps noise coordinates in and out). Step t ends with
    `callback(t, fit)`: no step depends on `steps`, so that fit is what a run
    of t + 1 steps returns. `sparsity` must be an integer >= 1 and `steps`
    one >= 0.
    """
    check_integers(SimpleNamespace(sparsity=sparsity, steps=steps), sparsity=1, steps=0)
    support: list[int] = []
    x = np.zeros(problem.dim)
    g0 = None
    for t in range(steps):
        g = problem.grad(x)
        top = float(np.max(np.abs(g)))
        if g0 is None:
            g0 = top
        if top <= _GRADIENT_FLOOR * g0:
            break
        i = int(np.argmax(np.abs(g)))
        if len(support) >= sparsity:
            j = min(support, key=lambda k: (abs(x[k]), k))
            support.remove(j)
        if i not in support:
            support.append(i)
        # exact least squares on the support (minimum-norm if rank-deficient)
        x = np.zeros(problem.dim)
        x[support] = np.linalg.lstsq(problem.design[:, support], problem.response,
                                     rcond=None)[0]
        if callback is not None:
            callback(t, SparseFit(list(support), x))
    return SparseFit(support, x)


class LiftedQuadratic:
    """R(A) = f(diag A) + beta/2 ||A - Diag(diag A)||_F^2 over n x n matrices.

    On diagonal iterates the gradient reduces to Diag(grad f), so the matrix
    solvers only ever insert e_i e_i^T components. The last FactorPair seen
    is cached (see `FactorPair`) as its off-diagonal part and its diagonal,
    so `value` and `gradient` on one pair form U V^T once.
    """

    def __init__(self, problem: SparseRegressionProblem, beta: float):
        if not (np.isfinite(beta) and beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {beta}")
        self.problem = problem
        self.beta = float(beta)
        n = problem.dim
        self._shifted_gram = problem.design.T @ problem.design - self.beta * np.eye(n)
        self._diagonal = np.diag_indices(n)
        self._last = (None, None, None)  # (pair, off-diagonal part, diagonal)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.problem.dim
        return (n, n)

    def _split(self, pair: FactorPair) -> tuple[np.ndarray, np.ndarray]:
        """(A with a zero diagonal, diag A) for A = U V^T, from the cache when
        `pair` is the last one. Neither array leaves the objective."""
        last, off, diag = self._last
        if last is not pair:
            off = pair.matrix()
            diag = off[self._diagonal]
            off[self._diagonal] = 0.0
            self._last = (pair, off, diag)
        return off, diag

    def value(self, pair: FactorPair) -> float:
        off, diag = self._split(pair)
        resid = self.problem.design @ diag - self.problem.response
        return 0.5 * float(resid @ resid) + 0.5 * self.beta * float(np.sum(off * off))

    def gradient(self, pair: FactorPair) -> np.ndarray:
        off, diag = self._split(pair)
        out = np.multiply(off, self.beta)
        out[self._diagonal] = self.problem.grad(diag)
        # adding 0.0 last turns each -0.0 into 0.0, as the sum
        # Diag(grad f) + beta * off does on its zero entries
        out += 0.0
        return out

    def normal_equations(self, U: np.ndarray, V: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
        """(H, b): the r^2 x r^2 matrix H of X -> U^T Hess R[U X V^T] V on
        row-major vec(X), beta (U^T U kron V^T V) + W^T (G - beta I) W, with G
        the design's Gram matrix and W[k, (a, b)] = U_ka V_kb, since the
        Hessian maps E to beta E + Diag((G - beta I) diag E); and
        b = -U^T grad R(0) V = U^T Diag(D^T y) V. The Kronecker product is one
        broadcast multiply (`np.kron` is slower at these sizes)."""
        r = U.shape[1]
        h = (self.beta * (U.T @ U))[:, None, :, None] * (V.T @ V)[None, :, None, :]
        h = h.reshape(r * r, r * r)
        w = (U[:, :, None] * V[:, None, :]).reshape(-1, r * r)
        h += w.T @ (self._shifted_gram @ w)
        dty = self.problem.design.T @ self.problem.response
        return h, U.T @ (dty[:, None] * V)


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


def _pursuit_iterates(problem: SparseRegressionProblem, mode: str, steps: int
                      ) -> list[SparseFit]:
    """Iterate k of omp(problem, k) (greedy) or ompr(problem, sparsity, k)
    (local) for k = 1..steps, from one run of `steps` steps. A run that stops
    at the gradient floor repeats its last iterate, as the shorter runs
    stop there too."""
    fits: list[SparseFit] = []

    def keep(t, fit):
        fits.append(fit)

    if mode == "greedy":
        last = omp(problem, steps, keep)
    else:
        last = ompr(problem, problem.sparsity, steps, keep)
    return fits + [last] * (steps - len(fits))


# the bounds of `check_equivalence` (its docstring states them)
_OFFDIAG_TOL = 1e-8
_ITERATE_TOL = 1e-6


def check_equivalence(problem: SparseRegressionProblem, beta: float | None,
                      steps: int, mode: str = "greedy", seed: int = 0
                      ) -> EquivalenceReport:
    """Run the matrix solver on the lifted objective next to its vector
    analogue and compare every iterate. beta=None lifts with
    1.01 lambda_max(D^T D), just above the smoothness constant of f.

    With c the largest |coefficient| of the step's vector iterate, asserts
    (a) each matrix iterate's off-diagonal Frobenius mass is at most 1e-8 c,
    (b) its diagonal matches the vector iterate within 1e-6 c, (c) the
    supports, the entries above 1e-6 c on each side, coincide; so a zero
    vector iterate needs an exactly zero matrix iterate. The report's
    `max_offdiag`, `max_iterate_diff` and `details` carry the two
    magnitudes over c (0 / 0 = 0, x / 0 = inf), free of the data's scale.
    The vector iterate at step k comes from one omp / ompr run of `steps`
    steps (the k-step run is its prefix). The matrix iterate at step k is
    still recovered by re-running the (deterministic) solver for k steps,
    because perfbench pins the `equivalence` workload's solver-run count.
    `steps` must be an integer of at least 1, since a check of no steps
    compares nothing.
    """
    if mode not in ("greedy", "local"):
        raise ValueError("mode must be 'greedy' or 'local'")
    report = EquivalenceReport(mode, steps, True, 0.0, 0.0, True)
    check_integers(report, steps=1)
    if beta is None:
        beta = 1.01 * float(np.linalg.eigvalsh(problem.design.T @ problem.design)[-1])
    lifted = LiftedQuadratic(problem, beta)
    vectors = _pursuit_iterates(problem, mode, report.steps)

    for k, vec in enumerate(vectors, start=1):
        if mode == "greedy":
            pair, _ = greedy(lifted, SolverConfig(target_rank=k, seed=seed))
        else:
            cfg = SolverConfig(target_rank=problem.sparsity, max_outer_iters=k, seed=seed)
            pair, _ = local_search(lifted, cfg)

        off, diag = lifted._split(pair)
        scale = float(np.max(np.abs(vec.coef)))
        offdiag, diff = (
            size / scale if scale > 0.0 else (np.inf if size else 0.0)
            for size in (float(np.linalg.norm(off)),
                         float(np.max(np.abs(diag - vec.coef)))))
        # effective supports by magnitude on both sides (an exactly-zero refit
        # coefficient is no support in either representation)
        cut = _ITERATE_TOL * scale
        mat_support = set(np.flatnonzero(np.abs(diag) > cut).tolist())
        vec_support = set(np.flatnonzero(np.abs(vec.coef) > cut).tolist())
        supports_ok = mat_support == vec_support

        report.max_offdiag = max(report.max_offdiag, offdiag)
        report.max_iterate_diff = max(report.max_iterate_diff, diff)
        report.details.append({
            "step": k, "offdiag": offdiag, "iterate_diff": diff,
            "matrix_support": sorted(mat_support), "vector_support": sorted(vec_support),
        })
        if report.passed:
            if offdiag > _OFFDIAG_TOL:
                report.passed = False
                report.first_violation = f"step {k}: off-diagonal mass {offdiag:.3e}"
            elif diff > _ITERATE_TOL:
                report.passed = False
                report.first_violation = f"step {k}: iterate mismatch {diff:.3e}"
            elif not supports_ok:
                report.passed = False
                report.supports_match = False
                report.first_violation = f"step {k}: support mismatch"
    return report
