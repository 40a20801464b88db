"""Greedy and local-search solvers for rank-constrained convex optimization."""

from .baselines import SoftImputeConfig, soft_impute
from .data import (SynthCompletionConfig, SynthRpcaConfig, gen_completion,
                   gen_rpca, load_movielens, nmse_on, rmse_on, split_ratings)
from .inner import optimize_fast, optimize_full
from .linalg import (FactorPair, SingularTriplet, SparseObservations,
                     project_observed, top_singular_triplet)
from .objectives import ClippedObservedQuadratic, HuberLowRank, ObservedQuadratic
from .solvers import (IterationTrace, SolverConfig, fast_greedy,
                      fast_local_search, fast_local_sweep, greedy, local_search,
                      truncate_fast, truncate_svd)
from .sparse_equiv import (LiftedQuadratic, SparseRegressionProblem,
                           check_equivalence, omp, ompr)

__version__ = "0.1.0"
