import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def full_observations(mat):
    """Every cell of a dense matrix as a SparseObservations set."""
    from lowrank.linalg import SparseObservations

    m, n = mat.shape
    rows, cols = np.divmod(np.arange(m * n), n)
    return SparseObservations(m, n, rows, cols, np.asarray(mat, float).ravel())


def dense_gradient(g):
    """A gradient matrix, sparse or dense, as a dense array."""
    return g.toarray() if sp.issparse(g) else g
