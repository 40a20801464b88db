import numpy as np
import pytest
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


def dense_gradient(handle):
    """The gradient a GradientHandle holds, as a dense matrix."""
    if handle.dense is not None:
        return handle.dense
    return handle.sparse.csr().toarray()
