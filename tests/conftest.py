import numpy as np
import pytest

from qhermite.discrete_qho import build, dense_diagonalize, hermite_basis
from qhermite.spectral_core import GridSpec


def loewdin_orthonormalize(states: np.ndarray) -> np.ndarray:
    """Symmetric (minimal-disturbance) orthonormalization of the row vectors (a test reference)."""
    g = states @ states.conj().T
    evals, evecs = np.linalg.eigh(g)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
    return inv_sqrt @ states


@pytest.fixture(scope="session")
def eig_cache():
    """Memoized dense eigendecompositions, shared across test modules."""
    cache = {}

    def get(M):
        if M not in cache:
            cache[M] = dense_diagonalize(build(GridSpec(M)))
        return cache[M]

    return get


@pytest.fixture(scope="session")
def basis_cache():
    cache = {}

    def get(M, n_max):
        key = (M, n_max)
        if key not in cache:
            cache[key] = hermite_basis(GridSpec(M), n_max)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
