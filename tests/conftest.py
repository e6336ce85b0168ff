"""Fixtures and the reference implementations that several test modules compare against."""
import math

import numpy as np
import pytest

from qhermite.discrete_qho import (
    DENSE_EIG_CAP,
    DiscreteQHO,
    _p2_symbol_ld,
    build,
    dense_diagonalize,
)
from qhermite.fast_forward import FactoredEvolution, apply_tables, evolution_tables
from qhermite.hermite_sampling import OracleFunction, _grid_contract, _nu, _quad_grid
from qhermite.learning_testers import CoefficientPattern
from qhermite.qht_pipeline import QHTConfig, qht_operator
from qhermite.spectral_core import GridSpec, hermite_basis, probabilist_rows


def loewdin_orthonormalize(states: np.ndarray) -> np.ndarray:
    """Symmetric (minimal-disturbance) orthonormalization of the row vectors (a test reference)."""
    g = states @ states.conj().T
    evals, evecs = np.linalg.eigh(g)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
    return inv_sqrt @ states


def isometry_singular_values(config: QHTConfig) -> np.ndarray:
    """Singular values of the simulated transform restricted to n < N."""
    return np.linalg.svd(qht_operator(config).matrix().T, compute_uv=False)


def centered_dft_matrix(M: int) -> np.ndarray:
    """Dense F_{jk} = exp(2*pi*i*j*k/M)/sqrt(M), signed labels. Reference only."""
    if M > 4096:
        raise ValueError("dense reference transform capped at M=4096")
    j = np.arange(-M // 2, M // 2)
    return np.exp(2j * np.pi * np.outer(j, j) / M) / np.sqrt(M)


def dense_momentum_sq(spec: GridSpec) -> np.ndarray:
    """Dense pbar^2 from the circulant symbol (oracle; M <= 4096)."""
    if spec.M > DENSE_EIG_CAP:
        raise ValueError(f"dense budget exceeded: M={spec.M}")
    c = _p2_symbol_ld(spec.M).astype(np.float64)
    j = np.arange(spec.M)
    return c[(j[None, :] - j[:, None]) % spec.M]


def sector_blocks_by_gather(M: int) -> tuple:
    """Hbar's (even, odd) parity blocks by index-grid gathers of the symbol (a reference).

    c[|a-b|] and c[(a+b) mod M] are gathered into two (M/2+1)^2 arrays and
    the even block is scaled by the factor array 0.5 w_a w_b, where
    `discrete_qho._sector_block` reads strided views and scales in place.
    """
    half = M // 2
    c = _p2_symbol_ld(M).astype(np.float64)
    a = np.arange(half + 1)
    diff = c[np.abs(a[:, None] - a[None, :])]
    summ = c[(a[:, None] + a[None, :]) % M]
    diag = np.pi * a * a / M
    w = np.ones(half + 1)
    w[[0, half]] = np.sqrt(0.5)
    even = 0.5 * w[:, None] * w[None, :] * (diff + summ)
    even[np.diag_indices(half + 1)] += diag
    odd = 0.5 * (diff[1:half, 1:half] - summ[1:half, 1:half])
    odd[np.diag_indices(half - 1)] += diag[1:half]
    return even, odd


def apply_factored(qho: DiscreteQHO, fe: FactoredEvolution, state: np.ndarray) -> np.ndarray:
    """Apply the phase factors: build their tables, then run `apply_tables`."""
    return apply_tables(evolution_tables(qho.M, fe), state)


def coefficient_oracle(f: OracleFunction, v, M_quad: int = 512):
    """fhat(v) by tensor-grid Riemann sum of f * h_v * nu over [-L, L]^n.

    Returns (value, error_estimate); the estimate is the change under one
    grid doubling (a conservative Richardson gauge -- the integrand is
    analytic apart from f's dyadic steps, so actual convergence is faster).
    """
    v = tuple(int(c) for c in v)
    coarse = _coefficient_riemann(f, v, M_quad)
    fine = _coefficient_riemann(f, v, 2 * M_quad)
    return fine, abs(fine - coarse)


def _coefficient_riemann(f: OracleFunction, v, M_quad: int) -> float:
    x, h = _quad_grid(M_quad)
    mats = [h * probabilist_rows(d, x)[d:] * _nu(x) for d in v]
    c, _, _ = _grid_contract(f.arity, f.evaluate, x, mats, f.product_factors)
    return float(c.item())


def restriction_coefficient(f: OracleFunction, pattern: CoefficientPattern,
                            z: np.ndarray, grid_points: int = 2001) -> float:
    """F_S f(z) = fhat_{J|z}(S): quadrature over the fixed block at frozen z.

    Cross-validates weight_estimate: averaging F_S f(z)^2 over Gaussian z
    recovers W^S(f).  The quadrature grid spans [-10, 10] per coordinate and
    is tensored over the fixed block J, so |J| * log2(grid_points) must stay
    within the full-grid budget.
    """
    J = list(pattern.fixed_positions)
    rest = list(pattern.wildcard_positions)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if len(z) != len(rest):
        raise ValueError(f"z must fix the {len(rest)} wildcard coordinates")
    if not J:   # no fixed coordinate: F_S f(z) is f(z) itself
        return float(f.evaluate(z[None])[0])
    grid = np.linspace(-10.0, 10.0, grid_points)
    weight = (grid[1] - grid[0]) * np.exp(-0.5 * grid * grid) / math.sqrt(2 * math.pi)

    def on_block(y):   # points of the fixed block, with z inserted
        pts = np.empty(y.shape[:-1] + (f.arity,))
        pts[..., J] = y
        pts[..., rest] = z
        return f.evaluate(pts)

    mats = [probabilist_rows(d, grid)[d:] * weight for d in (pattern.entries[j] for j in J)]
    c, _, _ = _grid_contract(len(J), on_block, grid, mats)
    return float(c.item())


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
