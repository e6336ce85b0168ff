"""Grids, statevectors, stable Hermite-function evaluation, and the centered DFT.

Everything downstream builds on three objects defined here: the uniform
position grid x_j = j*sqrt(2*pi/M) with signed labels j in {-M/2, ..., M/2-1},
tables of orthonormal Hermite functions psi_n evaluated on that grid, and the
centered discrete Fourier transform F_{jk} = exp(2*pi*i*j*k/M)/sqrt(M) that
conjugates the position operator into the momentum operator.

Statevectors are plain complex numpy arrays of length M; array index i
corresponds to grid label j = i - M/2 throughout the package, so arrays are
already ordered by increasing position.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "HermiteTable",
    "grid_points",
    "hermite_table",
    "hermite_function_rows",
    "probabilist_rows",
    "centered_dft",
    "centered_dft_matrix",
    "apply_diagonal_phase",
]


class InvalidSpecError(ValueError):
    """Raised for grids that violate the M even, M >= 4 contract."""


@dataclass(frozen=True)
class GridSpec:
    """M-point position grid with spacing h = sqrt(2*pi/M), labels -M/2..M/2-1."""

    M: int

    def __post_init__(self):
        if self.M < 4 or self.M % 2 != 0:
            raise InvalidSpecError(f"grid size must be even and >= 4, got {self.M}")

    @property
    def h(self) -> float:
        return float(np.sqrt(2.0 * np.pi / self.M))

    @property
    def labels(self) -> np.ndarray:
        return np.arange(-self.M // 2, self.M // 2)

    def points(self) -> np.ndarray:
        return self.labels * self.h


def grid_points(spec: GridSpec) -> np.ndarray:
    """Grid points x_j = j*h for j = -M/2 .. M/2-1, strictly increasing."""
    return spec.points()


def hermite_function_rows(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions psi_0..psi_n_max evaluated at x.

    Row n is psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)), built by
    the normalized three-term recurrence
        psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}
    which never forms H_n and the Gaussian separately (H_n overflows near
    n ~ 150 while psi_n stays bounded by ~1.086 for all n).  Underflow in the
    Gaussian seed flushes to zero, which is the documented behavior for grid
    points far outside the classically allowed region.
    """
    x = np.asarray(x, dtype=float)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = np.zeros((n_max + 1,) + x.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * x * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def probabilist_rows(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal probabilist Hermite polynomials h_0..h_n_max at x.

    These satisfy E[h_j(X) h_k(X)] = delta_jk for X ~ N(0, 1); the sampling
    and learning modules expand functions in this basis.  Recurrence:
    h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for k in range(1, n_max):
        out[k + 1] = (x * out[k] - np.sqrt(k) * out[k - 1]) / np.sqrt(k + 1.0)
    return out


@dataclass(frozen=True)
class HermiteTable:
    """psi_n(x_j) for n in [0, n_max] over the grid of `spec`."""

    spec: GridSpec
    n_max: int
    values: np.ndarray = field(repr=False)

    def row(self, n: int) -> np.ndarray:
        return self.values[n]


def hermite_table(n_max: int, spec: GridSpec) -> HermiteTable:
    """Tabulate psi_n on the grid; see hermite_function_rows for the recurrence."""
    vals = hermite_function_rows(n_max, spec.points())
    return HermiteTable(spec=spec, n_max=n_max, values=vals)


def centered_dft_matrix(M: int) -> np.ndarray:
    """Dense F_{jk} = exp(2*pi*i*j*k/M)/sqrt(M), signed labels. Reference only."""
    if M > 4096:
        raise ValueError("dense reference transform capped at M=4096")
    j = np.arange(-M // 2, M // 2)
    return np.exp(2j * np.pi * np.outer(j, j) / M) / np.sqrt(M)


def centered_dft(state: np.ndarray, spec: GridSpec | None = None, inverse: bool = False) -> np.ndarray:
    """Centered DFT via index relabeling around the standard FFT.

    With arrays stored in label order (index i <-> label i - M/2), the
    centered transform is diag((-1)^i) . FFT-kernel . diag((-1)^i) up to the
    scalar (-1)^(M/2); for M divisible by 4 that scalar is +1, recovering the
    sigma_z . QFT . sigma_z form.
    """
    v = np.asarray(state, dtype=complex)
    M = v.shape[-1]
    if spec is not None and spec.M != M:
        raise ValueError(f"state dimension {M} does not match grid M={spec.M}")
    alt = np.ones(M)
    alt[1::2] = -1.0
    sgn = -1.0 if (M // 2) % 2 else 1.0
    if not inverse:
        return sgn * alt * np.sqrt(M) * np.fft.ifft(alt * v)
    return sgn * alt * np.fft.fft(alt * v) / np.sqrt(M)


def apply_diagonal_phase(state: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """amp_j <- exp(-i*phase_j) * amp_j; exactly norm-preserving."""
    v = np.asarray(state, dtype=complex)
    ph = np.asarray(phases, dtype=float)
    if v.shape != ph.shape:
        raise ValueError(f"length mismatch: state {v.shape} vs phases {ph.shape}")
    return np.exp(-1j * ph) * v
