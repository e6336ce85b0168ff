"""Grids, statevectors, stable Hermite-function evaluation, and the centered DFT.

Everything downstream builds on three objects defined here: the uniform
position grid x_j = j*sqrt(2*pi/M) with signed labels j in {-M/2, ..., M/2-1},
orthonormal Hermite functions psi_n evaluated on that grid, and the centered
discrete Fourier transform F_{jk} = exp(2*pi*i*j*k/M)/sqrt(M) that conjugates
the position operator into the momentum operator.

F is never formed.  With alt = diag((-1)^i) and s = (-1)^(M/2), it is
F = s*sqrt(M)*alt*ifft*alt, so in a momentum operator F^-1 diag(P) F the
sign s, the sqrt(M) and the inner pair of alt cancel:
F^-1 diag(P) F v = alt*fft(P*ifft(alt*v)).  The kernels therefore work in
the momentum frame w = ifft(alt*v), entered by `_enter_frame` and left by
`_from_frame`: there a momentum operator is the plain product P*w and a
position operator is ifft(P*fft(w)).

Statevectors are plain complex numpy arrays of length M; array index i
corresponds to grid label j = i - M/2 throughout the package, so arrays are
already ordered by increasing position.

Native work that does not share state (the transform's rows, the
eigen-oracle's two parity sectors) is dealt to threads by one helper,
`_run_workers`, and each worker runs its share; the callers size the workers
from `_usable_cpus`.  numpy's FFTs and LAPACK release the interpreter lock,
so the workers overlap.
"""
from __future__ import annotations

import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "hermite_functions",
    "hermite_function_rows",
    "hermite_basis",
    "probabilist_rows",
    "probabilist_product",
]

_PI_LD = 4 * np.arctan(np.longdouble(1))   # np.longdouble(np.pi) is float64's pi


def _is_int(value) -> bool:
    """An integer count or size: numpy integers pass, a bool or a float does not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_workers(work, items, workers: int) -> None:
    """Deal items to workers: worker i runs work(items[i::workers]), worker 0 on the calling thread.

    The shares differ in length by at most one; callers ask for at most
    len(items) workers, so none is empty.  The other workers' threads are
    started first, so with one worker no thread is started.  Every started
    thread is joined before this returns or raises; then the error of the
    lowest-numbered worker that failed, if any, is raised here.
    """
    errors = [None] * workers

    def run(i):
        try:
            work(items[i::workers])
        except Exception as exc:   # raised again in the calling thread
            errors[i] = exc

    started = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


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


def hermite_functions(n_max: int, x: np.ndarray):
    """Yield the orthonormal Hermite functions psi_0..psi_n_max at x, one row at a time.

    Row n is psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)), built by
    the normalized three-term recurrence
        psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}
    which never forms H_n and the Gaussian separately (H_n overflows near
    n ~ 150 while psi_n stays bounded by ~1.086 for all n).  Underflow in the
    Gaussian seed flushes to zero, which is the documented behavior for grid
    points far outside the classically allowed region.  Only the last two
    rows are held, so a caller that reads one row at a time needs no
    (n_max+1)-row array.
    """
    x = np.asarray(x, dtype=float)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    prev, cur = 0.0, np.pi ** -0.25 * np.exp(-0.5 * x * x)
    yield cur
    for n in range(n_max):
        prev, cur = cur, np.sqrt(2.0 / (n + 1)) * x * cur - np.sqrt(n / (n + 1.0)) * prev
        yield cur


def hermite_function_rows(n_max: int, x: np.ndarray) -> np.ndarray:
    """The rows of `hermite_functions` as one (n_max+1,) + x.shape array."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    for n, row in enumerate(hermite_functions(n_max, x)):
        out[n] = row
    return out


def hermite_basis(spec: GridSpec, n_max: int) -> np.ndarray:
    """The (n_max+1, M) rows |psibar_n> = (2*pi/M)^(1/4) sum_j psi_n(x_j)|j>, not re-normalized."""
    if n_max >= spec.M:
        raise ValueError(f"n_max={n_max} must be < M={spec.M}")
    return hermite_function_rows(n_max, spec.points()) * np.sqrt(spec.h)


def _probabilist_polynomials(n_max: int, x: np.ndarray):
    """Yield the orthonormal probabilist Hermite polynomials h_0..h_n_max at x, one row at a time.

    These satisfy E[h_j(X) h_k(X)] = delta_jk for X ~ N(0, 1); the sampling
    and learning modules expand functions in this basis.  Recurrence:
    h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1).  Only the last two
    rows are held, as in `hermite_functions`.
    """
    x = np.asarray(x, dtype=float)
    prev, cur = 0.0, np.ones(x.shape)
    yield cur
    for k in range(n_max):
        prev, cur = cur, (x * cur - np.sqrt(k) * prev) / np.sqrt(k + 1.0)
        yield cur


def probabilist_rows(n_max: int, x: np.ndarray) -> np.ndarray:
    """The rows of `_probabilist_polynomials` as one (n_max+1,) + x.shape array."""
    out = np.empty((n_max + 1,) + np.shape(x))
    for n, row in enumerate(_probabilist_polynomials(n_max, x)):
        out[n] = row
    return out


def probabilist_product(v, x: np.ndarray, start):
    """start * h_v(x) = start * prod_i h_{v_i}(x[..., i]), multiplied axis by axis in order.

    Each factor is the last row of `_probabilist_polynomials`, so it has
    `probabilist_rows`'s bits and only two rows are held.
    """
    for i, d in enumerate(v):
        for row in _probabilist_polynomials(d, x[..., i]):
            pass   # h_0 .. h_d in turn; the factor is h_d
        start = start * row
    return start


def _enter_frame(w: np.ndarray) -> np.ndarray:
    """w <- ifft(alt*w) along the last axis, in place: enter the momentum frame."""
    w[..., 1::2] *= -1.0
    return np.fft.ifft(w, out=w)


def _from_frame(w: np.ndarray) -> np.ndarray:
    """w <- alt*fft(w) along the last axis, in place: leave the momentum frame."""
    np.fft.fft(w, out=w)
    w[..., 1::2] *= -1.0
    return w
