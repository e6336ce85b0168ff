"""Factored evolution of the discrete oscillator and its error meters.

exp(-i*Hbar*t) is approximated by three or five alternating quadratic phase
factors: exp(-i*a*pbar^2) exp(-i*b*xbar^2) exp(-i*a*pbar^2) with
a = tan(t/2)/2 and b = sin(t)/2 after reducing t into [-pi, pi); when the
reduced time exceeds pi/2 in magnitude it is halved and the three-factor
block repeated, merging the adjacent momentum factors into five total.
The 2*pi reduction flips the sign of the state once per full period
(exp(-i*H*(t + 2*pi)) = -exp(-i*H*t) for half-integer spectra), so the
factorization carries an explicit global sign.

A factored evolution is applied from `EvolutionTables`, built once per
evolution and grid: one table exp(-i*c*x_j^2) per distinct coefficient c
(two for three factors, three for five).  Each table's argument is reduced
mod 2*pi in 80-bit floats once, when the table is built; at M ~ 1000 the raw
arguments reach ~10^3 and plain float64 reduction would inject ~1e-13 of
spurious error into every factor, swamping the quantity the error meters
measure.  x_j^2 is even in the label j, so a table stores labels 0..M/2 only.

`apply_tables` is the one kernel that applies any factored evolution or its
adjoint (the same tables in reverse order, conjugated).  With
alt = diag((-1)^i), the centered DFT is F = s*sqrt(M)*alt*ifft*alt with
s = (-1)^(M/2), so in a momentum factor F^-1 diag(P) F the sign s, the
sqrt(M) and the inner pair of alt cancel: F^-1 diag(P) F v =
alt*fft(P*ifft(alt*v)).  The kernel therefore works in the momentum frame
w = ifft(alt*v): a momentum factor is the plain product P*w and a position
factor is ifft(P*fft(w)).  A whole evolution table starts and ends with a
momentum factor, so entering the frame (alt, then ifft), running the factors
and leaving it (fft, then alt) is the sequence
alt, ifft, P_a, fft, P_b, ifft, P_a, fft, alt: the same operations, in the
same order, as applying each momentum factor as alt*fft(P*ifft(alt*v)) with
alt taken out to the two ends, so one `apply_tables` call pays nothing for
the frame.  (A truncated table that ends on a position factor, as the
generator meter builds, pays one extra fft/ifft pair.)  Products and linear
combinations of several evolutions, like the transform's dyadic filter and
uncompute sweeps, stay in the frame between evolutions: a three-factor pass
costs two FFTs there and a five-factor pass four, against four and six when
each pass enters and leaves the frame.  The FFTs run in place; every entry
into the frame copies its input first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .discrete_qho import (
    DiscreteQHO,
    EigenDecomposition,
    apply_hamiltonian,
    apply_momentum_sq,
    apply_position_sq,
)

__all__ = [
    "FactoredEvolution",
    "EvolutionTables",
    "decompose",
    "evolution_tables",
    "apply_tables",
    "apply_factored",
    "exact_evolution",
    "chebyshev_evolution",
    "low_energy_error",
    "residual_generator_norm",
    "LOW_ENERGY_M_CAP",
]

LOW_ENERGY_M_CAP = 2048   # largest grid low_energy_error accepts


@dataclass(frozen=True)
class FactoredEvolution:
    """Ordered (axis, coefficient) phase factors realizing exp(-i*Hbar*t)."""

    factors: tuple          # of ("position" | "momentum", float)
    t_effective: float      # reduced time in [-pi, pi)
    reps: int               # 1 (three factors) or 2 (five factors)
    global_sign: float      # +1 or -1 from the 2*pi reduction


def decompose(t: float) -> FactoredEvolution:
    """Algorithm: reduce t mod 2*pi, then pick the 3- or 5-factor split.

    |t_eff| <= pi/2 uses one repetition with a = tan(t_eff/2)/2,
    b = sin(t_eff)/2; larger |t_eff| is halved and squared, giving five
    factors (alpha, beta, 2*alpha, beta, alpha).  The boundary |t_eff| = pi/2
    stays on the single-repetition branch, where tan is still finite.
    """
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    k = math.floor(t / (2 * math.pi) + 0.5)
    t2 = t - 2 * math.pi * k
    sign = -1.0 if k % 2 else 1.0
    if abs(t2) > math.pi / 2:
        alpha = math.tan(t2 / 4) / 2
        beta = math.sin(t2 / 2) / 2
        factors = (("momentum", alpha), ("position", beta), ("momentum", 2 * alpha),
                   ("position", beta), ("momentum", alpha))
        reps = 2
    else:
        a = math.tan(t2 / 2) / 2
        b = math.sin(t2) / 2
        factors = (("momentum", a), ("position", b), ("momentum", a))
        reps = 1
    return FactoredEvolution(factors=factors, t_effective=t2, reps=reps, global_sign=sign)


def _half_phases(M: int, coeffs) -> np.ndarray:
    """Rows exp(-i * c * x_j^2) for labels j = 0..M/2, reduced mod 2*pi in longdouble."""
    j = np.arange(M // 2 + 1, dtype=np.longdouble)
    twopi = 2 * np.longdouble(np.pi)
    c = np.asarray(coeffs, dtype=np.longdouble)[:, None]
    theta = np.mod(c * (j * j) * (twopi / np.longdouble(M)), twopi)
    return np.exp(-1j * theta.astype(np.float64))


@dataclass(frozen=True)
class EvolutionTables:
    """Half-length phase tables of one FactoredEvolution on an M-point grid.

    Row k of `halves` is exp(-i*c_k*x_j^2) for labels j = 0..M/2, one row per
    distinct coefficient c_k; `steps` lists (axis, row) in factor order.
    """

    M: int
    steps: tuple            # of ("position" | "momentum", row index)
    halves: np.ndarray = field(repr=False)   # (distinct coefficients, M/2 + 1)
    global_sign: float


def evolution_tables(M: int, fe: FactoredEvolution) -> EvolutionTables:
    """Build the phase tables of `fe`, one per distinct coefficient."""
    coeffs: list = []
    steps = []
    for axis, c in fe.factors:
        if c not in coeffs:
            coeffs.append(c)
        steps.append((axis, coeffs.index(c)))
    return EvolutionTables(M=M, steps=tuple(steps), halves=_half_phases(M, coeffs),
                           global_sign=fe.global_sign)


def _enter_frame(w: np.ndarray) -> np.ndarray:
    """w <- ifft(alt*w) along the last axis, in place: enter the momentum frame."""
    w[..., 1::2] *= -1.0
    return np.fft.ifft(w, out=w)


def _to_frame(state: np.ndarray, M: int) -> np.ndarray:
    """A fresh array w = ifft(alt*v) along the last axis: the momentum frame."""
    w = np.array(state, dtype=complex)
    if w.shape[-1] != M:
        raise ValueError(f"dimension mismatch: {w.shape[-1]} vs M={M}")
    return _enter_frame(w)


def _frame_steps(tables: EvolutionTables, w: np.ndarray, adjoint: bool = False,
                 out: np.ndarray | None = None, conj: np.ndarray | None = None) -> np.ndarray:
    """Apply the factors (or their adjoints) to a momentum-frame w; returns `out`.

    A momentum factor is w <- P*w and a position factor w <- ifft(P*fft(w)).
    A half table covers the labels 0..M/2-1 of array indices M/2.. and, read
    backwards, the labels -M/2..-1 of indices ..M/2-1.  Without `out` the
    factors run on w in place; with it, the first factor reads w and writes
    `out`, so w is left as it was and the copy costs nothing.  An
    adjoint run conjugates each table once, into `conj` (an M/2+1 scratch,
    allocated when not given), whatever the number of rows in w.  The global
    sign is left to the caller.
    """
    h = tables.M // 2
    if out is None:
        out = w
    if adjoint and conj is None:
        conj = np.empty(h + 1, dtype=complex)
    src = w
    for axis, k in (reversed(tables.steps) if adjoint else tables.steps):
        half = np.conjugate(tables.halves[k], out=conj) if adjoint else tables.halves[k]
        if axis == "position":
            np.fft.fft(src, out=out)
            src = out
        np.multiply(src[..., h:], half[:h], out=out[..., h:])
        np.multiply(src[..., :h], half[h:0:-1], out=out[..., :h])
        src = out
        if axis == "position":
            np.fft.ifft(out, out=out)
    return out


def _from_frame(w: np.ndarray) -> np.ndarray:
    """v = alt*fft(w), in place: leave the momentum frame."""
    np.fft.fft(w, out=w)
    w[..., 1::2] *= -1.0
    return w


def apply_tables(tables: EvolutionTables, state: np.ndarray,
                 adjoint: bool = False) -> np.ndarray:
    """Apply the tabulated evolution (or its adjoint) along the last axis.

    Enters the momentum frame, runs the factors there and leaves it; `state`
    is not modified.
    """
    v = _from_frame(_frame_steps(tables, _to_frame(state, tables.M), adjoint))
    if tables.global_sign < 0:
        v *= -1.0
    return v


def apply_factored(qho: DiscreteQHO, fe: FactoredEvolution, state: np.ndarray) -> np.ndarray:
    """Apply the phase factors: build their tables, then run `apply_tables`."""
    return apply_tables(evolution_tables(qho.M, fe), state)


def exact_evolution(eig: EigenDecomposition, t: float, state: np.ndarray) -> np.ndarray:
    """Ground truth U(t) = sum_n exp(-i*E_n*t) |e_n><e_n| applied to state."""
    coeffs = eig.vectors.conj().T @ np.asarray(state, dtype=complex)
    return eig.vectors @ (np.exp(-1j * eig.energies * t) * coeffs)


def _dct2(x: np.ndarray) -> np.ndarray:
    """Type-II DCT of a real vector via one FFT (Makhoul's reordering)."""
    K = len(x)
    v = np.concatenate([x[0::2], x[1::2][::-1]])
    V = np.fft.fft(v)
    return np.real(V * np.exp(-1j * np.pi * np.arange(K) / (2 * K)))


def _chebyshev_phase_coefficients(z: float, K: int) -> np.ndarray:
    """Chebyshev coefficients of exp(-i*z*x) on [-1, 1] by cosine interpolation."""
    theta = np.pi * (np.arange(K) + 0.5) / K
    g = np.exp(-1j * z * np.cos(theta))
    coeffs = (_dct2(g.real) + 1j * _dct2(g.imag)) * (2.0 / K)
    coeffs[0] *= 0.5
    return coeffs


def chebyshev_evolution(qho: DiscreteQHO, t: float, state: np.ndarray) -> np.ndarray:
    """U(t) = exp(-i*Hbar*t) via a Chebyshev expansion with FFT-applied Hbar.

    An eigenpair-free oracle for the exact evolution: the spectrum of Hbar
    lies in [0, rho] with rho = pi*M/2, so exp(-i*H*t) =
    exp(-i*rho*t/2) * g(Htilde) for Htilde = (2/rho)H - 1 and
    g(x) = exp(-i*(rho*t/2)*x), expanded in Chebyshev polynomials applied by
    the three-term recurrence.  The expansion stops where the remaining
    coefficients sum to 1e-16 of their total; rounding stays at the FFT level
    (~1e-14) rather than the eps*||H|| level an eigensolve would inject.
    """
    v = np.asarray(state, dtype=complex)
    rho = np.pi * qho.M / 2.0
    z = rho * t / 2.0
    if z == 0.0:
        return v.copy()
    need = int(abs(z) + 25.0 * abs(z) ** (1 / 3) + 64)
    K = 1 << int(math.ceil(math.log2(need)))
    coeffs = _chebyshev_phase_coefficients(z, K)
    tail = np.cumsum(np.abs(coeffs[::-1]))[::-1]
    cutoff = int(np.searchsorted(-tail, -1e-16 * np.abs(coeffs).sum()))
    cutoff = min(max(cutoff + 1, 2), K)

    def h_tilde(w):
        return (2.0 / rho) * apply_hamiltonian(qho, w) - w

    t_prev = v
    t_curr = h_tilde(v)
    acc = coeffs[0] * t_prev + coeffs[1] * t_curr
    for k in range(2, cutoff):
        t_next = 2.0 * h_tilde(t_curr) - t_prev
        acc += coeffs[k] * t_next
        t_prev, t_curr = t_curr, t_next
    return np.exp(-1j * z) * acc


def _check_projection(qho: DiscreteQHO, eig: EigenDecomposition, N: int) -> None:
    """Reject a projection rank N outside 1..M or an eigenbasis of another grid."""
    if eig.dim != qho.M:
        raise ValueError(f"eigenbasis has dimension {eig.dim}, grid has M={qho.M}")
    if not 1 <= N <= qho.M:
        raise ValueError(f"projection rank N={N} is outside 1..M={qho.M}")


def low_energy_error(qho: DiscreteQHO, eig: EigenDecomposition, N: int, t: float) -> float:
    """|| Pi_N (U(t) - V(t)) Pi_N || via SVD of the projected column differences.

    Both evolutions act once on the (N, M) stack of the N lowest
    eigenvectors; the matrix whose largest singular value is returned is the
    N x N block <e_m| (U - V) |e_n>, which is exactly the theorem's quantity.
    The exact side runs through the Chebyshev oracle: scalar eigenphases
    exp(-i*E_n*t) would re-inject the eigensolver's eps*||H|| noise, which at
    M ~ 1000 sits above the quantity being measured.  What remains is float64
    kernel rounding: values near 1e-13 (M = 512) carry about 1e-15 of it, and
    a change in the association of an FFT product moves them by that much.
    """
    if qho.M > LOW_ENERGY_M_CAP:
        raise ValueError(f"projected-error budget is M <= {LOW_ENERGY_M_CAP}")
    _check_projection(qho, eig, N)
    tables = evolution_tables(qho.M, decompose(t))
    low = eig.vectors[:, :N]
    rows = low.T.astype(complex)
    diff = chebyshev_evolution(qho, t, rows) - apply_tables(tables, rows)
    block = low.conj().T @ diff.T
    return float(np.linalg.svd(block, compute_uv=False)[0])


def _rates(fe: FactoredEvolution) -> list:
    """d c_k / dt for each phase factor of `fe`, in factor order.

    With r repetitions and s = t_eff/(2r), an outer momentum coefficient is
    tan(s)/2 and a position one sin(2s)/2, so their rates are
    1/(4r cos^2 s) and cos(2s)/(2r).  The middle momentum factor of the
    five-factor split carries twice the outer coefficient, hence twice its rate.
    """
    r = fe.reps
    s = fe.t_effective / (2 * r)
    outer = {"momentum": 1.0 / (4 * r * math.cos(s) ** 2),
             "position": math.cos(2 * s) / (2 * r)}
    rates = [outer[axis] for axis, _ in fe.factors]
    if r == 2:
        rates[2] *= 2
    return rates


def residual_generator_norm(qho: DiscreteQHO, eig: EigenDecomposition, N: int,
                            t: float) -> float:
    """|| Pi_N (V(t)^-1 dV/dt + i*Hbar) Pi_N || from the closed-form derivative.

    With V = F_K ... F_1 and F_k = exp(-i*c_k(t)*G_k) (G_k = xbar^2 or
    pbar^2), V^-1 dV/dt = -i sum_k c_k'(t) S_k^dagger G_k S_k, where
    S_k = F_{k-1} ... F_1 (F_k commutes with G_k) is applied from the
    evolution's own tables.  No step size enters, so the value is
    rounding-limited (~1e-15).  The closed form holds on both factorization
    branches, so the guard near |t mod 2 pi| = pi/2, where the branch
    switches, is wider than the formula needs.
    """
    if qho.M > 512:
        raise ValueError("generator-residual budget is M <= 512")
    fe = decompose(t)
    if abs(fe.t_effective) >= math.pi / 2 - 0.1:
        raise ValueError("t too close to the +-pi/2 tangent singularity")
    _check_projection(qho, eig, N)
    tables = evolution_tables(qho.M, fe)
    low = eig.vectors[:, :N]
    rows = low.T.astype(complex)
    gen = apply_hamiltonian(qho, rows)
    square = {"momentum": apply_momentum_sq, "position": apply_position_sq}
    for k, ((axis, _), rate) in enumerate(zip(fe.factors, _rates(fe))):
        before = replace(tables, steps=tables.steps[:k])
        moved = square[axis](qho, apply_tables(before, rows))
        gen -= rate * apply_tables(before, moved, adjoint=True)
    block = low.conj().T @ gen.T    # the residual is i*gen; |i| = 1
    return float(np.linalg.svd(block, compute_uv=False)[0])
