"""Factored evolution of the discrete oscillator and its projected-error meter.

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
spurious error into every factor, swamping the quantity the error meter
measures.  x_j^2 is even in the label j, so a table stores labels 0..M/2 only.

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
the frame.  Products and linear combinations of several evolutions, like
the transform's dyadic filter and uncompute sweeps, stay in the frame
between evolutions: a three-factor pass costs two FFTs there and a
five-factor pass four, against four and six when each pass enters and
leaves the frame.  The FFTs run in place; every entry into the frame copies
its input first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discrete_qho import (
    _PI_LD,
    DiscreteQHO,
    EigenDecomposition,
    _rayleigh_terms,
    apply_hamiltonian,
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
    twopi = 2 * _PI_LD
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
    w = np.array(state, dtype=complex)
    if w.shape[-1] != tables.M:
        raise ValueError(f"dimension mismatch: {w.shape[-1]} vs M={tables.M}")
    v = _from_frame(_frame_steps(tables, _enter_frame(w), adjoint))
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


_TAIL_SHARE = 1e-16          # dropped coefficients sum to at most this share of all
_CHEBYSHEV_Z_CAP = 2**20     # largest |z| = pi*M*|t|/4, about one recurrence step each
_BESSEL_RESCALE = np.longdouble(2) ** 4000   # keeps the backward recurrence finite


def _bessel_coefficients(z) -> tuple:
    """Chebyshev coefficients of exp(-i*z*x) on [-1, 1], truncated; (Re c_k, Im c_k).

    Jacobi-Anger: c_0 = J_0(z) and c_k = 2(-i)^k J_k(z), so even k carry only
    a real part and odd k only an imaginary one; J_k(-z) = (-1)^k J_k(z)
    makes the coefficients at -|z| the conjugates of those at |z|.  J_k(|z|)
    comes from Miller's backward recurrence J_{k-1} = (2k/|z|) J_k - J_{k+1}
    in longdouble, started well past the last coefficient kept (where J_k is
    below 1e-50 of its peak), rescaled when it grows past 2^4000 and
    normalized by J_0 + 2 sum_k J_2k = 1.  The series stops at the first K
    whose remaining coefficients sum to 1e-16 of the total; both arrays have
    length K >= 1.
    """
    x = abs(np.longdouble(z))
    top = int(x + 25.0 * float(x) ** (1 / 3) + 64)
    two_over_x = 2 / x
    prev, cur = np.longdouble(0), np.longdouble(1)
    j = np.zeros(top + 1, dtype=np.longdouble)
    j[top] = cur
    for k in range(top, 0, -1):
        prev, cur = cur, k * two_over_x * cur - prev
        if abs(cur) > _BESSEL_RESCALE:
            j[k:] /= _BESSEL_RESCALE
            prev, cur = prev / _BESSEL_RESCALE, cur / _BESSEL_RESCALE
        j[k - 1] = cur
    j /= j[0] + 2 * j[2::2].sum()
    c = 2 * j
    c[0] = j[0]
    tail = np.cumsum(np.abs(c[::-1]))[::-1]
    K = max(int(np.searchsorted(-tail, -_TAIL_SHARE * tail[0])), 1)
    quarter = np.arange(K) % 4      # (-i)^k = 1, -i, -1, i
    re = c[:K] * np.array([1, 0, -1, 0])[quarter]
    im = c[:K] * np.array([0, -1, 0, 1])[quarter]
    return re, (im if z > 0 else -im)


def chebyshev_evolution(qho: DiscreteQHO, t: float, state: np.ndarray) -> np.ndarray:
    """U(t) = exp(-i*Hbar*t) along the last axis by a Chebyshev expansion.

    An eigenpair-free oracle for the exact evolution of any state on the
    grid (Tal-Ezer and Kosloff's propagator).  No meter runs it: the tests
    hold `low_energy_error`'s Rayleigh-Ritz block against it, and it is the
    evolution an exact-evolution twin of the transform would apply, whose
    states do not lie in a low-energy span.  The spectrum of Hbar lies in
    [0, rho] with rho = pi*M/2, so exp(-i*H*t) = exp(-i*z) * exp(-i*z*Htilde)
    for Htilde = (2/rho)H - 1 and z = rho*t/2, and
    exp(-i*z*x) = sum_k c_k T_k(x) with the closed-form coefficients of
    `_bessel_coefficients`.  With x_j^2 = 2*pi*j^2/M, pi
    cancels from Htilde: its diagonal is 4j^2/M^2 - 1 and its momentum symbol
    4j^2/M^2, each rounded once, so the recurrence applies the grid
    Hamiltonian to within an ulp per entry; z is formed and reduced mod 2*pi
    in longdouble, as the phase tables' arguments are.  The expansion keeps
    about |z| + 10|z|^(1/3) terms (241, 775 and 1584 at |z| = 181, 684, 1468).

    Htilde is real symmetric, so the three-term recurrence
    T_k = 2*Htilde*T_{k-1} - T_{k-2} runs on real rows; a complex state is
    stacked as its real rows over its imaginary rows.  It runs in the alt
    frame y = alt*v, where pbar^2 y is irfft(x^2[:M/2+1] * rfft(y)), so a
    step is one rfft/irfft pair and six in-place ufuncs on preallocated
    buffers, with the factor 2/rho folded into the diagonal and the symbol
    once.  The real coefficients (even k) and the imaginary ones (odd k)
    accumulate into two real arrays.  What remains is the recurrence's
    float64 rounding: against the same recurrence in longdouble it reads
    2e-15 on the lowest 8 states at M = 64-128 and 5e-15 at M = 512 (t = 3).
    Each row of a stack is evolved on its own, and real rows give bitwise the
    values of the same rows with a zero imaginary part.
    """
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    v = np.asarray(state)
    M = qho.M
    if v.shape[-1] != M:
        raise ValueError(f"dimension mismatch: {v.shape[-1]} vs M={M}")
    z = _PI_LD * M * np.longdouble(t) / 4
    if abs(z) > _CHEBYSHEV_Z_CAP:
        raise ValueError(f"Chebyshev budget is pi*M*|t|/4 <= {_CHEBYSHEV_Z_CAP}, "
                         f"got {float(abs(z)):.4g}")
    if z == 0:
        return v.astype(complex)
    re, im = (c.astype(np.float64) for c in _bessel_coefficients(z))
    rows = v.reshape(-1, M)
    n = len(rows)
    stacked = np.iscomplexobj(rows)
    y = np.empty((2 * n if stacked else n, M))
    np.multiply(rows.real, qho.alt, out=y[:n])
    if stacked:
        np.multiply(rows.imag, qho.alt, out=y[n:])
    j2 = (np.arange(M) - M // 2) ** 2
    diag2 = (8 * j2 - 2 * M * M) / (M * M)      # 2*Htilde's diagonal, 8j^2/M^2 - 2
    symbol2 = 8 * j2[:M // 2 + 1] / (M * M)     # 2*pbar^2/rho on frequencies 0..M/2
    spec = np.empty((len(y), M // 2 + 1), dtype=complex)
    scratch = np.empty_like(y)

    def doubled_momentum(src):
        np.fft.rfft(src, out=spec)
        np.multiply(spec, symbol2, out=spec)
        return np.fft.irfft(spec, n=M, out=scratch)

    even = re[0] * y                # sum over even k of Re(c_k) T_k
    odd = np.zeros_like(y)          # sum over odd k of Im(c_k) T_k

    def gather(k, T):
        acc, c = (odd, im[k]) if k % 2 else (even, re[k])
        np.multiply(T, c, out=scratch)
        acc += scratch

    prev, cur = y, np.empty_like(y)
    if len(re) > 1:                 # T_1 = Htilde*T_0, half the doubled operator exactly
        np.multiply(y, diag2, out=cur)
        cur += doubled_momentum(y)
        cur *= 0.5
        gather(1, cur)
    for k in range(2, len(re)):     # T_k = 2*Htilde*T_{k-1} - T_{k-2}, over T_{k-2}
        np.subtract(doubled_momentum(cur), prev, out=prev)
        np.multiply(cur, diag2, out=scratch)
        prev += scratch
        prev, cur = cur, prev
        gather(k, cur)
    if stacked:
        real = even[:n] - odd[n:]
        imag = odd[:n] + even[n:]
    else:
        real, imag = even, odd
    out = np.empty(rows.shape, dtype=complex)
    out.real, out.imag = real, imag
    out *= np.exp(-1j * float(np.mod(z, 2 * _PI_LD))) * qho.alt
    return out.reshape(v.shape)


_INVARIANCE_TOL = 4e-9   # largest max(1, |t|) * ||r|| accepted: t^2 ||r||^2 / 2 <= 8e-18


def _ritz_evolution(qho: DiscreteQHO, low: np.ndarray, t: float) -> np.ndarray:
    """<W| U(t) |W> for the columns W of `low`, by Rayleigh-Ritz on their span, in longdouble.

    H = W^T Hbar W and G = W^T W are formed in 80-bit floats; H is the full
    block of `discrete_qho._rayleigh_terms`, whose diagonal gives
    `dense_diagonalize` its refined energies.  To first order in S = G - I,
    W G^(-1/2) = W (I - S/2) is an orthonormal basis of the span, on which
    Hbar is Ho = (I - S/2) H (I - S/2).  A float64 `eigh` of Ho gives the
    rotation Q, re-orthonormalised as Q (I - (Q^T Q - I)/2) in 80 bits, and
    Q^T Ho Q = D + Delta with D its diagonal.  exp(-i(D + Delta)t) is taken
    as exp(-iDt), each phase D_m t reduced mod 2*pi in longdouble, plus the
    first-order term Delta_mn (exp(-i D_m t) - exp(-i D_n t)) / (D_m - D_n),
    and the block is mapped back through G^(1/2) = I + S/2.

    On an exactly invariant span this is exact.  Otherwise the residual
    r = Hbar W - W H (spectral norm, float64) makes an error of at most
    t^2 ||r||^2 / 2, so a span with max(1, |t|) ||r|| > 4e-9 is rejected
    before anything is evolved; that keeps the term below 8e-18.  The lowest
    eigenvectors of `dense_diagonalize` give ||r|| <= 6.4e-13 at M = 512 and
    3.5e-12 at M = 2048 (N <= 64), rounding of Hbar W; a random orthonormal
    basis gives tens (80 at M = 128, N = 4).
    """
    N = low.shape[1]
    resid = apply_hamiltonian(qho, low.T).real.T
    W = low.astype(np.longdouble)
    terms, weights = _rayleigh_terms(qho, W)
    H = (weights * terms).T @ terms / 2
    resid -= low @ H.astype(np.float64)
    r = float(np.linalg.norm(resid, 2))
    if max(1.0, abs(t)) * r > _INVARIANCE_TOL:
        raise ValueError(f"the {N} columns do not span an invariant subspace of Hbar to the "
                         f"accuracy t = {t:.6g} needs: ||r|| = ||Hbar W - W (W^T Hbar W)|| = "
                         f"{r:.3g}, and max(1, |t|) ||r|| must be <= {_INVARIANCE_TOL:g}")
    eye = np.eye(N, dtype=np.longdouble)
    half_s = (W.T @ W - eye) / 2
    Ho = (eye - half_s) @ H @ (eye - half_s)
    Q = np.linalg.eigh(Ho.astype(np.float64))[1].astype(np.longdouble)
    Q = Q @ (eye - (Q.T @ Q - eye) / 2)
    R = Q.T @ Ho @ Q
    D = np.diagonal(R).copy()
    phase = np.exp(-1j * np.mod(D * np.longdouble(t), 2 * _PI_LD))
    gap = D[:, None] - D[None, :]
    np.fill_diagonal(gap, 1)
    B = (R - np.diag(D)) * (phase[:, None] - phase[None, :]) / gap
    B[np.diag_indices(N)] = phase
    return (eye + half_s) @ Q @ B @ Q.T @ (eye + half_s)


def low_energy_error(qho: DiscreteQHO, eig: EigenDecomposition, N: int, t: float) -> float:
    """|| Pi_N (U(t) - V(t)) Pi_N ||: the largest singular value of <e_m| (U - V) |e_n>.

    The N x N block on the N lowest eigenvectors W is exactly the theorem's
    quantity.  Its exact side <W|U(t)|W> is `_ritz_evolution`: a Rayleigh-Ritz
    block on the span of W in 80-bit floats, which needs no evolution on the
    grid.  Scalar eigenphases exp(-i*E_n*t) would re-inject the eigensolver's
    noise (~1e-13 at M = 512); the Ritz block takes its phases from the span
    itself, and its error is second order in the span's invariance residual
    r, t^2 ||r||^2 / 2 ~ 2e-24 at M = 512 and t = 3.  A basis that is not
    invariant (max(1, |t|) ||r|| > 4e-9) raises ValueError before V is
    applied.  The factored side is one `apply_tables` call on the N columns,
    projected on W in longdouble.  At M = 512 with one BLAS thread a call takes about
    2-3, 5-7 and 2-3 ms at (N, t) = (8, 0.45), (16, 1.7) and (8, 3.65).

    The meter's floor is the float64 rounding of the factored side and of
    the eigenvectors: the default `ff-error` grid (M = 128-512, N = 4-16,
    t = 0.25-3) reads 1.5e-16 to 1.1e-15, and the exact block agrees with
    `chebyshev_evolution`'s <W|U|W> to within that recurrence's own rounding
    (5e-15 up to M = 1024).  Where the signal exists it stands clear of the
    floor, e.g. 3.103e-9 at (64, 16, 3.0).
    """
    if qho.M > LOW_ENERGY_M_CAP:
        raise ValueError(f"projected-error budget is M <= {LOW_ENERGY_M_CAP}")
    if eig.dim != qho.M:
        raise ValueError(f"eigenbasis has dimension {eig.dim}, grid has M={qho.M}")
    if not 1 <= N <= qho.M:
        raise ValueError(f"projection rank N={N} is outside 1..M={qho.M}")
    low = eig.vectors[:, :N]
    exact = _ritz_evolution(qho, low, t)
    image = apply_tables(evolution_tables(qho.M, decompose(t)), low.T)
    parts = low.T.astype(np.longdouble) @ np.concatenate([image.real, image.imag]).T
    block = exact - (parts[:, :N] + 1j * parts[:, N:])
    return float(np.linalg.svd(block.astype(complex), compute_uv=False)[0])
