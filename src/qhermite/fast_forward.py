"""Factored evolution of the discrete oscillator and its projected-error meter.

exp(-i*Hbar*t) is approximated by three or five alternating quadratic phase
factors: exp(-i*a*pbar^2) exp(-i*b*xbar^2) exp(-i*a*pbar^2) with
a = tan(t/2)/2 and b = sin(t)/2 after reducing t into [-pi, pi]; when the
reduced time exceeds pi/2 in magnitude it is halved and the three-factor
block repeated, merging the adjacent momentum factors into five total.
The 2*pi reduction, made against an 80-bit pi, flips the sign of the state
once per full period (exp(-i*H*(t + 2*pi)) = -exp(-i*H*t) for half-integer
spectra), so the factorization carries an explicit global sign.

Both splits read the same reversed, so each is symmetric and its adjoint
is the same factors conjugated, in the same order (Yoshida, Phys. Lett. A
150, 262, 1990).  A `FactoredEvolution` therefore holds only the first
half, up to and with the middle factor: (a, b) or (alpha, beta, 2*alpha).
It is applied from `EvolutionTables`, built once per evolution and grid:
one table exp(-i*c*x_j^2) per coefficient of that half.  The raw
arguments c x_j^2 reach ~M/4, so rounding them before the reduction mod
2*pi would put an error growing with M into every factor (~1e-13 at
M ~ 1000 in float64), swamping the quantity the error meter measures.  Since
x_j^2 = j^2 (2 pi / M), a table instead reduces the turns c j^2 / M mod 1
exactly, in float64 with exact split products (see `_half_phases`), before
the one multiply by 2*pi, at every M up to 2^20.  x_j^2 is even in the
label j, so a table stores labels 0..M/2 only.

`apply_tables` is the one kernel that applies any factored evolution or its
adjoint (the same tables conjugated).  It works in the momentum frame of
`spectral_core`, w = ifft(alt*v) with alt = diag((-1)^i): a momentum factor
is the plain product P*w and a position factor is ifft(P*fft(w)).  A whole
evolution starts and ends with a momentum factor, so entering the frame
(alt, then ifft), running the factors and leaving it (fft, then alt) is the
sequence alt, ifft, P_a, fft, P_b, ifft, P_a, fft, alt: the same
operations, in the same order, as applying each momentum factor as
alt*fft(P*ifft(alt*v)) with alt taken out to the two ends, so one
`apply_tables` call pays nothing for the frame.  Products and linear
combinations of several evolutions, like the transform's dyadic filter and
uncompute sweeps, stay in the frame between evolutions: a three-factor pass
costs two FFTs there and a five-factor pass four, against four and six when
each pass enters and leaves the frame.  The FFTs run in place; every entry
into the frame copies its input first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .spectral_core import _PI_LD, _enter_frame, _from_frame, _is_int

if TYPE_CHECKING:   # annotations only: the meter imports discrete_qho when it first runs
    from .discrete_qho import DiscreteQHO, EigenDecomposition

__all__ = [
    "FactoredEvolution",
    "EvolutionTables",
    "decompose",
    "evolution_tables",
    "apply_tables",
    "low_energy_error",
    "LOW_ENERGY_M_CAP",
]

LOW_ENERGY_M_CAP = 2048   # largest grid low_energy_error accepts
_T_CAP = 2.0 ** 52        # decompose refuses |t| at or above this


@dataclass(frozen=True)
class FactoredEvolution:
    """The first half of a symmetric phase-factor split of exp(-i*Hbar*t).

    `half` holds the coefficients of alternating momentum and position
    factors, momentum first, up to and with the middle factor; the
    evolution runs them forward and then back without the middle one, so
    (a, b) is a, b, a and (alpha, beta, 2*alpha) is alpha, beta, 2*alpha,
    beta, alpha.  Any nonempty tuple stands for such a palindrome.
    """

    half: tuple             # of float, momentum first
    t_effective: float      # reduced time in [-pi, pi], rounded to float64
    global_sign: float      # +1 or -1 from the 2*pi reduction

    @property
    def reps(self) -> int:
        """1 (three factors) or 2 (five factors)."""
        return len(self.half) - 1


def decompose(t: float) -> FactoredEvolution:
    """Algorithm: reduce t mod 2*pi, then pick the 3- or 5-factor split.

    The period is subtracted in 80-bit floats, against an 80-bit pi, and
    the coefficients are taken from that 80-bit t_eff: a float64 2*pi is
    short of the period by 2.4e-16, and rounding t_eff to float64 before
    tan and sin would cost about as much, a time error that eigenstate n
    sees as a phase error E_n times it.  For |t| <= pi no period is
    subtracted, and t_eff is t itself, with float64 tan and sin.

    |t_eff| <= pi/2 uses one repetition, half = (a, b) with
    a = tan(t_eff/2)/2 and b = sin(t_eff)/2; larger |t_eff| is halved and
    squared, giving five factors, half = (alpha, beta, 2*alpha) with alpha
    and beta those of t_eff/2.  The boundary |t_eff| = pi/2 stays on the
    single-repetition branch, where tan is still finite.

    The 80-bit product 2*pi*k rounds, so near an odd multiple of pi the
    reduction can land just outside [-pi, pi] (by 8.9e-6 at
    t = 2818447464634594); k is then moved by one period, which flips
    global_sign, so |t_eff| <= pi always.  Against mpmath the reduced time
    is off by 5.7e-15 at t = 1e6, 1.1e-11 at 1e9, 2.2e-8 at 1e12, 1.8e-5 at
    1e15 and 1.3e-4 at 2^52 - 1, and by at most 1.9e-4 over 20000 times
    drawn uniformly from [1e14, 2^52); the phase exp(-i t/2) is off by half
    that.

    |t| >= 2^52 raises ValueError: float64 times there are 1 or more apart,
    so t does not fix the phase, and the 80-bit reduction's error grows
    with |t|.
    """
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    if abs(t) >= _T_CAP:
        raise ValueError(f"evolution time must satisfy |t| < 2^52, got {t}")
    k = int(np.floor(t / (2 * _PI_LD) + 0.5))
    if k:   # the reduced time stays in 80 bits through tan and sin
        t2, tan, sin = t - 2 * _PI_LD * k, np.tan, np.sin
        if abs(t2) > _PI_LD:   # 2 pi k rounded across -pi or pi: move k one period
            k, t2 = k + int(np.sign(t2)), t2 - 2 * _PI_LD * np.sign(t2)
    else:
        t2, tan, sin = t, math.tan, math.sin
    sign = -1.0 if k % 2 else 1.0
    if abs(t2) > math.pi / 2:
        alpha = float(tan(t2 / 4) / 2)
        half = (alpha, float(sin(t2 / 2) / 2), 2 * alpha)
    else:
        half = (float(tan(t2 / 2) / 2), float(sin(t2) / 2))
    return FactoredEvolution(half=half, t_effective=float(t2), global_sign=sign)


_TURN_HI = 2 * math.pi                        # float64 2*pi ...
_TURN_LO = float(2 * _PI_LD - _TURN_HI)       # ... and the 2.4e-16 it falls short by


def _split(x: float, bits: int) -> tuple:
    """x = hi + lo exactly, hi being x rounded to `bits` significant bits."""
    mant, exp = math.frexp(x)
    hi = math.ldexp(round(math.ldexp(mant, bits)), exp - bits)
    return hi, x - hi


def _half_phases(M: int, coeffs) -> np.ndarray:
    """Rows exp(-i * c * x_j^2) for labels j = 0..M/2, the turns c j^2 / M reduced exactly.

    x_j^2 = j^2 (2 pi / M), so the phase is 2 pi times the turns c j^2 / M,
    of which only the fraction matters.  With M = 2^m, j <= 2^(m-1), so j^2
    is exact in float64 with at most 2m - 2 significant bits, and c / M is
    c scaled by a power of two.  c / M is split into pieces of 55 - 2m
    significant bits (15 at M = 2^20), so each piece times j^2 is an exact
    product, and so is its distance to the nearest integer; the pieces'
    fractions are summed, reduced into [-1/2, 1/2] after each, and the
    turns are scaled by 2 pi in two float64 parts.  The argument is then
    off by a few float64 roundings of a number at most pi, at every M up to
    2^27.
    """
    j = np.arange(M // 2 + 1, dtype=np.float64)
    sq = j * j
    bits = 53 - 2 * (M // 2 - 1).bit_length()
    rows = np.empty((len(coeffs), M // 2 + 1), dtype=complex)
    for row, c in zip(rows, coeffs):
        turns = np.zeros_like(sq)
        rest = c / M
        while rest:
            piece, rest = _split(rest, bits)
            part = piece * sq
            part -= np.rint(part)
            turns += part
            turns -= np.rint(turns)
        theta = turns * _TURN_LO
        theta += turns * _TURN_HI
        np.exp(-1j * theta, out=row)
    return rows


@dataclass(frozen=True)
class EvolutionTables:
    """Half-length phase tables of one FactoredEvolution on an M-point grid.

    Row k of `halves` is exp(-i*c_k*x_j^2) for labels j = 0..M/2, c_k =
    half[k]: even rows are momentum factors and odd rows position factors,
    and the evolution reads rows 0..last..0.
    """

    M: int
    halves: np.ndarray = field(repr=False)   # len(half) rows of M/2 + 1
    global_sign: float


def evolution_tables(M: int, fe: FactoredEvolution) -> EvolutionTables:
    """Build the phase tables of `fe.half`."""
    return EvolutionTables(M=M, halves=_half_phases(M, fe.half), global_sign=fe.global_sign)


def _frame_steps(tables: EvolutionTables, w: np.ndarray, adjoint: bool,
                 out: np.ndarray) -> np.ndarray:
    """Apply the factors (or their adjoints) to a momentum-frame w; returns `out`.

    A momentum factor is w <- P*w and a position factor w <- ifft(P*fft(w)).
    A half table covers the labels 0..M/2-1 of array indices M/2.. and, read
    backwards, the labels -M/2..-1 of indices ..M/2-1.  The first factor, a
    momentum one, reads w and writes `out`, and every later one runs on
    `out` in place.  So `out=w` runs the factors on w in place, and any other
    `out` leaves w as it was at no cost for the copy.  The factors read the
    same reversed, so the adjoint runs them in the same order, each table
    conjugated into one M/2+1 scratch.  The global sign is left to the
    caller.
    """
    h = tables.M // 2
    conj = np.empty(h + 1, dtype=complex) if adjoint else None
    last = len(tables.halves) - 1
    src = w
    for k in (*range(last), *range(last, -1, -1)):
        half = np.conjugate(tables.halves[k], out=conj) if adjoint else tables.halves[k]
        if k % 2:   # a position factor, never the first, so src is out
            np.fft.fft(out, out=out)
        np.multiply(src[..., h:], half[:h], out=out[..., h:])
        np.multiply(src[..., :h], half[h:0:-1], out=out[..., :h])
        src = out
        if k % 2:
            np.fft.ifft(out, out=out)
    return out


def apply_tables(tables: EvolutionTables, state: np.ndarray,
                 adjoint: bool = False) -> np.ndarray:
    """Apply the tabulated evolution (or its adjoint) along the last axis.

    Copies `state`, then enters the momentum frame, runs the factors there
    and leaves it, each in place on the copy (`_frame_steps` with `out=w`);
    `state` is not modified.
    """
    w = np.array(state, dtype=complex)
    if w.shape[-1] != tables.M:
        raise ValueError(f"dimension mismatch: {w.shape[-1]} vs M={tables.M}")
    v = _from_frame(_frame_steps(tables, _enter_frame(w), adjoint, out=w))
    if tables.global_sign < 0:
        v *= -1.0
    return v


_INVARIANCE_TOL = 4e-9   # largest max(1, |t|) * ||r|| accepted: t^2 ||r||^2 / 2 <= 8e-18


class _RitzBlock(NamedTuple):
    """What `_ritz_block` derives from its span before t enters, read-only."""

    r: float                 # spectral norm of the residual Hbar W - W H
    W: np.ndarray            # the span's columns in longdouble
    D: np.ndarray            # the Ritz values, the diagonal of R = Q^T Ho Q
    coupling: np.ndarray     # R - diag(D)
    gap: np.ndarray          # D_m - D_n, 1 on the diagonal
    Q: np.ndarray            # the rotation that diagonalizes Ho to first order
    sqrt_g: np.ndarray       # G^(1/2) = I + S/2, the back-map
    sqrt_g_q: np.ndarray     # G^(1/2) Q


def _ritz_block(qho: DiscreteQHO, low: np.ndarray) -> _RitzBlock:
    """The time-independent part of <W| U(t) |W> for the columns W of `low`, in longdouble.

    <W| U(t) |W> is taken by Rayleigh-Ritz on the span of W (`_ritz_at`
    evaluates it at t).  H = W^T Hbar W and G = W^T W are formed in 80-bit
    floats; H is the full block of `discrete_qho._rayleigh_terms`, whose
    diagonal gives `dense_diagonalize` its refined energies.  To first
    order in S = G - I, W G^(-1/2) = W (I - S/2) is an orthonormal basis of
    the span, on which Hbar is Ho = (I - S/2) H (I - S/2).  A float64 `eigh`
    of Ho gives the rotation Q, re-orthonormalised as Q (I - (Q^T Q - I)/2)
    in 80 bits, and Q^T Ho Q = D + Delta with D its diagonal.
    exp(-i(D + Delta)t) is taken as exp(-iDt), each phase D_m t reduced mod
    2*pi in longdouble, plus the first-order term
    Delta_mn (exp(-i D_m t) - exp(-i D_n t)) / (D_m - D_n), and the block is
    mapped back through G^(1/2) = I + S/2.  All but the phases and that term
    is held here, as it does not depend on t.

    Every 80-bit product here, in `_ritz_at` and in `low_energy_error`'s
    projection, goes through np.dot, not `@`: numpy has no BLAS for
    longdouble, and on these shapes `@`'s generic loop is 2.7-2.9x slower
    than dot's, which sums in the same index order and so gives the same
    bits (the projection at M = 512 takes 0.093 ms for 0.248 at N = 8 and
    0.32 for 0.93 at N = 16).  Each chain keeps `@`'s left-to-right
    association.

    On an exactly invariant span this is exact.  Otherwise the residual
    r = Hbar W - W H (spectral norm, float64) makes an error of at most
    t^2 ||r||^2 / 2, so `_ritz_at` rejects a span with max(1, |t|) ||r|| > 4e-9
    before anything is evolved; that keeps the term below 8e-18.  The lowest
    eigenvectors of `dense_diagonalize` give ||r|| <= 6.4e-13 at M = 512 and
    3.5e-12 at M = 2048 (N <= 64), rounding of Hbar W; a random orthonormal
    basis gives tens (80 at M = 128, N = 4).
    """
    from .discrete_qho import _rayleigh_terms, _read_only, apply_hamiltonian

    resid = apply_hamiltonian(qho, low.T).real.T
    W = low.astype(np.longdouble)
    terms, weights = _rayleigh_terms(qho, W)
    H = np.dot((weights * terms).T, terms) / 2
    resid -= low @ H.astype(np.float64)
    r = float(np.linalg.norm(resid, 2))
    eye = np.eye(low.shape[1], dtype=np.longdouble)
    half_s = (np.dot(W.T, W) - eye) / 2
    Ho = np.dot(np.dot(eye - half_s, H), eye - half_s)
    Q = np.linalg.eigh(Ho.astype(np.float64))[1].astype(np.longdouble)
    Q = np.dot(Q, eye - (np.dot(Q.T, Q) - eye) / 2)
    R = np.dot(np.dot(Q.T, Ho), Q)
    D = np.diagonal(R).copy()
    gap = D[:, None] - D[None, :]
    np.fill_diagonal(gap, 1)
    return _read_only(_RitzBlock(r=r, W=W, D=D, coupling=R - np.diag(D), gap=gap, Q=Q,
                                 sqrt_g=eye + half_s, sqrt_g_q=np.dot(eye + half_s, Q)))


def _ritz_at(block: _RitzBlock, t: float) -> np.ndarray:
    """The Ritz block of `block`'s span at time t, once the span passes the invariance guard."""
    if max(1.0, abs(t)) * block.r > _INVARIANCE_TOL:
        raise ValueError(f"the {len(block.D)} columns do not span an invariant subspace of Hbar "
                         f"to the accuracy t = {t:.6g} needs: ||r|| = ||Hbar W - W (W^T Hbar W)||"
                         f" = {block.r:.3g}, and max(1, |t|) ||r|| must be <= {_INVARIANCE_TOL:g}")
    phase = np.exp(-1j * np.mod(block.D * np.longdouble(t), 2 * _PI_LD))
    B = block.coupling * (phase[:, None] - phase[None, :]) / block.gap
    B[np.diag_indices(len(phase))] = phase
    return np.dot(np.dot(np.dot(block.sqrt_g_q, B), block.Q.T), block.sqrt_g)


def low_energy_error(qho: DiscreteQHO, eig: EigenDecomposition, N: int, t: float) -> float:
    """|| Pi_N (U(t) - V(t)) Pi_N ||: the largest singular value of <e_m| (U - V) |e_n>.

    The N x N block on the N lowest eigenvectors W is exactly the theorem's
    quantity.  Its exact side <W|U(t)|W> is a Rayleigh-Ritz block on the span
    of W in 80-bit floats (`_ritz_block`), which needs no evolution on the
    grid.  Scalar eigenphases exp(-i*E_n*t) would re-inject the eigensolver's
    noise (~1e-13 at M = 512); the Ritz block takes its phases from the span
    itself, and its error is second order in the span's invariance residual
    r, t^2 ||r||^2 / 2 ~ 2e-24 at M = 512 and t = 3.  A basis that is not
    invariant (max(1, |t|) ||r|| > 4e-9) raises ValueError before V is
    applied.  The factored side is one `apply_tables` call on the N columns,
    projected on W in longdouble.

    `eig` holds each rank's `_ritz_block` (the residual norm, the Ritz values
    and rotation, and the back-map), built on the first call at that N and
    kept as long as `eig`, when its vectors are read-only, as
    `dense_diagonalize` returns them; with writable vectors every call
    builds its block.  A later call computes only the phases, the
    first-order term, the back-map products and the factored side, and
    still checks the guard first.  Its 80-bit products run through np.dot
    (see `_ritz_block`).  At M = 512 with one BLAS thread a call on a held
    block takes about 0.33, 0.87 and 0.42 ms at (N, t) = (8, 0.45),
    (16, 1.7) and (8, 3.65); building the block adds about 0.6, 1.6 and
    0.65 ms to the first call (BENCH_51.json).

    The meter's floor is the float64 rounding of the factored side and of
    the eigenvectors: the default `ff-error` grid (M = 128-512, N = 4-16,
    t = 0.25-3) reads 1.5e-16 to 1.1e-15, and the exact block agrees with
    an eigenpair-free Chebyshev evolution's <W|U|W> (a test reference) to
    within that recurrence's own rounding (5e-15 up to M = 1024).  Where the
    signal exists it stands clear of the floor, e.g. 3.103e-9 at (64, 16, 3.0).
    A non-finite t raises ValueError with the other input checks.
    """
    if qho.M > LOW_ENERGY_M_CAP:
        raise ValueError(f"projected-error budget is M <= {LOW_ENERGY_M_CAP}")
    if eig.dim != qho.M:
        raise ValueError(f"eigenbasis has dimension {eig.dim}, grid has M={qho.M}")
    if not _is_int(N) or not 1 <= N <= qho.M:
        raise ValueError(f"projection rank N={N!r} must be an integer in 1..M={qho.M}")
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    low = eig.vectors[:, :N]
    ritz = eig._ritz_blocks.get(N)
    if ritz is None:
        ritz = _ritz_block(qho, low)
        if not eig.vectors.flags.writeable:   # a block of arrays still open to writes could go stale
            eig._ritz_blocks[N] = ritz
    exact = _ritz_at(ritz, t)
    image = apply_tables(evolution_tables(qho.M, decompose(t)), low.T)
    parts = np.dot(ritz.W.T, np.concatenate([image.real, image.imag]).T)
    block = exact - (parts[:, :N] + 1j * parts[:, N:])
    return float(np.linalg.svd(block.astype(complex), compute_uv=False)[0])
