"""Discretized harmonic oscillator: operators, eigen-oracle, and commutator lab.

The position operator xbar is diagonal with entries x_j; the momentum operator
pbar = F^-1 xbar F is never materialized in the fast path (applying it costs
two centered DFTs).  Dense forms exist only under explicit size budgets as
ground-truth oracles.

The commutator laboratory measures projected nested-commutator tails
||Pi_N sum_t [A,B]_t / t! Pi_N||.  Those values cancel across tens of decimal
orders (the full-space intermediates reach ~1e50 while the projected results
sit below 1e-40 already at M=128), so a float64 dense nesting returns pure
rounding noise.  Because the nesting operator is diagonal in its own
representation, [diag(d), B]_t has the exact Hadamard form (d_j - d_k)^t B_jk,
and d_j - d_k = (2*pi/M) (J_j^2 - J_k^2) with an exact integer second factor.
The lab computes its inputs once in mpmath -- the discrete Hermite columns
(the spec'd state-form realization, exact to arbitrary precision via the
recurrence), their centered DFTs, and closed-form circulant symbols for pbar^2
and {xbar, pbar} -- and rounds each to fixed point.  That rounding is the only
one: the projected sums are then accumulated in exact Python integers, so the
cancellation costs nothing, and each term's scale is applied once when it is
converted to float64.  The projector's state form agrees with the eigenvector
form to well below the quantities measured.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral_core import (
    GridSpec,
    InvalidSpecError,
    centered_dft_matrix,
    hermite_function_rows,
)

__all__ = [
    "DiscreteQHO",
    "EigenDecomposition",
    "build",
    "apply_position_sq",
    "apply_momentum_sq",
    "apply_hamiltonian",
    "dense_momentum_sq",
    "dense_diagonalize",
    "hermite_basis",
    "commutator_tail_norm",
    "dense_tail_reference",
]

DENSE_EIG_CAP = 4096
TAIL_M_CAP = 256
TAIL_T_CAP = 40


@dataclass(frozen=True)
class DiscreteQHO:
    """Grid plus the diagonal of xbar; pbar is implicit via DFT conjugation."""

    spec: GridSpec
    x: np.ndarray = field(repr=False)
    alt: np.ndarray = field(init=False, repr=False)   # (-1)^i, the centered-DFT frame

    def __post_init__(self):
        alt = np.ones(self.spec.M)
        alt[1::2] = -1.0
        object.__setattr__(self, "alt", alt)

    @property
    def M(self) -> int:
        return self.spec.M


def build(spec: GridSpec) -> DiscreteQHO:
    if spec.M < 8:
        raise InvalidSpecError("discrete QHO needs M even and >= 8")
    return DiscreteQHO(spec=spec, x=spec.points())


def apply_position_sq(qho: DiscreteQHO, state: np.ndarray) -> np.ndarray:
    return qho.x * qho.x * np.asarray(state, dtype=complex)


def apply_momentum_sq(qho: DiscreteQHO, state: np.ndarray) -> np.ndarray:
    """pbar^2 v = F^-1 diag(x^2) F v = alt*fft(x^2*ifft(alt*v)) along the last axis.

    The centered DFT's sign (-1)^(M/2), its sqrt(M) and the inner pair of alt
    cancel in the conjugation (the identity `fast_forward.apply_tables` uses).
    """
    v = np.asarray(state, dtype=complex)
    return qho.alt * np.fft.fft(qho.x * qho.x * np.fft.ifft(qho.alt * v))


def apply_hamiltonian(qho: DiscreteQHO, state: np.ndarray) -> np.ndarray:
    """Hbar v = (xbar^2 + pbar^2) v / 2 using two DFTs per application."""
    v = np.asarray(state, dtype=complex)
    if v.shape[-1] != qho.M:
        raise ValueError(f"dimension mismatch: {v.shape[-1]} vs M={qho.M}")
    return 0.5 * (apply_position_sq(qho, v) + apply_momentum_sq(qho, v))


_PI_LD = 4 * np.arctan(np.longdouble(1))   # np.longdouble(np.pi) is float64's pi


def _p2_symbol_ld(M: int) -> np.ndarray:
    """Circulant symbol of pbar^2 in 80-bit floats: (pbar^2)_{jk} = c[(k-j) mod M].

    c_0 = (2*pi/M^2) * sum l^2 over the signed label range; for d != 0 the
    closed form is c_d = (pi/M) (-1)^d / sin^2(pi d / M).  Extended precision
    keeps the dense oracle within one float64 ulp of the operator the FFT
    fast path realizes, which the projected-error meter depends on.  Only
    d <= M/2 is evaluated and mirrored, c[M - d] = c[d], as `_mp_p2_symbol`
    does: near d = M the argument error of sin(pi d/M) is amplified ~M/pi-fold.
    """
    pi = _PI_LD
    Ml = np.longdouble(M)
    c = np.empty(M, dtype=np.longdouble)
    half = M // 2
    c[0] = 2.0 * pi / Ml**2 * (np.longdouble((half - 1) * half * (M - 1)) / 3.0
                               + np.longdouble(half) * half)
    d = np.arange(1, half + 1)
    c[1:half + 1] = (pi / Ml) * (-1.0) ** d / np.sin(pi * d.astype(np.longdouble) / Ml) ** 2
    c[half + 1:] = c[half - 1:0:-1]
    return c


def _p2_symbol(M: int) -> np.ndarray:
    return _p2_symbol_ld(M).astype(np.float64)


def dense_momentum_sq(spec: GridSpec) -> np.ndarray:
    """Dense pbar^2 from the circulant symbol (oracle; M <= 4096)."""
    if spec.M > DENSE_EIG_CAP:
        raise ValueError(f"dense budget exceeded: M={spec.M}")
    c = _p2_symbol(spec.M)
    j = np.arange(spec.M)
    return c[(j[None, :] - j[:, None]) % spec.M]


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of Hbar."""

    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)  # column n is |e_n>

    @property
    def dim(self) -> int:
        return len(self.energies)


def _sector_blocks(M: int) -> tuple:
    """Hbar restricted to the even and the odd sector of the reflection l -> -l (mod M).

    Hbar = (xbar^2 + C)/2 with C_{lk} = c[(k - l) mod M] commutes with the
    reflection.  The even sector has the orthonormal basis |0>, |-M/2> (labels
    that are their own mirror) and (|a> + |-a>)/sqrt(2), a = 1..M/2-1; the
    odd sector has (|a> - |-a>)/sqrt(2), a = 1..M/2-1.  In these bases
        even[a, b] = w_a w_b (c[a-b] + c[a+b]) / 2 + delta_ab pi a^2 / M,
        odd[a, b]  = (c[a-b] - c[a+b]) / 2 + delta_ab pi a^2 / M,
    with w = 1/sqrt(2) at a = 0 and a = M/2 and w = 1 otherwise.  Returns the
    (M/2+1, M/2+1) even and (M/2-1, M/2-1) odd blocks.
    """
    half = M // 2
    c = _p2_symbol(M)
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


def _rayleigh_terms(qho: DiscreteQHO, W: np.ndarray) -> tuple:
    """Terms T and weights g of a real (M, k) longdouble block W: W^T Hbar W = (g*T)^T T / 2.

    In the frame of the FFT kernel, pbar^2 = F^-1 xbar^2 F, so with
    u = ifft(alt*w) a quotient is w^T Hbar w' = (sum_i x_i^2 w_i w'_i
    + M sum_i x_i^2 conj(u_i) u'_i) / 2.  W is real, so u is Hermitian (u at
    index k and M - k are conjugates, and so is x^2's weight there): the
    second sum is the real part of a sum over k = 0..M/2 only, taken from
    v = rfft(alt*w) = M conj(u) with weights x^2/M, doubled except at k = 0
    and M/2.  T stacks W, Re v and Im v, (2M + 2, k), and g the matching
    (2M + 2, 1) column of non-negative weights, all in 80-bit floats.
    """
    M = qho.M
    v = np.fft.rfft(qho.alt[:, None] * W, axis=0)
    x2 = np.arange(-M // 2, M // 2, dtype=np.longdouble) ** 2 * (2 * _PI_LD / M)
    half = x2[:M // 2 + 1] * (2 / np.longdouble(M))
    half[[0, -1]] /= 2
    return np.concatenate([W, v.real, v.imag]), np.concatenate([x2, half, half])[:, None]


def dense_diagonalize(qho: DiscreteQHO) -> EigenDecomposition:
    """Ground-truth eigendecomposition of Hbar (M <= 4096), solved per parity sector.

    Hbar commutes with the grid reflection l -> -l (mod M), so one `eigh` of
    the (M/2+1)-dimensional even block and one of the (M/2-1)-dimensional odd
    block (see `_sector_blocks`, built from the circulant symbol of pbar^2; no
    M x M Hamiltonian is formed) give the whole spectrum.  Each sector vector
    is scattered back to the grid, so every column is exactly parity-definite:
    v[-l] = v[l] or v[-l] = -v[l] bit for bit.  The energies of both sectors
    are merged by a stable sort (even first on a tie).  Sign rule: each
    column's largest-magnitude entry at a label >= 0 is positive, the first
    such label on a tie.

    LAPACK returns the eigenvalues with absolute error ~eps*||H||, which at
    M=1024 already exceeds the true distance to n + 1/2 (and would dominate
    every projected-error meter).  The lowest 64 are therefore recomputed in
    80-bit floats as Rayleigh quotients, the diagonal of `_rayleigh_terms`'s
    block over diag(W^T W): sums of non-negative terms, so rounding stays
    relative to E.
    """
    M = qho.M
    if M > DENSE_EIG_CAP:
        raise ValueError(f"dense budget exceeded: M={M}")
    half = M // 2
    even, odd = _sector_blocks(M)
    e_even, y_even = np.linalg.eigh(even)
    e_odd, y_odd = np.linalg.eigh(odd)
    # the grid entries: y_even[:half] at labels 0..M/2-1 and y_even[half] at -M/2;
    # y_odd at labels 1..M/2-1
    y_even[1:half] *= np.sqrt(0.5)
    y_odd *= np.sqrt(0.5)
    for y, signed in ((y_even, y_even[:half]), (y_odd, y_odd)):
        lead = signed[np.abs(signed).argmax(axis=0), np.arange(y.shape[1])]
        y[:, lead < 0] *= -1.0
    energies = np.concatenate([e_even, e_odd])
    order = np.argsort(energies, kind="stable")
    column = np.empty(M, dtype=np.intp)   # sector eigenvector i becomes column[i]
    column[order] = np.arange(M)
    ce, co = column[:half + 1], column[half + 1:]
    vectors = np.zeros((M, M))
    vectors[half:, ce] = y_even[:half]
    vectors[half - 1:0:-1, ce] = y_even[1:half]
    vectors[0, ce] = y_even[half]
    vectors[half + 1:, co] = y_odd
    vectors[half - 1:0:-1, co] = -y_odd
    energies = energies[order]
    W = vectors[:, :min(64, M)].astype(np.longdouble)
    terms, weights = _rayleigh_terms(qho, W)
    energies[:W.shape[1]] = (weights * terms * terms).sum(axis=0) / (2 * (W * W).sum(axis=0))
    return EigenDecomposition(energies=energies, vectors=vectors)


def hermite_basis(spec: GridSpec, n_max: int) -> np.ndarray:
    """The (n_max+1, M) rows |psibar_n> = (2*pi/M)^(1/4) sum_j psi_n(x_j)|j>, not re-normalized."""
    if n_max >= spec.M:
        raise ValueError(f"n_max={n_max} must be < M={spec.M}")
    return hermite_function_rows(n_max, spec.points()) * np.sqrt(spec.h)


# ---------------------------------------------------------------------------
# Commutator tail lab: mpmath inputs, exact integer accumulation
# ---------------------------------------------------------------------------

TAIL_FAMILIES = ("x2_p2", "p2_x2", "p2_anti")


@dataclass(frozen=True)
class TailReport:
    family: str
    M: int
    N: int
    t_max: int
    tail_norm: float
    term_norms: dict          # t -> spectral norm of the projected t-th term
    dps: int
    error_bar: float = 0.0    # ||tail(P + 64 bits) - tail(P bits)||, see commutator_tail_norm


def _mp_hermite_columns(M: int, N: int):
    """Normalized discrete Hermite states at current mp precision."""
    import mpmath as mp

    h = mp.sqrt(2 * mp.pi / M)
    sqh = mp.sqrt(h)
    xs = [j * h for j in range(-M // 2, M // 2)]
    quarter = mp.power(mp.pi, mp.mpf(-1) / 4)
    rows = [[quarter * mp.e ** (-x * x / 2) * sqh for x in xs]]
    if N >= 2:
        rows.append([mp.sqrt(2) * x * v for x, v in zip(xs, rows[0])])
    for n in range(1, N - 1):
        c1, c2 = mp.sqrt(mp.mpf(2) / (n + 1)), mp.sqrt(mp.mpf(n) / (n + 1))
        rows.append([c1 * x * a - c2 * b for x, a, b in zip(xs, rows[n], rows[n - 1])])
    out = []
    for r in rows[:N]:
        nrm = mp.sqrt(mp.fsum(v * v for v in r))
        out.append([v / nrm for v in r])
    return out


def _mp_p2_symbol(M: int):
    """Symbol of pbar^2, c[d] = c[M - d]; only d <= M/2 is evaluated."""
    import mpmath as mp

    c = [mp.mpf(0)] * M
    half = M // 2
    c[0] = 2 * mp.pi / M**2 * (mp.mpf((half - 1) * half * (M - 1)) / 3 + half * half)
    for d in range(1, half + 1):
        c[d] = c[M - d] = (mp.pi / M) * (-1) ** d / mp.sin(mp.pi * mp.mpf(d) / M) ** 2
    return c


def _mp_p1_symbol(M: int):
    """Symbol of F xbar F^-1: entries c1[(j-k) mod M], c1[M - d] = conj(c1[d])."""
    import mpmath as mp

    h = mp.sqrt(2 * mp.pi / M)
    c = [mp.mpc(-h / 2)] + [mp.mpc(0)] * (M - 1)
    for d in range(1, M // 2 + 1):
        w = mp.e ** (2 * mp.pi * mp.mpc(0, 1) * d / M)
        c[d] = h * ((-1) ** d) / (w - 1)
        c[M - d] = mp.conj(c[d])
    return c


def _tail_dps(M: int, t_max: int) -> int:
    """Working precision: intermediate magnitude plus the value's own scale.

    The largest surviving contribution behaves like d^t/t! damped by the
    Gaussian weight exp(-d/2); the projected result itself shrinks roughly
    like exp(-c*M), so the digit budget grows linearly in M.
    """
    return 60 + int(0.55 * M) + max(0, 2 * (t_max - 30))


_TAIL_GUARD_BITS = 16   # fixed-point bits beyond the decimal working precision
_TAIL_CHECK_BITS = 64   # extra bits of the second pass that sets error_bar


def _fixed(values, bits: int):
    """Round mp reals or complexes to fixed point at 2^-bits: (re, im) object arrays."""
    import mpmath as mp

    re = [int(mp.nint(mp.ldexp(mp.re(v), bits))) for v in values]
    im = [int(mp.nint(mp.ldexp(mp.im(v), bits))) for v in values]
    return np.array(re, dtype=object), np.array(im, dtype=object)


def _shift(pair, bits: int):
    """Re-round a fixed-point (re, im) pair to `bits` fewer fractional bits.

    Ties round away from zero, so negation (and conjugation) commutes with it.
    """
    if not bits:
        return pair
    half = 1 << (bits - 1)
    return tuple(np.array([(v + half) >> bits if v >= 0 else -((half - v) >> bits) for v in part],
                          dtype=object) for part in pair)


def _fixed_dft_columns(cols, M: int, bits: int):
    """Centered DFT of the mp columns, rounded to fixed point at 2^-bits.

    The products run in exact integers against a root-of-unity table held
    _TAIL_GUARD_BITS finer; only the M outputs per column are rounded, once.
    """
    import mpmath as mp

    fine = bits + _TAIL_GUARD_BITS
    labels = np.arange(M) - M // 2
    idx = np.outer(labels, labels) % M        # [output label, input label]
    rr, ri = (part[idx] for part in _fixed([mp.expjpi(mp.mpf(2 * r) / M) for r in range(M)], fine))
    scale = mp.ldexp(1 / mp.sqrt(M), -2 * fine)
    out = []
    for col in cols:
        c = _fixed(col, fine)[0]
        sums = zip((rr * c).sum(axis=1), (ri * c).sum(axis=1))
        out.append(_fixed([mp.mpc(int(re), int(im)) * scale for re, im in sums], bits))
    return out


def _fold(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum the entries of labels J and -J along `axis`; index m = |J|, 0..M/2."""
    a = np.moveaxis(a, axis, -1)
    half = a.shape[-1] // 2
    out = a[..., half::-1].copy()             # J = 0, -1, ..., -M/2
    out[..., 1:half] += a[..., half + 1:]     # J = 1, ..., M/2 - 1
    return np.moveaxis(out, -1, axis)


def _power_sums(H: np.ndarray, t0: int, t_max: int) -> list:
    """sum_{n,m} (n^2 - m^2)^t H[n, m] for t = t0..t_max, exactly.

    The weight is antisymmetric in (n, m) and zero on the diagonal, so only
    n < m is visited: with H + H^T for even t and H - H^T for odd t.  A parity
    that is all zero (real data gives one) is skipped.
    """
    n, m = np.triu_indices(H.shape[0], 1)
    d = (n * n - m * m).astype(object)
    upper, lower = H[n, m], H[m, n]
    parity = (upper + lower, upper - lower)   # even t, odd t
    cur = [parity[t % 2] * d**t if any(parity[t % 2]) else None for t in (t0, t0 + 1)]
    d2 = d * d
    sums = []
    for i in range(t_max - t0 + 1):
        c = cur[i % 2]
        if c is not None and i >= 2:
            c *= d2
        sums.append(0 if c is None else int(c.sum()))
    return sums


def _integer_tail_sums(u, g, anti: bool, t0: int, t_max: int):
    """Exact S_t[a, b] = sum_jk conj(u_a[j]) W[j, k] (J_j^2 - J_k^2)^t u_b[k].

    u is a list of N fixed-point columns and g the fixed-point symbol, both
    (re, im) pairs of integer object arrays; W[j, k] = g[(j - k) mod M],
    times the exact integer J_j + J_k when `anti`.  g[M - d] = conj(g[d]), so
    W is Hermitian and S_t[b, a] = (-1)^t conj(S_t[a, b]): only a <= b is
    summed.  Returns {t: (re, im)} of N x N integer arrays, scaled by the
    product of the three inputs' scales.
    """
    M = len(g[0])
    labels = np.arange(M)
    idx = (labels[:, None] - labels[None, :]) % M
    wr, wi = g[0][idx], g[1][idx]
    if anti:
        jsum = (labels[:, None] + labels[None, :] - M).astype(object)
        wr, wi = wr * jsum, wi * jsum
    N = len(u)
    S = {t: (np.zeros((N, N), dtype=object), np.zeros((N, N), dtype=object))
         for t in range(t0, t_max + 1)}
    for b, (ur, ui) in enumerate(u):
        # G_b[j, m]: W u_b with the columns of labels k and -k summed (m = |J_k|)
        gr, gi = _fold(wr * ur - wi * ui, 1), _fold(wr * ui + wi * ur, 1)
        for a, (ar, ai) in enumerate(u[:b + 1]):
            # H[n, m] = sum over |J_j| = n of conj(u_a[j]) G_b[j, m]
            hr = _fold(ar[:, None] * gr + ai[:, None] * gi, 0)
            hi = _fold(ar[:, None] * gi - ai[:, None] * gr, 0)
            for t, re, im in zip(S, _power_sums(hr, t0, t_max), _power_sums(hi, t0, t_max)):
                sign = -1 if t % 2 else 1
                S[t][0][a, b], S[t][1][a, b] = re, im
                S[t][0][b, a], S[t][1][b, a] = sign * re, -sign * im
    return S


def commutator_tail_norm(qho: DiscreteQHO, N: int, t_max: int,
                         family: str = "x2_p2", dps: int | None = None,
                         c1: float = 1.0, c2: float = 1.0) -> TailReport:
    """|| Pi_N sum_t [c1*A, c2*B]_t / t! Pi_N || for the three operator families.

    family "x2_p2":  A = xbar^2, B = pbar^2,        sum from t = 3
    family "p2_x2":  A = pbar^2, B = xbar^2,        sum from t = 3
    family "p2_anti": A = pbar^2, B = {xbar, pbar}, sum from t = 2

    The tail bound is stated for any constants with |c1|, |c2| <= 1; they
    enter exactly as [c1*A, c2*B]_t = c1^t c2 [A, B]_t.  Evaluated in the
    representation where A is diagonal, where the t-fold nesting is the exact
    entrywise factor (d_j - d_k)^t = (2 pi c1 / M)^t (J_j^2 - J_k^2)^t.  The
    columns and symbols are computed in mpmath and rounded once to fixed
    point at P = ceil(dps log2 10) + 16 bits; the projected sums of
    (J_j^2 - J_k^2)^t times those integers are exact, and the scale
    c2 (2 pi c1 / M)^t / t! is applied once per t when converting to
    float64.  The integer pass runs at P and at P + 64 bits; the second gives
    `tail_norm` and `term_norms`, and the spectral norm of the difference of
    the two projected tails is `error_bar`.
    """
    import mpmath as mp

    M = qho.M
    if M > TAIL_M_CAP:
        raise ValueError(f"tail budget exceeded: M={M} > {TAIL_M_CAP}")
    if t_max > TAIL_T_CAP:
        raise ValueError(f"tail budget exceeded: t_max={t_max} > {TAIL_T_CAP}")
    if family not in TAIL_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if max(abs(c1), abs(c2)) > 1.0:
        raise ValueError("coefficient constants must satisfy |c1|, |c2| <= 1")
    t0 = 2 if family == "p2_anti" else 3
    if t_max < t0:
        return TailReport(family, M, N, t_max, 0.0, {}, 0)

    used_dps = _tail_dps(M, t_max) if dps is None else dps
    bits = math.ceil(used_dps * math.log2(10)) + _TAIL_GUARD_BITS
    fine = bits + _TAIL_CHECK_BITS
    with mp.workprec(fine + _TAIL_GUARD_BITS):
        cols = _mp_hermite_columns(M, N)
        if family == "x2_p2":
            u = [_fixed(c, fine) for c in cols]
        else:
            u = _fixed_dft_columns(cols, M, fine)
        if family == "p2_anti":
            h = mp.sqrt(2 * mp.pi / M)
            g = _fixed([h * s for s in _mp_p1_symbol(M)], fine)
        else:
            g = _fixed(_mp_p2_symbol(M), fine)
        tails, terms = [], {}
        for drop in (_TAIL_CHECK_BITS, 0):
            S = _integer_tail_sums([_shift(c, drop) for c in u], _shift(g, drop),
                                   family == "p2_anti", t0, t_max)
            terms = {t: _scaled(S[t], t, M, c1, c2, 3 * (fine - drop)) for t in S}
            tails.append(sum(terms.values(), mp.zeros(N)))
        error_bar = _spectral_norm(tails[1] - tails[0])
    term_norms = {t: _spectral_norm(T) for t, T in terms.items()}
    return TailReport(family, M, N, t_max, _spectral_norm(tails[1]), term_norms, used_dps,
                      error_bar=error_bar)


def _scaled(S_t, t: int, M: int, c1: float, c2: float, bits: int):
    """The projected t-th term c2 (2 pi c1 / M)^t / t! 2^-bits S_t, as an mp matrix."""
    import mpmath as mp

    scale = mp.mpf(c2) * (2 * mp.pi * mp.mpf(c1) / M) ** t / mp.factorial(t) * mp.ldexp(1, -bits)
    re, im = S_t
    return mp.matrix([[mp.mpc(int(r), int(i)) * scale for r, i in zip(rr, ii)]
                      for rr, ii in zip(re, im)])


def _spectral_norm(a) -> float:
    return float(np.linalg.svd(np.array(a.tolist(), dtype=complex), compute_uv=False)[0])


def dense_tail_reference(qho: DiscreteQHO, N: int, t_max: int,
                         family: str = "x2_p2") -> float:
    """Float64 dense reference for the projected tail, small scales only.

    Iterative nesting with the 1/t rescaling folded into each step.  Valid
    only while the unprojected intermediates stay small enough for float64
    (roughly M <= 32 with t_max <= 8); the production path is the
    exact-integer Hadamard evaluation above.
    """
    M = qho.M
    if M > 64:
        raise ValueError("dense reference only supported for M <= 64")
    t0 = 2 if family == "p2_anti" else 3
    x2 = np.diag(qho.x * qho.x).astype(complex)
    P2 = dense_momentum_sq(qho.spec).astype(complex)
    F = centered_dft_matrix(M)
    pbar = F.conj().T @ np.diag(qho.x).astype(complex) @ F
    anti = np.diag(qho.x) @ pbar + pbar @ np.diag(qho.x)
    if family == "x2_p2":
        A, B = x2, P2
    elif family == "p2_x2":
        A, B = P2, x2
    else:
        A, B = P2, anti
    rows = hermite_basis(qho.spec, N - 1)
    U = (rows.T / np.linalg.norm(rows, axis=1)).astype(complex)
    # R_t = [A,B]_t / t!, built by R_t = [A, R_{t-1}] / t
    R = B.copy()
    tail = np.zeros((N, N), dtype=complex)
    comp = np.zeros_like(tail)
    for t in range(1, t_max + 1):
        R = (A @ R - R @ A) / t
        if t < t0:
            continue
        term = U.conj().T @ R @ U
        y = term - comp
        s = tail + y
        comp = (s - tail) - y
        tail = s
    return float(np.linalg.svd(tail, compute_uv=False)[0])
