"""Discretized harmonic oscillator: operators, eigen-oracle, and commutator lab.

The position operator xbar is diagonal with entries x_j; the momentum operator
pbar = F^-1 xbar F is never materialized (applying it costs two centered
DFTs).  The dense eigen-oracle builds Hbar's two parity blocks from pbar^2's
circulant symbol under an explicit size budget.

The commutator laboratory measures projected nested-commutator tails
||Pi_N sum_t [A,B]_t / t! Pi_N||.  Those values cancel across tens of decimal
orders (the full-space intermediates reach ~1e50 while the projected results
sit below 1e-40 already at M=128), so a float64 dense nesting returns pure
rounding noise.  Because the nesting operator is diagonal in its own
representation, [diag(d), B]_t has the exact Hadamard form (d_j - d_k)^t B_jk,
and d_j - d_k = (2*pi/M) (J_j^2 - J_k^2) with an exact integer second factor.
The lab computes its inputs in mpmath -- the discrete Hermite columns
(the spec'd state-form realization, exact to arbitrary precision via the
recurrence), their centered DFTs, and closed-form circulant symbols for pbar^2
and {xbar, pbar} -- and rounds each to fixed point, once per grid: the
`DiscreteQHO` holds them, and the folded kernels built from the symbols,
keyed by N and precision, for as long as it lives.  That rounding is the only
one: the projected sums are then accumulated in exact Python integers, so the
cancellation costs nothing, and each term's scale is applied once when it is
converted to float64.  The grid also holds those integer sums, with their
product count and rounding bound, keyed by family, N, precision and t_max,
so a repeat call takes no wide-integer product.  The projector's state form
agrees with the eigenvector form to well below the quantities measured.

Every input is parity-folded, bit for bit.  Each part (real or imaginary) of a
fixed-point column is even or odd under J -> -J, the symbols satisfy
g[M - d] = conj(g[d]), and the weight depends on |J| only.  So the columns are
evaluated on labels 0..M/2-1 and -M/2, the DFT pairs the inputs +K and -K
against a mirrored root table, and each projected sum over labels j, k is a
sum over n = |J_j|, m = |J_k| of u_a[n] K[n, m] u_b[m], with K the symbol
folded over +-j and +-k with the parts' signs (gathers and sign flips, and
the anticommutator's exact factor J_j + J_k).  The weight n^2 - m^2 is
antisymmetric and zero on the diagonal, so only the pairs n < m count, and
the one exact pass sums H[n, m] +- H[m, n] on them directly.  It has one
route: every pair of column parts, a part with itself included, costs about
(M/2+1)^2 big-integer products for its outer products and as many per
nonzero part of K, in place of about 8 M^2.  `TailReport.products` counts
them, the power sums' included; BENCH_46.json and BENCH_50.json have the
lab's per-call times.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spectral_core
from .spectral_core import (
    _PI_LD,
    GridSpec,
    InvalidSpecError,
    _enter_frame,
    _from_frame,
    _is_int,
    _run_workers,
    _usable_cpus,
)

__all__ = [
    "DiscreteQHO",
    "EigenDecomposition",
    "build",
    "apply_hamiltonian",
    "dense_diagonalize",
    "commutator_tail_norm",
]

DENSE_EIG_CAP = 4096
_RAYLEIGH_SLAB = 16   # columns per 80-bit Rayleigh pass of dense_diagonalize
TAIL_M_CAP = 256
TAIL_T_CAP = 40
# what OpenBLAS reads its thread count from at load, in the order it reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class DiscreteQHO:
    """Grid plus the diagonal of xbar; pbar is implicit via DFT conjugation.

    `_lab` holds the commutator lab's read-only fixed-point inputs, each built
    on first use by `commutator_tail_norm`; they live as long as the grid.
    """

    spec: GridSpec
    x: np.ndarray = field(repr=False)
    _lab: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def M(self) -> int:
        return self.spec.M


def build(spec: GridSpec) -> DiscreteQHO:
    if spec.M < 8:
        raise InvalidSpecError("discrete QHO needs M even and >= 8")
    return DiscreteQHO(spec=spec, x=spec.points())


def apply_hamiltonian(qho: DiscreteQHO, state: np.ndarray) -> np.ndarray:
    """Hbar v = (xbar^2 + pbar^2) v / 2 along the last axis, using two FFTs.

    pbar^2 = F^-1 diag(x^2) F is x^2 applied in the momentum frame of
    `spectral_core`.
    """
    v = np.asarray(state, dtype=complex)
    if v.shape[-1] != qho.M:
        raise ValueError(f"dimension mismatch: {v.shape[-1]} vs M={qho.M}")
    x2 = qho.x * qho.x
    return 0.5 * (x2 * v + _from_frame(x2 * _enter_frame(v.copy())))


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


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of Hbar.

    `workers` is the number of threads that solved the two parity sectors
    (see `dense_diagonalize`); it does not take part in comparisons.
    `_ritz_blocks` holds, per rank N, the time-independent part of
    `fast_forward.low_energy_error`'s Ritz block on the N lowest columns,
    built on first use; it lives as long as the decomposition.  Blocks are
    held only when `vectors` is read-only, as `dense_diagonalize` returns
    it, so that no held block can go stale.
    """

    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)  # column n is |e_n>
    workers: int = field(default=1, compare=False)
    _ritz_blocks: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.energies)


def _sector_block(M: int, odd: bool) -> np.ndarray:
    """Hbar restricted to the odd or the even sector of the reflection l -> -l (mod M).

    Hbar = (xbar^2 + C)/2 with C_{lk} = c[(k - l) mod M] commutes with the
    reflection; c is `_p2_symbol_ld(M)` rounded once to float64.  The even
    sector has the orthonormal basis |0>, |-M/2> (labels that are their own
    mirror) and (|a> + |-a>)/sqrt(2), a = 1..M/2-1; the odd sector has
    (|a> - |-a>)/sqrt(2), a = 1..M/2-1.  In these bases
        even[a, b] = w_a w_b (c[a-b] + c[a+b]) / 2 + delta_ab pi a^2 / M,
        odd[a, b]  = (c[a-b] - c[a+b]) / 2 + delta_ab pi a^2 / M,
    with w = 1/sqrt(2) at a = 0 and a = M/2 and w = 1 otherwise.  Returns the
    (M/2-1, M/2-1) odd block or the (M/2+1, M/2+1) even block.

    The Toeplitz part c[|a-b|] and the Hankel part c[(a+b) mod M] are
    strided views of two (M+1)-entry copies of the symbol, so no index grid
    or gathered copy is formed: the odd block is their difference, and the
    even block their sum, scaled in place by (0.5 w_a) w_b (0.5 inside, the
    product on rows and columns 0 and M/2).  Building the even block at
    M = 4096 takes that one (M/2+1)^2 array and nothing more.
    """
    half = M // 2
    c = _p2_symbol_ld(M).astype(np.float64)
    # toeplitz[a, b] = c[half - a + b] over c[half..1, 0..half]; hankel[a, b] = c[(a + b) mod M]
    toeplitz = sliding_window_view(np.concatenate([c[half:0:-1], c[:half + 1]]), half + 1)[::-1]
    hankel = sliding_window_view(np.append(c, c[0]), half + 1)
    a = np.arange(1, half) if odd else np.arange(half + 1)   # the sector's labels
    if odd:
        block = np.subtract(toeplitz[1:half, 1:half], hankel[1:half, 1:half])
        block *= 0.5
    else:
        w = np.ones(half + 1)
        w[[0, half]] = np.sqrt(0.5)
        block = np.add(toeplitz, hankel)
        block[1:half] *= 0.5 * w
        for edge in (0, half):
            block[edge] *= (0.5 * w[edge]) * w
    block[np.diag_indices(len(a))] += np.pi * a * a / M
    return block


def _rayleigh_terms(qho: DiscreteQHO, W: np.ndarray) -> tuple:
    """Terms T and weights g of a real (M, k) longdouble block W: W^T Hbar W = (g*T)^T T / 2.

    In the momentum frame of `spectral_core`, pbar^2 = F^-1 xbar^2 F, so with
    u = ifft(alt*w) a quotient is w^T Hbar w' = (sum_i x_i^2 w_i w'_i
    + M sum_i x_i^2 conj(u_i) u'_i) / 2.  W is real, so u is Hermitian (u at
    index k and M - k are conjugates, and so is x^2's weight there): the
    second sum is the real part of a sum over k = 0..M/2 only, taken from
    v = rfft(alt*w) = M conj(u) with weights x^2/M, doubled except at k = 0
    and M/2.  T stacks W, Re v and Im v, (2M + 2, k), and g the matching
    (2M + 2, 1) column of non-negative weights, all in 80-bit floats.
    """
    M = qho.M
    alt_w = W.copy()
    alt_w[1::2] *= -1
    v = np.fft.rfft(alt_w, axis=0)
    x2 = np.arange(-M // 2, M // 2, dtype=np.longdouble) ** 2 * (2 * _PI_LD / M)
    half = x2[:M // 2 + 1] * (2 / np.longdouble(M))
    half[[0, -1]] /= 2
    return np.concatenate([W, v.real, v.imag]), np.concatenate([x2, half, half])[:, None]


def _sector_workers() -> int:
    """How many threads `dense_diagonalize` solves its two sectors on: 2 or 1.

    Two only where each `eigh` runs on one BLAS thread and a second CPU is
    free: at least two usable CPUs, numpy built on OpenBLAS (the name that
    `np.show_config` reports), and the first of `_BLAS_THREAD_VARS` that is
    set reads 1.  OpenBLAS takes its thread count from those variables when
    it loads, so this reads what it read unless the process changed them
    since.  Anything else, an unset or unparsable value included, is one
    worker: under a threaded BLAS two concurrent solves ran slower than one
    after the other.
    """
    if _usable_cpus() < 2:
        return 1
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return 1
    value = next((os.environ[v] for v in _BLAS_THREAD_VARS if v in os.environ), "")
    return 2 if "openblas" in str(blas).lower() and value.strip() == "1" else 1


def dense_diagonalize(qho: DiscreteQHO) -> EigenDecomposition:
    """Ground-truth eigendecomposition of Hbar (M <= 4096), solved per parity sector.

    Hbar commutes with the grid reflection l -> -l (mod M), so one `eigh` of
    the (M/2+1)-dimensional even block and one of the (M/2-1)-dimensional odd
    block (see `_sector_block`, built from the circulant symbol of pbar^2; no
    M x M Hamiltonian is formed) give the whole spectrum.  The sectors, even
    then odd, are dealt to `_sector_workers` workers by `_run_workers`: with
    one, the calling thread solves the even sector, then the odd one; with
    two, it solves the even sector while a started thread solves the odd
    one.  Each `eigh` is the same one-thread LAPACK call on the same block,
    so the bits are the same.  Each
    sector vector is scattered back to the grid, so every column is exactly
    parity-definite: v[-l] = v[l] or v[-l] = -v[l] bit for bit.  The energies
    of both sectors are merged by a stable sort (even first on a tie).  Sign
    rule: each column's largest-magnitude entry at a label >= 0 is positive,
    the first such label on a tie.

    LAPACK returns the eigenvalues with absolute error ~eps*||H||, which at
    M=1024 already exceeds the true distance to n + 1/2 (and would dominate
    every projected-error meter).  The lowest 64 are therefore recomputed in
    80-bit floats as Rayleigh quotients, the diagonal of `_rayleigh_terms`'s
    block over diag(W^T W): sums of non-negative terms, so rounding stays
    relative to E.  Both arrays are returned read-only, so what an
    `EigenDecomposition` holds from them cannot go stale.  `vectors` is
    F-ordered: it is the transpose of a row-major (M, M) store whose row n
    is eigenvector n, so each column is contiguous, and the sector vectors
    are scattered into it row by row, not across M strided columns.

    Working set: each sector's block exists only while its `eigh` runs, each
    set of sector vectors only until it is scattered (the odd set negated in
    place for the mirrored labels), and the 80-bit refinement runs on slabs
    of `_RAYLEIGH_SLAB` columns.  Besides the returned arrays, numpy then
    holds at most three (M/2+1)^2 float arrays on the one-worker path: the
    even vectors, the odd block and its vectors, while the odd `eigh` runs
    next to LAPACK's own workspace.  On the two-worker path both blocks and
    both `eigh` workspaces are alive at once, so a fourth such array and a
    second workspace.  BENCH_44.json records each path's time and peak RSS.
    """
    M = qho.M
    if M > DENSE_EIG_CAP:
        raise ValueError(f"dense budget exceeded: M={M}")
    half = M // 2
    workers = _sector_workers()
    solved = [None, None]  # (energies, vectors) of the even and the odd sector

    def solve(share):
        for odd in share:
            solved[odd] = np.linalg.eigh(_sector_block(M, odd))

    _run_workers(solve, (False, True), workers)
    (e_even, y_even), (e_odd, y_odd) = solved
    del solved
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
    rows = np.zeros((M, M))   # row n is |e_n>, written as one contiguous run per sector part
    rows[ce, half:] = y_even[:half].T
    rows[ce, half - 1:0:-1] = y_even[1:half].T
    rows[ce, 0] = y_even[half]
    del y_even
    rows[co, half + 1:] = y_odd.T
    np.negative(y_odd, out=y_odd)
    rows[co, half - 1:0:-1] = y_odd.T
    del y_odd
    rows.setflags(write=False)
    vectors = rows.T
    energies = energies[order]
    for start in range(0, min(64, M), _RAYLEIGH_SLAB):
        # a C-ordered slab, so the sums over the grid run in the same order as on a row-major store
        W = vectors[:, start:start + _RAYLEIGH_SLAB].astype(np.longdouble, order="C")
        terms, weights = _rayleigh_terms(qho, W)
        products = weights * terms
        products *= terms   # (g T) T
        energies[start:start + W.shape[1]] = products.sum(axis=0) / (2 * (W * W).sum(axis=0))
    energies.setflags(write=False)
    return EigenDecomposition(energies=energies, vectors=vectors, workers=workers)


# the basis lives in spectral_core; the benchmark harness still imports it from here
hermite_basis = spectral_core.hermite_basis


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
    error_bar: float = 0.0    # a bound on ||tail - exact tail||, see _rounding_bound
    # wide-integer products of the exact pass, which takes one route for every pair of column parts
    products: int = field(default=0, compare=False)


def _half_labels(M: int) -> tuple:
    """The labels of the folded index n = 0..M/2 (n itself, and -M/2 at n = M/2) and
    whether each has a mirror -n on the grid (all but the lone labels 0 and -M/2)."""
    labels = np.arange(M // 2 + 1)
    labels[-1] = -labels[-1]
    paired = np.ones(len(labels), dtype=bool)
    paired[[0, -1]] = False
    return labels, paired


def _mp_hermite_columns(M: int, N: int):
    """Normalized discrete Hermite states at current mp precision, on `_half_labels`.

    The entry of column n at label -J (0 < J < M/2) is (-1)^n times the one
    at J, bit for bit: the recurrence is odd in x and mp rounding is
    symmetric.  So only x >= 0 is evaluated, and the lone label -M/2 is
    (-1)^n times the value at x = +M/2 h.  The norm sums the squares over
    the whole grid in label order.
    """
    import mpmath as mp

    half = M // 2
    h = mp.sqrt(2 * mp.pi / M)
    sqh = mp.sqrt(h)
    xs = [j * h for j in range(half + 1)]
    quarter = mp.power(mp.pi, mp.mpf(-1) / 4)
    rows = [[quarter * mp.exp(-x * x / 2) * sqh for x in xs]]
    if N >= 2:
        rows.append([mp.sqrt(2) * x * v for x, v in zip(xs, rows[0])])
    for n in range(1, N - 1):
        c1, c2 = mp.sqrt(mp.mpf(2) / (n + 1)), mp.sqrt(mp.mpf(n) / (n + 1))
        rows.append([c1 * x * a - c2 * b for x, a, b in zip(xs, rows[n], rows[n - 1])])
    out = []
    for n, r in enumerate(rows[:N]):
        r[half] *= (-1) ** n
        sq = [v * v for v in r]
        nrm = mp.sqrt(mp.fsum(sq[half:] + sq[half - 1:0:-1] + sq[:half]))
        out.append(tuple(v / nrm for v in r))
    return tuple(out)


def _mp_p2_symbol(M: int):
    """Symbol of pbar^2, c[d] = c[M - d]; only d <= M/2 is evaluated."""
    import mpmath as mp

    c = [mp.mpf(0)] * M
    half = M // 2
    c[0] = 2 * mp.pi / M**2 * (mp.mpf((half - 1) * half * (M - 1)) / 3 + half * half)
    for d in range(1, half + 1):
        c[d] = c[M - d] = (mp.pi / M) * (-1) ** d / mp.sin(mp.pi * mp.mpf(d) / M) ** 2
    return c


def _mp_roots(M: int) -> tuple:
    """The DFT roots exp(2 pi i d / M) for d = 0..M/2, at current mp precision."""
    import mpmath as mp

    return tuple(mp.expjpi(mp.mpf(2 * d) / M) for d in range(M // 2 + 1))


def _mp_p1_symbol(M: int, roots: tuple):
    """Symbol of F xbar F^-1: entries c1[(j-k) mod M], c1[M - d] = conj(c1[d]).

    roots is the root table `_mp_roots(M)` at the current precision.
    """
    import mpmath as mp

    h = mp.sqrt(2 * mp.pi / M)
    c = [mp.mpc(-h / 2)] + [mp.mpc(0)] * (M - 1)
    for d in range(1, M // 2 + 1):
        c[d] = h * ((-1) ** d) / (roots[d] - 1)
        c[M - d] = mp.conj(c[d])
    return c


def _tail_dps(M: int, t_max: int) -> int:
    """Working precision: intermediate magnitude plus the value's own scale.

    The largest surviving contribution behaves like d^t/t! damped by the
    Gaussian weight exp(-d/2); the sum truncated at t_max shrinks roughly
    like exp(-c*M) (the complete tail at c1 = c2 = 1 grows with M; see
    `commutator_tail_norm`), so the digit budget grows linearly in M.
    """
    return 60 + int(0.55 * M) + max(0, 2 * (t_max - 30))


_TAIL_EXTRA_BITS = 80   # fixed-point bits beyond the decimal working precision
_TAIL_GUARD_BITS = 16   # mp working bits beyond the fixed point, and the DFT root table's


def _fixed(values, bits: int) -> np.ndarray:
    """Round mp reals to fixed point at 2^-bits, ties to even: an integer object array."""
    from mpmath.libmp import mpf_shift, round_nearest, to_int

    return np.array([to_int(mpf_shift(v._mpf_, bits), round_nearest) for v in values], dtype=object)


def _fixed_dft_columns(cols, M: int, bits: int, roots: tuple):
    """Centered DFT of the mp half columns, rounded to fixed point at 2^-bits: (re, im) halves.

    Column n has parity (-1)^n, and the root table r[d] = exp(2 pi i d / M)
    is `roots` (`_mp_roots`, d <= M/2) mirrored, r[M - d] = conj(r[d]).  So input
    labels +K and -K (0 < K < M/2) contribute 2 c[K] Re r[JK] to output J for
    an even column and 2i c[K] Im r[JK] for an odd one, while the lone labels
    0 and -M/2 meet the real roots 1 and (-1)^J.  The real part is even in J
    and the imaginary part odd, so only the outputs on `_half_labels` are
    formed.  The products run in exact integers against the table held
    _TAIL_GUARD_BITS finer; each output is rounded once.
    """
    import mpmath as mp

    fine = bits + _TAIL_GUARD_BITS
    half = M // 2
    rr, ri = _fixed([z.real for z in roots], fine), _fixed([z.imag for z in roots], fine)
    tables = (np.concatenate([rr, rr[half - 1:0:-1]]), np.concatenate([ri, -ri[half - 1:0:-1]]))
    labels, paired = _half_labels(M)
    idx = np.outer(labels, labels) % M        # [output label, input label]
    scale = mp.ldexp(1 / mp.sqrt(M), -2 * fine)
    out = []
    for n, col in enumerate(cols):
        c = _fixed(col, fine)
        s = (-1) ** n
        parts = []
        for table, w in zip(tables, (np.where(paired, 1 + s, 1), np.where(paired, 1 - s, 0))):
            k = np.flatnonzero(w)
            sums = (table[idx[:, k]] * (c[k] * w[k])).sum(axis=1) if len(k) else [0] * (half + 1)
            parts.append(_fixed([mp.mpf(v) * scale for v in sums], bits))
        out.append(tuple(parts))
    return out


def _tail_columns(M: int, family: str, bits: int, cols: tuple, roots: tuple | None) -> tuple:
    """One family's fixed-point columns at 2^-bits, one per column of cols.

    A column is its (real, imaginary) pair of parts, each as (half, parity):
    the entries on `_half_labels` and the sign that gives the entry at -J
    from the one at J.  "x2_p2" takes the Hermite columns, the other two
    families their centered DFT.  cols is `_mp_hermite_columns(M, N)` and
    roots the root table `_mp_roots(M)`, both at the current mp precision;
    only the DFT reads roots, so "x2_p2" takes None.
    """
    if family == "x2_p2":
        zero = np.zeros(M // 2 + 1, dtype=object)
        return tuple(((_fixed(c, bits), (-1) ** n), (zero, 1)) for n, c in enumerate(cols))
    return tuple(((re, 1), (im, -1)) for re, im in _fixed_dft_columns(cols, M, bits, roots))


def _tail_symbol(M: int, family: str, bits: int, roots: tuple | None) -> tuple:
    """One family's fixed-point symbol at 2^-bits: the (re, im) pair of its M entries.

    h pbar's for "p2_anti", from the root table roots (`_mp_roots(M)`, as
    `_mp_p1_symbol` reads it), pbar^2's for the other two families, which
    read no roots and take None.
    """
    import mpmath as mp

    if family == "p2_anti":
        h = mp.sqrt(2 * mp.pi / M)
        symbol = [h * s for s in _mp_p1_symbol(M, roots)]
    else:
        symbol = _mp_p2_symbol(M)
    return _fixed([v.real for v in symbol], bits), _fixed([v.imag for v in symbol], bits)


def _read_only(value):
    """Mark every array in a nest of tuples read-only; returns `value`."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for v in value:
            _read_only(v)
    return value


def _held(qho: DiscreteQHO, key: tuple, build):
    """What `qho` holds under `key`, made read-only from `build()` on first use."""
    if key not in qho._lab:
        qho._lab[key] = _read_only(build())
    return qho._lab[key]


def _folded_symbol(g, sa: int, sb: int, anti: bool) -> list:
    """K[n, m] = sum over j in I(n), k in I(m) of s_a(j) s_b(k) W[j, k], per part of g.

    I(n) holds the labels +n and -n, except that 0 and -M/2 stand alone; s(J)
    is 1 on the label of `_half_labels` and the part's parity sign on its
    mirror.  W[j, k] = g[(J_j - J_k) mod M], times J_j + J_k when `anti`.
    Only gathers, sign flips and the exact anti factor: no product of two
    wide integers.  A part that is all zero is None.
    """
    M = len(g[0])
    labels, paired = _half_labels(M)
    one = np.ones_like(labels)
    terms = []
    for lj, wj in ((labels, one), (-labels, sa * paired)):
        for lk, wk in ((labels, one), (-labels, sb * paired)):
            w = np.outer(wj, wk)
            if anti:
                w *= lj[:, None] + lk[None, :]
            terms.append(((lj[:, None] - lk[None, :]) % M, w))
    K = [sum(part[d] * w for d, w in terms) if any(part) else None for part in g]
    return [k if k is not None and any(k.flat) else None for k in K]


def _weight_groups(size: int) -> tuple:
    """The pairs n < m of 0..size-1 grouped by their weight n^2 - m^2: (n, m, starts, d).

    The pairs are sorted by weight (stably), group g starts at pair
    starts[g], and d[g] is its weight as a Python int.  At size = 33
    (M = 64) the 528 pairs fall into 363 groups.
    """
    n, m = np.triu_indices(size, 1)
    weight = n * n - m * m
    order = np.argsort(weight, kind="stable")
    n, m, weight = n[order], m[order], weight[order]
    starts = np.flatnonzero(np.concatenate([[True], weight[1:] != weight[:-1]]))
    return n, m, starts, weight[starts].astype(object)


def _power_sums(parity, d: np.ndarray, t0: int, t_max: int) -> tuple:
    """sum_g parity[t % 2][g] d[g]^t for t = t0..t_max, exactly, and the products taken.

    parity is the pair (even t, odd t) of integer arrays over the weights
    d: per weight, the sum of H[n, m] + H[m, n] and of H[n, m] - H[m, n]
    over its pairs n < m.  The weight n^2 - m^2 is antisymmetric in (n, m)
    and zero on the diagonal, so these give sum_{n,m} (n^2 - m^2)^t H[n, m].
    Each power multiplies one integer per weight.  A parity that is None or
    all zero (real data gives one) is skipped.  The count is one per weight
    for each multiplication, a power d^t counting as one.
    """
    live = [p if p is not None and any(p) else None for p in parity]
    cur, d2, products, sums = [None, None], None, 0, []
    for t in range(t0, t_max + 1):
        i = t % 2
        if live[i] is None:
            sums.append(0)
            continue
        if cur[i] is None:
            cur[i] = live[i] * d**t
            products += 2 * len(d)
        else:
            if d2 is None:
                d2 = d * d
                products += len(d)
            cur[i] *= d2
            products += len(d)
        sums.append(int(cur[i].sum()))
    return sums, products


def _integer_tail_sums(u, g, anti: bool, t0: int, t_max: int, kernels: dict, groups: tuple):
    """Exact S_t[a, b] = sum_jk conj(u_a[j]) W[j, k] (J_j^2 - J_k^2)^t u_b[k], parity-folded.

    u holds N columns as `_tail_columns` gives them and g the fixed-point
    symbol, W[j, k] = g[(j - k) mod M] (times J_j + J_k when `anti`).  With
    j and k grouped by n = |J_j| and m = |J_k| (0..M/2), the weight is
    (n^2 - m^2)^t and the rest is H[n, m], the sum over I(n) x I(m).  Since
    conj(u_a) = re_a - i im_a and u_b = re_b + i im_b, the parts p of u_a and
    q of u_b (0 real, 1 imaginary) add u_a,p[n] i^(q-p) K[n, m] u_b,q[m] to
    H, K being `_folded_symbol` for their two parities.  `_power_sums` reads
    H only as H[n, m] + H[m, n] and H[n, m] - H[m, n] on the pairs n < m, so
    those two parity sums are formed directly, for each part of H, on the
    pairs of `groups` in weight order, then summed per weight.  Every pair
    of parts, a self pair (a = b and p = q) included, multiplies
    u_a,p[n] u_b,q[m] by K[n, m] and u_a,p[m] u_b,q[n] by K[m, n]: two
    products per pair for the two orders and two per nonzero part of K.  A
    self pair's K is Hermitian, so one of its two parity sums is zero, and
    `_power_sums` skips it.  The unfolded sum took about 8 M^2 products per
    pair of columns.
    g[M - d] = conj(g[d]), so W is Hermitian and S_t[b, a] = (-1)^t
    conj(S_t[a, b]): only a <= b is summed.  Returns {t: (re, im)} of N x N
    integer arrays, scaled by the product of the three inputs' scales, and
    the number of wide-integer products taken, `_power_sums`' included.

    `kernels` keeps the read-only kernels built from g and `anti` by
    (sa, sb, q): each part of i^q K on the pairs, as K[n, m] and K[m, n]
    (one array serves as both when they are equal), or None when the part
    is zero.  A caller that passes the same dict with the same g and `anti`
    builds each kernel once.  `groups` is `_weight_groups(M/2 + 1)`.
    """
    n, m, starts, d = groups

    def on_pairs(k):
        """K[n, m] and K[m, n]; one array for a symmetric part."""
        if k is None:
            return None
        fwd, bwd = k[n, m], k[m, n]
        return (fwd, fwd) if np.array_equal(bwd, fwd) else (fwd, bwd)

    def kernel(sa, sb, q):
        """The (re, im) parts of i^q K for the parities sa and sb, on the pairs."""
        if (sa, sb, q) not in kernels:
            kr, ki = _folded_symbol(g, sa, sb, anti)
            for _ in range(q):   # times i: (re, im) -> (-im, re)
                kr, ki = (None if ki is None else -ki), kr
            kernels[sa, sb, q] = _read_only((on_pairs(kr), on_pairs(ki)))
        return kernels[sa, sb, q]

    def add(sums, i, value):
        if sums[i] is None:
            sums[i] = value
        else:
            sums[i] += value

    # each nonzero column part on the pairs, once: (x[n], x[m], parity sign)
    cols = [[(x[n], x[m], s) if any(x) else None for x, s in col] for col in u]
    N, pairs = len(u), len(n)
    S = {t: (np.zeros((N, N), dtype=object), np.zeros((N, N), dtype=object))
         for t in range(t0, t_max + 1)}
    products = 0
    for b, col_b in enumerate(cols):
        for a, col_a in enumerate(cols[:b + 1]):
            H = [[None, None], [None, None]]   # per part of H: (H[n, m] + H[m, n], H[n, m] - H[m, n])
            for p, part_a in enumerate(col_a):
                for q, part_b in enumerate(col_b):
                    if part_a is None or part_b is None:
                        continue
                    (an, am, sa), (bn, bm, sb) = part_a, part_b
                    fwd, bwd = an * bm, am * bn
                    products += 2 * pairs
                    for sums, k in zip(H, kernel(sa, sb, (q - p) % 4)):
                        if k is not None:
                            upper, lower = fwd * k[0], bwd * k[1]
                            add(sums, 0, upper + lower)
                            add(sums, 1, upper - lower)
                            products += 2 * pairs
            parts = []
            for sums in H:
                grouped = [None if s is None else np.add.reduceat(s, starts) for s in sums]
                part, count = _power_sums(grouped, d, t0, t_max)
                parts.append(part)
                products += count
            for t, re, im in zip(S, *parts):
                sign = -1 if t % 2 else 1
                S[t][0][a, b], S[t][1][a, b] = re, im
                S[t][0][b, a], S[t][1][b, a] = sign * re, -sign * im
    return S, products


def commutator_tail_norm(qho: DiscreteQHO, N: int, t_max: int,
                         family: str = "x2_p2", dps: int | None = None) -> TailReport:
    """|| Pi_N sum_t [A, B]_t / t! Pi_N || for the three operator families.

    family "x2_p2":  A = xbar^2, B = pbar^2,        sum from t = 3
    family "p2_x2":  A = pbar^2, B = xbar^2,        sum from t = 3
    family "p2_anti": A = pbar^2, B = {xbar, pbar}, sum from t = 2

    A factored evolution's error reads [c1*A, c2*B]_t with the coefficients
    of `fast_forward.decompose`'s split, |c1|, |c2| <= 1 (the five-factor
    middle coefficient reaches 1, every other one is at most 1/2), which
    scale term t by c1^t c2.  That is a reading of the split; the paper's
    abstract states no such bound.  The lab measures c1 = c2 = 1.  There the
    projected terms of each parity of t grow with t up to about t = 1.75 M
    (at M = 64 and 128, N = 1, they grow strictly to t = 40, and the t = 40
    or 39 term is at least 90% of the sum to 40; a test pins it), so a sum
    to t_max = 30 is a truncation and mostly its last term.  Acceptance
    criterion 4's decay across M is a property of that truncation, not of a
    complete tail, and its band stays as written.

    Evaluated in the representation where A is diagonal, where the t-fold
    nesting is the exact entrywise factor
    (d_j - d_k)^t = (2 pi / M)^t (J_j^2 - J_k^2)^t.  The columns and symbols
    are computed in mpmath and rounded once to fixed point at
    P = ceil(dps log2 10) + 80 bits; the projected sums of (J_j^2 - J_k^2)^t
    times those integers are exact (`_integer_tail_sums`), and the scale
    (2 pi / M)^t / t! is applied once per t when converting to mp at
    P + 16 bits.  The tail is summed entry by entry in t order, and its
    norm and every term's come from one stacked SVD.  `error_bar` is
    `_rounding_bound`, a proven bound on how far rounding the inputs to
    2^-P (and the conversions) can move the projected tail; the exact pass
    runs once.  `products` counts its wide-integer products.

    The grid holds what the pass reads, each built on first use and keyed
    by N and P: the mp Hermite columns (the recurrence runs once for all
    three families) and the fixed-point columns, x2_p2's or their DFT
    (p2_x2 and p2_anti share them); by P: the mp root table
    exp(2 pi i d / M), d <= M/2 (the DFT and h pbar's symbol read it), the
    symbol (x2_p2 and p2_x2 share pbar^2's), the folded kernels on the
    pairs n < m, and the scales for every t up to TAIL_T_CAP (the three
    families share them); and, under one key that every N and P share, the
    pairs of the folded index grouped by weight.  This is the one place the
    lab's inputs are made: `_tail_columns` and `_tail_symbol` take the
    Hermite columns and the root table as arguments.  It also holds the pass's
    output, which depends on nothing else, under
    ("terms", family, N, P, t_max): the integer terms S_t in t order, their
    `products` count and `error_bar`.  So a repeat call takes no
    wide-integer product: it scales the held terms, sums them over t and
    takes the one stacked SVD, and its report, `products` included, has
    the first call's bits.  N must be an integer in [1, M] (a grid of M
    labels holds M Hermite columns), t_max an integer, and dps None
    (`_tail_dps`) or an integer >= 1.
    """
    M = qho.M
    if M > TAIL_M_CAP:
        raise ValueError(f"tail budget exceeded: M={M} > {TAIL_M_CAP}")
    if not _is_int(N) or not 1 <= N <= M:
        raise ValueError(f"N must be an integer in [1, M={M}], got {N!r}")
    if not _is_int(t_max):
        raise ValueError(f"t_max must be an integer, got {t_max!r}")
    if t_max > TAIL_T_CAP:
        raise ValueError(f"tail budget exceeded: t_max={t_max} > {TAIL_T_CAP}")
    if not (dps is None or _is_int(dps) and dps >= 1):
        raise ValueError(f"dps must be None or an integer >= 1, got {dps!r}")
    if family not in TAIL_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    t0 = 2 if family == "p2_anti" else 3
    if t_max < t0:
        return TailReport(family, M, N, t_max, 0.0, {}, 0)

    import mpmath as mp

    used_dps = _tail_dps(M, t_max) if dps is None else dps
    bits = math.ceil(used_dps * math.log2(10)) + _TAIL_EXTRA_BITS
    anti = family == "p2_anti"
    with mp.workprec(bits + _TAIL_GUARD_BITS):
        scales = _held(qho, ("scales", bits), lambda: _tail_scales(M))

        def exact_pass():
            """The integer terms S_t in t order, the products they took, and the bound."""
            # only the DFT columns and h pbar's symbol read the roots
            roots = None if family == "x2_p2" else _held(qho, ("roots", bits), lambda: _mp_roots(M))

            def columns():
                cols = _held(qho, ("hermite", N, bits), lambda: _mp_hermite_columns(M, N))
                return _tail_columns(M, family, bits, cols, roots)

            u = _held(qho, ("columns", family == "x2_p2", N, bits), columns)
            g = _held(qho, ("symbol", anti, bits), lambda: _tail_symbol(M, family, bits, roots))
            groups = _held(qho, ("weight groups",), lambda: _weight_groups(M // 2 + 1))
            S, products = _integer_tail_sums(u, g, anti, t0, t_max,
                                             _held(qho, ("kernels", anti, bits), dict), groups)
            return (tuple(S.items()), products,
                    _rounding_bound(g, scales, M, N, anti, bits, t0, t_max))

        S, products, error_bar = _held(qho, ("terms", family, N, bits, t_max), exact_pass)
        terms = {t: _scaled_rows(S_t, mp.ldexp(scales[t], -3 * bits)) for t, S_t in S}
        tail = [[sum((T[a][b] for T in terms.values()), mp.mpf(0)) for b in range(N)]
                for a in range(N)]
    tail_norm, *term_norms = _spectral_norms([tail, *terms.values()])
    return TailReport(family, M, N, t_max, tail_norm, dict(zip(terms, term_norms)), used_dps,
                      error_bar=error_bar, products=products)


def _rounding_bound(g, scales, M: int, N: int, anti: bool, bits: int, t0: int, t_max: int) -> float:
    """An upper bound on ||tail - exact tail|| from rounding the lab's inputs, as float64.

    tail is the N x N projected sum that `commutator_tail_norm` forms in mp
    from its fixed-point inputs at eps = 2^-bits, and exact tail the same
    sum over exact inputs; the norm is spectral.  a = `anti` is 1 for
    p2_anti and 0 otherwise, g the held fixed-point symbol of M entries and
    scales the held (2 pi / M)^t / t!.
    - Every part of every fixed-point input (column entry, DFT output,
      symbol entry) is within eps of its exact value: each is rounded once
      from a value computed _TAIL_GUARD_BITS finer (tests check this
      against inputs built 64 bits finer).  So a complex column entry is
      within sqrt(2) eps, and the rounding error du of a column u has
      ||du||_2 <= sqrt(2 M) eps, while each exact column has ||u||_2 = 1.
    - W[j, k] = g[(J_j - J_k) mod M] (J_j + J_k)^a with |J_j + J_k| <= M:
      |W| has row and column sums of at most
      G = M^a sum_d (|Re g_d| + |Im g_d|), at least M^a sum_d |g_d| (an
      exact integer sum, where |g_d| itself cost a square root per entry),
      so || |W| ||_2 <= G; each entry of the rounding error dW is at most
      sqrt(2) M^a eps, and an M x M matrix's spectral norm is at most M
      times its largest entry, so || |dW| ||_2 <= sqrt(2) M^(1+a) eps.
    - Term t weights W[j, k] by (2 pi / M)^t (J_j^2 - J_k^2)^t / t!, and
      |J_j^2 - J_k^2| <= M^2 / 4, so by at most w_t = (pi M / 2)^t / t!.
    To first order in eps, the entry of term t between columns u and v
    then moves by at most
    w_t (||du|| G + G ||dv|| + || |dW| ||) = w_t eps (2 sqrt(2 M) G + sqrt(2) M^(1+a)),
    and it is at most w_t G in size.  Converting a term to mp at
    r = 2^-(bits + _TAIL_GUARD_BITS) costs a relative (2t + 4) r (the
    scale's 2 pi / M, its power and t!, the integer's rounding and the
    product), and the sum over t at most another t_max r of the terms'
    absolute sum per part, so together at most (4 t_max + 8) r w_t G per
    term.  Summing over t, and taking an N x N matrix's norm as at most N
    times its largest entry:

        bound = (1 + 2^-32) N eps C sum_{t=t0..t_max} w_t,
        C = (2 sqrt(2 M) + (4 t_max + 8) 2^-_TAIL_GUARD_BITS) G + sqrt(2) M^(1+a).

    The factor 1 + 2^-32 covers the terms of second order in eps, G read
    from the rounded symbol, and the bound's own evaluation in mp at the
    working precision.  The result is rounded up to float64, so a bound
    below float64's range reads as its least positive value, never 0.  It
    bounds the mp matrix; `tail_norm`, that matrix's norm taken in float64,
    adds LAPACK's relative rounding on top.
    """
    import mpmath as mp

    G = M**anti * mp.ldexp(int(np.abs(g[0]).sum() + np.abs(g[1]).sum()), -bits)
    C = (2 * mp.sqrt(2 * M) + (4 * t_max + 8) * 2.0**-_TAIL_GUARD_BITS) * G + mp.sqrt(2) * M**(1 + anti)
    weights = mp.fsum(scales[t] * (M * M // 4)**t for t in range(t0, t_max + 1))
    bound = (1 + mp.ldexp(1, -32)) * N * mp.ldexp(C * weights, -bits)
    up = float(bound)
    return up if mp.mpf(up) >= bound else math.nextafter(up, math.inf)


def _tail_scales(M: int) -> tuple:
    """(2 pi / M)^t / t! for t = 0..TAIL_T_CAP, at the current mp precision."""
    import mpmath as mp

    step = 2 * mp.pi / M
    return tuple(step ** t / mp.factorial(t) for t in range(TAIL_T_CAP + 1))


def _scaled_rows(S_t, scale) -> list:
    """The projected term scale * S_t as rows of mpc, at the current mp precision and rounding.

    Each part is rounded from its integer and then multiplied, as
    `mp.mpc(int(r), int(i)) * scale` does, through libmp directly.
    """
    import mpmath as mp
    from mpmath.libmp import from_int, mpf_mul

    prec, rnd = mp.mp._prec_rounding
    s, make = scale._mpf_, mp.mp.make_mpc
    re, im = S_t
    return [[make((mpf_mul(from_int(int(r), prec, rnd), s, prec, rnd),
                   mpf_mul(from_int(int(i), prec, rnd), s, prec, rnd)))
             for r, i in zip(rr, ii)] for rr, ii in zip(re, im)]


def _spectral_norms(matrices) -> list:
    """The largest singular value of each matrix given as rows of mp numbers, in one call."""
    stack = np.array(matrices, dtype=complex)
    return np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()
