"""The full Hermite-transform pipeline simulated as statevector operations.

The map sum_n alpha_n |n> -> sum_n alpha_n |psibar_n> is realized in four
stages: Plancherel-Rotach state preparation, phase-estimation filtering that
flags the target Hermite state on an ancilla register, fixed-point amplitude
amplification driving the flagged overlap to 1 - eps, and inverse-QPE
uncomputation of the index register.

Every pipeline unitary is block-diagonal in the index n, so each block is
simulated independently on a dimension-M work register and the blocks are
recombined linearly; this replaces the M^2-dimensional joint statevector with
N independent M-vectors, held per config as the columns of `QHTOperator`.
Every column takes one path through the stages, `QHTOperator._hold_rows`.
The filter is the m - 1 grid stages of `QHTOperator._sweep`, then the
parity split, which is the half-period stage; the uncompute is the same
under the adjoint.
Within a block, the amplification walk lives exactly in the 2-D span
{flagged, rest} of the prepared joint state, where fixed-point search is
defined (Yoder, Low & Chuang, PRL 113, 210501, 2014), so the M-qubit filter
ancillas never need to be materialized: `fixed_point_amplify` runs on the
two amplitudes of that span, and the amplified work vector is the filter's
flagged output rescaled by the final flagged amplitude.
"""
from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .calibration import C0, C1
from .fast_forward import _frame_steps, decompose, evolution_tables
from .spectral_core import (
    GridSpec,
    _enter_frame,
    _from_frame,
    _is_int,
    _run_workers,
    _usable_cpus,
    hermite_functions,
)

__all__ = [
    "QHTConfig",
    "ConfigError",
    "WindowFunction",
    "choose_dimensions",
    "high_energy_cutoff",
    "pr_support",
    "build_pr_state",
    "pr_amplitude_phase",
    "fixed_point_schedule",
    "fixed_point_amplify",
    "QHTOperator",
    "qht_operator",
    "qht_apply",
    "qht_reference",
    "psibar_rows",
    "QHTResult",
]

M_CAP = 1 << 20   # largest grid choose_dimensions returns
# the row-labels (rows x M) each share of a build must hold for a second worker to pay;
# BENCH_45.json has the measurements: one worker wins at 8192, two at 32768 and above
_WORKER_SHARE = 1 << 15


class ConfigError(ValueError):
    """Infeasible transform configuration (reported, never silently clamped)."""


def _check_size(name: str, value) -> None:
    """A dimension is a plain integer: a float or a bool fails only deep in the build."""
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_eps(eps) -> None:
    if not (0 < eps < 1):
        raise ConfigError(f"eps must be in (0, 1), got {eps}")


@dataclass(frozen=True)
class QHTConfig:
    """One transform instance: every field changes the columns it builds.

    Every field is checked at construction, and so by `dataclasses.replace`:
    an invalid config raises ConfigError and never exists, so no cache or
    caller holds one.

    eps is met block by block: the tests and acceptance criterion 5 read it
    as a floor on each block's fidelity, |<psibar_n|u_n>| >= 1 - eps (with
    the isometry singular values within eps of 1 and the uncompute residual
    at most eps).  It is not an operator-norm bound.  Each block keeps its
    own amplification phase, so min_theta ||U - e^{i theta} B||_2, with B
    the rows |psibar_n>, reads 6.9e-3 to 7.2e-3 at eps = 0.01 (N = 4-16,
    M = 256-16384) and 2.1e-3 to 2.5e-3 at eps = 0.001, missing it on every
    grid measured (N = 4-16, M = 1024-16384); see ROADMAP.md item 12.
    """

    N: int                  # transform dimension (indices 0..N-1)
    eps: float              # target additive error
    M: int                  # ambient work-register dimension (power of two)
    oracle_bits: int | None = None  # amplitude/phase oracle precision; None is exact
    aa_rounds: int = 0      # fixed-point degree L override; 0 derives from eps
    delta_lower: float = 0.3  # guaranteed flagged-overlap lower bound

    def __post_init__(self):
        N, M = self.N, self.M
        _check_size("N", N)
        _check_size("M", M)
        if M < 1 or M & (M - 1):
            raise ConfigError(f"phase estimation needs a power-of-two M, got M={M}")
        # build_pr_state would refuse these only inside the build
        if not 1 <= N < M:
            raise ConfigError(f"N={N} must be in [1, M={M})")
        if pr_support(N - 1, M) >= M // 2:
            raise ConfigError(f"M={M} too small for the n={N - 1} oscillatory support")
        _check_eps(self.eps)
        # a fractional bit count or degree would be silently floored or ignored
        if not (self.oracle_bits is None or _is_int(self.oracle_bits)):
            raise ConfigError(f"oracle_bits must be None or an integer, got {self.oracle_bits}")
        if not _is_int(self.aa_rounds):
            raise ConfigError(f"aa_rounds must be an integer, got {self.aa_rounds}")
        # one bit rounds the oscillation phase to multiples of pi, where sin vanishes
        if self.oracle_bits is not None and self.oracle_bits < 2:
            raise ConfigError(f"oracle_bits must be None or >= 2, got {self.oracle_bits}")
        if self.aa_rounds < 0:
            raise ConfigError(f"aa_rounds must be >= 0, got {self.aa_rounds}")
        # an overlap is at most 1; a larger bound only shrinks the degree L toward 1
        if isinstance(self.delta_lower, bool) or not (0 < self.delta_lower <= 1):
            raise ConfigError(f"delta_lower must be in (0, 1], got {self.delta_lower}")

    @property
    def m_bits(self) -> int:
        return int(round(math.log2(self.M)))


def high_energy_cutoff(N: int, eps: float) -> int:
    """N_high = ceil(C1*N/eps), the eigenindex past which prepared-state mass counts as leaked."""
    return int(math.ceil(C1 * N / eps))


def choose_dimensions(N: int, eps: float) -> QHTConfig:
    """Smallest power-of-two M >= C0*N^(9/4)/eps^(13/4) (plus feasibility floors).

    The floors keep `high_energy_cutoff` below M and leave the oscillatory
    support of every prepared state strictly inside the grid.
    """
    _check_size("N", N)
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    _check_eps(eps)
    over = f"exceeds the hard cap {M_CAP}; requested (N={N}, eps={eps}) with c0={C0}"
    # in log2 first: N**2.25 overflows and eps**3.25 underflows far past the cap; under it
    # N/eps <= N**2.25/eps**3.25 <= M_CAP/C0, so every floor below is a finite float
    if math.log2(C0) + 2.25 * math.log2(N) - 3.25 * math.log2(eps) > math.log2(M_CAP):
        raise ConfigError(f"required M {over}")
    floor = max(C0 * N**2.25 / eps**3.25, high_energy_cutoff(N, eps) + 2, 16 * N, 16)
    M = 1 << max(4, int(math.ceil(math.log2(floor))))
    if M > M_CAP:
        raise ConfigError(f"required M={M} {over}")
    return QHTConfig(N=N, eps=eps, M=M)


def _window_x_max_sq(n: int) -> float:
    """Squared half-width of the flat window: (3/4)*2n for n >= 1, 3/4 for n = 0.

    For n >= 1 the window ends at sqrt(3)/2 of the classical turning point
    sqrt(2n), so it holds (2/pi)*arcsin(sqrt(3)/2) = 2/3 of psi_n's mass as
    n -> infinity.  The paper text in the repo does not fix n = 0, where that
    window would be empty; there it ends at sqrt(3/4).
    """
    return 0.75 * (2 * n if n >= 1 else 1)


def pr_support(n: int, M: int) -> int:
    """J(n), the window half-width in labels.

    J(n) = ceil(sqrt((3/4) 2n M / (2 pi))) for n >= 1 and
    ceil(sqrt((3/4) M / (2 pi))) for n = 0 (see _window_x_max_sq).
    """
    return int(math.ceil(math.sqrt(_window_x_max_sq(n) * M / (2 * math.pi))))


# ---------------------------------------------------------------------------
# Window function: indicator convolved with the bump kernel
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(64)


def _bump_cdf(v):
    """Normalized integral of exp(-1/(1-s^2)) over [-1, v].

    Gauss-Legendre at fixed order 64; normalizing by the same-order full
    integral makes the band endpoints exactly 0 and 1.
    """
    v = np.clip(np.asarray(v, dtype=float), -1.0, 1.0)
    mid = 0.5 * (v - 1.0)
    rad = 0.5 * (v + 1.0)
    s = mid[..., None] + rad[..., None] * _GL_NODES
    s = np.clip(s, -1.0, 1.0)
    inner = 1.0 - s * s
    vals = np.where(inner > 1e-300, np.exp(-1.0 / np.maximum(inner, 1e-300)), 0.0)
    partial = rad * (vals @ _GL_WEIGHTS)
    full = np.exp(-1.0 / (1.0 - _GL_NODES**2)) @ _GL_WEIGHTS
    return partial / full


@dataclass(frozen=True)
class WindowFunction:
    """Smooth indicator g_n: 1 inside |x| <= x_max, 0 beyond x_max + 2*delta.

    x_max = sqrt(3n/2), sqrt(3)/2 of the turning point sqrt(2n), for n >= 1,
    and sqrt(3/4) for n = 0, which the paper text in the repo leaves open.
    """

    n: int

    @property
    def x_max(self) -> float:
        return math.sqrt(_window_x_max_sq(self.n))

    @property
    def delta(self) -> float:
        return 1.0 / (20.0 * math.sqrt(2 * self.n + 1))

    def value(self, x):
        """g_n(x): 1 for |x| <= x_max, 0 for |x| >= x_max + 2 delta, `_bump_cdf` between.

        The quadrature runs on the points inside that open band only, at most
        one grid label per side for `build_pr_state`: at n = 40, M = 20000 a
        state's window takes about 19 us, against 296 us over every label.
        """
        ax = np.abs(np.asarray(x, dtype=float))
        out = np.where(ax <= self.x_max, 1.0, 0.0)
        band = ~(ax <= self.x_max) & ~(ax >= self.x_max + 2 * self.delta)
        out[band] = _bump_cdf(2.0 * (self.x_max + self.delta - ax[band]) / self.delta)
        return out


# ---------------------------------------------------------------------------
# Plancherel-Rotach states
# ---------------------------------------------------------------------------


def pr_amplitude_phase(n: int, x: np.ndarray):
    """The envelope A_n(x) and oscillation phase Theta_n(x) of the approximant.

    phi_n(x) = A_n(x) sin(Theta_n(x)); the two pieces are what the amplitude
    and phase oracles of the state-preparation circuit compute, so r-bit
    oracle rounding is injected on them separately.
    """
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.full_like(x, np.pi**-0.25), np.full_like(x, 0.5 * np.pi)
    arg = np.clip(x / math.sqrt(2 * n + 1), -1.0, 1.0)
    phi = np.arccos(arg)
    sin_phi = np.maximum(np.sin(phi), 1e-300)
    theta = (n / 2.0 + 0.25) * (np.sin(2 * phi) - 2 * phi) + 0.75 * np.pi
    amp = 2**0.25 / (math.sqrt(math.pi) * n**0.25) / np.sqrt(sin_phi)
    return amp, theta


def build_pr_state(n: int, M: int, oracle_bits: int | None = None) -> np.ndarray:
    """Unnormalized length-M amplitudes sqrt(h)*phi_n(x_j)*g_n(x_j) on labels -J(n) .. J(n).

    The labels cover the flat part of the window, |x| <= x_max with
    x_max = sqrt(3n/2) for n >= 1, so J(n) = ceil(sqrt((3/4) 2n M / (2 pi))).
    The oscillation phi_n keeps Szego's scale x = sqrt(2n+1) cos(phi).  For
    n = 0, which the paper text in the repo does not fix, the state is the
    constant psi_0(0) on |x| <= sqrt(3/4).

    Only the labels 0..J are evaluated; label -l holds (-1)^n times label l,
    so the state has psi_n's parity bit for bit, and an odd state is exactly
    0 at label 0.  The outermost labels +-J lie at or beyond x_max, by less
    than one step h, where g_n may be anywhere in [0, 1].

    oracle_bits rounds the amplitude- and phase-oracle outputs to that many
    fractional bits before combining, modeling the finite-precision coherent
    arithmetic of the preparation circuit; the induced state perturbation is
    O(2^-bits), so bits ~ log2(1/eps) suffices (confirmed by the r-sweep
    tests).  None evaluates the oracles exactly.
    """
    J = pr_support(n, M)
    if J >= M // 2:
        raise ConfigError(f"M={M} too small for the n={n} oscillatory support (J={J})")
    spec = GridSpec(M)
    xs = np.arange(J + 1) * spec.h
    amp, theta = pr_amplitude_phase(n, xs)
    if oracle_bits is not None:
        scale = 2.0**oracle_bits
        amp = np.round(amp * scale) / scale
        theta = 2 * np.pi * np.round(theta / (2 * np.pi) * scale) / scale
    vals = amp * np.sin(theta) * WindowFunction(n).value(xs) * np.sqrt(spec.h)
    if n % 2:
        vals[0] = 0.0
    amps = np.zeros(M)
    amps[M // 2:M // 2 + J + 1] = vals
    amps[M // 2 - J:M // 2] = (-1.0) ** n * vals[J:0:-1]
    return amps


# ---------------------------------------------------------------------------
# Fixed-point amplitude amplification
# ---------------------------------------------------------------------------


def fixed_point_schedule(delta_lower: float, eps: float,
                         degree_override: int = 0):
    """Chebyshev phase schedule (alpha_j, beta_j), degree L = 2l+1.

    L is the smallest odd integer >= ln(2/eps)/delta_lower (or the explicit
    override when given); the phases are
    alpha_k = 2 arccot(tan(2 pi k / L) sqrt(1 - gamma^2)) with
    gamma^-1 = cosh(arccosh(1/eps)/L) and beta_k = -alpha_{l-k+1}, the
    standard fixed-point sequence that drives any initial overlap
    a >= delta_lower to at least 1 - eps without overshoot.
    """
    if not delta_lower > 0:   # NaN included
        raise ValueError(f"overlap lower bound must be positive, got {delta_lower}")
    if degree_override < 0:
        raise ValueError(f"degree override must be >= 0, got {degree_override}")
    L = degree_override or int(math.ceil(math.log(2.0 / eps) / delta_lower))
    if L % 2 == 0:
        L += 1
    ell = (L - 1) // 2
    if ell == 0:
        return L, []
    gamma = 1.0 / math.cosh(math.acosh(1.0 / eps) / L)
    sg = math.sqrt(1.0 - gamma * gamma)
    ks = np.arange(1, ell + 1)
    alpha = 2.0 * np.arctan2(1.0, np.tan(2 * np.pi * ks / L) * sg)
    beta = -alpha[::-1]
    return L, list(zip(alpha.tolist(), beta.tolist()))


def fixed_point_amplify(kept_norm: float, leak_norm: float, delta_lower: float,
                        eps: float, degree_override: int = 0):
    """Amplify the flagged amplitude of one block to within eps; returns (goal, rest).

    The walk lives in the 2-D span {flagged, rest}: the unit initial state is
    (a, b) = (kept_norm, leak_norm)/norm, and each round applies the flag phase
    exp(-i beta) to the flagged amplitude, then the reflection phase about the
    initial state itself, exp(+i alpha |init><init|) -- legitimate because the
    prepared state is rank one.  Both amplitudes are inputs because
    sqrt(1 - a^2) cancels near a = 1.  A zero state returns (0, 0), and
    a >= 1 - 1e-12 returns (a, b) unamplified.  The flagged work vector is
    kept * goal/kept_norm and |rest|^2 the unflagged mass left.
    """
    norm = math.hypot(kept_norm, leak_norm)
    if norm == 0:
        return 0j, 0j
    a, b = kept_norm / norm, leak_norm / norm
    goal, rest = complex(a), complex(b)
    if a >= 1.0 - 1e-12:
        return goal, rest
    _, phases = fixed_point_schedule(delta_lower, eps, degree_override)
    for alpha, beta in phases:
        goal *= np.exp(-1j * beta)
        kick = (np.exp(1j * alpha) - 1.0) * (a * goal + b * rest)
        goal, rest = goal + kick * a, rest + kick * b
    return goal, rest


# ---------------------------------------------------------------------------
# End-to-end transform
# ---------------------------------------------------------------------------


def _parity_part(row: np.ndarray, sign: float, out: np.ndarray) -> np.ndarray:
    """out <- (row + sign * P row)/2: the even part of row for sign +1, its odd part for -1.

    P mirrors the labels, l -> -l: index i -> -i mod M.  The map is the same
    in the position frame and `spectral_core`'s momentum frame: alt is
    symmetric and the DFT commutes with it.  `out` may be `row`: the
    labels -M/2 and 0 are their own mirrors, and each other label's pair is
    read before either of its entries is written, through one (M/2-1)-entry
    temporary.  The part is (anti)symmetric bit for bit, since x + y = y + x
    and x - y = -(y - x) in floating point, and has the same bits in place
    or not.
    """
    combine = np.add if sign > 0 else np.subtract
    h = row.shape[-1] // 2
    upper = combine(row[:h:-1], row[1:h])   # labels M/2-1 .. 1, from their mirrors
    combine(row[1:h], row[:h:-1], out=out[1:h])
    out[:h:-1] = upper
    combine(row[::h], row[::h], out=out[::h])
    out *= 0.5
    return out


def psibar_rows(M: int, blocks):
    """Yield |psibar_n>, normalized, for each n in `blocks`, in ascending order, one at a time.

    Row n is row n of `hermite_basis(GridSpec(M), ...)` divided by its norm,
    with those bits.  One pass of `hermite_functions` serves every block, so
    only its two rows and the row yielded are held, and no (N, M) array is.
    A block that is not an integer in [0, M) is named in a ValueError,
    raised before any row is computed; no blocks yield no rows.
    """
    spec, blocks = GridSpec(M), list(blocks)
    for n in blocks:
        if not (_is_int(n) and 0 <= n < M):
            raise ValueError(f"block {n!r} is not an integer in [0, {M})")
    wanted, scale = set(blocks), np.sqrt(spec.h)
    rows = hermite_functions(max(wanted), spec.points()) if wanted else ()
    for n, psi in enumerate(rows):
        if n in wanted:
            row = psi * scale
            row /= np.linalg.norm(row)
            yield row


def _build_workers(rows: int, M: int) -> int:
    """Workers for a build of `rows` rows of M labels.

    One per usable CPU, but no more than rows, and fewer while a share
    (rows // workers rows) would hold less than _WORKER_SHARE row-labels:
    on less work a second thread costs more than it saves.  At least one.
    """
    workers = min(_usable_cpus(), rows)
    while workers > 1 and rows // workers * M < _WORKER_SHARE:
        workers -= 1
    return workers


@dataclass(frozen=True)
class QHTResult:
    """One transform call; op_passes counts the V passes this call ran (0 once held)."""

    output: np.ndarray = field(repr=False)
    block_fidelities: np.ndarray
    filter_leaks: np.ndarray
    aa_residuals: np.ndarray
    uncompute_residual: float
    op_passes: int


class QHTOperator:
    """The simulated transform of one config: sum_n a_n |n> -> sum_n a_n s_n u_n.

    s_n = (-1)^n; u_n, the uncompute of amplified block n, is held in
    `columns`.  Block 2r and block 2r+1 share row r of the sweeps, and block
    N-1 has a row of its own when N is odd; every row takes the same path,
    so a block is built with its partner.  The rows are held as a prefix:
    rows_held rows, blocks 0 .. 2 rows_held - 1 (N - 1 at most), and a call
    holds every row up to the last block it touches (see `_hold`).  A call
    whose rows are held takes no lock and costs one check of alpha and one
    N x M product.  v_passes is derived from the held blocks: 2m passes of
    V or V^dagger each.

    What it holds, and nothing else of size M:
    - the columns: `columns` is the first N rows of `_store`, which has
      N + N % 2 rows of M complex, so the lone row of an odd N has a spare;
    - the half phase tables of m - 2 dyadic evolutions: of the m = log2(M)
      evolutions V(2^j 2pi/M), the filter is the m - 1 grid stages, then
      the parity split, where V(pi) is the split and V(pi/2) one FFT, so
      2(m-2) rows of (M/2+1)*16 bytes;
    - `phases`, the QPE phases c_{n,j} of the m - 1 grid stages, N x (m - 1)
      (see `_sweep`);
    - the six metrics, one row each of the 6 x N array `_metrics`: block
      fidelity, filter leak, AA residual, input mass ||w_n||^2, uncompute
      residual ||w_n||^2 - ||u_n||^2 and aa_phases, the angle of the `goal`
      amplitude that `fixed_point_amplify` returned for the block.  A call
      masks the first three, the ones it reports, in one step.
    It holds no basis: a build reads |psibar_n> once, for block n's
    fidelity, from `psibar_rows`.

    The columns are the build's workspace.  Row r is prepared, swept, split,
    amplified and uncomputed in column 2r, with column 2r+1 as its scratch
    (see `_hold_rows`).  The rows a build needs are dealt to worker
    threads, one per usable CPU when each share holds enough work (see
    `_build_workers`), and each worker sweeps its share as one stack;
    build_workers is the number of workers that ran the latest build (0
    before any): at the default grids, 1 up to N = 8 and 2 at N = 16 on
    two CPUs.  Beyond the columns a worker allocates only M-length rows
    while it runs: the mirrored and scaled row (then the mirrored label
    pairs), the uncompute's discarded branch, the parity split's half row,
    and, from its first amplification to its last, the two real rows of
    the Hermite recurrence and the normalized |psibar_n>.  numpy's FFT adds
    a batch buffer to each multi-row call.  BENCH_42.json records what an
    operator and its build measure.
    """

    def __init__(self, config: QHTConfig):
        M, N = config.M, config.N
        self.config = config
        base = 2 * math.pi / M
        self.dyadic_times = [base * (1 << j) for j in range(config.m_bits)]
        self.dyadic_tables = [evolution_tables(M, decompose(t)) for t in self.dyadic_times[:-2]]
        # c_{n,j} of the m - 1 grid stages, row n
        self.phases = np.exp(1j * np.asarray(self.dyadic_times[:-1])
                             * (np.arange(N)[:, None] + 0.5))
        self.signs = (-1.0) ** np.arange(N)
        self._store = np.zeros((N + N % 2, M), dtype=complex)
        self.columns = self._store[:N]
        self.rows_held = 0
        self._lock = threading.Lock()
        self._metrics = np.zeros((6, N))   # one row each; a call masks the first three
        (self.block_fidelities, self.filter_leaks, self.aa_residuals, self.input_mass,
         self.uncompute_residuals, self.aa_phases) = self._metrics
        self.build_workers = 0

    def _sweep(self, w: np.ndarray, rows, adjoint: bool,
               tmp: np.ndarray | None = None, lost: np.ndarray | None = None) -> np.ndarray:
        """The grid stages of the QPE filter (uncompute under adjoint) of rows[i] on row i of w.

        w is swept in place.

        The filter is the m-ancilla QPE interferometer flagging |psibar_n>.
        Its flagged component (ancillas |0...0>) is prod_j (I + c_{n,j} V_j)/2,
        j = 0 first, with c_{n,j} = exp(i 2^j (2pi/M)(n+1/2)) and
        V_j = V(2^j 2pi/M): m sequential evolutions, not 2^m branches.  Each
        c_{n,j} V_j is unitary, so the unflagged mass is exactly
        ||w||^2 - ||kept||^2.  Exchanging the sum over index basis states with
        the dyadic product collapses the inverse QPE to m products per block:
        prod_j (I + conj(c_{n,j}) V_j^dagger)/2.  The uncompute conjugates the
        filter's coefficients, held once in `phases`, rather than evaluating
        exp(-i ...), so both stages see the same bits.

        The filter is the m - 1 grid stages, then the parity split.  The most
        significant bit evolves for half a period, where V(pi) = -iP (P the
        reflection below), so c_{n,m-1} V(pi) = (-1)^n P and its stage is the
        projector onto psi_n's parity: `_hold_rows` applies it as the split
        into parity parts that follows each sweep, and the sweep runs the
        m - 1 stages below it.  The next bit evolves for a quarter period,
        where V(pi/2) = e^(-i pi/4) F^-1 (F the centered DFT) by the chirp
        factorization of the DFT (Bluestein, 1970), so stage m-2 is one FFT
        of the stack; the other m - 2 evolutions run from the held
        `dyadic_tables`.

        rows[i] is an even block and an odd one (n, n'), or a lone block
        (n,).  Row i carries e + o, e even and o odd under the reflection P
        (label l -> -l).  V_j commutes with P: the position factors' x^2, the
        momentum factors' symbol and the frame change are all symmetric.  So
        V_j e stays even and V_j o odd, and with t = V_j (e + o), P t = V_j e
        - V_j o.  Every pass adds c_{n,j} V_j e + c_{n',j} V_j o to the row
        as a_j t + b_j P t, with a_j = (c_{n,j} + c_{n',j})/2 and
        b_j = (c_{n,j} - c_{n',j})/2, taking n' = n for a lone block: one
        evolution serves both blocks, and the row's even and odd parts are
        exactly what each block alone would give.  A lone block's two phases
        are the same, so a_j = c_{n,j} and b_j = 0 exactly.

        w is a (k, M) stack of position-frame rows; in a build it is every
        other row of `_store` and `tmp` the rows between (see `_hold_rows`),
        and numpy's FFTs give a row the same bits in that strided stack as
        alone.  It enters the momentum
        frame of `spectral_core` and leaves it at the end; P is the same
        index map in both frames, and there V(pi/2) is
        w -> e^(-i pi/4) (-1)^(M/2) fft(w) / sqrt(M).  Each evolution runs
        once on the whole stack, into the (k, M) scratch `tmp`, and the
        constant factor of V(pi/2)'s closed form and the tables' global
        signs ride on a_j and b_j: both are scaled by the stage gains in one
        array product.  P t is read from the reversed view of t into
        one M-length scratch, scaled on the way.  The halvings are left out
        of the passes and applied once, as 2^-(m-1) at the end: power-of-two
        scaling is exact, so the result is bitwise that of halving each pass.

        With `lost`, a (k, 2) array, the discarded-branch mass
        sum_{j<m-1} ||(I - c_j V_j) x_j / 2||^2 of row i's even part is added to
        lost[i, 0] and that of its odd part to lost[i, 1], x_j being the
        part before pass j; block n reads slot n mod 2.  With d the
        discarded vector, a mirrored pair of labels l and -l (0 < l < M/2)
        carries |d_l + d_-l|^2 / 2 of even mass and |d_l - d_-l|^2 / 2 of odd
        mass, and the labels 0 and -M/2, their own mirrors, carry even mass
        only.  For a block that sum is exactly ||w||^2 - ||out||^2, summed
        from non-negative terms instead of taken as a difference, out being
        the block's parity part of the swept row.  It is
        measured in the position frame: the momentum frame scales squared
        norms by 1/M, undone exactly with the halvings.  Each row's terms go
        through M-length scratches, so a row's masses have the same bits
        whatever stack it runs in.
        """
        M, m = self.config.M, self.config.m_bits
        h = M // 2
        first, last = (self.phases[[blocks[k] for blocks in rows]] for k in (0, -1))
        if adjoint:
            first, last = first.conj(), last.conj()
        # V(pi/2) = e^(-i pi/4) F^-1 is w -> e^(-i pi/4) s fft(w) / sqrt(M) in the frame;
        # the adjoint conjugated
        quarter = (-1.0) ** h * ((1 + 1j) * math.sqrt(M / 2) if adjoint
                                 else (1 - 1j) / math.sqrt(2 * M))
        gains = np.array([tables.global_sign for tables in self.dyadic_tables] + [quarter])
        gain_a, gain_b = (first + last) / 2 * gains, (first - last) / 2 * gains
        tmp = np.empty_like(w) if tmp is None else tmp
        refl = np.empty(M, dtype=complex)
        diff = None if lost is None else np.empty(M, dtype=complex)
        _enter_frame(w)
        for j in range(m - 1):
            if j < m - 2:
                src = _frame_steps(self.dyadic_tables[j], w, adjoint, out=tmp)
            else:
                src = (np.fft.ifft if adjoint else np.fft.fft)(w, out=tmp)
            scale = M * 0.25 ** (j + 1)
            for i, (row, t, kick) in enumerate(zip(w, src, tmp)):
                np.multiply(t[:0:-1], gain_b[i, j], out=refl[1:])
                np.multiply(t[:1], gain_b[i, j], out=refl[:1])
                np.multiply(t, gain_a[i, j], out=kick)
                kick += refl
                if lost is not None:   # row and kick carry 2^j x_j and 2^j c_j V_j x_j
                    np.subtract(row, kick, out=diff)
                    pairs = refl[:h - 1]   # the mirrored labels l and -l, 0 < l < M/2
                    for k, combine in enumerate((np.add, np.subtract)):
                        flat = combine(diff[1:h], diff[:h:-1], out=pairs).view(float)
                        lost[i, k] += np.einsum("i,i->", flat, flat) * (scale / 2)
                    ends = diff[::h]   # labels 0 and -M/2 are their own mirrors: even alone
                    lost[i, 0] += np.vdot(ends, ends).real * scale
            w += tmp
        w *= 0.5 ** (m - 1)
        return _from_frame(w)

    @property
    def v_passes(self) -> int:
        """Circuit passes of V or V^dagger: m by the filter and m by the uncompute per held block.

        These count the circuit, whatever the simulator runs.  It runs one
        pass of a row for both of its blocks, so 2m passes per row, not per
        block: `qht --N 16` counts 448 and runs 224.  The filter is the
        m - 1 grid stages, then the parity split, and so is the uncompute:
        of a row's 2m passes, 2(m-2) are factored evolutions, two are
        Fourier transforms and two are the parity splits (see `_sweep`).
        """
        return 2 * self.config.m_bits * min(2 * self.rows_held, self.config.N)

    def _hold(self, k: int) -> int:
        """Hold blocks 0..k-1: build the rows past rows_held up to block k-1's, with their metrics.

        The rows held are always a prefix, so a block is built with its row
        partner and every row before it, and the bits of a column do not
        depend on which blocks a call asked for.  The rows to build are
        dealt to `_build_workers` workers: one per usable CPU, but no more
        than rows, and only as many as leave each share _WORKER_SHARE
        row-labels.  `spectral_core._run_workers` deals range(start, stop):
        worker i takes rows start + i, start + i + workers, ..., so the
        shares differ by at most one row (on two CPUs the 40 rows of N = 80
        at M = 4096 give each worker 20), and sweeps its share as one stack
        of strided views into `_store` (see `_hold_rows`).  A row's bits do
        not depend on its worker or on the other rows of its stack, so
        neither do the columns.  The calling thread is the first worker, so
        with one worker no thread is started, and numpy's FFTs release the
        interpreter lock, so the workers' sweeps overlap.  A worker's error
        is raised here once every worker has stopped; the build then holds
        none of its rows, and their columns are zeroed.
        One lock per operator serialises the builds: two threads that build
        one cached operator would otherwise sweep in the same columns, and a
        thread that waited finds its rows held.  A call whose rows are held
        returns before the lock, so it never waits for another thread's
        build: rows_held only grows, and is written after its columns and
        metrics.  Returns the number of blocks built.
        """
        stop = (k + 1) // 2
        if stop <= self.rows_held:
            return 0
        with self._lock:
            start = self.rows_held
            if stop <= start:
                return 0
            workers = self.build_workers = _build_workers(stop - start, self.config.M)
            try:
                _run_workers(self._hold_rows, range(start, stop), workers)
            except Exception:
                self._store[2 * start:2 * stop] = 0.0
                raise
            self.rows_held = stop
            return min(2 * stop, self.config.N) - 2 * start

    def _hold_rows(self, rows: range) -> None:
        """Build rows as one stack in `_store`: row r in column 2r, column 2r+1 its scratch.

        The stack is the strided view of columns 2r over the rows, and its
        scratch the view of columns 2r+1.  The row is cleared, its PR
        states, normalized, are written to the scratch in turn and summed
        into it, and the stack is swept.  The row is then split into its
        blocks' parity parts, the filter's half-period stage: the even
        block's into the scratch, then the odd block's in place.  Each part
        is amplified as its own block and the row is set to the sum of the
        parts (a lone block's part added to zero), so between the sweeps
        every block is its row's parity part.  The stack is swept back in
        place, and the same split, the uncompute's half-period stage, writes
        the columns, odd block first into the scratch, then even in place,
        so column n has (-1)^n parity bit for bit.  Until its block is
        amplified, input_mass[n] holds the prepared state's mass, from which
        the filter leak is read; the row is not held until every metric is
        final.  The block fidelities read |psibar_n> from one pass of
        `psibar_rows` over the stack's blocks, in the order they are
        amplified, and the pass is closed before the uncompute.
        """
        cfg = self.config
        w = self._store[2 * rows.start:2 * rows.stop:2 * rows.step]
        tmp = self._store[2 * rows.start + 1:2 * rows.stop:2 * rows.step]
        blocks = [tuple(range(2 * r, min(2 * r + 2, cfg.N))) for r in rows]
        targets = psibar_rows(cfg.M, [n for pair in blocks for n in pair])
        w[:] = 0.0
        for row, part, pair in zip(w, tmp, blocks):
            for n in pair:
                amps = build_pr_state(n, cfg.M, cfg.oracle_bits)
                part[:] = amps / np.linalg.norm(amps)
                self.input_mass[n] = np.vdot(part, part).real   # the filter's, until amplified
                row += part
        self._sweep(w, blocks, False, tmp)
        for row, part, pair in zip(w, tmp, blocks):
            parts = [_parity_part(row, (-1) ** n, out) for n, out in zip(pair, (part, row))]
            for vec, n in zip(parts, pair):
                leak = max(self.input_mass[n] - float(np.vdot(vec, vec).real), 0.0)
                kept_norm = float(np.linalg.norm(vec))
                goal, rest = fixed_point_amplify(kept_norm, math.sqrt(leak), cfg.delta_lower,
                                                 cfg.eps, cfg.aa_rounds)
                if kept_norm:
                    vec *= goal / kept_norm
                self.filter_leaks[n] = leak
                self.aa_residuals[n] = abs(rest) ** 2
                self.block_fidelities[n] = abs(np.vdot(next(targets), vec))
                self.aa_phases[n] = cmath.phase(goal)
                self.input_mass[n] = float(np.vdot(vec, vec).real)
            np.add(row if len(pair) == 2 else 0.0, part, out=row)   # a lone block: its part alone
        targets.close()   # its recurrence rows are not held through the uncompute
        lost = np.zeros((len(blocks), 2))
        self._sweep(w, blocks, True, tmp, lost)
        for row, pair, row_lost in zip(w, blocks, lost):
            for n in reversed(pair):
                _parity_part(row, (-1) ** n, self.columns[n])
                self.uncompute_residuals[n] = row_lost[n % 2]

    def matrix(self) -> np.ndarray:
        """All N columns u_n as rows, read-only: every caller of a config shares them."""
        self._hold(self.config.N)
        view = self.columns.view()
        view.flags.writeable = False
        return view

    def apply(self, alpha: np.ndarray) -> QHTResult:
        """sum_n a_n s_n u_n for len(alpha) <= N; blocks with a_n = 0 report 0 metrics.

        Before any row is built, alpha is refused unless it is 1-D, finite
        and at most N long, as in `qht_apply`; unlike there, any norm passes.
        """
        return self._answer(_checked_alpha(alpha, self.config.N)[0])

    def _answer(self, alpha: np.ndarray) -> QHTResult:
        """`apply` on a checked alpha: hold the rows it touches, then one product.

        Holds every row up to the last block alpha touches.  The uncompute
        residual is sum_n |a_n|^2 ||w_n||^2 - ||out||^2.
        """
        k, touched = len(alpha), alpha != 0
        last = touched.nonzero()[0][-1:]   # the last block alpha touches, if any
        built = self._hold(int(last[0]) + 1 if last.size else 0)
        out = (alpha * self.signs[:k]) @ self.columns[:k]
        total_in = float(np.abs(alpha) ** 2 @ self.input_mass[:k])
        fid, leak, aa = np.where(touched, self._metrics[:3, :k], 0.0)
        return QHTResult(output=out, block_fidelities=fid, filter_leaks=leak, aa_residuals=aa,
                         uncompute_residual=max(total_in - float(np.vdot(out, out).real), 0.0),
                         op_passes=2 * self.config.m_bits * built)


def _checked_alpha(alpha, N: int) -> tuple[np.ndarray, float]:
    """alpha as a complex 1-D array of at most N finite entries, and its squared norm.

    The squared norm, one `np.vdot`, is finite whenever every entry is, so
    the entries are looked at only when it is not: a NaN or an infinity
    fails as not finite, and finite entries whose squares overflow pass,
    with an infinite norm.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.ndim != 1:
        raise ValueError(f"alpha must be a 1-D amplitude vector, got shape {alpha.shape}")
    if len(alpha) > N:
        raise ConfigError(f"alpha has {len(alpha)} entries but config.N={N}")
    norm_sq = np.vdot(alpha, alpha).real
    if not math.isfinite(norm_sq) and not np.isfinite(alpha).all():
        raise ValueError("alpha must be finite")
    return alpha, norm_sq


@functools.lru_cache(maxsize=4)
def qht_operator(config: QHTConfig) -> QHTOperator:
    """The held operator of a config; the four most recently used are kept."""
    return QHTOperator(config)


def qht_reference(alpha: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Ground truth sum_n alpha_n (-1)^n |psibar_n>; row n of basis is |psibar_n>."""
    alpha = np.asarray(alpha, dtype=complex)
    signs = (-1.0) ** np.arange(len(alpha))
    return (alpha * signs) @ basis[:len(alpha)].astype(complex)


def qht_apply(alpha: np.ndarray, config: QHTConfig) -> QHTResult:
    """Simulate the transform on amplitude vector alpha (length <= N).

    alpha is checked once, as `QHTOperator.apply` checks it and for unit
    norm, before any column is built.  The first call at a config computes
    the columns alpha touches; a later call whose columns are all held is
    that check and one matrix-vector product.
    """
    alpha, norm_sq = _checked_alpha(alpha, config.N)
    if not abs(math.sqrt(norm_sq) - 1.0) <= 1e-9:
        raise ValueError("alpha must be normalized")
    return qht_operator(config)._answer(alpha)
