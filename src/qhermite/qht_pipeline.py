"""The full Hermite-transform pipeline simulated as statevector operations.

The map sum_n alpha_n |n> -> sum_n alpha_n |psibar_n> is realized in four
stages: Plancherel-Rotach state preparation, phase-estimation filtering that
flags the target Hermite state on an ancilla register, fixed-point amplitude
amplification driving the flagged overlap to 1 - eps, and inverse-QPE
uncomputation of the index register.

Every pipeline unitary is block-diagonal in the index n, so each block is
simulated independently on a dimension-M work register and the blocks are
recombined linearly; this replaces the M^2-dimensional joint statevector with
N independent M-vectors.  Within a block, the amplification walk lives
exactly in the 2-complex-dimensional span of the prepared joint state and its
flagged component, so the M-qubit filter ancillas never need to be
materialized: a block's joint state is carried as the flagged work vector
plus one scalar coordinate along the (fixed) unflagged remainder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .calibration import Calibration
from .discrete_qho import DiscreteHermiteBasis, build, hermite_basis, loewdin_orthonormalize
from .fast_forward import apply_tables, decompose, evolution_tables
from .spectral_core import GridSpec

__all__ = [
    "QHTConfig",
    "ConfigError",
    "WindowFunction",
    "PlancherelRotachState",
    "FilterResult",
    "choose_dimensions",
    "config_to_json",
    "config_from_json",
    "pr_support",
    "window_value",
    "build_pr_state",
    "pr_amplitude_phase",
    "eigenstate_filter",
    "filter_unitaries",
    "fixed_point_schedule",
    "fixed_point_amplify",
    "uncompute_index",
    "qht_apply",
    "qht_reference",
    "loewdin_orthonormalize",
    "isometry_singular_values",
    "pr_high_energy_leakage",
    "QHTResult",
]


class ConfigError(ValueError):
    """Infeasible transform configuration (reported, never silently clamped)."""


@dataclass(frozen=True)
class QHTConfig:
    """Dimensions and knobs for one transform instance."""

    N: int                  # transform dimension (indices 0..N-1)
    eps: float              # target additive error
    M: int                  # ambient work-register dimension (power of two)
    N_high: int             # high-energy cutoff for leakage accounting
    r: int = 32             # amplitude/phase oracle precision bits
    aa_rounds: int = 0      # fixed-point degree L override; 0 derives from eps
    delta_lower: float = 0.3  # guaranteed flagged-overlap lower bound
    signed_output: bool = True  # reinstate the (-1)^n sign convention
    quantize_oracles: bool = False  # inject r-bit rounding into state prep

    @property
    def m_bits(self) -> int:
        return int(round(math.log2(self.M)))


def choose_dimensions(N: int, eps: float, calibration: Calibration | None = None,
                      hard_cap: int = 1 << 20) -> QHTConfig:
    """Smallest power-of-two M >= c0*N^(9/4)/eps^(13/4) (plus feasibility floors).

    N_high = ceil(c1*N/eps).  The floors keep N_high < M and leave the
    oscillatory support of every prepared state strictly inside the grid.
    """
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    if not (0 < eps < 1):
        raise ConfigError(f"eps must be in (0, 1), got {eps}")
    cal = calibration or Calibration()
    n_high = int(math.ceil(cal.c1 * N / eps))
    floor = max(cal.c0 * N**2.25 / eps**3.25, n_high + 2, 16 * N, 16)
    M = 1 << max(4, int(math.ceil(math.log2(floor))))
    if M > hard_cap:
        raise ConfigError(
            f"required M={M} exceeds the hard cap {hard_cap}; "
            f"requested (N={N}, eps={eps}) with c0={cal.c0}")
    if pr_support(N - 1, M) >= M // 2:
        raise ConfigError(f"M={M} too small for the n={N - 1} oscillatory support")
    return QHTConfig(N=N, eps=eps, M=M, N_high=n_high)


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


def config_to_json(config: QHTConfig, path) -> None:
    """Persist a transform configuration as human-readable key/value JSON."""
    import json
    from dataclasses import asdict

    with open(path, "w") as fh:
        json.dump({"version": 1, **asdict(config)}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_from_json(path) -> QHTConfig:
    import json

    with open(path) as fh:
        data = json.load(fh)
    data.pop("version", None)
    return QHTConfig(**data)


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
        ax = np.abs(np.asarray(x, dtype=float))
        v = 2.0 * (self.x_max + self.delta - ax) / self.delta
        out = _bump_cdf(v)
        out = np.where(ax <= self.x_max, 1.0, out)
        out = np.where(ax >= self.x_max + 2 * self.delta, 0.0, out)
        return out


def window_value(n: int, x):
    """g_n(x); scalar in, scalar out."""
    res = WindowFunction(n).value(np.asarray(x, dtype=float))
    return float(res) if np.isscalar(x) or np.asarray(x).ndim == 0 else res


# ---------------------------------------------------------------------------
# Plancherel-Rotach states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlancherelRotachState:
    """Windowed oscillatory approximant of |psibar_n>, stored unnormalized."""

    n: int
    M: int
    J: int
    amplitudes: np.ndarray = field(repr=False)  # length M, sqrt(h)*phi_n(x_j)
    norm: float

    def normalized(self) -> np.ndarray:
        return self.amplitudes / self.norm


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


def build_pr_state(n: int, config: QHTConfig,
                   quantize_bits: int | None = None) -> PlancherelRotachState:
    """Amplitudes sqrt(h)*phi_n(x_j)*g_n(x_j) on labels -J(n) .. J(n)-1.

    The labels cover the flat part of the window, |x| <= x_max with
    x_max = sqrt(3n/2) for n >= 1, so J(n) = ceil(sqrt((3/4) 2n M / (2 pi))).
    The oscillation phi_n keeps Szego's scale x = sqrt(2n+1) cos(phi).  For
    n = 0, which the paper text in the repo does not fix, the state is the
    constant psi_0(0) on |x| <= sqrt(3/4).

    quantize_bits rounds the amplitude- and phase-oracle outputs to that many
    fractional bits before combining, modeling the finite-precision coherent
    arithmetic of the preparation circuit; the induced state perturbation is
    O(2^-bits), so bits ~ log2(1/eps) suffices (confirmed by the r-sweep
    tests).  None evaluates the oracles exactly.
    """
    M = config.M
    J = pr_support(n, M)
    if J >= M // 2:
        raise ConfigError(f"M={M} too small for the n={n} oscillatory support (J={J})")
    spec = GridSpec(M)
    idx = np.arange(M // 2 - J, M // 2 + J)
    xs = (idx - M // 2) * spec.h
    amp, theta = pr_amplitude_phase(n, xs)
    if quantize_bits is not None:
        scale = 2.0**quantize_bits
        amp = np.round(amp * scale) / scale
        theta = 2 * np.pi * np.round(theta / (2 * np.pi) * scale) / scale
    vals = amp * np.sin(theta) * WindowFunction(n).value(xs) * np.sqrt(spec.h)
    amps = np.zeros(M)
    amps[idx] = vals
    return PlancherelRotachState(n=n, M=M, J=J, amplitudes=amps,
                                 norm=float(np.linalg.norm(amps)))


# ---------------------------------------------------------------------------
# Eigenstate filtering (QPE interferometer)
# ---------------------------------------------------------------------------


class _PipelineContext:
    """Per-(M, N) cache: grid, oscillator, Hermite basis, and the dyadic tables.

    The m = log2(M) dyadic evolutions V(2^j 2pi/M) have their phase tables
    built once here.  All but the last take three factors and two tables;
    the last (t = pi) takes five factors and three tables.  That is 2m+1
    half tables of M/2+1 complex entries, (2m+1)(M/2+1)*16 bytes: 0.78 MB at
    M = 4096 and 3.6 MB at M = 16384.
    """

    def __init__(self, config: QHTConfig):
        self.config = config
        self.spec = GridSpec(config.M)
        self.qho = build(self.spec)
        self.basis = hermite_basis(self.spec, config.N - 1)
        m = config.m_bits
        base = 2 * math.pi / config.M
        self.dyadic_times = [base * (1 << j) for j in range(m)]
        self.dyadic_tables = [evolution_tables(config.M, decompose(t))
                              for t in self.dyadic_times]
        self.op_passes = 0

    def apply_V(self, j: int, v: np.ndarray) -> np.ndarray:
        self.op_passes += 1
        return apply_tables(self.dyadic_tables[j], v)

    def apply_V_adjoint(self, j: int, v: np.ndarray) -> np.ndarray:
        self.op_passes += 1
        return apply_tables(self.dyadic_tables[j], v, adjoint=True)


_CTX_CACHE: dict = {}


def _ctx(config: QHTConfig) -> _PipelineContext:
    M = config.M
    if M < 1 or M & (M - 1):
        raise ConfigError(f"phase estimation needs a power-of-two M, got M={M}")
    key = (M, config.N)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = _PipelineContext(config)
        _CTX_CACHE[key] = ctx
    return ctx


@dataclass(frozen=True)
class FilterResult:
    """Flagged component (ancillas |0...0>) and the orthogonal remainder's mass."""

    kept: np.ndarray = field(repr=False)
    leaked_mass: float

    @property
    def kept_norm(self) -> float:
        return float(np.linalg.norm(self.kept))


def filter_unitaries(n: int, config: QHTConfig):
    """The W_{n,j} = V(2^j 2pi/M) * exp(i 2^j (2pi/M)(n+1/2)) as callables."""
    ctx = _ctx(config)

    def apply_w(j: int, v: np.ndarray) -> np.ndarray:
        phase = np.exp(1j * ctx.dyadic_times[j] * (n + 0.5))
        return phase * ctx.apply_V(j, v)

    return apply_w


def eigenstate_filter(state: np.ndarray, n: int, config: QHTConfig) -> FilterResult:
    """Simulate the m-ancilla QPE interferometer flagging |psibar_n>.

    The flagged component is prod_j (I + W_{n,j})/2 applied to the input
    (m sequential factored evolutions, not 2^m branches); unitarity of each
    W makes the unflagged mass exactly ||in||^2 - ||kept||^2.
    """
    v = np.asarray(state, dtype=complex)
    if v.shape[-1] != config.M:
        raise ValueError(f"dimension mismatch: {v.shape[-1]} vs M={config.M}")
    apply_w = filter_unitaries(n, config)
    kept = v.copy()
    for j in range(config.m_bits):
        kept = 0.5 * (kept + apply_w(j, kept))
    in_sq = float(np.vdot(v, v).real)
    kept_sq = float(np.vdot(kept, kept).real)
    return FilterResult(kept=kept, leaked_mass=max(in_sq - kept_sq, 0.0))


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
    if delta_lower <= 0:
        raise ValueError("overlap lower bound must be positive")
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


def fixed_point_amplify(prepare_op, flag_projector, delta_lower: float, eps: float,
                        degree_override: int = 0):
    """Amplify the flagged component of the prepared state to within eps.

    prepare_op() returns the joint initial vector |init>; flag_projector(v)
    projects onto the flagged subspace.  Each round applies the flag phase
    exp(-i beta P) followed by the reflection-phase about |init| itself
    (exp(+i alpha |init><init|) -- legitimate because the prepared state is
    rank one).  Returns the final joint vector, which carries every
    amplified block to within eps of its flagged target simultaneously.
    """
    init = np.asarray(prepare_op(), dtype=complex)
    p_init = flag_projector(init)
    if float(np.linalg.norm(p_init)) >= 1.0 - 1e-12:
        return init.copy()
    _, phases = fixed_point_schedule(delta_lower, eps, degree_override)
    v = init.copy()
    for alpha, beta in phases:
        v = v + (np.exp(-1j * beta) - 1.0) * flag_projector(v)
        v = v + (np.exp(1j * alpha) - 1.0) * np.vdot(init, v) * init
    return v


def _amplify_block(kept: np.ndarray, leaked_mass: float, delta_lower: float,
                   eps: float, degree_override: int = 0):
    """Run the amplification on one block's (work, leak-coordinate) joint vector.

    Returns (work_vector, residual_unflagged_mass) after the walk.
    """
    M = len(kept)
    init = np.concatenate([kept, [math.sqrt(max(leaked_mass, 0.0))]])
    nrm = np.linalg.norm(init)
    if nrm == 0:
        return kept.copy(), 0.0
    init = init / nrm

    def project(v):
        out = v.copy()
        out[-1] = 0.0
        return out

    final = fixed_point_amplify(lambda: init, project, delta_lower, eps,
                                degree_override)
    return final[:M], float(abs(final[-1]) ** 2)


# ---------------------------------------------------------------------------
# Uncomputation of the index register
# ---------------------------------------------------------------------------


def uncompute_index(joint_state: dict, config: QHTConfig):
    """Inverse-QPE reset of the index register, blockwise.

    joint_state maps n -> work vector v_n (the |n> block).  Exchanging the
    sum over index basis states with the dyadic product collapses the inverse
    QPE to m sequential operations per block:
        out_n = prod_j (I + exp(-i 2 pi n 2^j / M) V_j^dagger) / 2 . v_n
    with V_j = V(2^j 2pi/M) exp(i 2^j (2pi/M)/2).  The transform output on
    the reset register is sum_n out_n; the residual index mass is
    sum ||v_n||^2 - ||sum_n out_n||^2, reported (not raised).
    """
    return _uncompute(_ctx(config), joint_state.items())


def _uncompute(ctx: _PipelineContext, blocks):
    """Uncompute (n, v_n) pairs one at a time; returns (sum_n out_n, residual)."""
    out = np.zeros(ctx.config.M, dtype=complex)
    total_in = 0.0
    for n, v in blocks:
        v = np.asarray(v, dtype=complex)
        total_in += float(np.vdot(v, v).real)
        w = v
        for j, t_j in enumerate(ctx.dyadic_times):
            c = np.exp(-1j * t_j * n) * np.exp(-1j * t_j * 0.5)
            w = 0.5 * (w + c * ctx.apply_V_adjoint(j, w))
        out += w
    residual = max(total_in - float(np.vdot(out, out).real), 0.0)
    return out, residual


# ---------------------------------------------------------------------------
# End-to-end transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QHTResult:
    output: np.ndarray = field(repr=False)
    block_fidelities: np.ndarray
    filter_leaks: np.ndarray
    aa_residuals: np.ndarray
    uncompute_residual: float
    op_passes: int


def qht_reference(alpha: np.ndarray, basis: DiscreteHermiteBasis,
                  signed: bool = True, loewdin: bool = False) -> np.ndarray:
    """Ground truth sum_n alpha_n |psibar_n> (optionally Loewdin-orthonormalized)."""
    alpha = np.asarray(alpha, dtype=complex)
    states = basis.states[:len(alpha)].astype(complex)
    if loewdin:
        states = loewdin_orthonormalize(states)
    if signed:
        signs = (-1.0) ** np.arange(len(alpha))
        return (alpha * signs) @ states
    return alpha @ states


def qht_apply(alpha: np.ndarray, config: QHTConfig) -> QHTResult:
    """Simulate the transform on amplitude vector alpha (length <= N)."""
    alpha = np.asarray(alpha, dtype=complex)
    if len(alpha) > config.N:
        raise ConfigError(f"alpha has {len(alpha)} entries but config.N={config.N}")
    if abs(np.linalg.norm(alpha) - 1.0) > 1e-9:
        raise ValueError("alpha must be normalized")
    ctx = _ctx(config)
    ctx.op_passes = 0
    fidelities = np.zeros(len(alpha))
    leaks = np.zeros(len(alpha))
    residuals = np.zeros(len(alpha))

    def amplified_blocks():
        # yields each block as soon as it is amplified, so the uncompute
        # holds one block's work vector at a time
        for n, a_n in enumerate(alpha):
            if a_n == 0:
                continue
            psi_n = ctx.basis.state(n)
            psi_n = psi_n / np.linalg.norm(psi_n)
            bits = config.r if config.quantize_oracles else None
            pr = build_pr_state(n, config, quantize_bits=bits)
            filt = eigenstate_filter(pr.normalized(), n, config)
            leaks[n] = filt.leaked_mass
            work, residual = _amplify_block(filt.kept, filt.leaked_mass,
                                            config.delta_lower, config.eps,
                                            config.aa_rounds)
            residuals[n] = residual
            fidelities[n] = abs(np.vdot(psi_n, work))
            sign = (-1.0) ** n if config.signed_output else 1.0
            yield n, a_n * sign * work

    out, unc_residual = _uncompute(ctx, amplified_blocks())
    return QHTResult(output=out, block_fidelities=fidelities, filter_leaks=leaks,
                     aa_residuals=residuals, uncompute_residual=unc_residual,
                     op_passes=ctx.op_passes)


def isometry_singular_values(config: QHTConfig) -> np.ndarray:
    """Singular values of the simulated transform restricted to n < N."""
    cols = []
    for n in range(config.N):
        e = np.zeros(config.N)
        e[n] = 1.0
        cols.append(qht_apply(e, config).output)
    return np.linalg.svd(np.array(cols).T, compute_uv=False)


def pr_high_energy_leakage(n: int, config: QHTConfig, eig) -> float:
    """||Pi_{>N_high} |phi_n>||^2 for the unnormalized prepared state."""
    pr = build_pr_state(n, config)
    low = eig.vectors[:, :config.N_high + 1]
    amps = pr.amplitudes.astype(complex)
    inside = low.conj().T @ amps
    return float(max(np.vdot(amps, amps).real - np.vdot(inside, inside).real, 0.0))
