"""Sampling from the Hermite spectrum of black-box functions over the Gaussian.

Conventions.  The sampling and learning layers expand functions in the
orthonormal probabilist Hermite polynomials h_k under the standard normal
density nu(x) = exp(-x^2/2)/sqrt(2*pi), so Parseval and "Gaussian
distribution" statements hold exactly: fhat(v) = E[f(X) h_v(X)].  The
oscillator modules work with physicist Hermite functions on the grid
x_j = j*sqrt(2*pi/M); the two pictures are glued by the exact change of
variables x = sqrt(2)*y, under which
    h_k(x) sqrt(nu(x)) = 2^(-1/4) psi_k(x / sqrt(2)),
so multiplying the discrete oscillator ground state by f(sqrt(2)*y) and
projecting onto |psibar_v> is a Riemann sum for fhat(v); the Jacobian is
absorbed exactly.  The samplers evaluate their oracles at sqrt(2) times the
grid for this reason.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .discrete_qho import hermite_basis
from .spectral_core import GridSpec, probabilist_rows

__all__ = [
    "OracleFunction",
    "SamplerConfig",
    "HermiteSample",
    "SpectrumTable",
    "SampleDistribution",
    "coefficient_oracle",
    "spectrum_table",
    "sample_distribution",
    "general_hermite_sample",
    "distortion",
    "tv_distance",
    "suggest_quadrature_M",
]

FULL_GRID_BUDGET = 26  # n * log2(points per axis) cap for a dense tensor grid
_SLAB_POINTS = 1 << 16  # dense oracles are evaluated this many grid points at a time


class PostselectionFailure(RuntimeError):
    """Rejection loop exceeded its attempt cap."""


@dataclass(frozen=True)
class OracleFunction:
    """Real function on R^n with declared precision, degree cutoff, distortion.

    evaluator acts on arrays of shape (..., n) and returns shape (...).
    input_bits, when set, snaps inputs to the anchor of their dyadic cube of
    side 2^-input_bits before evaluation (f is constant on those cubes);
    output_bits rounds outputs to that many fractional bits.  kappa is the
    declared well-conditioning parameter: the rejection sampler is promised
    a per-attempt success probability of at least 1/(2*kappa).
    range_bounded declares |f| <= 1; unbounded oracles still sample (the
    amplitude rescale is folded into the controlled rotation) but pay for it
    in postselection probability, which the declared kappa must cover.
    """

    arity: int
    evaluator: object
    degree_cutoff: int = 9
    input_bits: int | None = None
    output_bits: int | None = None
    kappa: float = 1.0
    boolean: bool = False
    range_bounded: bool = True
    gamma: float | None = None   # declared E||grad f||^2 proxy, when known
    label: str = ""
    product_factors: tuple | None = None  # optional per-axis callables

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.shape[-1] != self.arity:
            raise ValueError(f"expected points in R^{self.arity}, got shape {pts.shape}")
        if self.input_bits is not None:
            scale = 2.0**self.input_bits
            pts = np.floor(pts * scale) / scale
        vals = np.asarray(self.evaluator(pts), dtype=float)
        if self.output_bits is not None:
            oscale = 2.0**self.output_bits
            vals = np.round(vals * oscale) / oscale
        return vals


@dataclass(frozen=True)
class HermiteSample:
    """One draw v from the spectrum distribution (coordinates within [0, D])."""

    v: tuple
    attempts: int = 1
    out_of_range: bool = False


@dataclass(frozen=True)
class SpectrumTable:
    """Map v -> fhat(v) for v in [0, D]^n, with the captured mass."""

    arity: int
    D: int
    coefficients: dict = field(repr=False)
    mass: float = 0.0
    basis: str = "probabilist-orthonormal"

    def coefficient(self, v) -> float:
        return self.coefficients.get(tuple(v), 0.0)

    def probabilities(self, norm_sq: float = 1.0) -> dict:
        return {v: c * c / norm_sq for v, c in self.coefficients.items()}


def _quad_grid(M_quad: int):
    """Midpoint quadrature grid: spacing h = sqrt(2pi/M) over [-L, L].

    Cell midpoints (k + 1/2) h rather than the label grid k h: the points
    come in exact +-x pairs, so odd integrands cancel to rounding (the sgn
    spectrum's even coefficients vanish as they should), and no evaluation
    ever lands on a dyadic step anchor.
    """
    spec = GridSpec(M_quad)
    return (spec.labels + 0.5) * spec.h, spec.h


def _nu(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def _grid_contract(n: int, evaluate, grid: np.ndarray, mats=None, factors=None, weights=None):
    """Contract f over the n-fold tensor grid, one mode product per axis.

    With W = f * prod_k weights[k] on the grid (weights default to 1), returns
    (T, sum |W|^2, max |f|), where T[r_1..r_n] = sum_i W(i) prod_k mats[k][r_k, i_k]
    (T is None without mats).  A product oracle (`factors`, one callable per
    axis) is rank-1: T is the outer product of the per-axis contractions.  Any
    other `evaluate` (points of shape (..., n) to values (...)) is evaluated
    in slabs of at most 2^16 points -- the trailing axes whole, the leading
    ones flattened and walked in slices -- under the one budget
    n * log2(len(grid)) <= FULL_GRID_BUDGET.
    """
    G = len(grid)
    weights = [np.ones(G)] * n if weights is None else weights
    if factors is not None:
        T, sum_sq, sup = 1.0, 1.0, 1.0
        for k, factor in enumerate(factors):
            fk = np.asarray(factor(grid), dtype=float)
            W = weights[k] * fk
            sum_sq *= float(np.sum(np.abs(W) ** 2))
            sup *= float(np.abs(fk).max())
            T = None if mats is None else np.multiply.outer(T, mats[k] @ W)
        return T, sum_sq, sup
    if n * math.log2(G) > FULL_GRID_BUDGET:
        raise ValueError(f"full-grid budget exceeded (n={n}, {G} points per axis)")
    trail = 0
    while trail < n - 1 and G ** (trail + 1) <= _SLAB_POINTS:
        trail += 1
    lead = n - trail
    lead_idx = np.indices((G,) * lead).reshape(lead, -1)
    trail_pts = grid[np.moveaxis(np.indices((G,) * trail), 0, -1)]
    lead_w = np.prod([w[i] for w, i in zip(weights, lead_idx)], axis=0)
    trail_w = functools.reduce(np.multiply.outer, weights[lead:], 1.0)
    if mats is not None:   # the leading axes' matrices, Kronecker-merged column-wise
        lead_mat = mats[0][:, lead_idx[0]]
        for m, i in zip(mats[1:lead], lead_idx[1:]):
            lead_mat = (lead_mat[:, None, :] * m[:, i]).reshape(-1, len(i))
    T, sum_sq, sup = 0.0, 0.0, 0.0
    step = _SLAB_POINTS // G ** trail
    slab = (-1,) + (1,) * trail
    for s in range(0, G ** lead, step):
        idx = lead_idx[:, s:s + step]
        pts = np.empty((idx.shape[1],) + (G,) * trail + (n,))
        pts[..., :lead] = grid[idx.T].reshape(slab + (lead,))
        pts[..., lead:] = trail_pts
        vals = evaluate(pts)
        sup = max(sup, float(np.abs(vals).max()))
        W = vals * (lead_w[s:s + step].reshape(slab) * trail_w)
        sum_sq += float(np.sum(np.abs(W) ** 2))
        if mats is not None:
            for m in mats[lead:]:
                W = np.tensordot(W, m, axes=([1], [1]))
            T = T + lead_mat[:, s:s + step] @ W.reshape(len(W), -1)
    return (None if mats is None else T.reshape([len(m) for m in mats])), sum_sq, sup


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


def spectrum_table(f: OracleFunction, D: int | None = None, M_quad: int = 512) -> SpectrumTable:
    """All coefficients v in [0, D]^n in one tensor contraction per axis."""
    n = f.arity
    D = f.degree_cutoff if D is None else D
    x, h = _quad_grid(M_quad)
    weighted = h * probabilist_rows(D, x) * _nu(x)
    c, _, _ = _grid_contract(n, f.evaluate, x, [weighted] * n, f.product_factors)
    coeffs = {v: float(cv) for v, cv in np.ndenumerate(c)}
    mass = float(sum(cv * cv for cv in coeffs.values()))
    return SpectrumTable(arity=n, D=D, coefficients=coeffs, mass=mass)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    """Grid size per axis, measured degree window, and transform backend."""

    M: int = 512
    D: int = 9
    transform: str = "reference"     # "reference" | "pipeline"
    attempt_cap_factor: int = 64     # rejection cap = factor * kappa
    qht_eps: float = 0.01            # pipeline-mode transform accuracy


@dataclass(frozen=True)
class SampleDistribution:
    """Measurement distribution over v in [0, D]^n plus the out-of-range rest.

    Built once per (oracle, config) by sample_distribution and held by the
    caller; it carries the CDF and draw total, so each draw is one inversion.
    attempt_cap is the rejection cap of a postselected (normalized)
    distribution, None when the circuit needs no postselection.
    """

    arity: int
    D: int
    probs: np.ndarray = field(repr=False)   # shape (D+1,)*n
    out_mass: float = 0.0
    norm_sq: float = 1.0                    # discrete ||f||^2
    success_prob: float = 1.0               # per-attempt postselection probability
    attempt_cap: int | None = None
    cdf: np.ndarray = field(init=False, repr=False)
    total: float = field(init=False)

    def __post_init__(self):
        flat = self.probs.ravel()
        object.__setattr__(self, "cdf", np.cumsum(flat))
        object.__setattr__(self, "total", float(flat.sum() + self.out_mass))

    def prob(self, v) -> float:
        return float(self.probs[tuple(v)])


def _axis_transform_rows(scfg: SamplerConfig) -> np.ndarray:
    """Rows <psibar_v| used for the per-axis inverse transform."""
    spec = GridSpec(scfg.M)
    basis = hermite_basis(spec, scfg.D)
    rows = basis.states.astype(complex)
    if scfg.transform == "pipeline":
        from .qht_pipeline import QHTConfig, qht_apply

        cfg = QHTConfig(N=scfg.D + 1, eps=scfg.qht_eps, M=scfg.M,
                        N_high=min(scfg.M // 2, 8 * (scfg.D + 1)))
        cols = []
        for n in range(scfg.D + 1):
            e = np.zeros(scfg.D + 1)
            e[n] = 1.0
            out = qht_apply(e, cfg).output
            if cfg.signed_output:
                out = out * (-1.0) ** n
            cols.append(out)
        rows = np.array(cols)
    elif scfg.transform != "reference":
        raise ValueError(f"unknown transform backend {scfg.transform!r}")
    return rows


def _amplitude_tensor(f: OracleFunction, scfg: SamplerConfig):
    """Per-axis ground states times f at the rescaled grid, then transformed.

    Returns (A, norm_sq, sup_f) with A[v] = <psibar_v x ...| f |psibar_0 x ...>,
    all three from one pass over the grid.
    """
    spec = GridSpec(scfg.M)
    ground = hermite_basis(spec, 0).state(0)
    rows = _axis_transform_rows(scfg)
    n = f.arity
    return _grid_contract(n, f.evaluate, math.sqrt(2.0) * spec.points(), [rows] * n,
                          f.product_factors, [ground] * n)


def sample_distribution(f: OracleFunction, scfg: SamplerConfig,
                        normalized: bool = False) -> SampleDistribution:
    """Exact measurement distribution of the sampler circuit.

    Unbounded oracles are admitted by folding the amplitude rescale f/sup|f|
    into the controlled rotation; the accepted distribution is unchanged (it
    is fhat^2/||f||^2 either way) and only the postselection probability
    shrinks by sup|f|^2.  A normalized distribution is drawn by rejection,
    capped at attempt_cap_factor * kappa attempts.  Build it once and pass
    it to every draw.
    """
    A, norm_sq, sup_f = _amplitude_tensor(f, scfg)
    probs = np.abs(A) ** 2
    success = norm_sq / max(1.0, sup_f) ** 2
    cap = None
    if normalized:
        if norm_sq <= 0:
            raise ValueError("f vanishes on the grid; nothing to postselect")
        probs = probs / norm_sq
        total_target = 1.0
        cap = max(1, int(scfg.attempt_cap_factor * f.kappa))
    else:
        total_target = norm_sq if not f.boolean else 1.0
    out = max(total_target - float(probs.sum()), 0.0)
    return SampleDistribution(arity=f.arity, D=scfg.D, probs=probs, out_mass=out,
                              norm_sq=norm_sq, success_prob=success, attempt_cap=cap)


def general_hermite_sample(dist: SampleDistribution,
                           rng: np.random.Generator) -> HermiteSample:
    """One draw from a held distribution: p_v tracks fhat(v)^2 / ||f||^2.

    A postselected distribution is drawn by rejection: the per-attempt
    success probability is computed exactly from the state and the attempt
    count drawn as the matching geometric variable (the aggregated Bernoulli
    sequence); the declared distortion promises success >= 1/(2*kappa), and
    draws beyond the attempt cap are a reported failure, not an exception
    swallowed.
    """
    attempts = 1
    if dist.attempt_cap is not None:
        p_succ = min(dist.success_prob, 1.0)
        attempts = int(rng.geometric(p_succ)) if p_succ < 1.0 else 1
        if attempts > dist.attempt_cap:
            raise PostselectionFailure(
                f"no acceptance in {dist.attempt_cap} attempts (success prob {p_succ:.3g})")
    idx = int(np.searchsorted(dist.cdf, rng.random() * dist.total))
    if idx >= len(dist.cdf):
        return HermiteSample(v=(dist.D + 1,) * dist.arity, attempts=attempts, out_of_range=True)
    v = np.unravel_index(idx, dist.probs.shape)
    return HermiteSample(v=tuple(int(c) for c in v), attempts=attempts)


def distortion(f: OracleFunction, M_quad: int = 512) -> float:
    """kappa(f) = sup|f sqrt(nu)| / ||f sqrt(nu)||_2 over the quadrature grid."""
    x, h = _quad_grid(M_quad)
    factors = None if f.product_factors is None else [
        lambda y, g=g: g(y) * np.sqrt(_nu(y)) for g in f.product_factors]
    _, sum_sq, sup = _grid_contract(
        f.arity, lambda pts: f.evaluate(pts) * np.sqrt(np.prod(_nu(pts), axis=-1)), x,
        factors=factors)
    return sup / math.sqrt(h**f.arity * sum_sq)


def tv_distance(empirical: dict, table: SpectrumTable, D: int,
                norm_sq: float = 1.0) -> float:
    """(1/2) sum_v |phat_v - q_v| over [0, D]^n plus the out-of-range mass."""
    total = sum(empirical.values())
    if total <= 0:
        raise ValueError("empty histogram")
    q = table.probabilities(norm_sq)
    acc = 0.0
    out_mass = 0.0
    n = table.arity
    seen = set()
    for v, count in empirical.items():
        p_hat = count / total
        if any(c > D or c < 0 for c in v):
            out_mass += p_hat
            continue
        acc += abs(p_hat - q.get(tuple(v), 0.0))
        seen.add(tuple(v))
    for v, qv in q.items():
        if v not in seen and all(c <= D for c in v):
            acc += qv
    return 0.5 * acc + out_mass


def suggest_quadrature_M(f: OracleFunction, eps: float, gamma_const: float = 1.0,
                         c_const: float = 1.0) -> int:
    """Grid-size suggestion from the sampling analysis, constants taken as 1.

    The bound couples M to itself through L = sqrt(pi*M/2); one fixed-point
    pass starting from the degree term resolves it.  Unpinned constants mean
    this is advisory; the sampler takes M from its config.
    """
    P = f.input_bits if f.input_bits is not None else 8
    n, D = f.arity, max(f.degree_cutoff, 1)
    M = max(int(40 * gamma_const * D * math.log(2 * D)), 64)
    for _ in range(8):
        L = math.sqrt(math.pi * M / 2)
        target = max(2 * L * (2.0**P) * P * (n + math.log(max(n, 2)) + math.log(8 / eps)) / c_const,
                     40 * gamma_const * D * math.log(2 * D))
        new_M = 1 << max(6, int(math.ceil(math.log2(target))))
        if new_M == M:
            break
        M = new_M
    return M
