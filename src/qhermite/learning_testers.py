"""Gaussian Goldreich-Levin learning and the three spectrum property testers.

Weight estimation is the workhorse: for a pattern S fixing a subset J of
coordinates, W^S(f) = sum over completions T of fhat(S u T)^2 equals
E_z E_{y,y'} [f(y,z) f(y',z) h_S(y) h_S(y')], a plain Monte-Carlo average
over paired Gaussian draws.  The learner explores patterns in prefix order,
keeping a pattern when its estimated weight clears tau^2/2; Parseval then
caps the live list at 4/tau^2.

Verdicts are deterministic given the seed; ties at a tester threshold
accept.  Testers draw their candidate indices from the sampler simulation
and verify with Monte-Carlo estimates, repeating the sampling stage
O(log 1/delta) times so the stated confidence survives the noisy-instance
case (a single draw only locates the support with constant probability).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite_sampling import (
    OracleFunction,
    SamplerConfig,
    _grid_contract,
    general_hermite_sample,
    sample_distribution,
)
from .spectral_core import probabilist_rows

__all__ = [
    "CoefficientPattern",
    "WeightEstimate",
    "TesterVerdict",
    "GGLResult",
    "estimate_gamma",
    "weight_estimate",
    "coefficient_estimate",
    "gaussian_goldreich_levin",
    "test_product_sign",
    "test_low_degree",
    "test_hermite_polynomial",
    "restriction_coefficient",
]


@dataclass(frozen=True)
class CoefficientPattern:
    """Entries in (N u {*})^n; None marks a wildcard coordinate."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           tuple(None if e is None else int(e) for e in self.entries))

    @property
    def fixed_positions(self) -> tuple:
        return tuple(i for i, e in enumerate(self.entries) if e is not None)

    @property
    def wildcard_positions(self) -> tuple:
        return tuple(i for i, e in enumerate(self.entries) if e is None)

    @property
    def fixed_len(self) -> int:
        return len(self.fixed_positions)

    def is_prefix_form(self) -> bool:
        """Wildcards forming a suffix -- the GGL sweep discipline."""
        seen_wild = False
        for e in self.entries:
            if e is None:
                seen_wild = True
            elif seen_wild:
                return False
        return True

    def extend(self, value: int) -> "CoefficientPattern":
        k = self.fixed_len
        new = list(self.entries)
        new[k] = int(value)
        return CoefficientPattern(tuple(new))

    def matches(self, v) -> bool:
        return all(e is None or e == c for e, c in zip(self.entries, v))


@dataclass(frozen=True)
class WeightEstimate:
    pattern: CoefficientPattern
    value: float
    half_width: float
    confidence: float
    samples: int


@dataclass(frozen=True)
class TesterVerdict:
    accept: bool
    witness: object = None
    estimate: float | None = None
    samples_used: int = 0


@dataclass(frozen=True)
class GGLResult:
    found: tuple
    failed: bool
    nodes_examined: int
    oracle_queries: int


def estimate_gamma(f: OracleFunction, rng: np.random.Generator,
                   n_points: int = 1000, step: float = 1e-4) -> float:
    """Monte-Carlo E||grad f||^2 via central differences (heuristic fallback)."""
    pts = rng.standard_normal((n_points, f.arity))
    acc = np.zeros(n_points)
    for i in range(f.arity):
        shift = np.zeros(f.arity)
        shift[i] = step
        fp = f.evaluate(pts + shift)
        fm = f.evaluate(pts - shift)
        acc += ((fp - fm) / (2 * step)) ** 2
    return float(acc.mean())


def _resolve_gamma(f: OracleFunction, rng, gamma):
    if gamma is not None:
        return float(gamma)
    if f.gamma is not None:
        return max(float(f.gamma), 1e-6)
    if f.boolean or f.range_bounded:
        # |f| <= 1 bounds the estimator variance directly; finite-difference
        # gradients are meaningless on sign-type (discontinuous) oracles
        return 1.0
    return max(estimate_gamma(f, rng), 1e-6)


def _pattern_rows(pattern: CoefficientPattern, y: np.ndarray) -> np.ndarray:
    """h_S(y) for draws y over the fixed coordinates (columns follow J order)."""
    vals = np.ones(y.shape[0])
    for col, pos in enumerate(pattern.fixed_positions):
        deg = pattern.entries[pos]
        vals = vals * probabilist_rows(deg, y[:, col])[deg]
    return vals


def weight_estimate(f: OracleFunction, pattern: CoefficientPattern, eps_est: float,
                    delta: float, rng: np.random.Generator,
                    gamma: float | None = None) -> WeightEstimate:
    """Monte-Carlo W^S(f) to within +-eps_est with probability 1 - delta.

    Averages f(y,z) f(y',z) h_S(y) h_S(y') over ceil(gamma^2/eps^2 ln(2/delta))
    paired Gaussian draws; the Poincare inequality bounds the estimator
    variance through gamma = E||grad f||^2.  The reported half-width is the
    empirical-Bernstein bound at the same confidence.
    """
    g = _resolve_gamma(f, rng, gamma)
    m = int(math.ceil(max(g, 1.0) ** 2 / eps_est**2 * math.log(2.0 / delta)))
    m = max(m, 64)
    J = pattern.fixed_positions
    rest = pattern.wildcard_positions
    pts1 = np.empty((m, f.arity))
    pts2 = np.empty((m, f.arity))
    z = rng.standard_normal((m, len(rest)))
    y1 = rng.standard_normal((m, len(J)))
    y2 = rng.standard_normal((m, len(J)))
    for col, pos in enumerate(rest):
        pts1[:, pos] = z[:, col]
        pts2[:, pos] = z[:, col]
    for col, pos in enumerate(J):
        pts1[:, pos] = y1[:, col]
        pts2[:, pos] = y2[:, col]
    prods = (f.evaluate(pts1) * f.evaluate(pts2)
             * _pattern_rows(pattern, y1) * _pattern_rows(pattern, y2))
    mean = float(prods.mean())
    var = float(prods.var(ddof=1)) if m > 1 else 0.0
    rng_width = float(prods.max() - prods.min()) if m > 1 else 0.0
    log_term = math.log(3.0 / delta)
    half = math.sqrt(2.0 * var * log_term / m) + 3.0 * rng_width * log_term / m
    return WeightEstimate(pattern=pattern, value=mean, half_width=half,
                          confidence=1.0 - delta, samples=m)


def coefficient_estimate(f: OracleFunction, v, eps_est: float, delta: float,
                         rng: np.random.Generator) -> float:
    """Monte-Carlo fhat(v) = E[f(x) h_v(x)] to +-eps_est w.p. 1 - delta."""
    v = tuple(int(c) for c in v)
    m = max(int(math.ceil(8.0 * max(1.0, sum(v)) / eps_est**2 * math.log(2.0 / delta))), 64)
    pts = rng.standard_normal((m, f.arity))
    vals = f.evaluate(pts)
    for i, d in enumerate(v):
        vals = vals * probabilist_rows(d, pts[:, i])[d]
    return float(vals.mean())


def restriction_coefficient(f: OracleFunction, pattern: CoefficientPattern,
                            z: np.ndarray, grid_points: int = 2001,
                            grid_half_width: float = 10.0) -> float:
    """F_S f(z) = fhat_{J|z}(S): quadrature over the fixed block at frozen z.

    Cross-validates weight_estimate: averaging F_S f(z)^2 over Gaussian z
    recovers W^S(f).  The quadrature grid is tensored over the fixed block J,
    so |J| * log2(grid_points) must stay within the full-grid budget.
    """
    J = list(pattern.fixed_positions)
    rest = list(pattern.wildcard_positions)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if len(z) != len(rest):
        raise ValueError(f"z must fix the {len(rest)} wildcard coordinates")
    grid = np.linspace(-grid_half_width, grid_half_width, grid_points)
    weight = (grid[1] - grid[0]) * np.exp(-0.5 * grid * grid) / math.sqrt(2 * math.pi)

    def on_block(y):   # points of the fixed block, with z inserted
        pts = np.empty(y.shape[:-1] + (f.arity,))
        pts[..., J] = y
        pts[..., rest] = z
        return f.evaluate(pts)

    mats = [probabilist_rows(d, grid)[d:] * weight for d in (pattern.entries[j] for j in J)]
    c, _, _ = _grid_contract(len(J), on_block, grid, mats)
    return float(c.item())


# ---------------------------------------------------------------------------
# Gaussian Goldreich-Levin
# ---------------------------------------------------------------------------


def gaussian_goldreich_levin(f: OracleFunction, tau: float, delta: float,
                             rng: np.random.Generator, gamma: float | None = None,
                             degree_cap: int | None = None, node_budget: int = 4096,
                             mode: str = "classical",
                             sampler_config: SamplerConfig | None = None) -> GGLResult:
    """List every v with |fhat(v)| >= tau; everything listed has |fhat| >= tau/2.

    classical mode runs the prefix sweep: at level k each live pattern is
    extended by all degrees a_k <= degree cap, and the extension is retained
    when its estimated weight W^(S a_k) clears tau^2/2 (estimates are taken
    to within tau^2/4, so true weights >= tau^2 survive and true weights
    < tau^2/4 are dropped, the standard argument).  The live list is capped
    at floor(4/tau^2) by Parseval; hitting the node budget aborts with the
    partial result flagged failed.

    sampler mode draws O(1/tau^2 log 1/delta) spectrum samples and thresholds
    their frequencies -- the pure sampling route, whose query count is
    independent of n.  Its frequencies estimate the normalized weights
    fhat(v)^2/||f||^2, so its soundness is with respect to the normalized
    spectrum; for the unit-norm (e.g. boolean) oracles the mode targets, the
    two readings coincide.
    """
    if not (0 < tau < 1):
        raise ValueError("tau must be in (0, 1)")
    g = _resolve_gamma(f, rng, gamma)
    cap = degree_cap
    if cap is None:
        cap = int(math.ceil(4.0 * g * g / tau)) + 4
        if f.degree_cutoff:
            cap = min(cap, f.degree_cutoff)
    list_cap = max(1, int(math.floor(4.0 / tau**2)))
    queries = 0
    nodes = 0

    if mode == "sampler":
        scfg = sampler_config or SamplerConfig(D=cap)
        draws = max(int(math.ceil(32.0 / tau**2 * math.log(2.0 / delta))), 64)
        dist = sample_distribution(f, scfg, normalized=not f.boolean)
        counts: dict = {}
        for _ in range(draws):
            s = general_hermite_sample(dist, rng)
            queries += s.attempts
            if not s.out_of_range:
                counts[s.v] = counts.get(s.v, 0) + 1
        found = []
        for v, c in sorted(counts.items(), key=lambda kv: -kv[1]):
            nodes += 1
            if c / draws >= tau**2 / 2:
                found.append(v)
        return GGLResult(found=tuple(sorted(found[:list_cap])), failed=False,
                         nodes_examined=nodes, oracle_queries=queries)

    if mode != "classical":
        raise ValueError(f"unknown GGL mode {mode!r}")

    n = f.arity
    live = [CoefficientPattern((None,) * n)]
    per_node_delta = delta / max(1, 2 * n * list_cap * (cap + 1))
    failed = False
    for _level in range(n):
        scored = []
        for pattern in live:
            for a_k in range(cap + 1):
                cand = pattern.extend(a_k)
                nodes += 1
                if nodes > node_budget:
                    failed = True
                    break
                est = weight_estimate(f, cand, tau**2 / 4.0, per_node_delta, rng, gamma=g)
                queries += 2 * est.samples
                if est.value >= tau**2 / 2.0:
                    scored.append((est.value, cand))
            if failed:
                break
        if failed:
            break
        scored.sort(key=lambda t: -t[0])
        live = [cand for _, cand in scored[:list_cap]]
        if not live:
            break
    # Final soundness pass: the weight-estimate sample count is keyed to the
    # Poincare proxy, which does not control the fourth-moment variance the
    # paired estimator picks up from high-degree patterns; a direct
    # coefficient estimate at +-tau/4 restores "everything listed has
    # |fhat| >= tau/2" without touching completeness (true |fhat| >= tau
    # always clears the 3*tau/4 bar).
    found = []
    completed = [p for p in live if p.fixed_len == n]
    for pattern in completed:
        v = tuple(pattern.entries)
        est = coefficient_estimate(f, v, tau / 4.0,
                                   delta / max(1, 2 * len(completed)), rng)
        queries += 1
        if abs(est) >= 0.75 * tau:
            found.append(v)
    return GGLResult(found=tuple(sorted(found)), failed=failed, nodes_examined=nodes,
                     oracle_queries=queries)


# ---------------------------------------------------------------------------
# Property testers
# ---------------------------------------------------------------------------


def _mode_sample(f: OracleFunction, scfg: SamplerConfig, rng, repeats: int):
    """Repeated spectrum draws; returns (mode sample, draw count)."""
    dist = sample_distribution(f, scfg, normalized=not f.boolean)
    counts: dict = {}
    for _ in range(repeats):
        s = general_hermite_sample(dist, rng)
        if not s.out_of_range:
            counts[s.v] = counts.get(s.v, 0) + 1
    if not counts:
        return None, repeats
    best = max(counts.items(), key=lambda kv: kv[1])[0]
    return best, repeats


def test_product_sign(f: OracleFunction, k: int, eps1: float, eps2: float,
                      delta: float, rng: np.random.Generator,
                      sampler_config: SamplerConfig | None = None) -> TesterVerdict:
    """Tolerantly test closeness to a product of exactly k sign functions.

    Sample the spectrum, take the (mode) support S; a product sign on S
    concentrates all its weight on indices supported inside S, so estimating
    the wildcard-on-S weight W^(S*) and accepting at the midpoint threshold
    1 - (eps1+eps2)/2 separates the promise cases.  A sampled support of the
    wrong size is an immediate reject (a k'-sign function with k' != k is at
    distance 1 from every k-sign function).
    """
    if not 0 < eps1 < eps2:
        raise ValueError("need eps2 > eps1 > 0")
    scfg = sampler_config or SamplerConfig(D=9)
    repeats = max(4, int(math.ceil(4 * math.log(2.0 / delta))))
    v_mode, used = _mode_sample(f, scfg, rng, repeats)
    if v_mode is None:
        return TesterVerdict(accept=False, samples_used=used)
    support = tuple(i for i, c in enumerate(v_mode) if c > 0)
    if len(support) != k:
        return TesterVerdict(accept=False, witness=support, samples_used=used)
    entries = [None if i in support else 0 for i in range(f.arity)]
    pattern = CoefficientPattern(tuple(entries))
    eps = eps2 - eps1
    est = weight_estimate(f, pattern, eps / 4.0, delta / 2.0, rng)
    threshold = 1.0 - (eps1 + eps2) / 2.0
    return TesterVerdict(accept=bool(est.value >= threshold), witness=pattern,
                         estimate=est.value, samples_used=used + est.samples)


def test_low_degree(f: OracleFunction, d: int, eps1: float, eps2: float,
                    delta: float, rng: np.random.Generator,
                    sampler_config: SamplerConfig | None = None,
                    c_samples: float = 12.0) -> TesterVerdict:
    """Tolerantly test (eps, d)-low-degree-ness by counting sampled degrees.

    Draws m = ceil(c * log(1/delta) / eps^2) spectrum samples and computes
    the fraction X with total degree <= d, an estimate of the low-degree
    weight; accept when X clears the midpoint 1 - (eps1+eps2)/2.  (Counting
    low-degree draws estimates the low-degree mass, so the acceptance
    threshold sits at one minus the distance midpoint.)
    """
    if not 0 < eps1 < eps2:
        raise ValueError("need eps2 > eps1 > 0")
    eps = eps2 - eps1
    scfg = sampler_config or SamplerConfig(D=max(9, 2 * d + 1))
    m = int(math.ceil(c_samples * math.log(1.0 / delta) / eps**2))
    dist = sample_distribution(f, scfg, normalized=not f.boolean)
    hits = 0
    for _ in range(m):
        s = general_hermite_sample(dist, rng)
        if not s.out_of_range and sum(s.v) <= d:
            hits += 1
    x = hits / m
    threshold = 1.0 - (eps1 + eps2) / 2.0
    return TesterVerdict(accept=bool(x >= threshold), estimate=x, samples_used=m)


def test_hermite_polynomial(f: OracleFunction, k: int, eps1: float, eps2: float,
                            delta: float, rng: np.random.Generator,
                            sampler_config: SamplerConfig | None = None) -> TesterVerdict:
    """Tolerantly test closeness to a single Hermite polynomial on k variables.

    A function eps1-close to some h_S concentrates its normalized spectrum on
    S, so the sampler reveals S within O(log 1/delta) draws; the candidate's
    normalized correlation fhat(S)/||f|| is then estimated to +-eps/4 and
    accepted at the midpoint threshold.  (Normalizing keeps the verdict
    invariant under the output rescaling a bounded oracle must apply; the
    sampler's own distribution fhat^2/||f||^2 is normalized the same way.)
    Candidates with the wrong variable count are rejected outright.
    """
    if not 0 < eps1 < eps2:
        raise ValueError("need eps2 > eps1 > 0")
    scfg = sampler_config or SamplerConfig(D=9)
    repeats = max(4, int(math.ceil(4 * math.log(2.0 / delta))))
    v_mode, used = _mode_sample(f, scfg, rng, repeats)
    if v_mode is None:
        return TesterVerdict(accept=False, samples_used=used)
    if sum(1 for c in v_mode if c > 0) != k:
        return TesterVerdict(accept=False, witness=v_mode, samples_used=used)
    eps = eps2 - eps1
    coeff = coefficient_estimate(f, v_mode, eps / 8.0, delta / 4.0, rng)
    # the norm estimate sees fourth moments of f, so it gets the larger
    # constant; median-of-means tames the heavy tail of f^2
    m = max(int(math.ceil(64.0 / eps**2 * math.log(4.0 / delta))), 256)
    pts = rng.standard_normal((m, f.arity))
    sq = f.evaluate(pts) ** 2
    chunks = np.array_split(sq, 8)
    norm = math.sqrt(max(float(np.median([c.mean() for c in chunks])), 1e-12))
    est = coeff / norm
    threshold = 1.0 - (eps1 + eps2) / 2.0
    return TesterVerdict(accept=bool(abs(est) >= threshold), witness=v_mode,
                         estimate=est, samples_used=used + m)
