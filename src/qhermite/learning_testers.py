"""Gaussian Goldreich-Levin learning and the three spectrum property testers.

Weight estimation is the workhorse: for a pattern S fixing a subset J of
coordinates, W^S(f) = sum over completions T of fhat(S u T)^2 equals
E_z E_{y,y'} [f(y,z) f(y',z) h_S(y) h_S(y')], a plain Monte-Carlo average
over paired Gaussian draws.  The learner explores patterns in prefix order,
keeping a pattern when its estimated weight clears tau^2/2; Parseval then
caps the live list at 4/tau^2.

Verdicts are deterministic given the seed; ties at a tester threshold
accept.  The product-sign and Hermite testers take their candidate index as
the mode of O(log 1/delta) spectrum draws, so the stated confidence
survives the noisy-instance case (a single draw only locates the support
with constant probability).  The product-sign tester verifies it with a
Monte-Carlo weight estimate; the Hermite tester reads the candidate's share
of further draws of the same distribution and never evaluates f itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite_sampling import (
    OracleFunction,
    SamplerConfig,
    _SLAB_POINTS,
    _spectrum_distribution,
    _spectrum_draws,
    _tally,
    draw,
)
from .spectral_core import _is_int, probabilist_product

__all__ = [
    "CoefficientPattern",
    "WeightEstimate",
    "TesterVerdict",
    "GGLResult",
    "weight_estimate",
    "coefficient_estimate",
    "gaussian_goldreich_levin",
    "test_product_sign",
    "test_low_degree",
    "test_hermite_polynomial",
]

LOW_DEGREE_C = 12.0   # test_low_degree draws ceil(LOW_DEGREE_C * ln(1/delta) / eps^2) samples
# Largest count `_count` returns.  An 8-byte array with one entry per draw
# takes 128 MiB at the cap, and a call holds a few of them per oracle axis:
# weight_estimate, the largest, holds 2n + 1 for an n-axis oracle (640 MiB
# at n = 2).  The default runs ask for at most about 1e6.
COUNT_CAP = 1 << 24


def _degree(d) -> int:
    """d as an int; ValueError unless it is a non-negative integer (a bool or a float is not)."""
    if not _is_int(d) or d < 0:
        raise ValueError(f"a degree must be a non-negative integer, got {d!r}")
    return int(d)


@dataclass(frozen=True)
class CoefficientPattern:
    """Entries in (N u {*})^n; None marks a wildcard coordinate."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           tuple(None if e is None else _degree(e) for e in self.entries))

    @property
    def fixed_positions(self) -> tuple:
        return tuple(i for i, e in enumerate(self.entries) if e is not None)

    @property
    def wildcard_positions(self) -> tuple:
        return tuple(i for i, e in enumerate(self.entries) if e is None)

    @property
    def fixed_len(self) -> int:
        return len(self.fixed_positions)

    def extend(self, value: int) -> "CoefficientPattern":
        k = self.fixed_len
        return CoefficientPattern(self.entries[:k] + (value,) + self.entries[k + 1:])


@dataclass(frozen=True)
class WeightEstimate:
    pattern: CoefficientPattern
    value: float
    half_width: float
    samples: int


@dataclass(frozen=True)
class TesterVerdict:
    accept: bool
    witness: object = None
    estimate: float | None = None
    samples_used: int = 0   # spectrum draws, plus the points f is evaluated at (product sign)


@dataclass(frozen=True)
class GGLResult:
    found: tuple
    failed: bool
    nodes_examined: int
    oracle_queries: int   # postselection attempts (sampler) or points f is evaluated at


def _resolve_gamma(f: OracleFunction) -> float:
    """The Poincare proxy that sizes a weight estimate: f's gamma, else 1 for |f| <= 1."""
    if f.gamma is not None:
        return max(float(f.gamma), 1e-6)
    if f.boolean or f.range_bounded:
        # |f| <= 1 bounds the estimator variance directly
        return 1.0
    raise ValueError(f"oracle {f.label or '(unlabelled)'} is unbounded and declares no gamma")


def _check_delta(delta: float) -> None:
    """Reject a failure probability outside (0, 1): ln(1/delta) sizes every sample count."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def _promise(eps1: float, eps2: float, delta: float):
    """Check a tester's promise gap and delta: (threshold, eps, what).

    threshold is the midpoint 1 - (eps1+eps2)/2, eps = eps2 - eps1 sizes the
    tester's counts, and what names the parameters for `_count`.
    """
    if not 0 < eps1 < eps2:
        raise ValueError("need eps2 > eps1 > 0")
    _check_delta(delta)
    return 1.0 - (eps1 + eps2) / 2.0, eps2 - eps1, f"eps1={eps1}, eps2={eps2}, delta={delta}"


def _count(rule, what: str, rounding=math.ceil) -> int:
    """rule() rounded to an int: a draw count or list cap that tau, eps or delta set.

    A rule that overflows to inf, or divides by a square that underflowed to
    0, sets no finite count, and a count above COUNT_CAP no draws can hold;
    either is a ValueError naming `what`.  Every caller takes its counts
    before its first draw, so the error leaves the rng as it was.
    """
    try:
        count = int(rounding(rule()))
    except (OverflowError, ZeroDivisionError):   # int(inf), or x / 0.0
        raise ValueError(f"{what} sets a count that is not finite") from None
    if count > COUNT_CAP:
        raise ValueError(f"{what} sets a count of {count:.3g}, above the cap of {COUNT_CAP}")
    return count


def _weight_count(g: float, eps_est: float, delta: float, what: str) -> int:
    """weight_estimate's draws: ceil(max(g, 1)^2/eps_est^2 ln(2/delta)), at least 64."""
    return max(_count(lambda: max(g, 1.0) ** 2 / eps_est**2 * math.log(2.0 / delta), what), 64)


def _coefficient_count(degree: int, eps: float, delta: float, what: str) -> int:
    """coefficient_estimate's draws: ceil(8 max(1, degree)/eps^2 ln(2/delta)), at least 64."""
    return max(_count(lambda: 8.0 * max(1.0, degree) / eps**2 * math.log(2.0 / delta), what), 64)


def _check_length(index: tuple, f: OracleFunction) -> None:
    """ValueError unless the multi-index has one entry per axis of f."""
    if len(index) != f.arity:
        raise ValueError(f"a multi-index of length {len(index)} does not fit f.arity={f.arity}")


def _pattern_rows(pattern: CoefficientPattern, y: np.ndarray) -> np.ndarray:
    """h_S(y) for draws y over the fixed coordinates (columns follow J order)."""
    degrees = [pattern.entries[pos] for pos in pattern.fixed_positions]
    return probabilist_product(degrees, y, np.ones(y.shape[0]))


def _in_slabs(m: int, slab) -> np.ndarray:
    """The m Monte-Carlo terms, written `_SLAB_POINTS` at a time: `slab(part)` gives terms[part].

    A slab's points and products live only while it runs, so a call holds
    the m-float result and one slab; each term's bits are the one-shot
    evaluation's, and so are the draws, taken in order.
    """
    out = np.empty(m)
    for start in range(0, m, _SLAB_POINTS):
        part = slice(start, min(start + _SLAB_POINTS, m))
        out[part] = slab(part)
    return out


def weight_estimate(f: OracleFunction, pattern: CoefficientPattern, eps_est: float,
                    delta: float, rng: np.random.Generator) -> WeightEstimate:
    """Monte-Carlo W^S(f), within +-eps_est w.p. 1 - delta for an oracle with |f| <= 1.

    Averages f(y,z) f(y',z) h_S(y) h_S(y') over ceil(gamma^2/eps^2 ln(2/delta))
    paired Gaussian draws (at least 64), gamma the Poincare proxy
    E||grad f||^2 from `_resolve_gamma`.  With |f| <= 1 each term has
    variance at most 1.  For an unbounded f the count does not bound the
    variance, which follows the fourth moments of f h_S: for h_(2,1) it is
    2024, a standard error of 0.39 at eps_est = delta = 0.05.  The reported
    half-width, the empirical-Bernstein bound at the same confidence, is
    then the error bar to read.  A pattern whose length is not f.arity is a
    ValueError before any draw.
    """
    _check_length(pattern.entries, f)
    _check_delta(delta)
    m = _weight_count(_resolve_gamma(f), eps_est, delta, f"eps_est={eps_est}, delta={delta}")
    J = pattern.fixed_positions
    rest = pattern.wildcard_positions
    z = rng.standard_normal((m, len(rest)))
    y1 = rng.standard_normal((m, len(J)))
    y2 = rng.standard_normal((m, len(J)))

    def slab(part):
        pts1 = np.empty((part.stop - part.start, f.arity))
        pts1[:, list(rest)] = z[part]   # the two points share the wildcard coordinates
        pts2 = pts1.copy()
        pts1[:, list(J)] = y1[part]
        pts2[:, list(J)] = y2[part]
        return (f.evaluate(pts1) * f.evaluate(pts2)
                * _pattern_rows(pattern, y1[part]) * _pattern_rows(pattern, y2[part]))

    prods = _in_slabs(m, slab)
    mean = float(prods.mean())
    var = float(prods.var(ddof=1))
    rng_width = float(prods.max() - prods.min())
    log_term = math.log(3.0 / delta)
    half = math.sqrt(2.0 * var * log_term / m) + 3.0 * rng_width * log_term / m
    return WeightEstimate(pattern=pattern, value=mean, half_width=half, samples=m)


def coefficient_estimate(f: OracleFunction, v, eps_est: float, delta: float,
                         rng: np.random.Generator) -> float:
    """Monte-Carlo fhat(v) = E[f(x) h_v(x)] to +-eps_est w.p. 1 - delta; len(v) is f.arity."""
    _check_delta(delta)
    v = tuple(map(_degree, v))
    _check_length(v, f)
    m = _coefficient_count(sum(v), eps_est, delta, f"eps_est={eps_est}, delta={delta}")

    def slab(part):
        pts = rng.standard_normal((part.stop - part.start, f.arity))
        return probabilist_product(v, pts, f.evaluate(pts))

    return float(_in_slabs(m, slab).mean())


# ---------------------------------------------------------------------------
# Gaussian Goldreich-Levin
# ---------------------------------------------------------------------------


def gaussian_goldreich_levin(f: OracleFunction, tau: float, delta: float,
                             rng: np.random.Generator, node_budget: int = 4096,
                             mode: str = "classical") -> GGLResult:
    """List every v with |fhat(v)| >= tau; everything listed has |fhat| >= tau/2.

    classical mode runs the prefix sweep: at level k each live pattern is
    extended by all degrees a_k <= the degree cap ceil(4 gamma^2/tau) + 4 (at
    most the oracle's degree cutoff), and the extension is retained
    when its estimated weight W^(S a_k) clears tau^2/2 (estimates are taken
    to within tau^2/4, so true weights >= tau^2 survive and true weights
    < tau^2/4 are dropped, the standard argument).  The live list is capped
    at floor(4/tau^2) by Parseval; hitting the node budget aborts with the
    result flagged failed and nothing found.

    sampler mode draws O(1/tau^2 log 1/delta) spectrum samples and thresholds
    their frequencies -- the pure sampling route, whose query count is
    independent of n.  Its frequencies estimate the normalized weights
    fhat(v)^2/||f||^2, so its soundness is with respect to the normalized
    spectrum; for the unit-norm (e.g. boolean) oracles the mode targets, the
    two readings coincide.
    """
    if not (0 < tau < 1):
        raise ValueError("tau must be in (0, 1)")
    _check_delta(delta)
    g = _resolve_gamma(f)
    what = f"tau={tau}, delta={delta}"
    # a degree cap past the cutoff is the cutoff, so it never meets COUNT_CAP
    cap = min(math.ceil(min(4.0 * g * g / tau, f.degree_cutoff)) + 4, f.degree_cutoff)
    list_cap = max(1, _count(lambda: 4.0 / tau**2, what, math.floor))

    if mode == "sampler":
        scfg = SamplerConfig(D=cap)
        draws = max(_count(lambda: 32.0 / tau**2 * math.log(2.0 / delta), what), 64)
        drawn, attempts = _spectrum_draws(f, scfg, rng, draws)
        counts = _tally(drawn, scfg.D)
        # each kept index holds >= tau^2/2 of the draws, so at most 2/tau^2 <= list_cap are kept
        found = sorted(v for v, c in counts.items() if c / draws >= tau**2 / 2)
        return GGLResult(found=tuple(found), failed=False, nodes_examined=len(counts),
                         oracle_queries=int(attempts.sum()))

    if mode != "classical":
        raise ValueError(f"unknown GGL mode {mode!r}")
    queries = 0
    nodes = 0

    n = f.arity
    live = [CoefficientPattern((None,) * n)]
    per_node_delta = delta / max(1, 2 * n * list_cap * (cap + 1))
    _weight_count(g, tau**2 / 4.0, per_node_delta, what)   # every node's, before any draw
    for _level in range(n):
        scored = []
        for pattern in live:
            for a_k in range(cap + 1):
                nodes += 1
                if nodes > node_budget:   # no pattern is complete before the last level ends
                    return GGLResult(found=(), failed=True, nodes_examined=nodes,
                                     oracle_queries=queries)
                cand = pattern.extend(a_k)
                est = weight_estimate(f, cand, tau**2 / 4.0, per_node_delta, rng)
                queries += 2 * est.samples
                if est.value >= tau**2 / 2.0:
                    scored.append((est.value, cand))
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
    final_delta = delta / max(1, 2 * len(completed))
    for pattern in completed:
        v = tuple(pattern.entries)
        est = coefficient_estimate(f, v, tau / 4.0, final_delta, rng)
        queries += _coefficient_count(sum(v), tau / 4.0, final_delta, what)   # its draws
        if abs(est) >= 0.75 * tau:
            found.append(v)
    return GGLResult(found=tuple(sorted(found)), failed=False, nodes_examined=nodes,
                     oracle_queries=queries)


# ---------------------------------------------------------------------------
# Property testers
# ---------------------------------------------------------------------------


def _mode_sample(f: OracleFunction, sampler_config: SamplerConfig | None, rng, delta: float):
    """(mode, repeats, dist): the mode of repeats spectrum draws and the distribution drawn.

    dist is `_spectrum_distribution` (D = 9 by default), built once, so a
    caller draws more from it.  The mode is that of its repeats =
    max(4, ceil(4 ln(2/delta))) draws, None when every one is out of
    range, the first-drawn index on a tie.
    """
    scfg = sampler_config or SamplerConfig(D=9)
    repeats = max(4, _count(lambda: 4 * math.log(2.0 / delta), f"delta={delta}"))
    dist = _spectrum_distribution(f, scfg)
    counts = _tally(draw(dist, rng, repeats)[0], scfg.D)
    return (max(counts, key=counts.get) if counts else None), repeats, dist


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
    threshold, eps, what = _promise(eps1, eps2, delta)
    # an oracle or a count the weight estimate cannot size fails before any draw
    _weight_count(_resolve_gamma(f), eps / 4.0, delta / 2.0, what)
    v_mode, used = _mode_sample(f, sampler_config, rng, delta)[:2]   # the distribution goes
    if v_mode is None:
        return TesterVerdict(accept=False, samples_used=used)
    support = tuple(i for i, c in enumerate(v_mode) if c > 0)
    if len(support) != k:
        return TesterVerdict(accept=False, witness=support, samples_used=used)
    entries = [None if i in support else 0 for i in range(f.arity)]
    pattern = CoefficientPattern(tuple(entries))
    est = weight_estimate(f, pattern, eps / 4.0, delta / 2.0, rng)
    return TesterVerdict(accept=bool(est.value >= threshold), witness=pattern,
                         estimate=est.value, samples_used=used + 2 * est.samples)


def test_low_degree(f: OracleFunction, d: int, eps1: float, eps2: float,
                    delta: float, rng: np.random.Generator,
                    sampler_config: SamplerConfig | None = None) -> TesterVerdict:
    """Tolerantly test (eps, d)-low-degree-ness by counting sampled degrees.

    Draws m = ceil(LOW_DEGREE_C * log(1/delta) / eps^2) spectrum samples and
    computes the fraction X with total degree <= d, an estimate of the
    low-degree weight; accept when X clears the midpoint 1 - (eps1+eps2)/2.
    (Counting low-degree draws estimates the low-degree mass, so the
    acceptance threshold sits at one minus the distance midpoint.)
    """
    threshold, eps, what = _promise(eps1, eps2, delta)
    scfg = sampler_config or SamplerConfig(D=max(9, 2 * d + 1))
    if scfg.D < d:   # a per-axis cutoff below d would count degree-<=d mass as high
        raise ValueError(f"sampler cutoff D={scfg.D} is below the tested degree d={d}")
    m = _count(lambda: LOW_DEGREE_C * math.log(1.0 / delta) / eps**2, what)
    v, _ = _spectrum_draws(f, scfg, rng, m)
    # an out-of-range row sums to n * (D + 1) > d, so the mask drops it
    x = int(np.count_nonzero(v.sum(axis=1) <= d)) / m
    return TesterVerdict(accept=bool(x >= threshold), estimate=x, samples_used=m)


def test_hermite_polynomial(f: OracleFunction, k: int, eps1: float, eps2: float,
                            delta: float, rng: np.random.Generator,
                            sampler_config: SamplerConfig | None = None) -> TesterVerdict:
    """Tolerantly test closeness to a single Hermite polynomial on k variables.

    A function eps1-close to some h_S concentrates its normalized spectrum on
    S, so the sampler reveals S as the mode of its first O(log 1/delta)
    draws.  The sampler draws v with probability p_v = fhat(v)^2/||f||^2
    (the mass beyond the cutoff D is its out-of-range rest), so the share of
    S among m further draws of the same distribution estimates p_S, and f is
    never evaluated outside the sampler.  The promise puts p_S >= (1-eps1)^2
    or p_S <= (1-eps2)^2; estimate = sqrt(share), the normalized
    |fhat(S)|/||f||, and accept iff it reaches threshold = 1 - (eps1+eps2)/2,
    that is, iff the share reaches threshold^2.  The nearer promise level is
    g = (eps/2)(threshold + 1 - eps2) from threshold^2, eps = eps2 - eps1,
    and the share is a mean of m indicators, so by Hoeffding's inequality
    m = ceil(ln(4/delta) / (2 g^2)) draws put it on the wrong side with
    probability at most delta/4.  The draws come in two stages from the one
    distribution: the mode's, then, only for a candidate with k variables
    (any other is rejected outright), the m share draws.  samples_used
    counts the draws taken, mode and share alike.
    """
    threshold, eps, what = _promise(eps1, eps2, delta)
    g = eps / 2.0 * (threshold + 1.0 - eps2)
    m = _count(lambda: math.log(4.0 / delta) / (2.0 * g * g), what)
    v_mode, repeats, dist = _mode_sample(f, sampler_config, rng, delta)
    if v_mode is None:
        return TesterVerdict(accept=False, samples_used=repeats)
    if sum(1 for c in v_mode if c > 0) != k:
        return TesterVerdict(accept=False, witness=v_mode, samples_used=repeats)
    est = math.sqrt(_tally(draw(dist, rng, m)[0]).get(v_mode, 0) / m)
    return TesterVerdict(accept=est >= threshold, witness=v_mode, estimate=est,
                         samples_used=repeats + m)
