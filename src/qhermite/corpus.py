"""Planted oracle functions with known Hermite spectra, for validation runs.

Families mirror the shared corpus format used by the samplers, learners, and
the CLI: constants, product signs (optionally with deterministic label
noise), Hermite monomials, sparse coefficient mixtures and indicator bumps.
Each builder returns an OracleFunction; where a family has closed-form
spectral data the builder records enough metadata (gamma, kappa, boolean)
for the consumers.  Each builder checks its own arguments before it builds
anything: n is a positive integer, an index (a support axis or a degree) is
a plain integer (no bool, no float), and a bad value is a `ValueError` that
names it.

A corpus file is a JSON list of entries like
    {"family": "product_sign", "n": 2, "support": [0, 1]}
    {"family": "mixture", "n": 2, "terms": [[[1, 0], 0.9], [[0, 3], 0.436]]}
loaded by `load_corpus`.  "family" names a builder below; every other key
is one of that builder's arguments, under the builder's parameter name and
with its default when left out.  An unknown family, an unknown key, a
missing required key and a value of the wrong JSON type are each a
`ValueError` that names the entry.
"""
from __future__ import annotations

import inspect
import json
import math
from dataclasses import replace

import numpy as np

from .hermite_sampling import OracleFunction
from .spectral_core import _is_int, probabilist_product

__all__ = [
    "constant",
    "scaled_constant",
    "product_sign",
    "noisy_product_sign",
    "hermite_monomial",
    "mixture",
    "indicator_bump",
    "load_corpus",
    "build_entry",
]

SUP_RANGE = 5.0   # bounded oracles are scaled by their sup over [-SUP_RANGE, SUP_RANGE]^n


def _arity(n) -> int:
    """n as an int; anything but a positive integer is a ValueError."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return int(n)


def _indices(values, what: str) -> tuple:
    """values as a tuple of ints; a bool, a float or any other non-integer is a ValueError."""
    values = tuple(values)
    if not all(map(_is_int, values)):
        raise ValueError(f"{what} {values} must hold plain integers")
    return tuple(int(c) for c in values)


def _flag(value, what: str) -> bool:
    """A JSON true/false; any other value (a string "no" is truthy) is a ValueError."""
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _degrees(v, n: int, what: str) -> tuple:
    """A multi-index of n non-negative degrees."""
    v = _indices(v, f"{what} index")
    if len(v) != n or min(v, default=0) < 0:
        raise ValueError(f"{what} index {v} must have length {n} and no negative degree")
    return v


def constant(n: int = 1, value: float = 1.0) -> OracleFunction:
    n = _arity(n)
    if not -1.0 <= value <= 1.0:
        raise ValueError("constant must lie in [-1, 1]")
    return OracleFunction(   # value on axis 0, ones elsewhere: evaluate returns value exactly
        arity=n, product_factors=(lambda x: np.full_like(x, value),) + (np.ones_like,) * (n - 1),
        degree_cutoff=0, kappa=max(1.0, 1.0 / (2 * value * value)) if value else math.inf,
        boolean=(abs(value) == 1.0), gamma=0.0, label=f"const({value})")


def scaled_constant(kappa: float, n: int = 1) -> OracleFunction:
    """Constant s with ||f||^2 = s^2 = 1/(2*kappa): postselection bound tight."""
    if not (math.isfinite(kappa) and kappa >= 0.5):   # s <= 1
        raise ValueError(f"kappa must be finite and at least 1/2, got {kappa!r}")
    s = math.sqrt(1.0 / (2.0 * kappa))
    return replace(constant(n, s), kappa=kappa, label=f"const_kappa{kappa}")


def product_sign(support, n: int) -> OracleFunction:
    """chi_S(x) = prod_{i in S} sgn(x_i), sgn(0) := +1; spectrum on odd indices over S.

    S must name distinct axes in [0, n).
    """
    n = _arity(n)
    support = tuple(sorted(_indices(support, "support")))
    if any(not 0 <= i < n for i in support) or len(set(support)) < len(support):
        raise ValueError(f"support {support} must list distinct axes in [0, {n})")
    factors = tuple((lambda x: np.where(x < 0, -1.0, 1.0)) if i in support else np.ones_like
                    for i in range(n))
    return OracleFunction(arity=n, product_factors=factors, boolean=True, kappa=1.0,
                          degree_cutoff=9, gamma=1.0, label=f"chi{support}")


def _cell_noise_flip(x: np.ndarray, eta: float, bits: int, seed: int) -> np.ndarray:
    """Deterministic ±1 noise, constant on dyadic cells: flip with density eta."""
    cells = np.floor(np.asarray(x) * 2.0**bits).astype(np.int64)
    acc = np.uint64(seed)
    h = np.full(cells.shape[:-1], acc)
    for i in range(cells.shape[-1]):
        h = (h ^ cells[..., i].astype(np.uint64)) * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(31)
    u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return np.where(u < eta, -1.0, 1.0)


def noisy_product_sign(support, n: int, eta: float, bits: int = 6,
                       seed: int = 17) -> OracleFunction:
    """chi_S with a deterministic eta-density sign flip on dyadic cells.

    Stays ±1-valued; the correlation with chi_S is 1 - 2*eta up to the
    cell-boundary measure, so every retained coefficient is attenuated by
    the same factor.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    if not (_is_int(bits) and bits >= 0 and _is_int(seed) and 0 <= seed < 2**64):
        raise ValueError(f"bits and seed must be non-negative integers (seed below 2^64), "
                         f"got {bits!r} and {seed!r}")
    base = product_sign(support, n)

    def ev(x):
        return base.evaluate(x) * _cell_noise_flip(x, eta, bits, seed)

    return replace(base, evaluator=ev, product_factors=None, label=f"noisy_{base.label}@{eta}")


def hermite_monomial(v, n: int, bounded: bool = True) -> OracleFunction:
    """f proportional to h_v = prod_i h_{v_i}(x_i), one factor per axis.

    The bounded variant divides each factor by its sup over [-SUP_RANGE,
    SUP_RANGE] (at least 1) and clips it to [-1, 1], which acts only outside
    that box: ~e^(-SUP_RANGE^2/2) Gaussian mass, far below every tolerance in
    use.  With bounded=False the raw orthonormal h_v is returned (unit
    coefficient, range unbounded) for Monte-Carlo consumers that do not need
    |f| <= 1.
    """
    n = _arity(n)
    v = _degrees(v, n, "monomial")
    bounded = _flag(bounded, "bounded")
    grid = np.linspace(-SUP_RANGE, SUP_RANGE, 4001)
    scales = [max(float(np.abs(probabilist_product((c,), grid[:, None], 1.0)).max()), 1.0)
              if bounded else 1.0 for c in v]
    cap = 1.0 if bounded else np.inf
    factors = tuple(lambda x, c=c, s=s: np.clip(probabilist_product((c,), x[..., None], 1.0) / s,
                                                -cap, cap)
                    for c, s in zip(v, scales))
    scale = math.prod(scales)
    gamma = float(sum(v)) / scale**2
    return OracleFunction(arity=n, product_factors=factors, boolean=False,
                          degree_cutoff=max(max(v), 1), gamma=gamma,
                          range_bounded=bounded, kappa=max(1.0, scale * scale),
                          label=f"h{v}" + ("" if bounded else "_raw"))


def mixture(terms, n: int, bounded: bool = False) -> OracleFunction:
    """f = sum_k c_k h_{v_k} with exact coefficients (range unbounded).

    gamma = E||grad f||^2 = sum c_k^2 |v_k|_1 in this basis, recorded for the
    Monte-Carlo consumers.  bounded=True rescales by the sup on
    [-SUP_RANGE, SUP_RANGE]^n and clips, changing every coefficient by the
    same factor (recorded in the label); the declared kappa then covers the
    shrunken postselection rate.
    """
    n = _arity(n)
    bounded = _flag(bounded, "bounded")
    terms = [(_degrees(v, n, "mixture"), float(c)) for v, c in terms]
    for v, c in terms:   # JSON reads NaN and Infinity
        if not math.isfinite(c):
            raise ValueError(f"mixture term {v} must have a finite coefficient, got {c!r}")
    if not terms:
        raise ValueError("mixture needs at least one term")

    def unscaled(x):   # sum_k c_k h_{v_k} at points x of shape (..., n)
        out = np.zeros(x.shape[:-1])
        for v, c in terms:
            out = out + probabilist_product(v, x, np.full(x.shape[:-1], c))
        return out

    scale = 1.0
    if bounded:
        if n == 1:
            tot = unscaled(np.linspace(-SUP_RANGE, SUP_RANGE, 2001)[:, None])
            scale = max(1.0, float(np.abs(tot).max()))
        else:
            pts = np.random.default_rng(7).uniform(-SUP_RANGE, SUP_RANGE, size=(20000, n))
            scale = max(1.0, float(np.abs(unscaled(pts)).max()) * 1.05)

    def ev(x):
        out = unscaled(x) / scale
        return np.clip(out, -1.0, 1.0) if bounded else out

    gamma = sum(c * c * sum(v) for v, c in terms) / scale**2
    deg = max(max(max(v) for v, _ in terms), 1)
    mass = sum(c * c for _, c in terms)
    kappa = max(1.0, scale * scale / mass) if bounded else 1.0
    return OracleFunction(arity=n, evaluator=ev, boolean=False, degree_cutoff=deg,
                          gamma=gamma, range_bounded=bounded, kappa=kappa,
                          label=f"mix{terms}" + (f"/{scale:.3g}" if scale != 1.0 else ""))


def indicator_bump(half_width: float, n: int = 1) -> OracleFunction:
    """Indicator of [-w, w]^n: sup|f sqrt(nu)| / ||f sqrt(nu)||_2 grows as the bump narrows.

    sup|f| = 1, so the normalized sampler's success probability is the
    bump's mass under the grid's Gaussian weights, near ||f||^2_nu =
    P(|X| <= w)^n = erf(w / sqrt(2))^n.  On one axis the grid points in
    [-w, w] hold at least half of erf(w / sqrt(2)), at any spacing: the
    density falls away from 0, so the point at 0 and those at s, ..., Ks
    (K = floor(w/s)) each outweigh the cell of width s beyond them.  So
    kappa = 2^(n-1) erf(w / sqrt(2))^-n, from the width alone, keeps the
    promise success >= 1/(2 kappa) on every grid.  (erf^-n alone does not
    for n = 2: at w = 0.2 on M = 256, one point per axis holds the bump.)
    """
    n = _arity(n)
    if not half_width > 0:
        raise ValueError(f"half_width must be > 0, got {half_width!r}")
    try:
        kappa = 2 ** (n - 1) * math.erf(half_width / math.sqrt(2)) ** -n
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"half_width {half_width!r} is too narrow for n={n}: "
                         f"its Gaussian mass underflows") from None

    def ev(x):
        inside = np.all(np.abs(x) <= half_width, axis=-1)
        return inside.astype(float)

    return OracleFunction(arity=n, evaluator=ev, boolean=False, kappa=kappa,
                          degree_cutoff=9, label=f"bump({half_width})")


_FAMILIES = {builder.__name__: builder for builder in (
    constant, scaled_constant, product_sign, noisy_product_sign, hermite_monomial, mixture,
    indicator_bump)}


def build_entry(entry: dict) -> OracleFunction:
    """The oracle of one corpus entry: its "family" builder called with its other keys."""
    if not isinstance(entry, dict):
        raise ValueError(f"corpus entry {entry!r} must be a JSON object")
    params = dict(entry)
    family = params.pop("family", None)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown corpus family {family!r}")
    builder = _FAMILIES[family]
    try:   # a key outside the signature, a missing one, or a value of the wrong JSON type
        bound = inspect.signature(builder).bind(**params)
        return builder(*bound.args, **bound.kwargs)
    except TypeError as exc:
        raise ValueError(f"corpus entry {entry}: {exc}") from None


def load_corpus(path) -> list:
    with open(path) as fh:
        entries = json.load(fh)
    return [build_entry(e) for e in entries]
