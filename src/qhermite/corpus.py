"""Planted oracle functions with known Hermite spectra, for validation runs.

Families mirror the shared corpus format used by the samplers, learners, and
the CLI: constants, product signs (optionally with deterministic label
noise), Hermite monomials, and sparse coefficient mixtures.  Each builder
returns an OracleFunction; where a family has closed-form spectral data the
builder records enough metadata (gamma, kappa, boolean) for the consumers.

A corpus file is a JSON list of entries like
    {"family": "product_sign", "n": 2, "support": [0, 1]}
    {"family": "mixture", "n": 2, "terms": [[[1, 0], 0.9], [[0, 3], 0.436]]}
loaded by `load_corpus`.
"""
from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

from .hermite_sampling import OracleFunction
from .spectral_core import probabilist_product, probabilist_rows

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


def constant(n: int = 1, value: float = 1.0) -> OracleFunction:
    if not -1.0 <= value <= 1.0:
        raise ValueError("constant must lie in [-1, 1]")
    mag = abs(value) ** (1.0 / n)
    axis_vals = [mag] * n
    axis_vals[0] *= math.copysign(1.0, value) if value else 1.0
    factors = tuple(lambda x, v=v: np.full_like(x, v) for v in axis_vals)
    return OracleFunction(
        arity=n, evaluator=lambda x: np.full(x.shape[:-1], value),
        degree_cutoff=0, kappa=max(1.0, 1.0 / (2 * value * value)) if value else math.inf,
        boolean=(abs(value) == 1.0), gamma=0.0, label=f"const({value})",
        product_factors=factors)


def scaled_constant(kappa: float, n: int = 1) -> OracleFunction:
    """Constant s with ||f||^2 = s^2 = 1/(2*kappa): postselection bound tight."""
    s = math.sqrt(1.0 / (2.0 * kappa))
    return replace(constant(n, s), kappa=kappa, label=f"const_kappa{kappa}")


def _product(factors):
    """The evaluator prod_i factors[i](x_i) of a product oracle."""

    def ev(x):
        out = np.ones(x.shape[:-1])
        for i, factor in enumerate(factors):
            out = out * factor(x[..., i])
        return out

    return ev


def product_sign(support, n: int) -> OracleFunction:
    """chi_S(x) = prod_{i in S} sgn(x_i), sgn(0) := +1; spectrum on odd indices over S.

    S must name distinct axes in [0, n).
    """
    support = tuple(sorted(int(i) for i in support))
    if any(not 0 <= i < n for i in support) or len(set(support)) < len(support):
        raise ValueError(f"support {support} must list distinct axes in [0, {n})")
    factors = tuple((lambda x: np.where(x < 0, -1.0, 1.0)) if i in support else np.ones_like
                    for i in range(n))
    return OracleFunction(arity=n, evaluator=_product(factors), boolean=True, kappa=1.0,
                          degree_cutoff=9, gamma=1.0, label=f"chi{support}",
                          product_factors=factors)


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
    base = product_sign(support, n)

    def ev(x):
        return base.evaluator(x) * _cell_noise_flip(x, eta, bits, seed)

    return OracleFunction(arity=n, evaluator=ev, boolean=True, kappa=1.0,
                          degree_cutoff=9, input_bits=None, gamma=1.0,
                          label=f"noisy_chi{tuple(support)}@{eta}")


def hermite_monomial(v, n: int, sup_range: float = 5.0,
                     bounded: bool = True) -> OracleFunction:
    """f proportional to h_v = prod_i h_{v_i}(x_i), one factor per axis.

    The bounded variant divides each factor by its sup over [-sup_range,
    sup_range] (at least 1) and clips it to [-1, 1], which acts only outside
    that box: ~e^(-sup_range^2/2) Gaussian mass, far below every tolerance in
    use.  With bounded=False the raw orthonormal h_v is returned (unit
    coefficient, range unbounded) for Monte-Carlo consumers that do not need
    |f| <= 1.
    """
    v = tuple(int(c) for c in v)
    if len(v) != n:
        raise ValueError("index length must equal arity")
    grid = np.linspace(-sup_range, sup_range, 4001)
    scales = [max(float(np.abs(probabilist_rows(c, grid)[c]).max()), 1.0) if bounded else 1.0
              for c in v]
    cap = 1.0 if bounded else np.inf
    factors = tuple(lambda x, c=c, s=s: np.clip(probabilist_rows(c, x)[c] / s, -cap, cap)
                    for c, s in zip(v, scales))
    scale = math.prod(scales)
    gamma = float(sum(v)) / scale**2
    return OracleFunction(arity=n, evaluator=_product(factors), boolean=False,
                          degree_cutoff=max(max(v), 1), gamma=gamma,
                          range_bounded=bounded, kappa=max(1.0, scale * scale),
                          label=f"h{v}" + ("" if bounded else "_raw"),
                          product_factors=factors)


def mixture(terms, n: int, bounded: bool = False) -> OracleFunction:
    """f = sum_k c_k h_{v_k} with exact coefficients (range unbounded).

    gamma = E||grad f||^2 = sum c_k^2 |v_k|_1 in this basis, recorded for the
    Monte-Carlo consumers.  bounded=True rescales by the sup on [-5, 5]^n and
    clips, changing every coefficient by the same factor (recorded in the
    label); the declared kappa then covers the shrunken postselection rate.
    """
    terms = [(tuple(int(c) for c in v), float(c)) for v, c in terms]
    for v, _ in terms:
        if len(v) != n or min(v, default=0) < 0:
            raise ValueError(f"mixture index {v} must have length {n} and no negative degree")

    def unscaled(x):   # sum_k c_k h_{v_k} at points x of shape (..., n)
        out = np.zeros(x.shape[:-1])
        for v, c in terms:
            out = out + probabilist_product(v, x, np.full(x.shape[:-1], c))
        return out

    scale = 1.0
    if bounded:
        if n == 1:
            tot = unscaled(np.linspace(-5.0, 5.0, 2001)[:, None])
            scale = max(1.0, float(np.abs(tot).max()))
        else:
            pts = np.random.default_rng(7).uniform(-5, 5, size=(20000, n))
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
    """Indicator of [-w, w]^n: distortion grows as the bump narrows."""

    def ev(x):
        inside = np.all(np.abs(x) <= half_width, axis=-1)
        return inside.astype(float)

    return OracleFunction(arity=n, evaluator=ev, boolean=False,
                          degree_cutoff=9, label=f"bump({half_width})")


_FAMILIES = {
    "constant": lambda e: constant(e.get("n", 1), e.get("value", 1.0)),
    "scaled_constant": lambda e: scaled_constant(e["kappa"], e.get("n", 1)),
    "product_sign": lambda e: product_sign(e["support"], e["n"]),
    "noisy_product_sign": lambda e: noisy_product_sign(
        e["support"], e["n"], e["eta"], e.get("bits", 6), e.get("seed", 17)),
    "hermite_monomial": lambda e: hermite_monomial(
        e["v"], e["n"], bounded=e.get("bounded", True)),
    "mixture": lambda e: mixture(e["terms"], e["n"], bounded=e.get("bounded", False)),
    "indicator_bump": lambda e: indicator_bump(e["half_width"], e.get("n", 1)),
}


def build_entry(entry: dict) -> OracleFunction:
    family = entry.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown corpus family {family!r}")
    return _FAMILIES[family](entry)


def load_corpus(path) -> list:
    with open(path) as fh:
        entries = json.load(fh)
    return [build_entry(e) for e in entries]
