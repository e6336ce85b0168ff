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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .spectral_core import GridSpec, _is_int, hermite_basis, probabilist_rows

__all__ = [
    "OracleFunction",
    "SamplerConfig",
    "SampleDistribution",
    "spectrum_table",
    "sample_distribution",
    "draw",
    "tv_distance",
]

FULL_GRID_BUDGET = 26  # n * log2(points per axis) cap for a dense tensor grid
TABLE_BUDGET = 27  # log2 of the entries a contracted table may hold, on either path
_SLAB_POINTS = 1 << 16  # dense oracles are evaluated this many grid points at a time
ATTEMPT_CAP_FACTOR = 64  # a normalized distribution's rejection cap is this times kappa


class PostselectionFailure(ValueError):
    """Rejection loop exceeded its attempt cap: the oracle's declared kappa does not hold."""


@dataclass(frozen=True)
class OracleFunction:
    """Real function on R^n with declared degree cutoff and kappa.

    The function is held once, in exactly one of two forms: `evaluator`,
    acting on arrays of shape (..., n) and returning shape (...), or
    `product_factors`, one callable per axis (shape (...) to (...)) whose
    product in axis order is f.  Both, neither, or a factor count other
    than arity is a ValueError.  `evaluate` reads whichever is held, so the
    samplers' grid contraction (which takes a product oracle's factors as a
    rank-1 table) and the Monte-Carlo estimators query the same function.
    kappa is the declared well-conditioning parameter: the rejection sampler
    is promised a per-attempt success probability of at least 1/(2*kappa).
    range_bounded declares |f| <= 1; unbounded oracles still sample (the
    amplitude rescale is folded into the controlled rotation) but pay for it
    in postselection probability, which the declared kappa must cover.
    """

    arity: int
    evaluator: object = None
    degree_cutoff: int = 9
    kappa: float = 1.0
    boolean: bool = False
    range_bounded: bool = True
    gamma: float | None = None   # declared E||grad f||^2 proxy, when known
    label: str = ""
    product_factors: tuple | None = None  # per-axis callables, in place of evaluator

    def __post_init__(self):
        count = self.arity if self.product_factors is None else len(self.product_factors)
        if (self.evaluator is None) == (self.product_factors is None) or count != self.arity:
            raise ValueError(f"oracle {self.label!r} needs an evaluator or one factor per axis")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.shape[-1] != self.arity:
            raise ValueError(f"expected points in R^{self.arity}, got shape {pts.shape}")
        if self.evaluator is not None:
            return np.asarray(self.evaluator(pts), dtype=float)
        out = np.ones(pts.shape[:-1])
        for i, factor in enumerate(self.product_factors):
            out = out * factor(pts[..., i])
        return out


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


def _grid_contract(n: int, evaluate, grid: np.ndarray, mats, factors=None, weights=None):
    """Contract f over the n-fold tensor grid, one mode product per axis.

    With W = f * prod_k weights[k] on the grid (weights default to 1), returns
    (T, sum |W|^2, max |f|), where T[r_1..r_n] = sum_i W(i) prod_k mats[k][r_k, i_k].
    A product oracle (`factors`, one callable per axis) is rank-1: T is the
    outer product of the per-axis contractions.  Any other `evaluate`
    (points of shape (..., n) to values (...)) is evaluated in slabs of at
    most 2^16 points -- the trailing axes whole, the leading ones flattened
    and walked in slices.  Two budgets bound the work, each checked before
    anything is allocated: on either path the table T holds at most
    2^TABLE_BUDGET entries, and on the dense path the grid holds at most
    2^FULL_GRID_BUDGET points (n * log2(len(grid)) <= FULL_GRID_BUDGET).
    """
    G = len(grid)
    shape = [len(m) for m in mats]
    if math.prod(shape) > 2 ** TABLE_BUDGET:
        raise ValueError(f"table budget exceeded (n={n}, {max(shape)} indices per axis)")
    weights = [np.ones(G)] * n if weights is None else weights
    if factors is not None:
        T, sum_sq, sup = 1.0, 1.0, 1.0
        for k, factor in enumerate(factors):
            fk = np.asarray(factor(grid), dtype=float)
            W = weights[k] * fk
            sum_sq *= float(np.sum(np.abs(W) ** 2))
            sup *= float(np.abs(fk).max())
            T = np.multiply.outer(T, mats[k] @ W)
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
    lead_mat = mats[0][:, lead_idx[0]]   # the leading axes' matrices, Kronecker-merged column-wise
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
        for m in mats[lead:]:
            W = np.tensordot(W, m, axes=([1], [1]))
        T = T + lead_mat[:, s:s + step] @ W.reshape(len(W), -1)
    return T.reshape(shape), sum_sq, sup


def spectrum_table(f: OracleFunction, D: int, M_quad: int) -> np.ndarray:
    """The (D+1,)*n array of fhat(v), v in [0, D]^n, in one tensor contraction per axis."""
    x, h = _quad_grid(M_quad)
    weighted = h * probabilist_rows(D, x) * _nu(x)
    c, _, _ = _grid_contract(f.arity, f.evaluate, x, [weighted] * f.arity, f.product_factors)
    return c


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    """Grid size per axis, measured degree window, and transform accuracy.

    Every field is checked at construction, as `QHTConfig`'s are, so an
    invalid config never exists: M must be a grid `GridSpec` accepts, D an
    integer in [0, M), qht_eps None or in (0, 1), and the per-axis rows,
    (D + 1) x M entries, at most 2^TABLE_BUDGET, before `hermite_basis`
    allocates them.
    """

    M: int = 512
    D: int = 9
    qht_eps: float | None = None     # simulated-transform eps; None takes the exact rows

    def __post_init__(self):
        M, D, eps = self.M, self.D, self.qht_eps
        GridSpec(M)
        if not _is_int(D) or not 0 <= D < M:
            raise ValueError(f"D must be an integer in [0, M={M}), got {D!r}")
        if eps is not None and not 0 < eps < 1:
            from .qht_pipeline import ConfigError

            raise ConfigError(f"qht_eps must be in (0, 1), got {eps}")
        if (D + 1) * M > 2 ** TABLE_BUDGET:
            raise ValueError(f"per-axis rows (D+1) x M = {(D + 1) * M} exceed the table "
                             f"budget 2^{TABLE_BUDGET} (D={D}, M={M})")


@dataclass(frozen=True)
class SampleDistribution:
    """Measurement distribution over v in [0, D]^n plus the out-of-range rest.

    Built once per (oracle, config) by sample_distribution and held by the
    caller; it carries the CDF and draw total, so a batch of draws is one
    inversion (one searchsorted over the uniforms).
    attempt_cap is the rejection cap of a postselected (normalized)
    distribution, None when the circuit needs no postselection.
    """

    D: int
    probs: np.ndarray = field(repr=False)   # shape (D+1,)*n
    out_mass: float = 0.0
    success_prob: float = 1.0               # per-attempt postselection probability
    attempt_cap: int | None = None
    cdf: np.ndarray = field(init=False, repr=False)
    total: float = field(init=False)

    def __post_init__(self):
        flat = self.probs.ravel()
        object.__setattr__(self, "cdf", np.cumsum(flat))
        object.__setattr__(self, "total", float(flat.sum() + self.out_mass))


def _axis_transform_rows(scfg: SamplerConfig) -> np.ndarray:
    """Rows <psibar_v| used for the per-axis inverse transform."""
    if scfg.qht_eps is None:
        return hermite_basis(GridSpec(scfg.M), scfg.D).astype(complex)
    from .qht_pipeline import QHTConfig, qht_operator

    cfg = QHTConfig(N=scfg.D + 1, eps=scfg.qht_eps, M=scfg.M)
    return qht_operator(cfg).matrix()   # the columns u_v, without the output signs


def _amplitude_tensor(f: OracleFunction, scfg: SamplerConfig):
    """Per-axis ground states times f at the rescaled grid, then transformed.

    Returns (A, norm_sq, sup_f) with A[v] = <psibar_v x ...| f |psibar_0 x ...>,
    all three from one pass over the grid.
    """
    spec = GridSpec(scfg.M)
    ground = hermite_basis(spec, 0)[0]
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
    capped at ATTEMPT_CAP_FACTOR * kappa attempts.  Build it once and pass
    it to every batch of draws.
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
        cap = max(1, int(ATTEMPT_CAP_FACTOR * f.kappa))
    else:
        total_target = norm_sq if not f.boolean else 1.0
    out = max(total_target - float(probs.sum()), 0.0)
    return SampleDistribution(D=scfg.D, probs=probs, out_mass=out, success_prob=success,
                              attempt_cap=cap)


def draw(dist: SampleDistribution, rng: np.random.Generator, k: int):
    """k draws from a held distribution: p_v tracks fhat(v)^2 / ||f||^2.

    Returns (v, attempts): v is a (k, n) int array whose out-of-range rows
    read D + 1 in every coordinate, attempts a (k,) array.  A postselected
    distribution is drawn by rejection: the per-attempt success probability
    is computed exactly from the state and each attempt count drawn as the
    matching geometric variable (the aggregated Bernoulli sequence); the
    declared kappa promises success >= 1/(2*kappa), and a batch with a
    count beyond the attempt cap is a reported failure, not an exception
    swallowed.  All k counts are drawn before the k uniforms, so k = 1 and
    an unpostselected batch read the rng as k single draws would.
    """
    attempts = np.ones(k, dtype=np.int64)
    if dist.attempt_cap is not None:
        p_succ = min(dist.success_prob, 1.0)
        if p_succ < 1.0:
            attempts = rng.geometric(p_succ, k)
        if (attempts > dist.attempt_cap).any():
            raise PostselectionFailure(
                f"no acceptance in {dist.attempt_cap} attempts (success prob {p_succ:.3g})")
    idx = np.searchsorted(dist.cdf, rng.random(k) * dist.total)
    out = idx >= len(dist.cdf)
    v = np.stack(np.unravel_index(np.where(out, 0, idx), dist.probs.shape), axis=-1)
    v[out] = dist.D + 1
    return v, attempts


def _spectrum_draws(f: OracleFunction, scfg: SamplerConfig, rng, k: int):
    """k draws (v, attempts) from f's sampler distribution, postselected unless f is boolean.

    The distribution lives only for the call, so a caller holds the draws,
    not its probabilities and CDF.
    """
    return draw(sample_distribution(f, scfg, normalized=not f.boolean), rng, k)


def _tally(v: np.ndarray, D: int | None = None) -> dict:
    """Count per drawn index, keyed in order of first draw (so ties break by it).

    With D, the out-of-range rows (coordinates above D) are dropped.
    """
    counts = Counter(zip(*v.T.tolist()))
    return counts if D is None else {u: c for u, c in counts.items() if u[0] <= D}


def tv_distance(counts: dict, q: np.ndarray) -> float:
    """(1/2) sum |phat - q| over the cells of [0, D]^n and one out-of-range cell.

    counts is the `_tally` of all the draws, out-of-range rows included, and
    q the (D+1,)*n target distribution; phat = counts / k over the k draws.
    The out-of-range cell holds the draws outside [0, D]^n on one side and
    q_out = max(1 - sum q, 0) on the other, so the distance stays in [0, 1]
    for any q of mass at most 1.  An index never drawn adds q_v, so the
    in-range sum is sum q + sum over drawn v of (|phat_v - q_v| - q_v): only
    the drawn indices are visited, and no grid of counts is built.
    """
    k = sum(counts.values())
    if k <= 0:
        raise ValueError("empty histogram: no draws")
    inside = [u for u in counts if u[0] < len(q)]
    phat = np.array([counts[u] for u in inside], dtype=float) / k
    qv = q[tuple(np.array(inside, dtype=np.intp).reshape(len(inside), q.ndim).T)]
    mass = float(q.sum())
    out = (k - sum(counts[u] for u in inside)) / k
    return 0.5 * (mass + float(np.sum(np.abs(phat - qv) - qv)) + abs(out - max(1.0 - mass, 0.0)))
