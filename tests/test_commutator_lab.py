import gc
import math
import tracemalloc
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest
from conftest import centered_dft_matrix, dense_momentum_sq

from qhermite import discrete_qho
from qhermite.discrete_qho import (
    TAIL_FAMILIES,
    DiscreteQHO,
    build,
    commutator_tail_norm,
)
from qhermite.spectral_core import GridSpec, hermite_basis

# the functions that evaluate the lab's inputs in mpmath
INPUT_BUILDERS = ("_mp_hermite_columns", "_fixed_dft_columns", "_mp_p2_symbol", "_mp_p1_symbol")


def dense_tail_reference(qho, N: int, t_max: int, family: str = "x2_p2") -> float:
    """Float64 dense reference for the projected tail, small scales only.

    Iterative nesting with the 1/t rescaling folded into each step.  Valid
    only while the unprojected intermediates stay small enough for float64
    (roughly M <= 32 with t_max <= 8); the lab itself uses the exact-integer
    Hadamard evaluation.
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


# ---------------------------------------------------------------------------
# Brute-force oracles of the parity-folded lab: every label evaluated, M^2 sums
# ---------------------------------------------------------------------------

def _fold(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum the entries of labels J and -J along `axis`; index m = |J|, 0..M/2."""
    a = np.moveaxis(a, axis, -1)
    half = a.shape[-1] // 2
    out = a[..., half::-1].copy()             # J = 0, -1, ..., -M/2
    out[..., 1:half] += a[..., half + 1:]     # J = 1, ..., M/2 - 1
    return np.moveaxis(out, -1, axis)


def unfolded_tail_sums(u, g, anti: bool, t0: int, t_max: int):
    """Exact S_t[a, b] = sum_jk conj(u_a[j]) W[j, k] (J_j^2 - J_k^2)^t u_b[k], unfolded.

    u is a list of N full fixed-point columns (re, im) in label order
    -M/2..M/2-1 and g the fixed-point symbol; W[j, k] = g[(j - k) mod M],
    times the exact integer J_j + J_k when `anti`.  About 8 M^2 products per
    pair (a, b), and the weighted sum over every (n, m), the diagonal and both
    orders included: nothing of the lab's folds, pairs or power sums.
    """
    M = len(g[0])
    labels = np.arange(M)
    idx = (labels[:, None] - labels[None, :]) % M
    wr, wi = g[0][idx], g[1][idx]
    if anti:
        jsum = (labels[:, None] + labels[None, :] - M).astype(object)
        wr, wi = wr * jsum, wi * jsum
    size = M // 2 + 1
    n = np.arange(size).astype(object)
    weight = n[:, None] ** 2 - n[None, :] ** 2
    N = len(u)
    S = {t: (np.zeros((N, N), dtype=object), np.zeros((N, N), dtype=object))
         for t in range(t0, t_max + 1)}
    for b, (ur, ui) in enumerate(u):
        # G_b[j, m]: W u_b with the columns of labels k and -k summed (m = |J_k|)
        gr, gi = _fold(wr * ur - wi * ui, 1), _fold(wr * ui + wi * ur, 1)
        for a, (ar, ai) in enumerate(u[:b + 1]):
            # H[n, m] = sum over |J_j| = n of conj(u_a[j]) G_b[j, m]
            H = (_fold(ar[:, None] * gr + ai[:, None] * gi, 0),
                 _fold(ar[:, None] * gi - ai[:, None] * gr, 0))
            powered = [h * weight ** t0 for h in H]
            for t in S:
                re, im = (int(p.sum()) for p in powered)
                sign = -1 if t % 2 else 1
                S[t][0][a, b], S[t][1][a, b] = re, im
                S[t][0][b, a], S[t][1][b, a] = sign * re, -sign * im
                for p in powered:
                    p *= weight
    return S


def unfold(part, sign: int) -> np.ndarray:
    """The full column (labels -M/2..M/2-1) of a half on `_half_labels` with its parity."""
    half = len(part) - 1
    out = np.empty(2 * half, dtype=object)
    out[half:] = part[:half]
    out[half - 1:0:-1] = [sign * v for v in part[1:half]]
    out[0] = part[half]
    return out


def full_hermite_columns(M: int, N: int):
    """The normalized discrete Hermite states evaluated at every label, in label order."""
    h = mp.sqrt(2 * mp.pi / M)
    xs = [j * h for j in range(-M // 2, M // 2)]
    rows = [[mp.power(mp.pi, mp.mpf(-1) / 4) * mp.exp(-x * x / 2) * mp.sqrt(h) for x in xs]]
    if N >= 2:
        rows.append([mp.sqrt(2) * x * v for x, v in zip(xs, rows[0])])
    for n in range(1, N - 1):
        c1, c2 = mp.sqrt(mp.mpf(2) / (n + 1)), mp.sqrt(mp.mpf(n) / (n + 1))
        rows.append([c1 * x * a - c2 * b for x, a, b in zip(xs, rows[n], rows[n - 1])])
    return [[v / mp.sqrt(mp.fsum(w * w for w in r)) for v in r] for r in rows[:N]]


def full_roots(M: int, bits: int):
    """The fixed-point root table exp(2 pi i r / M), every r = 0..M-1 evaluated."""
    roots = [mp.expjpi(mp.mpf(2 * r) / M) for r in range(M)]
    return (discrete_qho._fixed([z.real for z in roots], bits),
            discrete_qho._fixed([z.imag for z in roots], bits))


def full_dft_columns(cols, M: int, bits: int):
    """Centered DFT of full mp columns: M^2 integer products per column, each output rounded once."""
    fine = bits + discrete_qho._TAIL_GUARD_BITS
    labels = np.arange(M) - M // 2
    idx = np.outer(labels, labels) % M
    rr, ri = (part[idx] for part in full_roots(M, fine))
    scale = mp.ldexp(1 / mp.sqrt(M), -2 * fine)
    out = []
    for col in cols:
        c = discrete_qho._fixed(col, fine)
        out.append(tuple(discrete_qho._fixed([mp.mpf(v) * scale for v in (table * c).sum(axis=1)], bits)
                         for table in (rr, ri)))
    return out


def has_parity(full, sign: int) -> bool:
    """Whether the full column is even (sign 1) or odd (-1) on the mirrored labels +-J, 0 < J < M/2."""
    half = len(full) // 2
    return all(full[half + 1:] == [sign * v for v in full[half - 1:0:-1]])


def _tail_inputs(M: int, N: int, family: str, bits: int):
    """One family's `_tail_columns` and `_tail_symbol` at 2^-bits, at the current mp precision."""
    cols, roots = discrete_qho._mp_hermite_columns(M, N), discrete_qho._mp_roots(M)
    return (discrete_qho._tail_columns(M, family, bits, cols, roots),
            discrete_qho._tail_symbol(M, family, bits, roots))


def _bits(M: int, t_max: int) -> int:
    """The lab's fixed-point precision P at the default dps."""
    return math.ceil(discrete_qho._tail_dps(M, t_max) * math.log2(10)) + discrete_qho._TAIL_EXTRA_BITS


def mp_tail(M: int, N: int, t_max: int, family: str, bits: int) -> list:
    """The lab's projected tail from inputs at 2^-bits, as rows of mp numbers: one exact pass,
    converted and summed as `commutator_tail_norm` does, at the current mp precision."""
    t0 = 2 if family == "p2_anti" else 3
    u, g = _tail_inputs(M, N, family, bits)
    S, _ = discrete_qho._integer_tail_sums(u, g, family == "p2_anti", t0, t_max, {},
                                           discrete_qho._weight_groups(M // 2 + 1))
    scales = discrete_qho._tail_scales(M)
    terms = [discrete_qho._scaled_rows(S[t], mp.ldexp(scales[t], -3 * bits)) for t in S]
    return [[sum((T[a][b] for T in terms), mp.mpf(0)) for b in range(N)] for a in range(N)]


class TestDefectDelta:
    def test_low_block_matrix_elements_match_continuum(self, basis_cache):
        # <psibar_k|[x2,[x2,p2]]|psibar_l> = -8 <psibar_k|x2|psibar_l> to 1e-6;
        # x2 is diagonal, so C is a double Hadamard scaling of p2
        M = 64
        qho = build(GridSpec(M))
        x2 = qho.x**2
        d = x2[:, None] - x2[None, :]
        C = d * d * dense_momentum_sq(qho.spec)
        U = basis_cache(M, 6).T
        block = U.T @ (C + 8 * np.diag(x2)) @ U
        assert np.abs(block).max() < 1e-6


class TestTailMachinery:
    @pytest.mark.parametrize("family", TAIL_FAMILIES)
    def test_matches_dense_reference_small_scale(self, family):
        # float64 dense nesting is valid at M=16, t_max=6; the exact-integer
        # Hadamard path must agree to rounding there
        qho = build(GridSpec(16))
        ref = dense_tail_reference(qho, N=2, t_max=6, family=family)
        rep = commutator_tail_norm(qho, N=2, t_max=6, family=family, dps=60)
        assert ref > 0
        assert abs(rep.tail_norm - ref) < 1e-8 * max(ref, 1.0)

    @pytest.mark.parametrize("family", TAIL_FAMILIES)
    def test_matches_dense_reference_wider_block(self, family):
        # same cross-check at a 3-dimensional projected block and deeper tail
        qho = build(GridSpec(16))
        ref = dense_tail_reference(qho, N=3, t_max=8, family=family)
        rep = commutator_tail_norm(qho, N=3, t_max=8, family=family, dps=70)
        assert abs(rep.tail_norm - ref) < 1e-7 * max(ref, 1.0)

    def test_empty_sum_below_start(self):
        qho = build(GridSpec(16))
        assert commutator_tail_norm(qho, 1, 2, family="x2_p2").tail_norm == 0.0
        assert commutator_tail_norm(qho, 1, 1, family="p2_anti").tail_norm == 0.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            commutator_tail_norm(build(GridSpec(16)), 1, 5, family="bogus")

    def test_budgets(self):
        with pytest.raises(ValueError):
            commutator_tail_norm(build(GridSpec(512)), 1, 5)
        with pytest.raises(ValueError):
            commutator_tail_norm(build(GridSpec(16)), 1, 80)


class TestExactAccumulation:
    # M = 64, N = 1, t_max = 30 tails recorded from the multiprecision (mpc)
    # accumulation this lab replaced
    RECORDED_M64 = {
        "x2_p2": 9.577516769832688e-11,
        "p2_x2": 1.0328623420085976e-12,
        "p2_anti": 2.2543005773522406e-08,
    }

    @pytest.mark.parametrize("family", TAIL_FAMILIES)
    def test_recorded_tails(self, family):
        want = self.RECORDED_M64[family]
        rep = commutator_tail_norm(build(GridSpec(64)), 1, 30, family)
        assert abs(rep.tail_norm - want) <= 1e-9 * want

    def test_odd_terms_vanish_exactly(self):
        # a real column and a real symmetric symbol against the antisymmetric
        # (J_j^2 - J_k^2)^t: every odd-t projected term is an exact zero
        rep = commutator_tail_norm(build(GridSpec(64)), 1, 30, "x2_p2")
        assert all(rep.term_norms[t] == 0.0 for t in range(3, 31, 2))
        assert all(rep.term_norms[t] > 0.0 for t in range(4, 31, 2))

    @pytest.mark.parametrize("M", [64, 128])
    @pytest.mark.parametrize("family", TAIL_FAMILIES)
    def test_error_bar(self, M, family):
        rep = commutator_tail_norm(build(GridSpec(M)), 1, 30, family)
        assert 0.0 < rep.error_bar <= 1e-6 * rep.tail_norm


class TestRoundingBound:
    """`error_bar` is an a-priori bound on what rounding the inputs to 2^-P moves the tail."""

    FINER = 64   # bits of the reference pass beyond the lab's P

    @pytest.mark.parametrize("M", [16, 32, 64, 128])
    def test_inputs_within_one_unit_of_a_finer_build(self, M):
        # the bound's premise: every part of every fixed-point input built at P is
        # within 2^-P of the same input built 64 bits finer
        N, bits, finer = 3, _bits(M, 10), self.FINER
        with mp.workprec(bits + discrete_qho._TAIL_GUARD_BITS):
            coarse = {fam: _tail_inputs(M, N, fam, bits) for fam in TAIL_FAMILIES}
        with mp.workprec(bits + finer + discrete_qho._TAIL_GUARD_BITS):
            fine = {fam: _tail_inputs(M, N, fam, bits + finer) for fam in TAIL_FAMILIES}
        for fam in TAIL_FAMILIES:
            (cols, sym), (fine_cols, fine_sym) = coarse[fam], fine[fam]
            arrays = [(x, y) for col, fcol in zip(cols, fine_cols)
                      for (x, _), (y, _) in zip(col, fcol)] + list(zip(sym, fine_sym))
            for x, y in arrays:
                assert len(x) == len(y)
                assert all(abs((int(a) << finer) - int(b)) <= 1 << finer for a, b in zip(x, y)), fam

    @pytest.mark.parametrize("M, N, t_max",
                             [(16, 3, 12), (32, 4, 16), (64, 1, 30), (64, 2, 30), (128, 1, 30)])
    @pytest.mark.parametrize("family", TAIL_FAMILIES)
    def test_covers_the_error_of_the_pass(self, M, N, t_max, family):
        # error_bar >= ||tail(P) - tail(P + 64)||_F >= the spectral norm of the difference
        rep = commutator_tail_norm(build(GridSpec(M)), N, t_max, family)
        bits = _bits(M, t_max)
        with mp.workprec(bits + discrete_qho._TAIL_GUARD_BITS):
            tail = mp_tail(M, N, t_max, family, bits)
        assert discrete_qho._spectral_norms([tail]) == [rep.tail_norm]   # the pass the lab reports
        finer = bits + self.FINER
        with mp.workprec(finer + discrete_qho._TAIL_GUARD_BITS):
            ref = mp_tail(M, N, t_max, family, finer)
            frobenius = mp.sqrt(mp.fsum(abs(p - q) ** 2 for rp, rq in zip(tail, ref) for p, q in zip(rp, rq)))
            assert 0 < frobenius <= mp.mpf(rep.error_bar)
        assert rep.error_bar <= 1e-40 * rep.tail_norm

    def test_positive_below_the_float_range(self):
        # at dps = 400 the bound (about 1e-415) sits below every positive float64;
        # rounded up, it reads as the least of them, not 0
        rep = commutator_tail_norm(build(GridSpec(16)), 1, 8, dps=400)
        assert rep.tail_norm > 0
        assert rep.error_bar == math.ulp(0.0)


def power_sum_products(G: int, *terms: int) -> int:
    """`_power_sums`' count over G weights and live parities of `terms` terms each: d^t and its
    product for the first term, one product per later term, and d^2 once."""
    return G * (sum(k + 1 for k in terms) + any(k > 1 for k in terms))


class TestPowerSums:
    @staticmethod
    def brute(H, t0: int, t_max: int) -> list:
        """sum over every (n, m), the diagonal and both orders included, of (n^2 - m^2)^t H[n, m]."""
        size = H.shape[0]
        return [sum((n * n - m * m) ** t * int(H[n, m]) for n in range(size) for m in range(size))
                for t in range(t0, t_max + 1)]

    @staticmethod
    def grouped(H, groups) -> list:
        """H[n, m] + H[m, n] and H[n, m] - H[m, n] on the pairs n < m, summed per weight."""
        n, m, starts, _ = groups
        upper, lower = H[n, m], H[m, n]
        return [np.add.reduceat(p, starts) for p in (upper + lower, upper - lower)]

    @pytest.mark.parametrize("size, t0, t_max", [(2, 2, 5), (9, 3, 12), (33, 3, 30), (33, 2, 30)])
    def test_grouped_sums_equal_the_sum_over_all_pairs(self, rng, size, t0, t_max):
        # wide integers of both signs, as the lab's H; a symmetric and an
        # antisymmetric H leave only the even and only the odd terms
        H = np.array([[int(v) << 200 for v in row]
                      for row in rng.integers(-2**40, 2**40, (size, size))], dtype=object)
        groups = discrete_qho._weight_groups(size)
        d = groups[3]
        for data in (H, H + H.T, H - H.T):
            sums, products = discrete_qho._power_sums(self.grouped(data, groups), d, t0, t_max)
            assert sums == self.brute(data, t0, t_max)
            ts = range(t0, t_max + 1)
            terms = sum(t % 2 == 0 for t in ts), sum(t % 2 == 1 for t in ts)
            live = [k for k, p in zip(terms, self.grouped(data, groups)) if any(p)]
            assert products == power_sum_products(len(d), *live)

    def test_a_parity_that_is_none_or_zero_is_skipped(self):
        d = discrete_qho._weight_groups(9)[3]
        zero = np.zeros(len(d), dtype=object)
        for parity in ([None, None], [zero, None], [None, zero.copy()]):
            assert discrete_qho._power_sums(parity, d, 3, 12) == ([0] * 10, 0)

    def test_groups_cover_each_pair_once_by_weight(self):
        n, m, starts, d = discrete_qho._weight_groups(33)
        assert len(n) == 33 * 32 // 2 and len(d) == 363
        assert sorted(zip(n.tolist(), m.tolist())) == [(a, b) for a in range(33) for b in range(a + 1, 33)]
        ends = np.append(starts[1:], len(n))
        for lo, hi, w in zip(starts, ends, d):
            assert isinstance(w, int) and set((n[lo:hi] ** 2 - m[lo:hi] ** 2).tolist()) == {w}
        assert all(np.diff(d.astype(np.int64)) > 0)

    def test_the_grid_holds_its_groups(self, monkeypatch):
        qho = build(GridSpec(32))
        first = {family: _hex(commutator_tail_norm(qho, 1, 12, family)) for family in TAIL_FAMILIES}
        assert qho._lab[("weight groups",)][3].tolist() == discrete_qho._weight_groups(17)[3].tolist()

        def no_groups(*args):
            raise AssertionError("weight groups built on a repeat call")

        monkeypatch.setattr(discrete_qho, "_weight_groups", no_groups)
        for family in TAIL_FAMILIES:
            commutator_tail_norm(qho, 2, 12, family)   # another N builds its inputs, not the groups
            assert _hex(commutator_tail_norm(qho, 1, 12, family)) == first[family]


class TestTailDecay:
    def test_x2p2_tail_small_and_shrinking(self):
        # spec-scale check: M=128, N=6 tail below 1e-4 and far smaller at
        # larger M for fixed N
        r128 = commutator_tail_norm(build(GridSpec(128)), N=6, t_max=25)
        assert r128.tail_norm <= 1e-4
        r64 = commutator_tail_norm(build(GridSpec(64)), N=6, t_max=25)
        assert r128.tail_norm < r64.tail_norm

    def test_anticommutator_family_small(self):
        rep = commutator_tail_norm(build(GridSpec(128)), N=6, t_max=25, family="p2_anti")
        assert rep.tail_norm <= 1e-4

    @pytest.mark.parametrize("M", [64, 128, pytest.param(256, marks=pytest.mark.slow)])
    def test_terms_grow_to_the_cap_at_unit_coefficients(self, M):
        # at c1 = c2 = 1 the sum to t_max is a truncation: each parity's nonzero
        # terms grow strictly up to t = 40, and its last term is most of the sum
        qho = build(GridSpec(M))
        for family in TAIL_FAMILIES:
            rep = commutator_tail_norm(qho, 1, 40, family)
            t0 = 2 if family == "p2_anti" else 3
            for parity in (0, 1):
                norms = [rep.term_norms[t] for t in range(t0, 41) if t % 2 == parity]
                assert not any(norms) or all(a < b for a, b in zip(norms, norms[1:])), (family, parity)
            assert any(rep.term_norms.values())
            assert max(rep.term_norms[40], rep.term_norms[39]) >= 0.9 * rep.tail_norm, family

    def test_per_term_norms_reported(self):
        rep = commutator_tail_norm(build(GridSpec(64)), N=2, t_max=10)
        assert set(rep.term_norms) == set(range(3, 11))
        assert all(v >= 0 for v in rep.term_norms.values())


class TestInputValidation:
    # each call is refused before any mpmath input is built; most once computed a
    # meaningless report or failed inside mpmath
    @pytest.mark.parametrize("kwargs, message", [
        ({"N": 0}, "N must be an integer in \\[1, M=16\\], got 0"),
        ({"N": -1}, "N must be an integer in \\[1, M=16\\], got -1"),
        ({"N": 17}, "N must be an integer in \\[1, M=16\\], got 17"),
        ({"N": 20}, "N must be an integer in \\[1, M=16\\], got 20"),
        ({"N": 2.0}, "N must be an integer in \\[1, M=16\\], got 2.0"),
        ({"t_max": 6.0}, "t_max must be an integer, got 6.0"),
        ({"dps": 0}, "dps must be None or an integer >= 1, got 0"),
        ({"dps": -3}, "dps must be None or an integer >= 1, got -3"),
        ({"dps": 40.0}, "dps must be None or an integer >= 1, got 40.0"),
        ({"family": "bogus"}, "unknown family 'bogus'"),
        ({"t_max": 80}, "tail budget exceeded: t_max=80"),
        ({"N": True}, "N must be an integer in \\[1, M=16\\], got True"),
        ({"t_max": True}, "t_max must be an integer, got True"),
        ({"dps": True}, "dps must be None or an integer >= 1, got True"),
    ])
    def test_rejected_before_mpmath(self, monkeypatch, kwargs, message):
        def no_inputs(*args):
            raise AssertionError("mpmath inputs built for a rejected call")

        for name in INPUT_BUILDERS + ("_tail_columns", "_tail_symbol", "_integer_tail_sums"):
            monkeypatch.setattr(discrete_qho, name, no_inputs)
        args = {"N": 2, "t_max": 6, **kwargs}
        with pytest.raises(ValueError, match=message):
            commutator_tail_norm(build(GridSpec(16)), args.pop("N"), args.pop("t_max"), **args)

    def test_edges_accepted(self):
        qho = build(GridSpec(16))
        full = commutator_tail_norm(qho, 16, 4, "p2_anti", dps=1)
        assert full.N == 16 and full.dps == 1 and np.isfinite(full.tail_norm)
        ref = commutator_tail_norm(qho, 2, 6, dps=60)
        same = commutator_tail_norm(qho, np.int64(2), np.int32(6), dps=np.int64(60))
        assert same.tail_norm == ref.tail_norm and same.error_bar == ref.error_bar


def _hex(rep) -> tuple:
    """A report's numbers as float hex, for bit-for-bit comparison."""
    return (rep.tail_norm.hex(), rep.error_bar.hex(), rep.dps,
            {t: v.hex() for t, v in rep.term_norms.items()})


def _held_arrays(value) -> list:
    """Every array in a grid's held lab inputs (nested tuples and dicts)."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, tuple):
        return [a for v in value for a in _held_arrays(v)]
    return []


class TestHeldInputs:
    """A grid holds the lab's inputs: later calls on it reuse them and report the same bits."""

    def test_held_report_equals_fresh_grid(self):
        # one grid holds the inputs of every (N, precision, family) before any
        # comparison, so a key that lost N, the precision or the family shows
        cases = [(N, dps, family) for N in (1, 2, 6) for dps in (None, 60) for family in TAIL_FAMILIES]
        held = build(GridSpec(32))
        for N, dps, family in cases:
            commutator_tail_norm(held, N, 12, family, dps)
        for N, dps, family in cases:
            fresh = commutator_tail_norm(build(GridSpec(32)), N, 12, family, dps)
            assert _hex(commutator_tail_norm(held, N, 12, family, dps)) == _hex(fresh), (N, dps, family)

    def test_second_call_builds_no_mpmath_input(self, monkeypatch):
        qho = build(GridSpec(32))
        first = {family: _hex(commutator_tail_norm(qho, 2, 12, family)) for family in TAIL_FAMILIES}

        def no_inputs(*args):
            raise AssertionError("mpmath input built on a repeat call")

        for name in INPUT_BUILDERS:
            monkeypatch.setattr(discrete_qho, name, no_inputs)
        for family in TAIL_FAMILIES:
            assert _hex(commutator_tail_norm(qho, 2, 12, family)) == first[family]
        with pytest.raises(AssertionError, match="repeat call"):   # another N is not held
            commutator_tail_norm(qho, 3, 12)

    def test_recurrence_and_roots_run_once_per_grid(self, monkeypatch):
        # the three families at one (N, precision) run the mp Hermite recurrence once and
        # evaluate each root exp(2 pi i d / M), d <= M/2, once: the DFT and h pbar's symbol
        # share the table.  Another N runs the recurrence again and no root
        calls = {"recurrence": 0, "roots": 0}
        recurrence, expjpi = discrete_qho._mp_hermite_columns, mp.expjpi

        def counting_recurrence(*args):
            calls["recurrence"] += 1
            return recurrence(*args)

        def counting_roots(*args):
            calls["roots"] += 1
            return expjpi(*args)

        monkeypatch.setattr(discrete_qho, "_mp_hermite_columns", counting_recurrence)
        monkeypatch.setattr(mp, "expjpi", counting_roots)
        qho = build(GridSpec(32))
        for family in TAIL_FAMILIES:
            commutator_tail_norm(qho, 2, 12, family)
        assert calls == {"recurrence": 1, "roots": 17}
        for family in TAIL_FAMILIES:
            commutator_tail_norm(qho, 3, 12, family)
        assert calls == {"recurrence": 2, "roots": 17}

    def test_held_arrays_refuse_writes(self):
        qho = build(GridSpec(16))
        for family in TAIL_FAMILIES:
            commutator_tail_norm(qho, 2, 6, family)
        arrays = _held_arrays(qho._lab)
        assert len(arrays) > 20
        terms = [v for k, v in qho._lab.items() if k[0] == "terms"]
        assert len(terms) == 3   # each family's exact pass: S_t for t = 3..6 (2..6 for p2_anti)
        held_terms = _held_arrays(tuple(S_t for S, _, _ in terms for _, S_t in S))
        assert len(held_terms) == 2 * (4 + 4 + 5)
        assert {id(a) for a in held_terms} <= {id(a) for a in arrays}
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1

    def test_equality_repr_and_replace_ignore_held_inputs(self):
        qho = build(GridSpec(16))
        text = repr(qho)
        commutator_tail_norm(qho, 2, 6)
        assert qho._lab and repr(qho) == text and qho == qho
        lab = {f.name: f for f in fields(DiscreteQHO)}["_lab"]
        assert not (lab.init or lab.repr or lab.compare)
        copy = replace(qho)
        assert copy._lab == {} and copy.spec == qho.spec and copy.x is qho.x
        with pytest.raises(ValueError, match="init=False"):
            replace(qho, _lab={})


class TestHeldTerms:
    """A grid holds each exact pass's output by family, N, precision and t_max."""

    def test_repeat_call_runs_no_exact_pass(self, monkeypatch):
        qho = build(GridSpec(32))
        for family in TAIL_FAMILIES:
            commutator_tail_norm(qho, 2, 12, family)
        fresh = {family: commutator_tail_norm(build(GridSpec(32)), 2, 12, family)
                 for family in TAIL_FAMILIES}

        def no_pass(*args):
            raise AssertionError("exact pass run on a repeat call")

        for name in ("_integer_tail_sums", "_power_sums", "_rounding_bound"):
            monkeypatch.setattr(discrete_qho, name, no_pass)
        for family in TAIL_FAMILIES:
            again = commutator_tail_norm(qho, 2, 12, family)
            assert _hex(again) == _hex(fresh[family]), family
            assert again.products == fresh[family].products > 0   # the count of the pass that made them
        with pytest.raises(AssertionError, match="repeat call"):   # another t_max is not held
            commutator_tail_norm(qho, 2, 13)

    def test_each_key_runs_one_pass(self, monkeypatch):
        # each call differs from the first in one part of the key; a key that lost it
        # would hand back the first call's terms, count and bound
        runs = {name: [] for name in ("_integer_tail_sums", "_rounding_bound")}
        for name, calls in runs.items():
            def counting(*args, _run=getattr(discrete_qho, name), _calls=calls):
                _calls.append(args)
                return _run(*args)

            monkeypatch.setattr(discrete_qho, name, counting)
        cases = [(2, 12, "x2_p2", None), (2, 12, "p2_x2", None), (2, 12, "p2_anti", None),
                 (3, 12, "x2_p2", None), (2, 12, "x2_p2", 60), (2, 13, "x2_p2", None)]
        qho = build(GridSpec(32))
        for N, t_max, family, dps in cases:
            first = commutator_tail_norm(qho, N, t_max, family, dps)
            again = commutator_tail_norm(qho, N, t_max, family, dps)
            fresh = commutator_tail_norm(build(GridSpec(32)), N, t_max, family, dps)
            assert _hex(first) == _hex(again) == _hex(fresh), (N, t_max, family, dps)
            assert first.products == again.products == fresh.products
        # one pass per case on the held grid and one on each fresh grid
        assert [len(calls) for calls in runs.values()] == [2 * len(cases)] * 2
        assert sum(key[0] == "terms" for key in qho._lab) == len(cases)


class TestParityFold:
    """The folded lab equals the brute-force one bit for bit, because its inputs are parity-definite."""

    @pytest.mark.parametrize("M", [16, 64, 128])
    def test_inputs_parity_definite_and_equal_to_brute_force(self, M):
        N, bits = 3, _bits(M, 10)
        with mp.workprec(bits + discrete_qho._TAIL_GUARD_BITS):
            cols = full_hermite_columns(M, N)
            position = [discrete_qho._fixed(c, bits) for c in cols]
            dft = full_dft_columns(cols, M, bits)
            rr, ri = full_roots(M, bits)
            p2 = discrete_qho._mp_p2_symbol(M)
            h = mp.sqrt(2 * mp.pi / M)
            p1 = [h * s for s in discrete_qho._mp_p1_symbol(M, discrete_qho._mp_roots(M))]
            folded = {fam: _tail_inputs(M, N, fam, bits) for fam in TAIL_FAMILIES}
        d = np.arange(1, M)
        for n in range(N):
            assert has_parity(position[n], (-1) ** n)
            assert has_parity(dft[n][0], 1) and has_parity(dft[n][1], -1)
            assert any(dft[n][n % 2])
            for fam, want in zip(TAIL_FAMILIES, ((position[n], 0 * position[n]), dft[n], dft[n])):
                got = [unfold(part, sign) for part, sign in folded[fam][0][n]]
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # the root table and both symbols are conjugate-symmetric, part by part
        assert np.array_equal(rr[M - d], rr[d]) and np.array_equal(ri[M - d], -ri[d])
        assert ri[0] == ri[M // 2] == 0
        for fam, symbol in (("x2_p2", p2), ("p2_anti", p1)):
            gr = discrete_qho._fixed([v.real for v in symbol], bits)
            gi = discrete_qho._fixed([v.imag for v in symbol], bits)
            assert np.array_equal(gr[M - d], gr[d]) and np.array_equal(gi[M - d], -gi[d])
            assert gi[0] == gi[M // 2] == 0
            assert all(np.array_equal(a, b) for a, b in zip(folded[fam][1], (gr, gi)))
        assert not any(folded["x2_p2"][1][1]) and any(folded["p2_anti"][1][1])   # pbar^2 is real

    @pytest.mark.parametrize("M, N, t_max", [
        pytest.param(M, N, t_max, id=f"{M}-{N}" if t_max == 12 else f"{M}-{N}-{t_max}")
        for M, N, t_max in [(16, 3, 12), (64, 2, 12), (128, 1, 12), (32, 4, 30)]])
    @pytest.mark.parametrize("family", TAIL_FAMILIES)
    def test_sums_equal_unfolded_oracle(self, M, N, t_max, family):
        t0, bits = (2 if family == "p2_anti" else 3), _bits(M, t_max)
        with mp.workprec(bits + discrete_qho._TAIL_GUARD_BITS):
            u, g = _tail_inputs(M, N, family, bits)
        folded, _ = discrete_qho._integer_tail_sums(u, g, family == "p2_anti", t0, t_max, {},
                                                    discrete_qho._weight_groups(M // 2 + 1))
        full = [tuple(unfold(x, s) for x, s in col) for col in u]
        brute = unfolded_tail_sums(full, g, family == "p2_anti", t0, t_max)
        assert folded.keys() == brute.keys()
        for t in brute:
            assert all(np.array_equal(f, b) for f, b in zip(folded[t], brute[t])), t
        assert any(np.any(part != 0) for t in brute for part in brute[t])


class TestProductCount:
    """`TailReport.products` counts the wide-integer products of the exact pass, power sums included."""

    @staticmethod
    def sizes(M: int) -> tuple:
        """The pairs n < m of the folded index 0..M/2 and their weights: (P, G)."""
        return (M // 2 + 1) * (M // 2) // 2, len(discrete_qho._weight_groups(M // 2 + 1)[3])

    @pytest.mark.parametrize("family, pair_parts, parities", [
        ("x2_p2", 1, ((14,), ())),      # real data: one kernel part, even t only
        ("p2_x2", 1, ((14,), ())),
        ("p2_anti", 2, ((15,), (14,))),   # t from 2: the real part even t, the imaginary part odd t
    ])
    def test_one_column_closed_form(self, family, pair_parts, parities):
        # N = 1: one self pair of parts, two orders for the outer products and two
        # products per nonzero kernel part, as every pair takes
        P, G = self.sizes(64)
        rep = commutator_tail_norm(build(GridSpec(64)), 1, 30, family)
        assert rep.products == 2 * P * (1 + pair_parts) + sum(power_sum_products(G, *k)
                                                               for k in parities if k)

    def test_three_real_columns_closed_form(self):
        # x2_p2 at (M, N) = (16, 3): real columns and a real kernel.  N self pairs and
        # N(N-1)/2 cross pairs, each of 4P products (two orders, one kernel part);
        # a self pair's H is symmetric (even t only), a cross pair's has both parities
        P, G = self.sizes(16)
        N, even, odd = 3, 5, 5   # t = 3..12
        rep = commutator_tail_norm(build(GridSpec(16)), N, 12, "x2_p2")
        cross = N * (N - 1) // 2
        assert rep.products == (N * (4 * P + power_sum_products(G, even))
                                + cross * (4 * P + power_sum_products(G, even, odd))) == 2724

    def test_count_is_deterministic_and_not_compared(self):
        qho = build(GridSpec(32))
        first = commutator_tail_norm(qho, 2, 12, "p2_anti")
        again = commutator_tail_norm(qho, 2, 12, "p2_anti")
        assert first.products == again.products > 0
        assert replace(first, products=0) == first
        assert commutator_tail_norm(qho, 1, 2).products == 0   # an empty sum takes none


class TestEpilogue:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_stacked_norms_equal_one_svd_per_term(self, N):
        qho = build(GridSpec(32))
        rep = commutator_tail_norm(qho, N, 16, "p2_anti")
        t0, bits = 2, _bits(32, 16)
        with mp.workprec(bits + discrete_qho._TAIL_GUARD_BITS):
            u = qho._lab["columns", False, N, bits]
            g = qho._lab["symbol", True, bits]
            S, _ = discrete_qho._integer_tail_sums(u, g, True, t0, 16, {},
                                                   discrete_qho._weight_groups(17))
            scales = qho._lab["scales", bits]
            rows = [discrete_qho._scaled_rows(S[t], mp.ldexp(scales[t], -3 * bits)) for t in S]
        one_by_one = [float(np.linalg.svd(np.array(r, dtype=complex), compute_uv=False)[0])
                      for r in rows]
        stacked = discrete_qho._spectral_norms(rows)
        assert [v.hex() for v in stacked] == [v.hex() for v in one_by_one]
        assert [rep.term_norms[t].hex() for t in S] == [v.hex() for v in one_by_one]

    @pytest.mark.parametrize("prec", [53, 300])
    def test_rows_round_as_mpc_times_scale(self, prec):
        wide = (1 << (prec + 37)) + 12345   # wider than the precision: rounded on entry
        values = [0, 1, -1, 3, -7, wide, -wide, wide + 1, -(wide << 5) - 3]
        re = np.array([values], dtype=object)
        im = np.array([values[::-1]], dtype=object)
        with mp.workprec(prec):
            for scale in (mp.mpf(1) / 3, -mp.pi, mp.ldexp(mp.mpf(5), -900)):
                got = discrete_qho._scaled_rows((re, im), scale)[0]
                want = [mp.mpc(int(r), int(i)) * scale for r, i in zip(re[0], im[0])]
                assert [z._mpc_ for z in got] == [z._mpc_ for z in want]
        with mp.workprec(prec):   # and the context's rounding, which mpmath keeps privately
            third = mp.mpf(1) / 3
            mp.mp._prec_rounding[1] = "f"
            try:
                got = discrete_qho._scaled_rows((re, im), third)[0]
                want = [mp.mpc(int(r), int(i)) * third for r, i in zip(re[0], im[0])]
            finally:
                mp.mp._prec_rounding[1] = "n"
            nearest = discrete_qho._scaled_rows((re, im), third)[0]
        assert [z._mpc_ for z in got] == [z._mpc_ for z in want] != [z._mpc_ for z in nearest]

    def test_repeat_call_builds_no_kernel_and_no_scale(self, monkeypatch):
        qho = build(GridSpec(32))
        first = {family: _hex(commutator_tail_norm(qho, 2, 12, family)) for family in TAIL_FAMILIES}

        def no_build(*args):
            raise AssertionError("kernel or scale built on a repeat call")

        monkeypatch.setattr(discrete_qho, "_folded_symbol", no_build)
        monkeypatch.setattr(mp, "factorial", no_build)
        for family in TAIL_FAMILIES:
            assert _hex(commutator_tail_norm(qho, 2, 12, family)) == first[family]
        commutator_tail_norm(qho, 2, 20, "x2_p2")   # a longer tail reads the same held scales
        with pytest.raises(AssertionError, match="repeat call"):   # another precision is not held
            commutator_tail_norm(qho, 2, 12, dps=70)

    def test_kernels_held_on_the_pairs(self):
        qho = build(GridSpec(64))
        for family in TAIL_FAMILIES:
            commutator_tail_norm(qho, 1, 30, family)
        kernels = [v for k, v in qho._lab.items() if k[0] == "kernels"]
        assert len(kernels) == 2   # two symbols, one pass
        for held in kernels:
            for parts in held.values():
                for part in parts:
                    if part is not None:
                        fwd, bwd = part
                        assert fwd.shape == bwd.shape == (33 * 32 // 2,)
                        # a symmetric part holds one array
                        assert (bwd is fwd) == np.array_equal(bwd, fwd)

    # tracemalloc bytes of `_lab` after the three families at N = 1, as held with a second,
    # coarser pass's kernel set: 357204 at M = 64, 7225044 at M = 256 (BENCH_45.json), for
    # t_max = 3 and 30 alike (what is held depends on t_max only through the precision, fixed
    # up to 30).  The one pass holds about 0.6 and 0.55 of that; 3/4 leaves room
    HELD_BEFORE = {64: 357204, 256: 7225044}

    @pytest.mark.parametrize("M", [64, 256])
    def test_what_the_grid_holds_is_no_larger(self, M):
        tracemalloc.start()
        try:
            qho = build(GridSpec(M))
            for family in TAIL_FAMILIES:
                commutator_tail_norm(qho, 1, 3, family)
            gc.collect()
            full = tracemalloc.get_traced_memory()[0]
            qho._lab.clear()
            gc.collect()
            held = full - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < held <= 0.75 * self.HELD_BEFORE[M]

    # at t_max = 30 the grid also holds each family's 28 or 29 integer terms (13-20 KB a
    # family at M = 64 and 256), the mp Hermite columns and the root table the families
    # share: 285 624 bytes at M = 64 and 4 146 316 at M = 256 where it held 215 308 and
    # 3 972 548 without them.  5% above the measured bytes leaves room for the allocator
    HELD_AT_30 = {64: 285_624, 256: 4_146_316}

    @pytest.mark.parametrize("M", [64, 256])
    def test_what_the_grid_holds_with_its_terms(self, M):
        tracemalloc.start()
        try:
            qho = build(GridSpec(M))
            for family in TAIL_FAMILIES:
                commutator_tail_norm(qho, 1, 30, family)
            gc.collect()
            full = tracemalloc.get_traced_memory()[0]
            qho._lab.clear()
            gc.collect()
            held = full - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < held <= 1.05 * self.HELD_AT_30[M]
