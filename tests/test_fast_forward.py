import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import apply_factored, centered_dft_matrix

from qhermite import fast_forward
from qhermite.discrete_qho import (
    DiscreteQHO,
    EigenDecomposition,
    _rayleigh_terms,
    apply_hamiltonian,
    build,
    dense_diagonalize,
)
from qhermite.fast_forward import (
    FactoredEvolution,
    _frame_steps,
    _half_phases,
    _ritz_at,
    _ritz_block,
    _RitzBlock,
    apply_tables,
    decompose,
    evolution_tables,
    low_energy_error,
)
from qhermite.spectral_core import _PI_LD, GridSpec


# ---------------------------------------------------------------------------
# Exact-evolution references: the full eigenbasis and an eigenpair-free
# Chebyshev propagator (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984)
# ---------------------------------------------------------------------------


def exact_evolution(eig: EigenDecomposition, t: float, state: np.ndarray) -> np.ndarray:
    """Ground truth U(t) = sum_n exp(-i*E_n*t) |e_n><e_n| applied to state."""
    coeffs = eig.vectors.conj().T @ np.asarray(state, dtype=complex)
    return eig.vectors @ (np.exp(-1j * eig.energies * t) * coeffs)


def _ritz_evolution(qho: DiscreteQHO, low: np.ndarray, t: float) -> np.ndarray:
    """<W| U(t) |W> for the columns W of `low`: the meter's Rayleigh-Ritz block, built afresh."""
    return _ritz_at(_ritz_block(qho, low), t)


_TAIL_SHARE = 1e-16          # dropped coefficients sum to at most this share of all
_CHEBYSHEV_Z_CAP = 2**20     # largest |z| = pi*M*|t|/4, about one recurrence step each
_BESSEL_RESCALE = np.longdouble(2) ** 4000   # keeps the backward recurrence finite


def _bessel_coefficients(z) -> tuple:
    """Chebyshev coefficients of exp(-i*z*x) on [-1, 1], truncated; (Re c_k, Im c_k).

    Jacobi-Anger: c_0 = J_0(z) and c_k = 2(-i)^k J_k(z), so even k carry only
    a real part and odd k only an imaginary one; J_k(-z) = (-1)^k J_k(z)
    makes the coefficients at -|z| the conjugates of those at |z|.  J_k(|z|)
    comes from Miller's backward recurrence J_{k-1} = (2k/|z|) J_k - J_{k+1}
    in longdouble, started well past the last coefficient kept (where J_k is
    below 1e-50 of its peak), rescaled when it grows past 2^4000 and
    normalized by J_0 + 2 sum_k J_2k = 1.  The series stops at the first K
    whose remaining coefficients sum to 1e-16 of the total; both arrays have
    length K >= 1.
    """
    x = abs(np.longdouble(z))
    top = int(x + 25.0 * float(x) ** (1 / 3) + 64)
    two_over_x = 2 / x
    prev, cur = np.longdouble(0), np.longdouble(1)
    j = np.zeros(top + 1, dtype=np.longdouble)
    j[top] = cur
    for k in range(top, 0, -1):
        prev, cur = cur, k * two_over_x * cur - prev
        if abs(cur) > _BESSEL_RESCALE:
            j[k:] /= _BESSEL_RESCALE
            prev, cur = prev / _BESSEL_RESCALE, cur / _BESSEL_RESCALE
        j[k - 1] = cur
    j /= j[0] + 2 * j[2::2].sum()
    c = 2 * j
    c[0] = j[0]
    tail = np.cumsum(np.abs(c[::-1]))[::-1]
    K = max(int(np.searchsorted(-tail, -_TAIL_SHARE * tail[0])), 1)
    quarter = np.arange(K) % 4      # (-i)^k = 1, -i, -1, i
    re = c[:K] * np.array([1, 0, -1, 0])[quarter]
    im = c[:K] * np.array([0, -1, 0, 1])[quarter]
    return re, (im if z > 0 else -im)


def chebyshev_evolution(qho: DiscreteQHO, t: float, state: np.ndarray) -> np.ndarray:
    """U(t) = exp(-i*Hbar*t) along the last axis by a Chebyshev expansion.

    An eigenpair-free oracle for the exact evolution of any state on the
    grid (Tal-Ezer and Kosloff's propagator).  No meter runs it: these tests
    hold `low_energy_error`'s Rayleigh-Ritz block against it.  The spectrum of Hbar lies in
    [0, rho] with rho = pi*M/2, so exp(-i*H*t) = exp(-i*z) * exp(-i*z*Htilde)
    for Htilde = (2/rho)H - 1 and z = rho*t/2, and
    exp(-i*z*x) = sum_k c_k T_k(x) with the closed-form coefficients of
    `_bessel_coefficients`.  With x_j^2 = 2*pi*j^2/M, pi
    cancels from Htilde: its diagonal is 4j^2/M^2 - 1 and its momentum symbol
    4j^2/M^2, each rounded once, so the recurrence applies the grid
    Hamiltonian to within an ulp per entry; z is formed and reduced mod 2*pi
    in longdouble, as the phase tables' arguments are.  The expansion keeps
    about |z| + 10|z|^(1/3) terms (241, 775 and 1584 at |z| = 181, 684, 1468).

    Htilde is real symmetric, so the three-term recurrence
    T_k = 2*Htilde*T_{k-1} - T_{k-2} runs on real rows; a complex state is
    stacked as its real rows over its imaginary rows.  It runs in the alt
    frame y = alt*v, where pbar^2 y is irfft(x^2[:M/2+1] * rfft(y)), so a
    step is one rfft/irfft pair and six in-place ufuncs on preallocated
    buffers, with the factor 2/rho folded into the diagonal and the symbol
    once.  The real coefficients (even k) and the imaginary ones (odd k)
    accumulate into two real arrays.  What remains is the recurrence's
    float64 rounding: against the same recurrence in longdouble it reads
    2e-15 on the lowest 8 states at M = 64-128 and 5e-15 at M = 512 (t = 3).
    Each row of a stack is evolved on its own, and real rows give bitwise the
    values of the same rows with a zero imaginary part.
    """
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    v = np.asarray(state)
    M = qho.M
    if v.shape[-1] != M:
        raise ValueError(f"dimension mismatch: {v.shape[-1]} vs M={M}")
    z = _PI_LD * M * np.longdouble(t) / 4
    if abs(z) > _CHEBYSHEV_Z_CAP:
        raise ValueError(f"Chebyshev budget is pi*M*|t|/4 <= {_CHEBYSHEV_Z_CAP}, "
                         f"got {float(abs(z)):.4g}")
    if z == 0:
        return v.astype(complex)
    re, im = (c.astype(np.float64) for c in _bessel_coefficients(z))
    rows = v.reshape(-1, M)
    n = len(rows)
    alt = (-1.0) ** np.arange(M)
    stacked = np.iscomplexobj(rows)
    y = np.empty((2 * n if stacked else n, M))
    np.multiply(rows.real, alt, out=y[:n])
    if stacked:
        np.multiply(rows.imag, alt, out=y[n:])
    j2 = (np.arange(M) - M // 2) ** 2
    diag2 = (8 * j2 - 2 * M * M) / (M * M)      # 2*Htilde's diagonal, 8j^2/M^2 - 2
    symbol2 = 8 * j2[:M // 2 + 1] / (M * M)     # 2*pbar^2/rho on frequencies 0..M/2
    spec = np.empty((len(y), M // 2 + 1), dtype=complex)
    scratch = np.empty_like(y)

    def doubled_momentum(src):
        np.fft.rfft(src, out=spec)
        np.multiply(spec, symbol2, out=spec)
        return np.fft.irfft(spec, n=M, out=scratch)

    even = re[0] * y                # sum over even k of Re(c_k) T_k
    odd = np.zeros_like(y)          # sum over odd k of Im(c_k) T_k

    def gather(k, T):
        acc, c = (odd, im[k]) if k % 2 else (even, re[k])
        np.multiply(T, c, out=scratch)
        acc += scratch

    prev, cur = y, np.empty_like(y)
    if len(re) > 1:                 # T_1 = Htilde*T_0, half the doubled operator exactly
        np.multiply(y, diag2, out=cur)
        cur += doubled_momentum(y)
        cur *= 0.5
        gather(1, cur)
    for k in range(2, len(re)):     # T_k = 2*Htilde*T_{k-1} - T_{k-2}, over T_{k-2}
        np.subtract(doubled_momentum(cur), prev, out=prev)
        np.multiply(cur, diag2, out=scratch)
        prev += scratch
        prev, cur = cur, prev
        gather(k, cur)
    if stacked:
        real = even[:n] - odd[n:]
        imag = odd[:n] + even[n:]
    else:
        real, imag = even, odd
    out = np.empty(rows.shape, dtype=complex)
    out.real, out.imag = real, imag
    out *= np.exp(-1j * float(np.mod(z, 2 * _PI_LD))) * alt
    return out.reshape(v.shape)




class TestDecompose:
    def test_zero_time_identity(self):
        fe = decompose(0.0)
        assert fe.reps == 1
        assert len(fe.half) == 2
        assert all(c == 0.0 for c in fe.half)
        assert fe.global_sign == 1.0

    def test_half_pi_closed_forms(self):
        fe = decompose(np.pi / 2)
        assert fe.reps == 1
        a = np.tan(np.pi / 4) / 2
        b = np.sin(np.pi / 2) / 2
        assert abs(fe.half[0] - a) < 1e-15
        assert abs(fe.half[1] - b) < 1e-15
        assert len(fe.half) == 2   # the third factor is the first, read back
        assert abs(a - 0.5) < 1e-15 and abs(b - 0.5) < 1e-15

    def test_near_pi_five_factors(self):
        t = np.pi - 1e-6
        fe = decompose(t)
        assert fe.reps == 2
        alpha = np.tan(t / 4) / 2
        beta = np.sin(t / 2) / 2
        assert len(fe.half) == 3   # alpha, beta, 2 alpha, then beta, alpha read back
        assert np.allclose(fe.half, [alpha, beta, 2 * alpha], rtol=1e-12)

    def test_boundary_assigned_to_single_rep(self):
        assert decompose(np.pi / 2).reps == 1
        assert decompose(-np.pi / 2).reps == 1
        assert decompose(np.pi / 2 + 1e-9).reps == 2

    def test_coefficients_bounded(self):
        for t in np.linspace(-20, 20, 801):
            fe = decompose(t)
            assert all(abs(c) <= 1.0 + 1e-12 for c in fe.half)
            assert -np.pi <= fe.t_effective < np.pi

    def test_two_pi_reduction_sign(self):
        # float64 2 pi falls short of the period by 2.4e-16, and that much time is left
        fe = decompose(2 * np.pi)
        assert fe.global_sign == -1.0
        t = np.longdouble(2 * np.pi) - 2 * _PI_LD
        assert fe.t_effective == float(t) < 0
        half = float(np.tan(t / 2) / 2)
        assert fe.half == (half, float(np.sin(t) / 2))
        assert all(abs(c) <= 1.3e-16 for c in fe.half)
        assert decompose(4 * np.pi).global_sign == 1.0

    def test_period_subtracted_in_80_bits(self):
        # |t| <= pi keeps t and float64 tan and sin bit for bit; past it, t_eff = t - 2 pi k
        # stays in 80 bits through tan and sin, and each is rounded once
        for t in (0.3, -2.9, np.pi, -np.pi, np.pi / 2):
            fe = decompose(t)
            assert fe.t_effective == t
            half = t / 4 if fe.reps == 2 else t / 2
            assert fe.half[:2] == (math.tan(half) / 2, math.sin(2 * half) / 2)
        for t, k in ((3.65, 1), (-3.65, -1), (2 * np.pi + 0.7, 1), (-4 * np.pi - 2.5, -2)):
            fe = decompose(t)
            t_eff = np.longdouble(t) - 2 * _PI_LD * k
            assert fe.t_effective == float(t_eff)
            half = t_eff / 4 if fe.reps == 2 else t_eff / 2
            assert fe.half[:2] == (float(np.tan(half) / 2), float(np.sin(2 * half) / 2))

    def test_two_pi_shift_keeps_factors_and_flips_sign(self):
        # 3 and 5 factors, both signs of t, both signs of the base sign
        for t in (0.3, -1.2, 2.0, -2.9, 2 * np.pi + 0.7, -2 * np.pi - 2.5):
            fe, shifted = decompose(t), decompose(t + 2 * np.pi)
            assert shifted.global_sign == -fe.global_sign
            assert shifted.reps == fe.reps
            assert len(shifted.half) == len(fe.half)
            np.testing.assert_allclose(shifted.half, fe.half, rtol=1e-12, atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.inf)

    def test_factors_read_the_same_reversed(self):
        # the split is symmetric, so it is held as its first half, (a, b) for a, b, a and
        # (alpha, beta, 2 alpha) for alpha, beta, 2 alpha, beta, alpha: zero, the
        # quarter-period boundary, 3 and 5 factors, and after the sign flip
        times = (0.0, np.pi / 2, -np.pi / 2, 0.4, -1.2, 2.0, -2.9, 2 * np.pi + 0.7,
                 -2 * np.pi - 2.5, 3.65)
        assert {decompose(t).reps for t in times} == {1, 2}
        assert {decompose(t).global_sign for t in times} == {1.0, -1.0}
        for t in times:
            fe = decompose(t)
            t_eff = fe.t_effective
            if fe.reps == 2:
                want = [math.tan(t_eff / 4) / 2, math.sin(t_eff / 2) / 2, math.tan(t_eff / 4)]
                assert fe.half[2] == 2 * fe.half[0]
            else:
                want = [math.tan(t_eff / 2) / 2, math.sin(t_eff) / 2]
            assert len(fe.half) == len(want)
            np.testing.assert_allclose(fe.half, want, rtol=1e-12, atol=1e-16)

    @pytest.mark.parametrize("t", [2.0**52, -2.0**52, 1e20, -1e20, 1e22, 1e300])
    def test_huge_time_refused(self, t):
        # float64 times past 2^52 are 1 or more apart, so t does not fix its phase
        with pytest.raises(ValueError, match=r"\|t\| < 2\^52"):
            decompose(t)

    def test_largest_time_below_the_cap_decomposes(self):
        for t in (np.nextafter(2.0**52, 0), -np.nextafter(2.0**52, 0)):
            fe = decompose(t)
            assert math.isfinite(fe.t_effective) and abs(fe.t_effective) <= 4
            assert all(math.isfinite(c) and abs(c) <= 1.0 for c in fe.half)

    @pytest.mark.parametrize("t", [2818447464634594.0, 2893030547262390.0, 3123091668435073.0,
                                   3466689319193284.0])
    def test_reduction_near_an_odd_multiple_of_pi_stays_in_range(self, t):
        # the 80-bit 2 pi k rounds across the half period at these times, drawn by
        # default_rng(0).uniform(1e14, 2**52): t_eff read -pi - 8.9e-6.  The phase
        # sign * exp(-i t_eff / 2) is exp(-i t / 2) within half the stated reduction error
        import mpmath

        fe = decompose(t)
        assert abs(fe.t_effective) <= np.pi
        with mpmath.workdps(40):
            want = complex(mpmath.expj(-mpmath.mpf(t) / 2))
        assert abs(fe.global_sign * np.exp(-0.5j * fe.t_effective) - want) <= 1.9e-4 / 2


class TestApplyFactored:
    def test_identity_at_zero(self, rng):
        qho = build(GridSpec(64))
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        out = apply_factored(qho, decompose(0.0), v)
        assert np.abs(out - v).max() < 1e-12

    def test_two_pi_is_global_minus_one(self, basis_cache):
        # on low-energy support, evolution by 2*pi is exactly -identity here
        # because the reduced factors vanish and only the tracked sign remains
        qho = build(GridSpec(256))
        basis = basis_cache(256, 8)
        v = basis[:9].sum(axis=0).astype(complex)
        v /= np.linalg.norm(v)
        out = apply_factored(qho, decompose(2 * np.pi), v)
        assert np.linalg.norm(out + v) < 1e-6

    def test_eigenphase_on_hermite_state(self, basis_cache):
        qho = build(GridSpec(512))
        psi3 = basis_cache(512, 3)[3].astype(complex)
        out = apply_factored(qho, decompose(1.0), psi3)
        assert np.linalg.norm(out - np.exp(-1j * 3.5) * psi3) < 1e-7

    def test_unitarity(self, rng):
        qho = build(GridSpec(128))
        for t in (0.3, 1.5, 3.0):
            v = rng.normal(size=128) + 1j * rng.normal(size=128)
            out = apply_factored(qho, decompose(t), v)
            assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)

    def test_eigenphase_fidelity_sweep(self, basis_cache):
        # |<psibar_n|V(t)|psibar_n>| >= 1 - 1e-6 and phase -(n+1/2)t mod 2pi
        M = 512
        qho = build(GridSpec(M))
        basis = basis_cache(M, 8)
        for t in (0.1, 1.0, 3.0):
            fe = decompose(t)
            for n in range(9):
                psi = basis[n].astype(complex)
                psi /= np.linalg.norm(psi)
                amp = np.vdot(psi, apply_factored(qho, fe, psi))
                assert abs(amp) >= 1 - 1e-6
                phase_err = np.angle(amp * np.exp(1j * (n + 0.5) * t))
                assert abs(phase_err) < 1e-5

    def test_dimension_mismatch(self):
        qho = build(GridSpec(64))
        with pytest.raises(ValueError):
            apply_factored(qho, decompose(1.0), np.ones(32))


def _dense_factored(M, fe):
    """Dense product of the palindrome `fe.half` stands for, momentum factors as F^-1 diag(P) F.

    The factors are half, then half read back without its last entry, and
    alternate momentum, position, ..., from a momentum factor.
    """
    x2 = GridSpec(M).points() ** 2
    F = centered_dft_matrix(M)
    V = np.eye(M, dtype=complex)
    for k, c in enumerate(fe.half + fe.half[-2::-1]):
        P = np.diag(np.exp(-1j * c * x2))
        V = (P if k % 2 else F.conj().T @ P @ F) @ V
    return fe.global_sign * V


class TestApplyTables:
    # 3 factors; 5 factors; 3 and 5 factors after the 2*pi sign flip
    TIMES = (0.4, 2.0, 2 * np.pi + 0.7, -2 * np.pi - 2.5)

    @pytest.mark.parametrize("M", [30, 64])
    def test_matches_dense_reference(self, M, rng):
        assert any(decompose(t).global_sign < 0 for t in self.TIMES)
        assert {decompose(t).reps for t in self.TIMES} == {1, 2}
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        for t in self.TIMES:
            fe = decompose(t)
            tables = evolution_tables(M, fe)
            V = _dense_factored(M, fe)
            assert np.abs(apply_tables(tables, v) - V @ v).max() < 1e-12
            assert np.abs(apply_tables(tables, v, adjoint=True) - V.conj().T @ v).max() < 1e-12

    def test_unitary_at_random_times(self):
        M = 64
        times = np.random.default_rng(8).uniform(-3 * np.pi, 3 * np.pi, size=8)
        assert {decompose(t).reps for t in times} == {1, 2}
        eye = np.eye(M, dtype=complex)
        for t in times:
            V = apply_tables(evolution_tables(M, decompose(t)), eye)
            assert np.abs(V.conj().T @ V - eye).max() < 1e-12

    def test_dyadic_adjoint_inverts(self):
        M = 256
        eye = np.eye(M, dtype=complex)
        for j in range(8):
            tables = evolution_tables(M, decompose(2 * np.pi * 2**j / M))
            back = apply_tables(tables, apply_tables(tables, eye), adjoint=True)
            assert np.abs(back - eye).max() < 1e-12

    def test_phase_table_against_mpmath(self):
        # exp(-i c x_j^2) against 2*pi*frac(c j^2 / M) in mpmath, at M = 16384,
        # for the t = 3 momentum coefficient.  A float64 2 pi alone in the final
        # multiply would shift every phase by -2 (pi_64 - pi) frac(c j^2 / M),
        # a mean signed error of about 1.2e-16; with its 2.4e-16 remainder
        # added the mean read -6.7e-19.  Per label the error stays at the float64
        # rounding of the argument: 5.3e-16 at most over the row, 3.5e-17 at
        # label M/2 (1.1e-15 and 1.2e-16 when the 80-bit product was reduced).
        import mpmath as mp

        M, c = 16384, np.tan(3.0 / 4) / 2
        row = _half_phases(M, [c])[0]
        errs = np.empty(M // 2 + 1)
        with mp.workprec(128):
            for j in range(M // 2 + 1):
                q = mp.mpf(c) * j * j / M
                z = complex(row[j])
                errs[j] = float(mp.arg(mp.mpc(z.real, z.imag) * mp.expj(2 * mp.pi * (q - mp.floor(q)))))
        assert abs(errs[M // 2]) <= 4e-16
        assert np.abs(errs).max() <= 2e-15
        assert abs(errs.mean()) <= 2e-17

    @pytest.mark.parametrize("M", [4096, 16384, 1 << 20, 1 << 21])
    def test_phase_tables_reduced_exactly(self, M):
        # c j^2 / M is reduced mod 1 exactly before the 2 pi multiply, so the
        # argument's error does not grow with M: against mpmath the entries read
        # at most 6.4e-16 off for these coefficients at every M here, where
        # reducing the 80-bit product read up to 1.9e-15 at M = 16384 and 9.9e-14
        # at M = 2^20.  A hand-built config may exceed M_CAP = 2^20, so 2^21 is
        # checked too.  Labels: all at M = 4096; above it, a sample and the last 512
        import mpmath as mp

        coeffs = [np.tan(3.0 / 4) / 2, np.tan(np.pi / 4), np.tan(np.pi / M) / 2, 0.5]
        labels = np.arange(M // 2 + 1)
        if M > 4096:
            labels = np.union1d(labels[::M // 2048 - 1], labels[-512:])
        rows = _half_phases(M, coeffs)
        with mp.workprec(128):
            for c, row in zip(coeffs, rows):
                for j in labels.tolist():
                    q = mp.mpf(c) * j * j / M
                    z = complex(row[j])
                    err = mp.arg(mp.mpc(z.real, z.imag) * mp.expj(2 * mp.pi * (q - mp.floor(q))))
                    assert abs(err) <= 8e-16, (c, j)

    @pytest.mark.parametrize("M", [1 << k for k in range(2, 15)])
    def test_top_dyadic_times_in_closed_form(self, M, rng):
        # the factored V(pi) is the reflection -iP and V(pi/2) is e^(-i pi/4) F^-1, adjoints
        # conjugated (F the centered DFT, applied as an FFT between alt relabelings).  The gap
        # is largest at the grid edge, where float64 pi in tan(t/4) shows: on unit vectors
        # it read at most 7.4e-16 sqrt(M), 9.4e-14 at M = 16384
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        v /= np.linalg.norm(v)
        alt, s = (-1.0) ** np.arange(M), (-1.0) ** (M // 2)
        reflected = np.concatenate([v[:1], v[:0:-1]])
        inverse_dft = s / np.sqrt(M) * alt * np.fft.fft(alt * v)
        dft = s * np.sqrt(M) * alt * np.fft.ifft(alt * v)
        for t, ref, ref_adjoint in ((np.pi, -1j * reflected, 1j * reflected),
                                    (np.pi / 2, np.exp(-1j * np.pi / 4) * inverse_dft,
                                     np.exp(1j * np.pi / 4) * dft)):
            tables = evolution_tables(M, decompose(t))
            assert np.abs(apply_tables(tables, v) - ref).max() <= 1.5e-15 * np.sqrt(M)
            assert np.abs(apply_tables(tables, v, adjoint=True) - ref_adjoint).max() \
                <= 1.5e-15 * np.sqrt(M)

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_input_left_unchanged(self, rng, adjoint):
        # the kernel runs its FFTs in place on its own copy
        M = 64
        for t in self.TIMES:
            tables = evolution_tables(M, decompose(t))
            for shape in ((M,), (3, M)):
                v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                before = v.copy()
                out = apply_tables(tables, v, adjoint=adjoint)
                assert np.array_equal(v, before)
                assert not np.shares_memory(out, v)

    @pytest.mark.parametrize("half", [(0.3,), (0.3, -0.7), (0.3, -0.7, 0.45),
                                      (0.3, -0.7, 0.45, 0.2)], ids=["1", "2", "3", "4"])
    def test_any_half_applies_as_its_palindrome(self, half, rng):
        # 1, 3, 5 and 7 factors, none of them from decompose, with either sign
        M = 30
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        for sign in (1.0, -1.0):
            fe = FactoredEvolution(half=half, t_effective=0.0, global_sign=sign)
            tables = evolution_tables(M, fe)
            V = _dense_factored(M, fe)
            assert np.abs(apply_tables(tables, v) - V @ v).max() < 1e-12
            assert np.abs(apply_tables(tables, v, adjoint=True) - V.conj().T @ v).max() < 1e-12

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_steps_into_out_equal_steps_in_place(self, rng, adjoint):
        # whole 3- and 5-factor tables, before and after the sign flip
        M = 64
        for t in self.TIMES:
            tables = evolution_tables(M, decompose(t))
            w = rng.normal(size=(3, M)) + 1j * rng.normal(size=(3, M))
            before = w.copy()
            out = _frame_steps(tables, w, adjoint, out=np.empty_like(w))
            assert np.array_equal(w, before)
            in_place = w.copy()
            assert np.array_equal(out, _frame_steps(tables, in_place, adjoint, out=in_place))


class TestExactEvolution:
    def test_zero_time(self, eig_cache, rng):
        eig = eig_cache(64)
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.abs(exact_evolution(eig, 0.0, v) - v).max() < 1e-12

    def test_single_eigenvector(self, eig_cache):
        eig = eig_cache(64)
        out = exact_evolution(eig, np.pi, eig.vectors[:, 0].astype(complex))
        expected = np.exp(-1j * eig.energies[0] * np.pi) * eig.vectors[:, 0]
        assert np.abs(out - expected).max() < 1e-12

    def test_norm_preserved_on_low_energy_state(self, eig_cache, rng):
        eig = eig_cache(128)
        coeff = rng.normal(size=8) + 1j * rng.normal(size=8)
        v = eig.vectors[:, :8] @ coeff
        out = exact_evolution(eig, 0.7, v)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)


class TestChebyshevOracle:
    def test_matches_eigen_evolution(self, eig_cache, rng):
        M = 128
        qho = build(GridSpec(M))
        eig = eig_cache(M)
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        v /= np.linalg.norm(v)
        for t in (0.0, 0.3, 1.0, 3.0, -2.0):
            u1 = chebyshev_evolution(qho, t, v)
            u2 = exact_evolution(eig, t, v)
            assert np.abs(u1 - u2).max() < 1e-12

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="evolution time must be finite"):
            chebyshev_evolution(build(GridSpec(64)), t, np.ones(64))

    @pytest.mark.parametrize("t", [0.0, 0.3, -2.0])
    def test_rejects_wrong_length_at_every_time(self, t):
        with pytest.raises(ValueError, match="dimension mismatch: 32 vs M=64"):
            chebyshev_evolution(build(GridSpec(64)), t, np.ones((2, 32)))

    def test_rejects_time_beyond_budget(self):
        # |z| = pi*M*|t|/4 steps of the recurrence; refused before any is taken
        with pytest.raises(ValueError, match="Chebyshev budget"):
            chebyshev_evolution(build(GridSpec(64)), 1e6, np.ones(64))

    @pytest.mark.parametrize("t", [1e-300, 5e-324, -1e-12])
    def test_tiny_time(self, rng, t):
        # one or two terms survive the tail rule; the start of the backward
        # recurrence is rescaled instead of overflowing
        qho = build(GridSpec(64))
        v = rng.normal(size=64)
        assert np.abs(chebyshev_evolution(qho, t, v) - v).max() <= 1e-9

    @pytest.mark.parametrize("z", [25.0, 181.0, -684.0, 1468.0])
    def test_coefficients_match_mpmath(self, z):
        # c_0 = J_0(z), c_k = 2(-i)^k J_k(z); about 40 orders spread over the kept range
        import mpmath as mp

        re, im = _bessel_coefficients(np.longdouble(z))
        quarter = ((1, 0), (0, -1), (-1, 0), (0, 1))     # (-i)^k, exactly
        orders = sorted(set(range(0, len(re), max(1, len(re) // 40))) | {len(re) - 1})
        with mp.workdps(30):
            for k in orders:
                scale = (1 if k == 0 else 2) * mp.besselj(k, z)
                want = mp.mpc(quarter[k % 4][0] * scale, quarter[k % 4][1] * scale)
                got = mp.mpc(mp.mpf(str(re[k])), mp.mpf(str(im[k])))
                assert abs(got - want) <= 1e-17, k

    @pytest.mark.parametrize("t,steps", [(0.45, 242), (1.7, 776), (3.65, 1585)])
    def test_truncation_matches_exact_tail(self, t, steps):
        # oscillator_lab's three times at M = 512.  The exact length is the
        # first K whose mpmath tail sum_{k >= K} |c_k| is at most 1e-16 of the
        # total; the total is the kept coefficients' own, which the test above
        # checks entry by entry.  Orders past K + 40 add below 1e-22.
        import mpmath as mp

        z = np.pi * 512 * t / 4
        re, im = _bessel_coefficients(np.longdouble(z))
        K = len(re)
        total = float(np.abs(re).sum() + np.abs(im).sum())
        with mp.workdps(30):
            mags = [2 * abs(mp.besselj(k, z)) for k in range(K - 10, K + 40)]
        tail = np.cumsum([float(m) for m in mags[::-1]])[::-1]
        exact = K - 10 + int(np.argmax(tail <= 1e-16 * total))
        assert abs(K - exact) <= 2
        assert abs(K - steps) <= 2

    def test_real_rows_equal_zero_imaginary_rows(self, rng):
        M = 128
        qho = build(GridSpec(M))
        rows = rng.normal(size=(4, M))
        for t in (0.45, -1.7, 3.65):
            np.testing.assert_array_equal(chebyshev_evolution(qho, t, rows),
                                          chebyshev_evolution(qho, t, rows + 0j))


class TestStacks:
    # 3 factors, 3 factors at negative time, 5 factors
    TIMES = (0.45, -1.7, 3.65)

    def test_stack_equals_rows(self, rng):
        M, N = 128, 5
        qho = build(GridSpec(M))
        rows = rng.normal(size=(N, M)) + 1j * rng.normal(size=(N, M))
        assert {decompose(t).reps for t in self.TIMES} == {1, 2}
        for t in self.TIMES:
            tables = evolution_tables(M, decompose(t))
            cheb = chebyshev_evolution(qho, t, rows)
            fact = apply_tables(tables, rows)
            for n in range(N):
                np.testing.assert_array_equal(cheb[n], chebyshev_evolution(qho, t, rows[n]))
                np.testing.assert_array_equal(fact[n], apply_tables(tables, rows[n]))


def _mirror(M: int) -> np.ndarray:
    """Index of label -l (mod M) for each index i of label l = i - M/2."""
    return -np.arange(M) % M


class TestReflection:
    # The reflection l -> -l (mod M) maps xbar^2's diagonal, pbar^2's symbol
    # and every half phase table to themselves, so both evolutions commute
    # with it.  On random complex (3, M) rows, max |U(Rv) - R U(v)| over the
    # row's 2-norm read up to 1.4e-15 for the Chebyshev recurrence (M = 512,
    # t = 3.65) and up to 1.9e-16 for the factored evolution, forward and
    # adjoint; the bounds are about twice those readings.
    TIMES = (0.45, -1.7, 3.65)    # 3 factors, 3 factors, 5 factors

    @pytest.mark.parametrize("M", [64, 128, 256, 512])
    def test_chebyshev_commutes_with_reflection(self, rng, M):
        qho, mirror = build(GridSpec(M)), _mirror(M)
        v = rng.normal(size=(3, M)) + 1j * rng.normal(size=(3, M))
        scale = np.linalg.norm(v, axis=1).max()
        for t in self.TIMES:
            gap = chebyshev_evolution(qho, t, v[:, mirror]) - chebyshev_evolution(qho, t, v)[:, mirror]
            assert np.abs(gap).max() <= 3e-15 * scale

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("M", [64, 128, 256, 512])
    def test_factored_commutes_with_reflection(self, rng, M, adjoint):
        mirror = _mirror(M)
        v = rng.normal(size=(3, M)) + 1j * rng.normal(size=(3, M))
        scale = np.linalg.norm(v, axis=1).max()
        assert {decompose(t).reps for t in self.TIMES} == {1, 2}
        for t in self.TIMES:
            tables = evolution_tables(M, decompose(t))
            gap = (apply_tables(tables, v[:, mirror], adjoint)
                   - apply_tables(tables, v, adjoint)[:, mirror])
            assert np.abs(gap).max() <= 4e-16 * scale


def _per_column_error(qho, eig, N, t):
    """Projected error with the factored side applied one eigenvector column at a time.

    The exact block is the meter's own Ritz block (held against the Chebyshev
    oracle in TestRitzBlock); V's columns are applied and projected singly in
    float64, not as one block projected in longdouble.
    """
    tables = evolution_tables(qho.M, decompose(t))
    low = eig.vectors[:, :N]
    factored = np.empty((N, N), dtype=complex)
    for n in range(N):
        factored[:, n] = low.T @ apply_tables(tables, low[:, n].astype(complex))
    block = _ritz_evolution(qho, low, t).astype(complex) - factored
    return np.linalg.svd(block, compute_uv=False)[0]


class TestLowEnergyError:
    @pytest.mark.parametrize("M,N,t", [(128, 8, 0.45), (128, 8, -0.45),
                                       (256, 16, 1.7), (128, 8, 3.65)])
    def test_matches_per_column_reference(self, eig_cache, M, N, t):
        # the two read within 1.2e-16 of each other
        qho, eig = build(GridSpec(M)), eig_cache(M)
        assert abs(low_energy_error(qho, eig, N, t) - _per_column_error(qho, eig, N, t)) <= 1e-15

    # one meter is left; the parameter keeps the cases' names
    @pytest.mark.parametrize("meter", [low_energy_error])
    @pytest.mark.parametrize("N", [0, -1, 65, True, 2.5])
    def test_rejects_rank_outside_grid(self, eig_cache, meter, N):
        with pytest.raises(ValueError, match=f"N={N} .*M=64"):
            meter(build(GridSpec(64)), eig_cache(64), N, 0.3)

    @pytest.mark.parametrize("meter", [low_energy_error])
    def test_rejects_eigenbasis_of_other_grid(self, eig_cache, meter):
        with pytest.raises(ValueError, match="dimension 64.*M=128"):
            meter(build(GridSpec(128)), eig_cache(64), 4, 0.3)

    def test_zero_time_is_zero(self, eig_cache):
        qho = build(GridSpec(128))
        assert low_energy_error(qho, eig_cache(128), 8, 0.0) < 1e-13

    def test_ground_state_error_tiny(self, eig_cache):
        qho = build(GridSpec(256))
        assert low_energy_error(qho, eig_cache(256), 1, 0.7) < 1e-9

    def test_acceptance_point(self, eig_cache):
        qho = build(GridSpec(512))
        assert low_energy_error(qho, eig_cache(512), 16, 1.0) < 1e-6

    # Values read by the earlier oracle (float64 DCT coefficients, complex
    # recurrence) where the signal stands above rounding; its own float64
    # noise was ~4e-14 on the M = 64 grid (it read 3.8e-14 at (64, 8, 3.0)),
    # 1.2e-5 of the smallest value.  The Bessel oracle moves them by at most
    # 4.5e-6 relative, so 1e-5 relative holds the values with 2x margin.
    @pytest.mark.parametrize("M,N,t,value", [(32, 16, 3.0, 6.486949032086163e-03),
                                             (48, 16, 3.0, 1.579948267086134e-05),
                                             (64, 16, 3.0, 3.1030015190530927e-09)])
    def test_pinned_where_signal_exists(self, eig_cache, M, N, t, value):
        err = low_energy_error(build(GridSpec(M)), eig_cache(M), N, t)
        assert abs(err - value) <= 1e-5 * value

    @pytest.mark.parametrize("M", [512, 1024])
    def test_rounding_floor(self, eig_cache, M):
        # no signal is left at N = 8 on these grids (80-bit runs put it below
        # 2e-17 from M = 80 on); the meter reads its float64 floor, 5.2e-15
        # and 7.5e-15, where the DCT-coefficient oracle read 1.1e-13 and 1.9e-13
        assert low_energy_error(build(GridSpec(M)), eig_cache(M), 8, 3.0) < 2e-14

    def test_monotone_improvement_with_floor(self, eig_cache):
        floor = 1e-12
        for t in (0.25, 1.0, 3.0):
            prev = None
            for M in (128, 256, 512, 1024):
                err = low_energy_error(build(GridSpec(M)), eig_cache(M), 8, t)
                if prev is not None:
                    assert err <= max(prev, floor)
                prev = max(err, floor)

    def test_approximate_group_law(self, eig_cache, basis_cache):
        # ||Pi(V(t1)V(t2) - V(t1+t2))Pi|| <= 10 * (sum of individual errors),
        # errors floored by measurement noise
        M, N = 512, 8
        qho = build(GridSpec(M))
        eig = eig_cache(M)
        low = eig.vectors[:, :N]
        for t1, t2 in ((0.3, 0.7), (0.7, 0.3), (0.3, 0.3), (0.7, 0.7)):
            fe1, fe2, fe12 = decompose(t1), decompose(t2), decompose(t1 + t2)
            diff = np.empty((M, N), dtype=complex)
            for n in range(N):
                col = low[:, n].astype(complex)
                two = apply_factored(qho, fe2, apply_factored(qho, fe1, col))
                one = apply_factored(qho, fe12, col)
                diff[:, n] = two - one
            gap = np.linalg.svd(low.conj().T @ diff, compute_uv=False)[0]
            budget = (low_energy_error(qho, eig, N, t1)
                      + low_energy_error(qho, eig, N, t2))
            assert gap <= 10 * max(budget, 1e-13)


class TestRitzBlock:
    """low_energy_error's exact side: a Rayleigh-Ritz block on the span of its columns."""

    TIMES = (0.25, 1.0, 3.0, 0.45, 1.7, -3.65)    # 3 and 5 factors, both signs

    @pytest.mark.parametrize("M", [64, 128, 256, 512, 1024])
    def test_matches_chebyshev_block(self, eig_cache, M):
        # <W|U|W> against the Chebyshev oracle's block over N = 4, 8, 16 and
        # TIMES: the largest gaps read 1.2e-15, 2.4e-15, 2.3e-15, 3.8e-15 and
        # 5.2e-15 at M = 64-1024 (1.2e-14 at M = 2048, left out for its 10 s),
        # the recurrence's own rounding; the bound is about twice the largest
        qho, eig = build(GridSpec(M)), eig_cache(M)
        low = eig.vectors[:, :16]
        for t in self.TIMES:
            cheb = low.T @ chebyshev_evolution(qho, t, low.T).T
            for N in (4, 8, 16):
                ritz = _ritz_evolution(qho, low[:, :N], t).astype(complex)
                assert np.abs(ritz - cheb[:N, :N]).max() <= 1e-14

    @pytest.mark.parametrize("M", [64, 512])
    def test_matches_chebyshev_block_on_high_states(self, eig_cache, M):
        # eigenvectors from the middle and the top of the spectrum carry the
        # highest momenta, which the low ones leave empty; the gaps read up
        # to 1.3e-15 at M = 64 and 1.1e-14 at M = 512, and the bound is
        # about twice the larger
        qho, eig = build(GridSpec(M)), eig_cache(M)
        for cols in (slice(M // 2 - 4, M // 2 + 4), slice(M - 8, M)):
            span = eig.vectors[:, cols]
            for t in (0.25, 1.0):
                cheb = span.T @ chebyshev_evolution(qho, t, span.T).T
                assert np.abs(_ritz_evolution(qho, span, t).astype(complex) - cheb).max() <= 2.5e-14

    def test_group_law_at_long_times(self, eig_cache):
        # U(t1) U(t2) = U(t1 + t2) on the span, with t1 + t2 exact in float64;
        # long times test the 80-bit reduction of the phases (float64 phases
        # D t would be off by up to ~1e-11 at t = 4096).  The gaps read up to
        # 1.2e-15, the size of G - I, and the bound is about four times that
        qho, eig = build(GridSpec(128)), eig_cache(128)
        low = eig.vectors[:, :16]
        for t1 in (1000.0, 4096.0, -2000.0):
            for t2 in (0.25, -1.75):
                ritz = [_ritz_evolution(qho, low, t).astype(complex) for t in (t1, t2, t1 + t2)]
                assert np.abs(ritz[0] @ ritz[1] - ritz[2]).max() <= 5e-15

    @pytest.mark.parametrize("M", [64, 128, 512])
    def test_turned_span_reads_the_eigenbasis_value(self, eig_cache, M):
        # e_0 and e_1 turned to (e_0 +- e_1)/sqrt(2): the span and so the
        # quantity are the same; the two read within 8.2e-17 of each other
        # over M = 64, 128, 512, N = 2-16 and four times, and the bound is
        # about twice that
        qho, eig = build(GridSpec(M)), eig_cache(M)
        vectors = eig.vectors.copy()
        vectors[:, 0] = (eig.vectors[:, 0] + eig.vectors[:, 1]) / np.sqrt(2)
        vectors[:, 1] = (eig.vectors[:, 0] - eig.vectors[:, 1]) / np.sqrt(2)
        turned = EigenDecomposition(energies=eig.energies, vectors=vectors)
        for N in (2, 4, 8, 16):
            for t in (0.45, -1.7, 3.0, 3.65):
                want = low_energy_error(qho, eig, N, t)
                assert abs(low_energy_error(qho, turned, N, t) - want) <= 2e-16

    def test_non_invariant_basis_rejected_before_any_evolution(self, monkeypatch, eig_cache):
        M = 128
        qho, eig = build(GridSpec(M)), eig_cache(M)
        scattered = np.linalg.qr(np.random.default_rng(19).normal(size=(M, M)))[0]
        scattered.setflags(write=False)   # so that the basis holds its block
        basis = EigenDecomposition(energies=eig.energies, vectors=scattered)

        def evolved(*args, **kwargs):
            raise AssertionError("evolved before the invariance check")

        for name in ("apply_tables", "evolution_tables"):
            monkeypatch.setattr(fast_forward, name, evolved)
        for t in (0.0, 0.45, -1.7, 3.65):   # the first call builds the block, the rest hold it
            with pytest.raises(ValueError, match="do not span an invariant subspace"):
                low_energy_error(qho, basis, 4, t)
        assert 4 in basis._ritz_blocks

    def test_guard_weighs_the_residual_by_time(self, eig_cache):
        # ||r|| reads 6.4e-13 at M = 512, N = 16, so |t| up to about 6000
        # keeps t^2 ||r||^2 / 2 below 8e-18; the block that passed at t = 1000
        # is held and still refused at t = 1e5
        qho, eig = build(GridSpec(512)), eig_cache(512)
        assert low_energy_error(qho, eig, 16, 1000.0) < 1e-12
        assert 16 in eig._ritz_blocks
        with pytest.raises(ValueError, match="max\\(1, \\|t\\|\\)"):
            low_energy_error(qho, eig, 16, 1e5)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected_before_the_ritz_block(self, monkeypatch, eig_cache, t):
        # NaN passes the invariance guard (max(1.0, nan) is 1.0) and inf
        # would be misreported as a span that is not invariant
        def ritz(*args, **kwargs):
            raise AssertionError("Ritz block built for a non-finite time")

        for name in ("_ritz_block", "_ritz_at"):
            monkeypatch.setattr(fast_forward, name, ritz)
        with pytest.raises(ValueError, match="evolution time must be finite"):
            low_energy_error(build(GridSpec(64)), eig_cache(64), 4, t)

    def test_sweep_on_one_decomposition_equals_fresh_ones(self):
        # the held blocks give the same bits as blocks built afresh for each call
        M = 128
        qho = build(GridSpec(M))
        held = dense_diagonalize(qho)
        for N in (4, 8):
            for t in (0.25, 0.45, 1.7, -3.65, 3.0, 1000.0):
                fresh = low_energy_error(qho, dense_diagonalize(build(GridSpec(M))), N, t)
                assert low_energy_error(qho, held, N, t).hex() == fresh.hex()
        assert sorted(held._ritz_blocks) == [4, 8]

    def test_writable_vectors_hold_no_block(self, eig_cache):
        # a block held from arrays the caller can still write would outlive a
        # write to them and skip the guard on the new columns
        M = 128
        qho, eig = build(GridSpec(M)), eig_cache(M)
        vectors = eig.vectors.copy()
        own = EigenDecomposition(energies=eig.energies, vectors=vectors)
        assert low_energy_error(qho, own, 4, 0.45) == low_energy_error(qho, eig, 4, 0.45)
        assert own._ritz_blocks == {}
        vectors[:] = np.linalg.qr(np.random.default_rng(1).normal(size=(M, M)))[0]
        with pytest.raises(ValueError, match="do not span an invariant subspace"):
            low_energy_error(qho, own, 4, 0.45)

    def test_held_block_is_read_only_and_ignored_by_equality(self, eig_cache):
        qho, eig = build(GridSpec(64)), eig_cache(64)
        low_energy_error(qho, eig, 4, 0.45)
        block = eig._ritz_blocks[4]
        for a in block[1:]:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1
        assert eig == eig and "_ritz_blocks" not in repr(eig)
        assert replace(eig)._ritz_blocks == {}


def _matmul_block(qho: DiscreteQHO, low: np.ndarray) -> _RitzBlock:
    """`_ritz_block` with its 80-bit products written as `@`: the meter's bits before np.dot."""
    resid = apply_hamiltonian(qho, low.T).real.T
    W = low.astype(np.longdouble)
    terms, weights = _rayleigh_terms(qho, W)
    H = (weights * terms).T @ terms / 2
    resid -= low @ H.astype(np.float64)
    eye = np.eye(low.shape[1], dtype=np.longdouble)
    half_s = (W.T @ W - eye) / 2
    Ho = (eye - half_s) @ H @ (eye - half_s)
    Q = np.linalg.eigh(Ho.astype(np.float64))[1].astype(np.longdouble)
    Q = Q @ (eye - (Q.T @ Q - eye) / 2)
    R = Q.T @ Ho @ Q
    D = np.diagonal(R).copy()
    gap = D[:, None] - D[None, :]
    np.fill_diagonal(gap, 1)
    return _RitzBlock(r=float(np.linalg.norm(resid, 2)), W=W, D=D, coupling=R - np.diag(D),
                      gap=gap, Q=Q, sqrt_g=eye + half_s, sqrt_g_q=(eye + half_s) @ Q)


def _matmul_error(qho: DiscreteQHO, low: np.ndarray, block: _RitzBlock, t: float) -> float:
    """`low_energy_error` on `block` with its 80-bit products written as `@`."""
    N = low.shape[1]
    phase = np.exp(-1j * np.mod(block.D * np.longdouble(t), 2 * _PI_LD))
    B = block.coupling * (phase[:, None] - phase[None, :]) / block.gap
    B[np.diag_indices(N)] = phase
    exact = block.sqrt_g_q @ B @ block.Q.T @ block.sqrt_g
    image = apply_tables(evolution_tables(qho.M, decompose(t)), low.T)
    parts = block.W.T @ np.concatenate([image.real, image.imag]).T
    return float(np.linalg.svd((exact - (parts[:, :N] + 1j * parts[:, N:])).astype(complex),
                               compute_uv=False)[0])


class TestMeterBits:
    """The meter's np.dot products give the bits of the `@` products they replaced."""

    # three and five factors, both signs, and two times reduced by 2 pi (7.0 and -9.5)
    TIMES = (0.45, -1.7, 3.0, 3.65, 7.0, -9.5)

    @pytest.mark.parametrize("M", [64, 512, 1024])
    def test_meter_and_block_equal_the_matmul_reference(self, eig_cache, M):
        # np.array_equal, not tobytes(): a longdouble's storage carries padding bytes
        qho, eig = build(GridSpec(M)), eig_cache(M)
        for N in (1, 8, 16):
            low = eig.vectors[:, :N]
            block, want = _ritz_block(qho, low), _matmul_block(qho, low)
            for name, value in block._asdict().items():
                assert np.array_equal(value, getattr(want, name)), (N, name)
                assert np.asarray(value).dtype == np.asarray(getattr(want, name)).dtype
            for t in self.TIMES:
                value, fresh = _matmul_error(qho, low, want, t), replace(eig)
                assert low_energy_error(qho, fresh, N, t) == value, (N, t, "first")
                assert low_energy_error(qho, fresh, N, t) == value, (N, t, "held")
                assert N in fresh._ritz_blocks


class TestParityPairs:
    """low_energy_error applies V to its N columns as N rows of one block, whatever their parity."""

    @staticmethod
    def _recording(monkeypatch):
        """The shapes of the stacks the meter's factored side receives, as they come."""
        shapes = []

        def recording(tables, state, *args, **kwargs):
            shapes.append(np.shape(state))
            return apply_tables(tables, state, *args, **kwargs)

        monkeypatch.setattr(fast_forward, "apply_tables", recording)
        return shapes

    @pytest.mark.parametrize("t", [0.45, -1.7, 3.65])
    def test_columns_without_parity_run_alone(self, monkeypatch, eig_cache, t):
        # e_0 and e_1 rotated by 45 degrees: alone (N = 2) and beside e_2, e_3
        # (N = 4), each column one row of the single stack; a random
        # orthonormal set of 4 columns spans no invariant subspace and is
        # rejected before V is applied
        M = 128
        qho, eig = build(GridSpec(M)), eig_cache(M)
        turned = eig.vectors.copy()
        turned[:, 0] = (eig.vectors[:, 0] + eig.vectors[:, 1]) / np.sqrt(2)
        turned[:, 1] = (eig.vectors[:, 0] - eig.vectors[:, 1]) / np.sqrt(2)
        shapes = self._recording(monkeypatch)
        basis = EigenDecomposition(energies=eig.energies, vectors=turned)
        for N in (2, 4):
            shapes.clear()
            value = low_energy_error(qho, basis, N, t)
            assert shapes == [(N, M)]
            assert abs(value - _per_column_error(qho, basis, N, t)) <= 1e-15
        scattered = np.linalg.qr(np.random.default_rng(19).normal(size=(M, 4)))[0]
        basis = EigenDecomposition(energies=eig.energies, vectors=scattered)
        shapes.clear()
        with pytest.raises(ValueError, match="do not span an invariant subspace"):
            low_energy_error(qho, basis, 4, t)
        assert shapes == []

    @pytest.mark.parametrize("N,t", [(8, 0.45), (16, 1.7), (8, 3.65)])
    def test_matches_per_column_reference_at_lab_points(self, eig_cache, N, t):
        # oscillator_lab's three centres on its M = 512 grid, where the meter
        # reads its float64 floor (3.2e-16 to 2.2e-15 with one or two BLAS
        # threads); the two differ by up to 1.7e-16
        qho, eig = build(GridSpec(512)), eig_cache(512)
        assert abs(low_energy_error(qho, eig, N, t) - _per_column_error(qho, eig, N, t)) <= 2.5e-15

