import numpy as np
import pytest

from qhermite.spectral_core import (
    GridSpec,
    InvalidSpecError,
    apply_diagonal_phase,
    centered_dft,
    centered_dft_matrix,
    grid_points,
    hermite_table,
    probabilist_rows,
)


class TestGridPoints:
    def test_m4_points(self):
        # x_j = j*sqrt(pi/2) for j in {-2,-1,0,1}
        x = grid_points(GridSpec(4))
        step = np.sqrt(np.pi / 2)
        assert np.allclose(x, np.array([-2, -1, 0, 1]) * step, rtol=0, atol=1e-15)

    def test_zero_at_origin(self):
        assert grid_points(GridSpec(8))[4] == 0.0

    def test_m2048_first_step(self):
        # j=1 entry frozen from extended-precision evaluation of sqrt(2*pi/2048)
        x = grid_points(GridSpec(2048))
        assert abs(x[1025] - 0.05538918284079738) < 1e-16

    def test_spacing_times_m(self):
        for M in (4, 64, 1000):
            spec = GridSpec(M)
            assert abs(spec.h * M - np.sqrt(2 * np.pi * M)) < 1e-9 * np.sqrt(2 * np.pi * M)

    def test_strictly_increasing_and_length(self):
        x = grid_points(GridSpec(64))
        assert len(x) == 64
        assert np.all(np.diff(x) > 0)
        # symmetric up to the missing +M/2 endpoint
        assert np.allclose(x[1:], -x[1:][::-1], atol=1e-15)

    @pytest.mark.parametrize("M", [3, 2, 0, -4, 7])
    def test_invalid_spec(self, M):
        with pytest.raises(InvalidSpecError):
            GridSpec(M)


class TestHermiteTable:
    def test_psi0_at_origin(self):
        # paper quotes psi_0(0) ~ .75
        tab = hermite_table(0, GridSpec(8))
        assert abs(tab.values[0, 4] - np.pi ** -0.25) < 1e-15
        assert abs(tab.values[0, 4] - 0.7511255444649425) < 1e-12

    def test_psi1_odd_at_origin(self):
        tab = hermite_table(1, GridSpec(8))
        assert tab.values[1, 4] == 0.0

    def test_row_normalization_quadrature(self):
        # trapezoid-oracle: h * sum psi_3^2 = 1 (the unpaired endpoint underflows)
        spec = GridSpec(512)
        tab = hermite_table(3, spec)
        assert abs(spec.h * np.sum(tab.values[3] ** 2) - 1.0) < 1e-10

    def test_recurrence_residual(self):
        spec = GridSpec(256)
        tab = hermite_table(40, spec)
        x = spec.points()
        for n in range(1, 40):
            lhs = tab.values[n + 1]
            rhs = np.sqrt(2 / (n + 1)) * x * tab.values[n] - np.sqrt(n / (n + 1)) * tab.values[n - 1]
            mask = np.abs(lhs) > 1e-300
            resid = np.abs(lhs - rhs)[mask] / np.abs(lhs)[mask]
            assert resid.max() < 1e-12

    def test_global_sup_bound(self):
        # |psi_n| <= 1.1 for all n (the true sup is ~1.086, at n=0)
        tab = hermite_table(200, GridSpec(1024))
        assert np.abs(tab.values).max() <= 1.1

    def test_discrete_orthonormality(self):
        spec = GridSpec(256)
        tab = hermite_table(32, spec)
        gram = spec.h * tab.values @ tab.values.T
        assert np.abs(gram - np.eye(33)).max() < 1e-10

    def test_underflow_flushes_to_zero(self):
        tab = hermite_table(2, GridSpec(4096))
        assert tab.values[0, 0] == 0.0  # x ~ -80, exp(-3200) underflows


class TestProbabilistRows:
    def test_orthonormal_under_gaussian(self):
        # quadrature over a wide grid against the standard normal weight
        x = np.linspace(-12, 12, 20001)
        w = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
        rows = probabilist_rows(6, x)
        step = x[1] - x[0]
        gram = step * (rows * w) @ rows.T
        assert np.abs(gram - np.eye(7)).max() < 1e-8

    def test_first_rows(self):
        x = np.array([0.0, 1.0, 2.0])
        rows = probabilist_rows(2, x)
        assert np.allclose(rows[0], 1.0)
        assert np.allclose(rows[1], x)
        assert np.allclose(rows[2], (x * x - 1) / np.sqrt(2))


class TestCenteredDFT:
    def test_delta_at_origin_maps_to_uniform(self):
        M = 16
        v = np.zeros(M, dtype=complex)
        v[M // 2] = 1.0  # label j = 0
        out = centered_dft(v, GridSpec(M))
        assert np.allclose(out, np.full(M, 1 / np.sqrt(M)), atol=1e-14)

    def test_roundtrip_identity(self, rng):
        for M in (6, 8, 10, 30, 64, 256):
            v = rng.normal(size=M) + 1j * rng.normal(size=M)
            w = centered_dft(centered_dft(v), inverse=True)
            assert np.abs(w - v).max() < 1e-12

    def test_m8_delta_at_one(self):
        # dense-matrix oracle: column of F at label k=1
        M = 8
        v = np.zeros(M, dtype=complex)
        v[M // 2 + 1] = 1.0
        out = centered_dft(v)
        j = np.arange(-4, 4)
        expected = np.exp(2j * np.pi * j / M) / np.sqrt(M)
        assert np.abs(out - expected).max() < 1e-14

    @pytest.mark.parametrize("M", [6, 8, 10, 16, 30, 64])
    def test_matches_dense_matrix(self, M, rng):
        F = centered_dft_matrix(M)
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        assert np.abs(F @ v - centered_dft(v)).max() < 1e-12
        assert np.abs(F.conj().T @ v - centered_dft(v, inverse=True)).max() < 1e-12

    @pytest.mark.parametrize("M", [8, 64, 1024])
    def test_unitarity_random_vectors(self, M, rng):
        for _ in range(100):
            v = rng.normal(size=M) + 1j * rng.normal(size=M)
            assert abs(np.linalg.norm(centered_dft(v)) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("M", [8, 16, 64])
    def test_sigma_z_qft_identity(self, M):
        # centered transform = sigma_z^0 . QFT . sigma_z^0 in the shifted labels
        s = np.arange(M)
        qft = np.exp(2j * np.pi * np.outer(s, s) / M) / np.sqrt(M)
        sz = np.diag((-1.0) ** s)
        assert np.abs(sz @ qft @ sz - centered_dft_matrix(M)).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            centered_dft(np.ones(8), GridSpec(16))


class TestDiagonalPhase:
    def test_zero_phase_identity(self, rng):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.array_equal(apply_diagonal_phase(v, np.zeros(16)), v)

    def test_pi_phase_global_sign(self, rng):
        v = rng.normal(size=16) + 0j
        out = apply_diagonal_phase(v, np.full(16, np.pi))
        assert np.abs(out + v).max() < 1e-15

    def test_quadratic_phase_matches_dense(self, rng):
        M = 8
        x = GridSpec(M).points()
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        out = apply_diagonal_phase(v, 0.5 * x * x)
        dense = np.diag(np.exp(-1j * 0.5 * x * x)) @ v
        assert np.abs(out - dense).max() < 1e-14

    def test_norm_preserved_exactly(self, rng):
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        out = apply_diagonal_phase(v, rng.normal(size=32))
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-13

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_diagonal_phase(np.ones(8), np.zeros(9))
