import sys
import threading

import numpy as np
import pytest
from conftest import centered_dft_matrix

from qhermite.spectral_core import (
    GridSpec,
    InvalidSpecError,
    _run_workers,
    hermite_basis,
    hermite_function_rows,
    hermite_functions,
    probabilist_product,
    probabilist_rows,
)

# the centered DFT is checked on every grid-size class: M = 2 (mod 4) flips its FFT sign
DFT_SIZES = (6, 8, 10, 16, 30, 64)


class TestGridPoints:
    def test_m4_points(self):
        # x_j = j*sqrt(pi/2) for j in {-2,-1,0,1}
        x = GridSpec(4).points()
        step = np.sqrt(np.pi / 2)
        assert np.allclose(x, np.array([-2, -1, 0, 1]) * step, rtol=0, atol=1e-15)

    def test_zero_at_origin(self):
        assert GridSpec(8).points()[4] == 0.0

    def test_m2048_first_step(self):
        # j=1 entry frozen from extended-precision evaluation of sqrt(2*pi/2048)
        x = GridSpec(2048).points()
        assert abs(x[1025] - 0.05538918284079738) < 1e-16

    def test_spacing_times_m(self):
        for M in (4, 64, 1000):
            spec = GridSpec(M)
            assert abs(spec.h * M - np.sqrt(2 * np.pi * M)) < 1e-9 * np.sqrt(2 * np.pi * M)

    def test_strictly_increasing_and_length(self):
        x = GridSpec(64).points()
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
        psi = hermite_function_rows(0, GridSpec(8).points())
        assert abs(psi[0, 4] - np.pi ** -0.25) < 1e-15
        assert abs(psi[0, 4] - 0.7511255444649425) < 1e-12

    def test_psi1_odd_at_origin(self):
        psi = hermite_function_rows(1, GridSpec(8).points())
        assert psi[1, 4] == 0.0

    def test_row_normalization_quadrature(self):
        # trapezoid-oracle: h * sum psi_3^2 = 1 (the unpaired endpoint underflows)
        spec = GridSpec(512)
        psi = hermite_function_rows(3, spec.points())
        assert abs(spec.h * np.sum(psi[3] ** 2) - 1.0) < 1e-10

    def test_recurrence_residual(self):
        spec = GridSpec(256)
        x = spec.points()
        psi = hermite_function_rows(40, x)
        for n in range(1, 40):
            lhs = psi[n + 1]
            rhs = np.sqrt(2 / (n + 1)) * x * psi[n] - np.sqrt(n / (n + 1)) * psi[n - 1]
            mask = np.abs(lhs) > 1e-300
            resid = np.abs(lhs - rhs)[mask] / np.abs(lhs)[mask]
            assert resid.max() < 1e-12

    def test_global_sup_bound(self):
        # |psi_n| <= 1.1 for all n (the true sup is ~1.086, at n=0)
        psi = hermite_function_rows(200, GridSpec(1024).points())
        assert np.abs(psi).max() <= 1.1

    def test_discrete_orthonormality(self):
        spec = GridSpec(256)
        psi = hermite_function_rows(32, spec.points())
        gram = spec.h * psi @ psi.T
        assert np.abs(gram - np.eye(33)).max() < 1e-10

    def test_rows_match_array_recurrence_bitwise(self):
        # the streamed rows against the recurrence written over one (n+1, M) array
        x = GridSpec(256).points()
        ref = np.zeros((41, 256))
        ref[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
        ref[1] = np.sqrt(2.0) * x * ref[0]
        for n in range(1, 40):
            ref[n + 1] = np.sqrt(2.0 / (n + 1)) * x * ref[n] - np.sqrt(n / (n + 1.0)) * ref[n - 1]
        assert np.array_equal(hermite_function_rows(40, x), ref)
        assert all(np.array_equal(row, ref[n]) for n, row in enumerate(hermite_functions(40, x)))
        assert np.array_equal(hermite_function_rows(0, x), ref[:1])

    def test_underflow_flushes_to_zero(self):
        psi = hermite_function_rows(2, GridSpec(4096).points())
        assert psi[0, 0] == 0.0  # x ~ -80, exp(-3200) underflows


class TestHermiteBasis:
    @pytest.mark.parametrize("M, n_max", [(4, 0), (16, 15), (256, 32), (4096, 7)])
    def test_rows_are_the_scaled_function_rows_bitwise(self, M, n_max):
        spec = GridSpec(M)
        basis = hermite_basis(spec, n_max)
        assert basis.shape == (n_max + 1, M)
        assert np.array_equal(basis, hermite_function_rows(n_max, spec.points()) * np.sqrt(spec.h))

    @pytest.mark.parametrize("M, n_max", [(4, 4), (16, 16), (16, 40)])
    def test_refuses_n_max_at_or_above_the_dimension(self, M, n_max):
        with pytest.raises(ValueError, match=f"must be < M={M}"):
            hermite_basis(GridSpec(M), n_max)

    def test_discrete_qho_binds_the_same_function(self):
        from qhermite import discrete_qho

        assert discrete_qho.hermite_basis is hermite_basis
        assert "hermite_basis" not in discrete_qho.__all__


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

    def test_rows_and_product_share_the_recurrence_bit_for_bit(self, rng):
        x = 4 * rng.normal(size=50)
        ref = [np.ones_like(x), x]
        for k in range(1, 11):
            ref.append((x * ref[k] - np.sqrt(k) * ref[k - 1]) / np.sqrt(k + 1.0))
        assert np.array_equal(probabilist_rows(11, x), np.array(ref))
        for d in range(12):
            assert np.array_equal(probabilist_product((d,), x[:, None], 1.0), ref[d])


class TestCenteredDFT:
    def test_delta_at_origin_maps_to_uniform(self):
        for M in DFT_SIZES:
            v = np.zeros(M)
            v[M // 2] = 1.0  # label j = 0
            assert np.allclose(centered_dft_matrix(M) @ v, np.full(M, 1 / np.sqrt(M)), atol=1e-14)

    def test_roundtrip_identity(self, rng):
        for M in DFT_SIZES:
            F = centered_dft_matrix(M)
            v = rng.normal(size=M) + 1j * rng.normal(size=M)
            assert np.abs(F.conj().T @ (F @ v) - v).max() < 1e-12

    def test_m8_delta_at_one(self):
        # the column of F at label k=1
        for M in DFT_SIZES:
            j = np.arange(-M // 2, M // 2)
            expected = np.exp(2j * np.pi * j / M) / np.sqrt(M)
            assert np.abs(centered_dft_matrix(M)[:, M // 2 + 1] - expected).max() < 1e-14

    @pytest.mark.parametrize("M", DFT_SIZES)
    def test_matches_dense_matrix(self, M, rng):
        # the FFT relabeling the kernels use: F v = (-1)^(M/2) alt sqrt(M) ifft(alt v)
        F = centered_dft_matrix(M)
        alt = (-1.0) ** np.arange(M)
        sgn = (-1.0) ** (M // 2)
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        assert np.abs(F @ v - sgn * alt * np.sqrt(M) * np.fft.ifft(alt * v)).max() < 1e-12
        assert np.abs(F.conj().T @ v - sgn * alt * np.fft.fft(alt * v) / np.sqrt(M)).max() < 1e-12

    @pytest.mark.parametrize("M", [8, 64, 1024])
    def test_unitarity_random_vectors(self, M, rng):
        F = centered_dft_matrix(M)
        for _ in range(100):
            v = rng.normal(size=M) + 1j * rng.normal(size=M)
            assert abs(np.linalg.norm(F @ v) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("M", [8, 16, 64])
    def test_sigma_z_qft_identity(self, M):
        # centered transform = sigma_z^0 . QFT . sigma_z^0 in the shifted labels
        s = np.arange(M)
        qft = np.exp(2j * np.pi * np.outer(s, s) / M) / np.sqrt(M)
        sz = np.diag((-1.0) ** s)
        assert np.abs(sz @ qft @ sz - centered_dft_matrix(M)).max() < 1e-12


class TestRunWorkers:
    def test_every_worker_runs_once_and_the_lowest_error_is_raised(self):
        # more workers than CPUs and a short switch interval: each worker ends by
        # bumping a shared count, and only after every worker has stopped does the
        # lowest failing worker's error reach the caller
        lock = threading.Lock()
        items = range(20)
        ran, threads, shares = [0] * 8, {}, {}

        def work(share):
            i = share.start   # items[i::8] starts at item i
            threads[i], shares[i] = threading.current_thread(), share
            for _ in range(200):
                with lock:
                    ran[i] += 1
            if i in (3, 5):
                raise KeyError(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(KeyError, match="3"):
                _run_workers(work, items, 8)
        finally:
            sys.setswitchinterval(interval)
        assert ran == [200] * 8
        assert shares == {i: items[i::8] for i in range(8)}
        assert threads[0] is threading.current_thread()
        for thread in (threads[i] for i in range(1, 8)):
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_one_worker_runs_on_the_calling_thread(self):
        seen = []
        _run_workers(lambda share: seen.append((share, threading.current_thread())), "abc", 1)
        assert seen == [("abc", threading.current_thread())]
