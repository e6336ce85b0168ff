import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import (
    centered_dft_matrix,
    dense_momentum_sq,
    loewdin_orthonormalize,
    sector_blocks_by_gather,
)

from qhermite import discrete_qho
from qhermite.discrete_qho import (
    EigenDecomposition,
    _p2_symbol_ld,
    _rayleigh_terms,
    _sector_block,
    _sector_workers,
    apply_hamiltonian,
    build,
    dense_diagonalize,
)
from qhermite.spectral_core import _PI_LD, GridSpec, hermite_basis

# grid sizes for the DFT conjugation checks; 10 and 30 are 2 (mod 4)
CONJUGATION_SIZES = (10, 30, 64)
SPLIT_SIZES = (64, 128, 256, 512, 1024, 2048)
EPS = np.finfo(float).eps


def _dense_hamiltonian(qho) -> np.ndarray:
    """Dense Hbar = (xbar^2 + pbar^2)/2 from the circulant symbol (a test oracle)."""
    return 0.5 * (np.diag(qho.x * qho.x) + dense_momentum_sq(qho.spec))


def _dense_hamiltonian_ld(M: int) -> np.ndarray:
    """Dense Hbar in 80-bit floats, from the 80-bit circulant symbol (a test oracle)."""
    c = _p2_symbol_ld(M)
    j = np.arange(M)
    labels = np.arange(-M // 2, M // 2, dtype=np.longdouble)
    return 0.5 * (c[(j[None, :] - j[:, None]) % M] + np.diag(labels * labels * (2 * _PI_LD / M)))


def _mirror(M: int) -> np.ndarray:
    """Index of label -l (mod M) for each index i of label l = i - M/2."""
    return (-np.arange(M)) % M


def _continuum_matrix_element(a_pow: int, b_pow: int, k: int, l: int) -> complex:
    """<k| x^a p^b |l> for the continuum operators that the grid represents.

    Exact via truncated ladder matrices (the truncation exceeds
    max(k, l) + a + b, and each factor shifts levels by at most one).  With
    the centered kernel exp(+2*pi*i*j*k/M), F^-1 xbar F realizes the
    continuum -p_hat, so the ladder form here is p = i(a - a^dagger)/sqrt(2);
    only odd powers of p see the difference.
    """
    K = max(k, l) + a_pow + b_pow + 2
    lower = np.diag(np.sqrt(np.arange(1, K)), 1)  # annihilation
    raise_ = lower.T
    X = (raise_ + lower) / np.sqrt(2.0)
    P = 1j * (lower - raise_) / np.sqrt(2.0)
    op = np.linalg.matrix_power(X, a_pow) @ np.linalg.matrix_power(P.astype(complex), b_pow)
    return complex(op[k, l])


def _discrete_matrix_element(qho, basis, F, a_pow: int, b_pow: int, k: int, l: int) -> complex:
    """<psibar_k| xbar^a pbar^b |psibar_l> with pbar^b = F^-1 xbar^b F from the dense F."""
    v = basis[l].astype(complex)
    if b_pow:
        v = F.conj().T @ ((qho.x**b_pow) * (F @ v))
    if a_pow:
        v = (qho.x**a_pow) * v
    return complex(np.vdot(basis[k].astype(complex), v))


@pytest.fixture(scope="module")
def qho128():
    return build(GridSpec(128))


class TestBuild:
    def test_max_diagonal(self):
        # sqrt(2*pi/8) * 4 = sqrt(4*pi), the ||xbar|| = sqrt(pi*M/2) norm at j = -M/2
        qho = build(GridSpec(8))
        assert abs(np.abs(qho.x).max() - np.sqrt(4 * np.pi)) < 1e-14

    def test_x_annihilates_origin_delta(self):
        qho = build(GridSpec(8))
        v = np.zeros(8)
        v[4] = 1.0
        assert np.abs(qho.x * v).max() == 0.0

    def test_p_annihilates_uniform(self, qho128):
        # uniform is F of the origin delta, so pbar maps it to zero
        M = qho128.M
        v = np.full(M, 1 / np.sqrt(M), dtype=complex)
        F = centered_dft_matrix(M)
        w = F.conj().T @ (qho128.x * (F @ v))
        assert np.abs(w).max() < 1e-12

    def test_rejects_tiny_grid(self):
        with pytest.raises(Exception):
            build(GridSpec(4))


class TestHamiltonian:
    def test_matches_dense(self, rng):
        M = 64
        qho = build(GridSpec(M))
        H = _dense_hamiltonian(qho)
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        assert np.abs(apply_hamiltonian(qho, v) - H @ v).max() < 1e-12 * np.linalg.norm(H @ v)

    def test_dense_momentum_matches_fft_conjugation(self):
        for M in CONJUGATION_SIZES:
            F = centered_dft_matrix(M)
            x = GridSpec(M).points()
            P2 = F.conj().T @ np.diag(x * x) @ F
            assert np.abs(dense_momentum_sq(GridSpec(M)) - P2).max() < 1e-11

    @pytest.mark.parametrize("M", CONJUGATION_SIZES)
    def test_momentum_kernel_matches_dft_conjugation(self, M, rng):
        # the FFT kernel's momentum term against F^dagger diag(x^2) F, the sign
        # (-1)^(M/2) included, through Hbar v = (x^2 v + F^dagger x^2 F v) / 2
        qho = build(GridSpec(M))
        F = centered_dft_matrix(M)
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        x2 = qho.x * qho.x
        ref = (x2 * v + F.conj().T @ (x2 * (F @ v))) / 2
        assert np.abs(apply_hamiltonian(qho, v) - ref).max() < 1e-11 * np.linalg.norm(ref)

    def test_hermitian_on_random_pairs(self, qho128, rng):
        for _ in range(5):
            u = rng.normal(size=128) + 1j * rng.normal(size=128)
            v = rng.normal(size=128) + 1j * rng.normal(size=128)
            lhs = np.vdot(u, apply_hamiltonian(qho128, v))
            rhs = np.conj(np.vdot(v, apply_hamiltonian(qho128, u)))
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_zero_vector(self, qho128):
        assert np.abs(apply_hamiltonian(qho128, np.zeros(128))).max() == 0.0

    def test_ground_state_eigenvalue(self, qho128, basis_cache):
        psi0 = basis_cache(128, 0)[0].astype(complex)
        out = apply_hamiltonian(qho128, psi0)
        assert np.linalg.norm(out - 0.5 * psi0) < 1e-9

    def test_excited_state_eigenvalue(self, qho128, basis_cache):
        psi5 = basis_cache(128, 5)[5].astype(complex)
        out = apply_hamiltonian(qho128, psi5)
        # paper: eigenvalues very close to n + 1/2
        assert np.linalg.norm(out - 5.5 * psi5) < 1e-9

    def test_dimension_mismatch(self, qho128):
        with pytest.raises(ValueError):
            apply_hamiltonian(qho128, np.ones(64))


class TestDenseDiagonalize:
    def test_ground_energy(self, eig_cache):
        eig = eig_cache(64)
        assert abs(eig.energies[0] - 0.5) < 1e-10

    def test_first_gap(self, eig_cache):
        eig = eig_cache(64)
        assert abs(eig.energies[1] - eig.energies[0] - 1.0) < 1e-9

    def test_eigenvector_overlap_with_hermite_state(self, eig_cache, basis_cache):
        eig = eig_cache(128)
        psi0 = basis_cache(128, 0)[0]
        assert abs(np.abs(np.vdot(eig.vectors[:, 0], psi0)) - 1.0) < 1e-10

    def test_residuals(self, eig_cache):
        qho = build(GridSpec(128))
        H = _dense_hamiltonian(qho)
        eig = eig_cache(128)
        norm_H = np.abs(eig.energies).max()
        for n in (0, 3, 17, 127):
            r = np.linalg.norm(H @ eig.vectors[:, n] - eig.energies[n] * eig.vectors[:, n])
            assert r < 1e-8 * norm_H

    def test_spectrum_approaches_half_integers(self, eig_cache):
        # deviation shrinks by >= 10x per grid doubling for fixed n, down to
        # the float64 floor (the true error is doubly exponentially small and
        # falls below matrix-entry rounding already around M=64 for n <= 8)
        floor = 1e-12
        devs = []
        for M in (64, 128, 256):
            eig = eig_cache(M)
            devs.append(np.abs(eig.energies[:9] - (np.arange(9) + 0.5)).max())
        assert np.all(np.diff(eig_cache(64).energies) > 0)
        assert devs[1] < devs[0] / 10 or devs[1] < floor
        assert devs[2] < devs[1] / 10 or devs[2] < floor

    @pytest.mark.parametrize("M", [64, 128])
    def test_energies_are_rayleigh_quotients(self, eig_cache, M):
        # per-vector clongdouble quotients against the 80-bit dense Hamiltonian
        eig = eig_cache(M)
        Hld = _dense_hamiltonian_ld(M)
        for n in range(min(64, M)):
            v = eig.vectors[:, n].astype(np.clongdouble)
            ref = float(np.real(np.vdot(v, Hld @ v) / np.vdot(v, v)))
            assert abs(eig.energies[n] - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("M", [64, 128])
    def test_rayleigh_block_is_the_dense_quotient(self, eig_cache, M):
        # the full k x k block, off-diagonal entries (~5e-14 here) included,
        # against W^T Hld W in 80 bits: entries differ by at most 4.4e-19 times
        # the largest |entry|, about 4 longdouble ulps; the bound is about twice that
        eig = eig_cache(M)
        W = eig.vectors[:, :64].astype(np.longdouble)
        terms, weights = _rayleigh_terms(build(GridSpec(M)), W)
        block = (weights * terms).T @ terms / 2
        ref = W.T @ _dense_hamiltonian_ld(M) @ W
        assert np.abs(block - ref).max() <= 1e-18 * np.abs(ref).max()
        # the refined energies are the block's diagonal over diag(W^T W), bit for bit
        energies = (np.diagonal(block) / np.diagonal(W.T @ W)).astype(np.float64)
        assert np.array_equal(eig.energies[:64], energies)

    def test_rayleigh_slabs_are_row_major(self, monkeypatch):
        # the 80-bit sums over the grid run in one order only on a C-ordered slab: an
        # F-ordered copy of the F-ordered vectors sums in another and may round differently
        real = discrete_qho._rayleigh_terms
        slabs = []

        def record(qho, W):
            slabs.append((W.shape, W.flags.c_contiguous))
            return real(qho, W)

        monkeypatch.setattr(discrete_qho, "_rayleigh_terms", record)
        dense_diagonalize(build(GridSpec(128)))
        assert slabs == [((128, 16), True)] * 4

    @pytest.mark.parametrize("M", [64, 128, 256, 512, 1024, 2048, 4096])
    def test_symbol_is_mirror_symmetric(self, M):
        # pbar^2 is symmetric, so c[d] = c[M - d] must hold to the last bit
        c = _p2_symbol_ld(M)
        assert np.array_equal(c[1:], c[:0:-1])

    @pytest.mark.parametrize("M", [512, 1024])
    def test_low_energies_at_half_integers(self, eig_cache, M):
        # the exact eigenvalues are n + 1/2 to far below float64 for n < 16;
        # a float64 pi in the symbol put them 3e-12 (M=512) to 1e-11 away
        eig = eig_cache(M)
        assert np.abs(eig.energies[:16] - (np.arange(16) + 0.5)).max() <= 1e-13

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            dense_diagonalize(build(GridSpec(8192)))

    @pytest.mark.parametrize("M", [64, 256])
    def test_vectors_are_columns_of_a_row_major_store(self, eig_cache, M):
        # the docstring's layout: vectors is F-ordered, so column n is one contiguous run
        eig = eig_cache(M)
        assert eig.vectors.flags.f_contiguous and eig.vectors.T.flags.c_contiguous
        assert eig.vectors[:, :8].flags.f_contiguous

    def test_arrays_refuse_writes(self, eig_cache):
        # a decomposition's holders (fast_forward's Ritz blocks) cannot go stale
        eig = eig_cache(64)
        with pytest.raises(ValueError, match="read-only"):
            eig.vectors[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            eig.energies[0] = 0.5


class TestParitySplit:
    """The two-sector solve against the dense Hbar; tolerances are stated in the data's units.

    Measured with one BLAS thread over M = 64-2048, with ||Hbar|| the largest
    energy: the sector blocks rebuild Hbar to <= 2.0 eps ||Hbar||; the
    energies sit 7.8-59 eps ||Hbar|| from a full `eigh` of Hbar, growing
    about like sqrt(M); V^T V - I reads 6-16 eps.  Each bound is about twice
    the largest reading.
    """

    @pytest.mark.parametrize("M", SPLIT_SIZES)
    def test_columns_are_parity_definite(self, eig_cache, M):
        V = eig_cache(M).vectors
        reflected = V[_mirror(M)]
        even = (reflected == V).all(axis=0)
        odd = (reflected == -V).all(axis=0)
        assert np.all(even ^ odd)
        assert (even.sum(), odd.sum()) == (M // 2 + 1, M // 2 - 1)

    @pytest.mark.parametrize("M", SPLIT_SIZES)
    def test_sign_rule(self, eig_cache, M):
        # the largest-magnitude entry at a label >= 0 is positive (first on a tie)
        upper = eig_cache(M).vectors[M // 2:]
        lead = upper[np.abs(upper).argmax(axis=0), np.arange(M)]
        assert np.all(lead > 0)

    def test_repeat_calls_are_bitwise_equal(self, eig_cache):
        again = dense_diagonalize(build(GridSpec(256)))
        assert np.array_equal(again.vectors, eig_cache(256).vectors)
        assert np.array_equal(again.energies, eig_cache(256).energies)

    @pytest.mark.parametrize("M", SPLIT_SIZES)
    def test_sector_blocks_reassemble_hamiltonian(self, eig_cache, M):
        half = M // 2
        odd, even = _sector_block(M, True), _sector_block(M, False)
        a = np.arange(1, half)
        Qe, Qo = np.zeros((M, half + 1)), np.zeros((M, half - 1))
        Qe[half, 0] = Qe[0, half] = 1.0
        Qe[half + a, a] = Qe[half - a, a] = np.sqrt(0.5)
        Qo[half + a, a - 1], Qo[half - a, a - 1] = np.sqrt(0.5), -np.sqrt(0.5)
        H = _dense_hamiltonian(build(GridSpec(M)))
        rebuilt = Qe @ even @ Qe.T + Qo @ odd @ Qo.T
        assert np.abs(rebuilt - H).max() <= 4 * EPS * np.abs(eig_cache(M).energies).max()

    @pytest.mark.parametrize("M", [8, 16, 64, 512, 4096])
    def test_sector_blocks_equal_the_gathers(self, M):
        # the strided views and the in-place scaling give the gathers' bits
        even, odd = sector_blocks_by_gather(M)
        assert np.array_equal(_sector_block(M, True), odd)
        assert np.array_equal(_sector_block(M, False), even)

    @staticmethod
    def _peaks(monkeypatch, workers: int) -> tuple:
        """tracemalloc's peaks over one call at M = 512 on `workers` workers, in MB:
        the whole call's less the returned arrays (2.0 MB), and the peak up to the end
        of the two solves."""
        monkeypatch.setattr(discrete_qho, "_sector_workers", lambda: workers)
        real = discrete_qho._run_workers
        solves = []

        def run(work, items, count):
            real(work, items, count)
            solves.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(discrete_qho, "_run_workers", run)
        qho = build(GridSpec(512))
        tracemalloc.start()
        try:
            eig = dense_diagonalize(qho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eig.workers == workers
        return (peak - eig.vectors.nbytes - eig.energies.nbytes) / 2**20, solves[0] / 2**20

    def test_working_set(self, monkeypatch):
        # 1.56-1.80 MB measured (one BLAS thread), while the returned rows are filled
        # from both sectors' vectors; 4.66 MB when both blocks, their gathers and
        # 64-column 80-bit Rayleigh temporaries were held.  Up to the end of the solves
        # 1.53 MB: the even eigh with the odd sector's vectors alive, three (M/2+1)^2
        # float arrays of 0.5 MB; the bound adds half an array
        call, solves = self._peaks(monkeypatch, 1)
        assert call <= 2.0
        assert solves <= 1.75

    def test_working_set_two_workers(self, monkeypatch):
        # the whole call measured 1.68 MB, as on one worker: filling the returned rows
        # still sets the peak.  Up to the end of the solves 2.03 MB: both blocks and both
        # sectors' vectors are alive at once, four (M/2+1)^2 arrays; the bound adds half
        # an array
        call, solves = self._peaks(monkeypatch, 2)
        assert call <= 2.0
        assert solves <= 2.25

    @pytest.mark.parametrize("M", SPLIT_SIZES)
    def test_energies_match_full_eigh(self, eig_cache, M):
        full = np.linalg.eigvalsh(_dense_hamiltonian(build(GridSpec(M))))
        scale = np.abs(full).max()
        assert np.abs(eig_cache(M).energies - full).max() <= 2 * np.sqrt(M) * EPS * scale

    @pytest.mark.parametrize("M", SPLIT_SIZES)
    def test_basis_is_orthonormal(self, eig_cache, M):
        V = eig_cache(M).vectors
        assert np.abs(V.T @ V - np.eye(M)).max() <= 32 * EPS

    @pytest.mark.slow
    def test_m4096_low_spectrum(self):
        eig = dense_diagonalize(build(GridSpec(4096)))
        assert np.abs(eig.energies[:16] - (np.arange(16) + 0.5)).max() <= 1e-13
        low = eig.vectors[:, :64]
        assert np.abs(low.T @ low - np.eye(64)).max() <= 32 * EPS


class TestSectorWorkers:
    """The two sectors solved on two threads: the one-worker bits, errors, and the policy."""

    @pytest.mark.parametrize("M", [64, 128, 512, 1024])
    def test_two_workers_give_the_one_worker_bits(self, M, monkeypatch):
        eigs = []
        for workers in (1, 2):
            monkeypatch.setattr(discrete_qho, "_sector_workers", lambda w=workers: w)
            eigs.append(dense_diagonalize(build(GridSpec(M))))
        one, two = eigs
        assert (one.workers, two.workers) == (1, 2)
        assert np.array_equal(one.energies, two.energies)
        assert np.array_equal(one.vectors, two.vectors)
        workers = next(f for f in dataclasses.fields(EigenDecomposition) if f.name == "workers")
        assert workers.default == 1 and not workers.compare

    @pytest.mark.parametrize("sector", ["odd", "even"])
    def test_sector_error_reaches_the_caller(self, sector, monkeypatch):
        # with two workers the odd sector is solved on the started thread and the even one
        # on the calling thread; a fault in either is raised once both have stopped
        M = 128
        size = M // 2 - 1 if sector == "odd" else M // 2 + 1
        real = np.linalg.eigh
        threads = {}

        def solve(block):
            threads[len(block)] = threading.current_thread()
            if len(block) == size:
                raise FloatingPointError(f"refused the {sector} sector")
            return real(block)

        monkeypatch.setattr(discrete_qho, "_sector_workers", lambda: 2)
        monkeypatch.setattr(np.linalg, "eigh", solve)
        with pytest.raises(FloatingPointError, match=f"refused the {sector} sector"):
            dense_diagonalize(build(GridSpec(M)))
        started, caller = threads[M // 2 - 1], threads[M // 2 + 1]
        assert caller is threading.current_thread() and started is not caller
        started.join(timeout=5)
        assert not started.is_alive()

    def test_one_worker_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a solve thread was started")

        monkeypatch.setattr(discrete_qho, "_sector_workers", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert dense_diagonalize(build(GridSpec(64))).workers == 1

    @pytest.mark.parametrize("env, cpus, expected", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2, 1),
        ({"OMP_NUM_THREADS": "1"}, 2, 2),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ], ids=["openblas-1", "unset", "openblas-4-omp-1", "omp-1", "goto-1-omp-2",
            "unparsable", "one-cpu"])
    def test_policy_reads_openblas_thread_variables(self, env, cpus, expected, monkeypatch):
        # the first variable that is set, in OpenBLAS's order, decides; anything but 1 is
        # one worker
        openblas = {"Build Dependencies": {"blas": {"name": "scipy-openblas"}}}
        monkeypatch.setattr(np, "show_config", lambda mode: openblas)
        for var in discrete_qho._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(discrete_qho, "_usable_cpus", lambda: cpus)
        assert _sector_workers() == expected

    @pytest.mark.parametrize("config", [
        {"Build Dependencies": {"blas": {"name": "mkl-sdl"}}},
        {"Build Dependencies": {}},
    ], ids=["mkl", "no-blas-entry"])
    def test_policy_needs_an_openblas_build(self, config, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(discrete_qho, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(np, "show_config", lambda mode: config)
        assert _sector_workers() == 1


class TestHermiteBasis:
    def test_ground_normalized(self, basis_cache):
        b = basis_cache(256, 0)
        assert abs(np.vdot(b[0], b[0]) - 1.0) < 1e-12

    def test_opposite_parity_orthogonal(self, basis_cache):
        b = basis_cache(256, 1)
        assert abs(np.vdot(b[0], b[1])) < 1e-14

    def test_gram_defect(self, basis_cache):
        b = basis_cache(256, 32)
        gram = b @ b.T
        assert np.abs(gram - np.eye(33)).max() < 1e-10

    def test_rejects_n_max_at_dimension(self):
        with pytest.raises(ValueError):
            hermite_basis(GridSpec(16), 16)


class TestEnergyProjector:
    def test_idempotent_and_rank(self, eig_cache, rng):
        V = eig_cache(64).vectors[:, :6]
        P = V @ V.conj().T
        assert np.abs(P @ P - P).max() < 1e-10
        assert abs(np.trace(P).real - 6) < 1e-10

    def test_realizations_agree(self, eig_cache, basis_cache):
        # eigenvector and Hermite-state forms agree to 1e-8 for N <= M/8; the
        # Gram defect is tiny, so Loewdin is a near-identity correction
        M, N = 128, 16
        V = eig_cache(M).vectors[:, :N]
        U = loewdin_orthonormalize(basis_cache(M, N - 1)[:N].astype(complex)).T
        assert np.abs(V @ V.conj().T - U @ U.conj().T).max() < 1e-8


class TestFactCheckSuite:
    def test_ladder_oracle_basics(self):
        # <0|x^2|0> = 1/2, <0|p^2|0> = 1/2, <1|x|0> = 1/sqrt(2)
        assert abs(_continuum_matrix_element(2, 0, 0, 0) - 0.5) < 1e-14
        assert abs(_continuum_matrix_element(0, 2, 0, 0) - 0.5) < 1e-14
        assert abs(_continuum_matrix_element(1, 0, 1, 0) - 1 / np.sqrt(2)) < 1e-14
        # canonical commutator: the grid-represented momentum is -p_hat, so
        # <0|[x,p]|0> = -i in this convention (p^2 consumers never see it)
        comm = (_continuum_matrix_element(1, 1, 0, 0)
                - np.conj(_continuum_matrix_element(1, 1, 0, 0)))
        assert abs(comm + 1j) < 1e-14

    def test_discrete_matches_continuum(self, basis_cache):
        # |<psibar_k| x^a p^b |psibar_l> - continuum| <= 1e-8 for a,b <= 4, k,l <= 8
        M = 256
        qho = build(GridSpec(M))
        basis = basis_cache(M, 8)
        F = centered_dft_matrix(M)
        worst = 0.0
        for a in range(5):
            for b in range(5):
                for k in (0, 3, 8):
                    for l in (0, 5, 8):
                        d = _discrete_matrix_element(qho, basis, F, a, b, k, l)
                        c = _continuum_matrix_element(a, b, k, l)
                        worst = max(worst, abs(d - c))
        assert worst < 1e-8


class TestLeakage:
    def test_low_degree_positions_stay_low(self, eig_cache):
        # ||(I - Pi_32) x^a Pi_4|| <= 1e-8 for a <= 4 at M=256
        qho = build(GridSpec(256))
        V = eig_cache(256).vectors
        low = V[:, :32]
        for a in range(1, 5):
            cols = (qho.x**a)[:, None] * V[:, :4]
            resid = cols - low @ (low.conj().T @ cols)
            assert np.linalg.svd(resid, compute_uv=False)[0] < 1e-8
