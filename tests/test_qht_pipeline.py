import cmath
import math
import re
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import isometry_singular_values, loewdin_orthonormalize

from qhermite import qht_pipeline
from qhermite.discrete_qho import build, dense_diagonalize
from qhermite.fast_forward import apply_tables, decompose, evolution_tables
from qhermite.qht_pipeline import (
    ConfigError,
    QHTConfig,
    QHTOperator,
    WindowFunction,
    _parity_part,
    build_pr_state,
    choose_dimensions,
    fixed_point_amplify,
    fixed_point_schedule,
    high_energy_cutoff,
    pr_support,
    psibar_rows,
    qht_apply,
    qht_operator,
    qht_reference,
)
from qhermite.spectral_core import GridSpec, hermite_basis


def _prepared(cfg, n):
    """The normalized prepared state of block n, as QHTOperator holds it."""
    amps = build_pr_state(n, cfg.M)
    return amps / np.linalg.norm(amps)


def pr_high_energy_leakage(n: int, n_high: int, eig) -> float:
    """||Pi_{>n_high} |phi_n>||^2 for the unnormalized prepared state on eig's grid."""
    low = eig.vectors[:, :n_high + 1]
    amps = build_pr_state(n, eig.vectors.shape[0]).astype(complex)
    inside = low.conj().T @ amps
    return float(max(np.vdot(amps, amps).real - np.vdot(inside, inside).real, 0.0))


def _force_workers(monkeypatch, workers: int) -> None:
    """Build on `workers` workers whenever there are that many rows, however small the grid."""
    monkeypatch.setattr(qht_pipeline, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(qht_pipeline, "_WORKER_SHARE", 0)


def _reflect(x):
    """x at the mirrored labels, l -> -l: index i -> -i mod M."""
    return np.concatenate([x[:1], x[:0:-1]])


def _split(row, n):
    """Block n's parity part of a swept row: the half-period stage, as the build takes it."""
    return _parity_part(row, (-1) ** n, np.empty_like(row))


def _filtered(op, v, n):
    """Block n's filter on the row v, `_sweep` then the split: (kept, unflagged mass)."""
    w = np.array(v, dtype=complex)[None]
    in_sq = float(np.vdot(w, w).real)
    kept = _split(op._sweep(w, [(n,)], False)[0], n)
    return kept, max(in_sq - float(np.vdot(kept, kept).real), 0.0)


def _uncomputed(op, n, v):
    """Block n's uncompute of the row v, `_sweep` then the split."""
    return _split(op._sweep(np.array(v, dtype=complex)[None], [(n,)], True)[0], n)


def _amplified(cfg, kept, leak):
    """The flagged work vector after the walk, as QHTOperator computes it."""
    norm = float(np.linalg.norm(kept))
    goal, _ = fixed_point_amplify(norm, np.sqrt(leak), cfg.delta_lower, cfg.eps)
    return kept * (goal / norm)


def _uncompute_blocks(cfg, blocks):
    """sum_n out_n over the blocks {n: v_n} and the residual index mass."""
    op = qht_operator(cfg)
    out = sum(_uncomputed(op, n, v) for n, v in blocks.items())
    total_in = sum(float(np.vdot(v, v).real) for v in blocks.values())
    return out, max(total_in - float(np.vdot(out, out).real), 0.0)


class TestChooseDimensions:
    def test_small_instance_defaults(self):
        # N=1 eps=0.5 needs only the smallest grid, M=16
        assert choose_dimensions(1, 0.5).M == 16
        assert high_energy_cutoff(1, 0.5) == 8

    def test_n_high_formula(self):
        assert high_energy_cutoff(16, 0.1) == 640

    def test_monotone_in_eps(self):
        prev = 0
        for eps in (0.5, 0.1, 0.05, 0.01):
            cfg = choose_dimensions(4, eps)
            assert cfg.M >= prev
            prev = cfg.M

    def test_hard_cap_reported(self):
        with pytest.raises(ConfigError):
            choose_dimensions(64, 1e-3)

    @pytest.mark.parametrize("N, eps", [(8, 1e-100), (8, 5e-324), (8, 1e-97), (10**400, 0.01)],
                             ids=["eps-underflow", "eps-subnormal", "eps-overflow", "N-overflow"])
    def test_cap_refused_where_the_rule_overflows(self, N, eps):
        # eps**3.25 underflows to 0, or N**2.25 or the rule's quotient overflows a float:
        # each used to raise ZeroDivisionError or OverflowError before the cap was checked
        with pytest.raises(ConfigError, match="exceeds the hard cap 1048576"):
            choose_dimensions(N, eps)

    def test_invalid_eps(self):
        with pytest.raises(ConfigError):
            choose_dimensions(4, 1.0)

    @pytest.mark.parametrize("N", [2.5, 4.0, True])
    def test_non_integer_n_rejected(self, N):
        # 2.5 used to come back as a config with N=2.5
        with pytest.raises(ConfigError, match=re.escape(f"N must be an integer, got {N!r}")):
            choose_dimensions(N, 0.1)

    def test_acceptance_scale_instance(self):
        cfg = choose_dimensions(8, 0.01)
        assert cfg.M == 4096
        assert cfg.N < high_energy_cutoff(cfg.N, cfg.eps) < cfg.M


class TestWindow:
    def test_interior_is_one(self):
        assert WindowFunction(10).value(0.0) == 1.0
        assert WindowFunction(0).value(0.5) == 1.0

    def test_outside_is_zero(self):
        w = WindowFunction(10)
        assert w.value(w.x_max + 2 * w.delta) == 0.0
        assert w.value(-(w.x_max + 3 * w.delta)) == 0.0

    def test_band_center_half(self):
        w = WindowFunction(10)
        val = w.value(w.x_max + w.delta)
        assert 0.0 < val < 1.0
        assert abs(val - 0.5) < 1e-10  # bump kernel is symmetric

    def test_band_endpoints_exact(self):
        w = WindowFunction(7)
        assert abs(w.value(w.x_max) - 1.0) < 1e-10
        assert abs(w.value(w.x_max + 2 * w.delta)) < 1e-10

    def test_monotone_on_band(self):
        w = WindowFunction(5)
        xs = np.linspace(w.x_max, w.x_max + 2 * w.delta, 101)
        vals = w.value(xs)
        assert np.all(np.diff(vals) <= 1e-12)


class TestPRStates:
    def test_support_size(self):
        # labels -J..J, at indices M/2 - J .. M/2 + J
        # J(0) = ceil(sqrt(0.75 * 1 * 2048 / (2 pi))) = 16
        assert pr_support(0, 2048) == 16
        support = np.nonzero(build_pr_state(0, 2048))[0]
        assert support.min() >= 2048 // 2 - 16 and support.max() <= 2048 // 2 + 16
        assert support.min() == 2048 - support.max()
        # n >= 1: J(10) = ceil(sqrt(0.75 * 2*10 * 2048 / (2 pi))) = 70; the
        # sqrt(2n+1) scale would give 72
        assert pr_support(10, 2048) == 70
        support = np.nonzero(build_pr_state(10, 2048))[0]
        assert support.min() >= 2048 // 2 - 70 and support.max() <= 2048 // 2 + 70
        assert support.min() == 2048 - support.max()

    @pytest.mark.parametrize("bits", [None, 10], ids=["exact", "quantized"])
    @pytest.mark.parametrize("M", [256, 2048])
    def test_state_has_the_parity_of_psi_n(self, M, bits):
        # label -l holds (-1)^n times label l, bit for bit; odd states vanish at label 0
        for n in range(21):
            amps = build_pr_state(n, M, bits)
            assert np.array_equal(_reflect(amps), (-1.0) ** n * amps), n
            assert n % 2 == 0 or amps[M // 2] == 0.0

    def test_ground_overlap(self, basis_cache):
        psi0 = basis_cache(4096, 0)[0]
        assert psi0 @ build_pr_state(0, 4096) >= 0.6

    @pytest.mark.slow
    def test_paper_figure_point(self):
        # n=10, M=1e5: overlap 2/3 +- 0.05
        M = 100000
        psi = hermite_basis(GridSpec(M), 10)[10]
        assert abs(float(psi @ build_pr_state(10, M)) - 2.0 / 3.0) <= 0.05

    def test_magnitude_bound_scaling(self):
        # max |phi_n| <= C n^(-1/4) with one fitted C across n in [4, 64];
        # the amplitude prefactor caps the ratio at 2^(1/4) sqrt(2/pi) ~ 0.95,
        # its value where sin(phi) = 1/2; at the window edge sqrt(3n/2),
        # sin(phi) is above 1/2, so the cap is approached as n grows
        M = 65536
        ratios = []
        for n in range(4, 65, 6):
            peak = np.abs(build_pr_state(n, M)).max() / np.sqrt(GridSpec(M).h)
            ratios.append(peak * n**0.25)
        C = max(ratios)
        assert C <= 2**0.25 * np.sqrt(2 / np.pi) + 1e-6
        assert min(ratios) > 0.6  # flat in n: the n^(-1/4) law is the right shape

    def test_too_small_grid_rejected(self):
        # the oscillatory window only outgrows the grid for n ~ > 1.05 M
        with pytest.raises(ConfigError):
            build_pr_state(80, 64)


class TestEigenstateFilter:
    def test_keeps_matching_hermite_state(self, basis_cache):
        M, n = 512, 3
        cfg = QHTConfig(N=4, eps=0.01, M=M)
        psi = basis_cache(M, n)[n].astype(complex)
        psi /= np.linalg.norm(psi)
        kept, _ = _filtered(qht_operator(cfg), psi, n)
        assert np.linalg.norm(kept) >= 1 - 1e-4

    def test_rejects_mismatched_state(self, basis_cache):
        M = 512
        cfg = QHTConfig(N=4, eps=0.01, M=M)
        psi = basis_cache(M, 5)[5].astype(complex)
        psi /= np.linalg.norm(psi)
        kept, _ = _filtered(qht_operator(cfg), psi, 2)
        assert np.linalg.norm(kept) <= 1e-4

    def test_pr_state_retention_tracks_overlap(self, basis_cache):
        M, n = 2048, 2
        cfg = QHTConfig(N=4, eps=0.01, M=M)
        kept, _ = _filtered(qht_operator(cfg), _prepared(cfg, n), n)
        psi = basis_cache(M, n)[n]
        beta = abs(float(psi @ _prepared(cfg, n)))
        assert abs(np.linalg.norm(kept) - beta) <= 2 * cfg.eps

    def test_interferometer_mass_conservation(self, rng):
        # materialize all 2^m ancilla branches at M=64 and check completeness
        M = 64
        cfg = QHTConfig(N=2, eps=0.1, M=M)
        op = qht_operator(cfg)
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        v /= np.linalg.norm(v)
        branches = [v]
        for t_j in op.dyadic_times:   # every pass factored, V(pi/2) and V(pi) too
            tables = evolution_tables(M, decompose(t_j))
            nxt = []
            for b in branches:
                wb = np.exp(1j * t_j * 1.5) * apply_tables(tables, b)   # W_{1,j} b
                nxt.append(0.5 * (b + wb))
                nxt.append(0.5 * (b - wb))
            branches = nxt
        total = sum(float(np.vdot(b, b).real) for b in branches)
        assert abs(total - 1.0) < 1e-10
        kept, leak = _filtered(op, v, 1)
        kept_sq = float(np.vdot(kept, kept).real)
        assert abs(float(np.vdot(branches[0], branches[0]).real) - kept_sq) < 1e-12
        assert abs(leak - (total - kept_sq)) < 1e-10


class TestFixedPointAmplify:
    def test_schedule_degree(self):
        L, phases = fixed_point_schedule(0.5, 1e-3)
        assert L == 17 and len(phases) == 8

    def test_overlap_one_is_identity(self):
        assert fixed_point_amplify(1.0, 0.0, 0.5, 1e-3) == (1.0, 0.0)
        assert fixed_point_amplify(0.0, 0.0, 0.5, 1e-3) == (0.0, 0.0)   # zero state

    def test_scalar_model_reaches_target(self):
        # a = 0.5, eps = 1e-3: final overlap >= 1 - 1e-3 with L <= 17
        a = 0.5
        L, _ = fixed_point_schedule(0.5, 1e-3)
        goal, rest = fixed_point_amplify(a, np.sqrt(1 - a * a), 0.5, 1e-3)
        assert L <= 17
        assert abs(goal) >= 1 - 1e-3
        assert abs(abs(goal) ** 2 + abs(rest) ** 2 - 1.0) < 1e-14   # the walk is unitary

    @pytest.mark.parametrize("a", [0.3, 0.45, 0.6, 0.8, 0.95])
    def test_no_overshoot_across_overlaps(self, a):
        goal, _ = fixed_point_amplify(a, np.sqrt(1 - a * a), 0.3, 1e-2)
        assert abs(goal) >= 1 - 1e-2

    def test_two_block_shared_schedule(self):
        # blocks with different overlaps amplified by walks with one (delta, eps)
        for a in (0.60, 0.72):
            goal, _ = fixed_point_amplify(a, np.sqrt(1 - a * a), 0.55, 1e-3)
            assert abs(goal) >= 1 - 1e-3

    @staticmethod
    def _vector_walk(kept, leak, delta_lower, eps):
        """The walk on the (M+1)-vector (kept, sqrt(leak))/norm with an explicit flag projector."""
        init = np.concatenate([kept, [np.sqrt(leak)]])
        init = init / np.linalg.norm(init)
        if np.linalg.norm(init[:-1]) >= 1.0 - 1e-12:
            return init
        v = init.copy()
        for alpha, beta in fixed_point_schedule(delta_lower, eps)[1]:
            flagged = v.copy()
            flagged[-1] = 0.0
            v = v + (np.exp(-1j * beta) - 1.0) * flagged
            v = v + (np.exp(1j * alpha) - 1.0) * np.vdot(init, v) * init
        return v

    def test_two_amplitudes_match_the_vector_walk(self, rng):
        M = 64
        cases = []
        for a in (0.3, 0.55, 0.8, 1.0 - 1e-9, 1.0 - 1e-13):
            kept = rng.normal(size=M) + 1j * rng.normal(size=M)
            kept *= a / np.linalg.norm(kept)
            cases.append((kept, 1.0 - a * a))
        cases.append((np.zeros(M, dtype=complex), 1.0))   # nothing flagged
        for kept, leak in cases:
            ref = self._vector_walk(kept, leak, 0.3, 1e-3)
            norm = np.linalg.norm(kept)
            goal, rest = fixed_point_amplify(norm, np.sqrt(leak), 0.3, 1e-3)
            work = kept * (goal / norm) if norm else kept
            assert np.abs(work - ref[:M]).max() <= 1e-14
            assert abs(abs(rest) ** 2 - abs(ref[-1]) ** 2) <= 1e-14

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            fixed_point_schedule(0.0, 1e-2)

    @pytest.mark.parametrize("delta_lower, degree", [(float("nan"), 0), (float("nan"), 5),
                                                     (0.3, -3)])
    def test_rejects_nan_bound_and_negative_degree(self, delta_lower, degree):
        with pytest.raises(ValueError, match=f"must be .*, got {degree if degree < 0 else 'nan'}"):
            fixed_point_schedule(delta_lower, 1e-2, degree)


class TestUncompute:
    def test_single_block_returns_to_zero(self, basis_cache):
        M, n = 256, 2
        cfg = QHTConfig(N=4, eps=0.01, M=M)
        psi = basis_cache(M, n)[n].astype(complex)
        psi /= np.linalg.norm(psi)
        out, residual = _uncompute_blocks(cfg, {n: psi})
        assert residual <= 1e-3
        assert abs(np.vdot(psi, out)) >= 1 - 1e-3

    def test_uniform_blocks(self, basis_cache):
        M = 256
        cfg = QHTConfig(N=4, eps=0.01, M=M)
        basis = basis_cache(M, 3)
        blocks = {}
        for n in range(4):
            psi = basis[n].astype(complex)
            blocks[n] = 0.5 * psi / np.linalg.norm(psi)
        out, residual = _uncompute_blocks(cfg, blocks)
        target = sum(blocks.values())
        assert residual <= 4 * 0.01
        fid = abs(np.vdot(target / np.linalg.norm(target), out / np.linalg.norm(out)))
        assert fid >= 1 - 4 * 0.01

    def test_single_index_zero_phases(self, basis_cache):
        # N=1: all controlled phases reduce to the half-shift, exact up to
        # fast-forward error
        M = 256
        cfg = QHTConfig(N=1, eps=0.01, M=M)
        psi = basis_cache(M, 0)[0].astype(complex)
        out, residual = _uncompute_blocks(cfg, {0: psi})
        assert residual <= 1e-6


class TestPipelineContext:
    def test_holds_2m_minus_4_half_tables(self):
        # the quarter period runs as one FFT and the half period is the parity split, so only
        # m - 2 evolutions are factored, each in three factors of two distinct coefficients
        cfg = QHTConfig(N=2, eps=0.01, M=1024)
        op = qht_operator(cfg)
        tables = op.dyadic_tables
        assert len(tables) == cfg.m_bits - 2 and len(op.dyadic_times) == cfg.m_bits
        assert op.dyadic_times[-2:] == [np.pi / 2, np.pi]
        assert sum(t.halves.shape[0] for t in tables) == 2 * (cfg.m_bits - 2)
        assert all(t.halves.shape[1] == cfg.M // 2 + 1 for t in tables)

    @pytest.mark.parametrize("eps", [1.5, 1.0, 0.0, -0.1, float("nan")])
    def test_eps_outside_unit_interval_rejected(self, eps):
        # a hand-built config is checked at construction, as choose_dimensions' is
        with pytest.raises(ConfigError, match=f"eps must be in \\(0, 1\\), got {eps}"):
            QHTConfig(N=2, eps=eps, M=256)
        with pytest.raises(ConfigError, match="eps must be in"):
            replace(QHTConfig(N=2, eps=0.05, M=256), eps=eps)

    @pytest.mark.parametrize("knob, value, rule", [
        ("oracle_bits", 1, "None or >= 2"), ("oracle_bits", 0, "None or >= 2"),
        ("oracle_bits", -3, "None or >= 2"), ("aa_rounds", -3, ">= 0"),
        ("delta_lower", 5.0, "in (0, 1]"), ("delta_lower", 0.0, "in (0, 1]"),
        ("delta_lower", -0.3, "in (0, 1]"), ("delta_lower", float("nan"), "in (0, 1]"),
        ("oracle_bits", 2.5, "None or an integer"), ("aa_rounds", 2.5, "an integer"),
        ("aa_rounds", float("nan"), "an integer"),
        ("oracle_bits", True, "None or an integer"), ("aa_rounds", True, "an integer"),
        ("delta_lower", True, "in (0, 1]"),
    ])
    def test_no_amplification_or_vanished_state_rejected(self, knob, value, rule):
        # each would build without amplification, or from a prepared state of rounding only
        with pytest.raises(ConfigError, match=re.escape(f"{knob} must be {rule}, got {value}")):
            replace(QHTConfig(N=2, eps=0.05, M=256), **{knob: value})
        with pytest.raises(ConfigError, match=f"{knob} must be"):
            QHTConfig(N=2, eps=0.05, M=256, **{knob: value})

    @pytest.mark.parametrize("N, M, reason", [
        (16, 8, "N=16 must be in \\[1, M=8\\)"), (8, 8, "N=8 must be in \\[1, M=8\\)"),
        (0, 16, "N=0 must be in \\[1, M=16\\)"),
        (7, 8, "M=8 too small for the n=6 oscillatory support"),
        (2.5, 256, "N must be an integer, got 2.5"), (True, 256, "N must be an integer, got True"),
        (2, 256.0, "M must be an integer, got 256.0"),
    ])
    def test_too_small_grid_rejected_at_construction(self, N, M, reason):
        # hermite_basis and build_pr_state refused these only once the build ran,
        # a float or bool size with a bare TypeError
        with pytest.raises(ConfigError, match=reason):
            QHTConfig(N=N, eps=0.1, M=M)

    def test_smallest_legal_knobs_build(self):
        base = QHTConfig(N=2, eps=0.05, M=256)
        for cfg in (replace(base, oracle_bits=2), replace(base, aa_rounds=1),
                    replace(base, delta_lower=1.0)):
            assert np.all(np.isfinite(QHTOperator(cfg).apply(np.array([0.6, 0.8])).block_fidelities))

    def test_numpy_integer_knobs_build(self):
        base = QHTConfig(N=2, eps=0.05, M=256)
        ref = QHTOperator(replace(base, oracle_bits=8, aa_rounds=3)).matrix()
        cfg = replace(base, oracle_bits=np.int64(8), aa_rounds=np.int32(3))
        assert np.array_equal(QHTOperator(cfg).matrix(), ref)

    def test_non_power_of_two_m_rejected(self):
        with pytest.raises(ConfigError, match="power-of-two"):
            QHTConfig(N=2, eps=0.01, M=3000)
        with pytest.raises(ConfigError, match="power-of-two"):
            replace(QHTConfig(N=2, eps=0.01, M=2048), M=3000)
        build_pr_state(1, 3000)   # state preparation does not need QPE

    def test_held_config_does_not_admit_an_equal_invalid_one(self):
        # the operator cache keys on config equality, and 256.0 == 256, True == 1:
        # an invalid config must fail at construction, before it can reach the cache
        cfg = QHTConfig(N=2, eps=0.05, M=256)
        qht_apply(np.array([1.0, 0.0]), cfg)
        with pytest.raises(ConfigError, match="M must be an integer, got 256.0"):
            QHTConfig(N=2, eps=0.05, M=256.0)
        with pytest.raises(ConfigError, match="N must be an integer, got True"):
            replace(cfg, N=True)

    def test_streamed_output_matches_blockwise_uncompute(self):
        cfg = choose_dimensions(4, 0.05)
        alpha = np.array([0.5, 0.5j, -0.5, 0.5 * np.exp(1j * 0.7)])
        res = qht_apply(alpha, cfg)
        op = qht_operator(cfg)
        blocks = {}
        for n, a_n in enumerate(alpha):
            work = _amplified(cfg, *_filtered(op, _prepared(cfg, n), n))
            blocks[n] = a_n * (-1.0) ** n * work
        out, residual = _uncompute_blocks(cfg, blocks)
        assert np.abs(res.output - out).max() < 1e-14
        assert abs(res.uncompute_residual - residual) < 1e-14


class TestOperator:
    ALPHA = np.array([0.5, 0.5j, -0.5, 0.5 * np.exp(1j * 0.7)])

    def test_apply_is_the_sum_of_columns(self):
        cfg = choose_dimensions(4, 0.05)
        op = QHTOperator(cfg)
        res = op.apply(self.ALPHA)
        U = op.matrix()
        explicit = sum(a_n * (-1.0) ** n * U[n] for n, a_n in enumerate(self.ALPHA))
        assert np.abs(res.output - explicit).max() < 1e-14
        blocks = {}
        for n, a_n in enumerate(self.ALPHA):
            work = _amplified(cfg, *_filtered(op, _prepared(cfg, n), n))
            # column n is the uncompute of amplified block n
            assert np.abs(U[n] - _uncomputed(op, n, work)).max() < 1e-14
            blocks[n] = a_n * (-1.0) ** n * work
        _, residual = _uncompute_blocks(cfg, blocks)
        assert abs(res.uncompute_residual - residual) < 1e-14

    @pytest.mark.parametrize("N", [4, 8])
    def test_held_uncompute_residual_is_the_lost_mass(self, N):
        # summed from the discarded branches, it is >= 0 and equals ||w_n||^2 - ||u_n||^2
        op = QHTOperator(choose_dimensions(N, 0.05))
        U = op.matrix()
        lost = op.input_mass - np.sum(np.abs(U) ** 2, axis=1)
        assert np.all(op.uncompute_residuals >= 0.0)
        assert np.abs(op.uncompute_residuals - lost).max() <= 1e-12

    def test_columns_computed_once(self):
        cfg = choose_dimensions(4, 0.05)
        op = QHTOperator(cfg)
        e1 = np.array([0.0, 1.0])
        first = op.apply(e1)
        assert first.op_passes == 2 * 2 * cfg.m_bits  # block 1 and its row partner, block 0
        assert op.rows_held == 1
        assert first.block_fidelities[0] == 0.0       # untouched block reports 0
        again = op.apply(e1)
        assert again.op_passes == 0
        assert np.array_equal(again.output, first.output)
        dense = op.apply(self.ALPHA)
        assert dense.op_passes == 2 * 2 * cfg.m_bits  # only the two blocks not held yet
        assert op.apply(self.ALPHA).op_passes == 0
        held_e1 = op.apply(e1)                        # block 0 is held but untouched
        assert held_e1.block_fidelities[0] == held_e1.filter_leaks[0] == 0.0
        assert not op.matrix().flags.writeable   # callers of a config share its columns

    def test_second_call_runs_no_passes(self):
        qht_operator.cache_clear()   # no other test's operator is held
        cfg = choose_dimensions(4, 0.05)
        first = qht_apply(self.ALPHA, cfg)
        second = qht_apply(self.ALPHA, cfg)
        assert first.op_passes == 4 * 2 * cfg.m_bits
        assert second.op_passes == 0
        assert np.array_equal(first.output, second.output)
        assert qht_operator(cfg) is qht_operator(replace(cfg))   # keyed on the config's value

    @pytest.mark.parametrize("N", [3, 7, 8, 16])
    def test_held_call_is_the_explicit_product(self, N):
        # every field of a held call, through either entry point, bit for bit against the
        # formula it stands for: dense alphas, sparse ones with leading and trailing zeros,
        # and ones shorter than N
        cfg = choose_dimensions(N, 0.01)
        op = qht_operator(cfg)
        op.matrix()
        rng = np.random.default_rng(N)
        alphas = []
        for k, zeros in ((N, ()), (N, ()), (N, (0, N - 1)), (N, (0, 1, N - 1)),
                         (max(N - 2, 1), ()), (N - 1, (0,)), (1, ())):
            alpha = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            alpha[list(zeros)] = 0.0
            if alpha.any():   # N = 3 leaves the three-zero case nothing to normalize
                alphas.append(alpha / np.linalg.norm(alpha))
        for alpha in alphas:
            k, touched = len(alpha), alpha != 0
            out = (alpha * (-1.0) ** np.arange(k)) @ op.columns[:k]
            total_in = float(np.abs(alpha) ** 2 @ op.input_mass[:k])
            residual = max(total_in - float(np.vdot(out, out).real), 0.0)
            for res in (qht_apply(alpha, cfg), op.apply(alpha)):
                assert res.output.tobytes() == out.tobytes()
                for name in ("block_fidelities", "filter_leaks", "aa_residuals"):
                    masked = np.where(touched, getattr(op, name)[:k], 0.0)
                    assert getattr(res, name).tobytes() == masked.tobytes(), name
                assert np.float64(res.uncompute_residual).tobytes() == \
                    np.float64(residual).tobytes()
                assert res.op_passes == 0

    def test_configs_differing_in_any_knob_hold_their_own_columns(self):
        base = choose_dimensions(2, 0.05)
        others = [replace(base, eps=0.2), replace(base, oracle_bits=6),
                  replace(base, aa_rounds=1), replace(base, delta_lower=0.5)]
        # block 1: rounding block 0's constant amplitude and phase leaves its
        # normalized state unchanged, so oracle_bits shows only from n = 1 on
        e1 = np.array([0.0, 1.0])
        ref = qht_apply(e1, base)
        for cfg in others:
            assert (cfg.M, cfg.N) == (base.M, base.N)
            assert qht_operator(cfg) is not qht_operator(base)
            res = qht_apply(e1, cfg)
            assert np.abs(res.output - ref.output).max() > 1e-6
            assert res.block_fidelities[1] != ref.block_fidelities[1]
        assert np.array_equal(qht_apply(e1, base).output, ref.output)


class TestHeldBasis:
    """The operator holds no basis: |psibar_n> is streamed where a build reads it."""

    @pytest.mark.parametrize("M, blocks", [(64, range(8)), (4096, [1, 2, 5, 14]), (16384, [15]),
                                           (256, np.array([0, 3, 7]))])
    def test_rows_are_the_normalized_basis_rows(self, M, blocks):
        basis = hermite_basis(GridSpec(M), max(blocks))
        rows = list(psibar_rows(M, blocks))
        assert len(rows) == len(blocks)
        for n, row in zip(blocks, rows):
            assert row.tobytes() == (basis[n] / np.linalg.norm(basis[n])).tobytes()

    @pytest.mark.parametrize("M, blocks, named", [
        (64, [-1, 2], "-1"),
        (64, [2.5, 3], "2.5"),
        (64, [3, True], "True"),
        (16, [3, 20], "20"),
        (16, [16], "16"),
    ], ids=["negative", "float", "bool", "past-grid", "at-grid"])
    def test_bad_block_is_named_before_any_row(self, M, blocks, named, monkeypatch):
        # a block that is not an integer in [0, M) would yield a misaligned or extra row;
        # it is refused before the recurrence runs
        def refuse(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(qht_pipeline, "hermite_functions", refuse)
        with pytest.raises(ValueError, match=rf"block {re.escape(named)} is not an integer"):
            next(psibar_rows(M, blocks))

    def test_no_blocks_yield_no_rows(self):
        assert list(psibar_rows(64, [])) == []
        assert list(psibar_rows(64, range(0))) == []

    def test_operator_has_no_basis(self):
        op = QHTOperator(choose_dimensions(4, 0.05))
        op.matrix()
        assert not hasattr(op, "basis")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_built_operator_holds_columns_and_tables(self, workers, monkeypatch):
        # tracemalloc at N = 16 (M = 16384), one BLAS thread: the operator holds its 4.0 MiB
        # store, 3.0 MiB of half tables and 9.3-10.2 KiB besides (phases, metrics, signs);
        # an (N, M) real basis would be 2.0 MiB more.  The build peaked 1.00 MiB above that
        # on one worker and 1.64-2.01 MiB on two (how far the workers' peaks overlap varies),
        # each worker's sweep scratch and Hermite recurrence rows; the bound is 1.2 MiB a worker
        monkeypatch.setattr(qht_pipeline, "_usable_cpus", lambda: workers)
        cfg = choose_dimensions(16, 0.01)
        QHTOperator(cfg).matrix()   # warm caches outside the trace
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            op = QHTOperator(cfg)
            op.matrix()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = current - start
        tables = sum(tables.halves.nbytes for tables in op.dyadic_tables)
        assert op.build_workers == workers
        assert 0 <= held - op._store.nbytes - tables < cfg.M * 8   # less than one real row
        assert peak - current <= workers * 1.2 * 2**20


class TestAmplificationPhase:
    """aa_phases, the sixth metric row: the angle of each block's amplified flagged amplitude."""

    @pytest.mark.parametrize("N", [4, 5, 8])
    def test_row_is_the_phase_fixed_point_amplify_returns(self, N, monkeypatch):
        goals = []

        def recorded(*args, _amplify=fixed_point_amplify):
            goal, rest = _amplify(*args)
            goals.append(goal)
            return goal, rest

        monkeypatch.setattr(qht_pipeline, "fixed_point_amplify", recorded)
        monkeypatch.setattr(qht_pipeline, "_usable_cpus", lambda: 1)   # blocks in order
        op = QHTOperator(choose_dimensions(N, 0.01))
        op.matrix()
        assert len(goals) == N
        assert op.aa_phases.tobytes() == np.array([cmath.phase(g) for g in goals]).tobytes()

    @pytest.mark.parametrize("N, eps", [(4, 0.05), (4, 0.01), (6, 0.01), (7, 0.05), (8, 0.01)])
    def test_column_overlap_carries_the_phase(self, N, eps):
        # arg<psibar_n|u_n> - aa_phases[n] read 4.7e-16 to 9.9e-16 at N = 4-8 (phases of
        # -2.97 to -3.11 rad, so the difference is taken on the circle); the bound is twice that
        cfg = choose_dimensions(N, eps)
        op = QHTOperator(cfg)
        U = op.matrix()
        for n, target in enumerate(psibar_rows(cfg.M, range(N))):
            turned = np.vdot(target, U[n]) * np.exp(-1j * op.aa_phases[n])
            assert abs(np.angle(turned)) <= 2e-15


class TestFrameSweep:
    """The filter and uncompute sweeps against a pass-by-pass composition."""

    CONFIGS = (choose_dimensions(4, 0.05), QHTConfig(N=2, eps=0.05, M=64))

    @staticmethod
    def _tables(op):
        """The factored evolution of every dyadic time, V(pi/2) and V(pi) included."""
        return [evolution_tables(op.config.M, decompose(t_j)) for t_j in op.dyadic_times]

    @classmethod
    def _filter_passes(cls, op, n, v):
        for tables, t_j in zip(cls._tables(op), op.dyadic_times):
            c = np.exp(1j * t_j * (n + 0.5))
            v = 0.5 * (v + c * apply_tables(tables, v))
        return v

    @classmethod
    def _uncompute_passes(cls, op, n, v):
        for tables, t_j in zip(cls._tables(op), op.dyadic_times):
            c = np.exp(-1j * t_j * (n + 0.5))
            v = 0.5 * (v + c * apply_tables(tables, v, adjoint=True))
        return v

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["N4", "M64"])
    def test_top_table_has_five_factors(self, cfg):
        # the reference factors V(pi) in five factors; the operator holds only the
        # three-factor tables below the quarter period
        op = qht_operator(cfg)
        assert [len(decompose(t).half) for t in op.dyadic_times] == [2] * (cfg.m_bits - 1) + [3]
        # a table holds the first (factors + 1) / 2 of its palindrome's factors
        assert [2 * len(t.halves) - 1 for t in op.dyadic_tables] == [3] * (cfg.m_bits - 2)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["N4", "M64"])
    def test_sweeps_match_passes(self, cfg, rng):
        op = QHTOperator(cfg)
        stack = np.array([rng.normal(size=cfg.M) + 1j * rng.normal(size=cfg.M)
                          for _ in range(cfg.N)])
        rows = [(n,) for n in range(cfg.N)]
        kept = op._sweep(stack.copy(), rows, False)
        out = op._sweep(stack.copy(), rows, True)
        for n, v in enumerate(stack):
            assert np.abs(_split(kept[n], n) - self._filter_passes(op, n, v)).max() < 1e-13
            assert np.abs(_split(out[n], n) - self._uncompute_passes(op, n, v)).max() < 1e-13

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["N4", "M64"])
    def test_columns_match_passes(self, cfg):
        op = QHTOperator(cfg)
        U = op.matrix()
        for n in range(cfg.N):
            v = _prepared(cfg, n).astype(complex)
            kept = self._filter_passes(op, n, v)
            leak = 1.0 - float(np.vdot(kept, kept).real)
            work = _amplified(cfg, kept, leak)
            assert abs(op.filter_leaks[n] - leak) < 1e-13
            assert np.abs(U[n] - self._uncompute_passes(op, n, work)).max() < 1e-13

    @pytest.mark.parametrize("adjoint", [False, True], ids=["filter", "uncompute"])
    def test_split_is_the_half_period_stage_of_the_build(self, adjoint):
        # the build sweeps m - 1 stages and splits; the reference runs each block alone through
        # all m passes, V(pi) in five factors, where c_{n,m-1} V(pi) = (-1)^n P is the split
        # (V(pi/2) factored too).  Filter leaks of 0.20-0.36 read within 2.1e-15 of it, block
        # fidelities within 8.9e-16, columns within 2.4e-16, and uncompute residuals of 3.5e-14
        # to 8.7e-11 within 8.3e-22 of the passes' discarded mass; the bounds are about twice those
        for N in (7, 8):   # paired rows, and a lone row at N = 7
            cfg = choose_dimensions(N, 0.01)
            op = QHTOperator(cfg)
            U = op.matrix()
            basis = hermite_basis(GridSpec(cfg.M), N - 1)
            for n in range(N):
                v = _prepared(cfg, n).astype(complex)
                kept = self._filter_passes(op, n, v)
                leak = float(np.vdot(v, v).real - np.vdot(kept, kept).real)
                work = _amplified(cfg, kept, leak)
                if adjoint:
                    lost = 0.0
                    for tables, t_j in zip(self._tables(op), op.dyadic_times):
                        kick = np.exp(-1j * t_j * (n + 0.5)) * apply_tables(tables, work,
                                                                            adjoint=True)
                        lost += float(np.linalg.norm((work - kick) / 2) ** 2)
                        work = (work + kick) / 2
                    assert np.abs(U[n] - work).max() <= 5e-16
                    assert abs(op.uncompute_residuals[n] - lost) <= 2e-21
                else:
                    assert abs(op.filter_leaks[n] - leak) <= 4e-15
                    target = basis[n] / np.linalg.norm(basis[n])
                    assert abs(op.block_fidelities[n] - abs(np.vdot(target, work))) <= 2e-15

    @pytest.mark.parametrize("N, per_row", [(8, 46), (16, 54)])
    def test_row_transforms_per_row(self, N, per_row, monkeypatch):
        # a sweep enters and leaves the momentum frame (2), runs each of the m - 2 factored
        # evolutions in two FFTs and V(pi/2) in one; the parity split that stands for V(pi)
        # runs none: 2m - 1, and two sweeps a row
        cfg = choose_dimensions(N, 0.01)
        assert per_row == 2 * (2 * cfg.m_bits - 1)
        op = QHTOperator(cfg)
        rows = []
        for name in ("fft", "ifft"):
            def counted(a, *args, _fft=getattr(np.fft, name), **kwargs):
                rows.append(a.size // a.shape[-1])
                return _fft(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        op.matrix()
        assert sum(rows) == per_row * (N // 2)

    def test_pass_counts(self):
        # m filter and m uncompute passes per held block; a block's row partner is built with it
        cfg = self.CONFIGS[0]
        m = cfg.m_bits
        op = QHTOperator(cfg)
        assert op.v_passes == 0
        alpha = np.array([0.0, 0.6])
        assert op.apply(alpha).op_passes == 2 * 2 * m     # block 1 and its partner, block 0
        assert op.v_passes == 4 * m
        assert op.apply(alpha).op_passes == 0             # both held
        assert op.apply(np.array([0.6, 0.8])).op_passes == 0
        assert op.v_passes == 4 * m
        op.matrix()                                       # the two blocks not held yet
        assert op.v_passes == 8 * m
        assert type(op.v_passes) is int                   # the qht footer writes it as JSON


class TestStackedHold:
    """Paired rows held as a prefix, in place as one stack a worker, against one-at-a-time holds."""

    CFG = QHTConfig(N=35, eps=0.01, M=4096)    # an odd N: the last block has a row of its own
    SMALL = QHTConfig(N=2, eps=0.05, M=64)
    WIDE = QHTConfig(N=80, eps=0.01, M=4096)   # 40 rows: 20 a worker on two
    HELD = ("columns", "block_fidelities", "filter_leaks", "aa_residuals", "input_mass",
            "uncompute_residuals", "aa_phases")
    METRICS = HELD + ("rows_held", "v_passes")

    @pytest.mark.parametrize("bits", [None, 32], ids=["exact", "quantized"])
    def test_one_block_at_a_time_equals_matrix(self, bits):
        cfg = replace(self.CFG, oracle_bits=bits)
        whole = QHTOperator(cfg)
        whole.matrix()
        single = QHTOperator(cfg)
        order = np.random.default_rng(3).permutation(cfg.N)
        for n in order:
            # the rows up to block n's come along, its partner included
            built = max(min(n - n % 2 + 2, cfg.N) - 2 * single.rows_held, 0)
            res = single.apply(np.eye(cfg.N)[n])
            assert res.op_passes == 2 * cfg.m_bits * built
        for name in self.METRICS:
            assert np.array_equal(getattr(single, name), getattr(whole, name)), name

    @pytest.mark.parametrize("adjoint", [False, True], ids=["filter", "uncompute"])
    def test_stack_sweep_equals_its_rows(self, adjoint, rng):
        op = QHTOperator(self.SMALL)
        rows = [(0, 1), (1,), (0, 1), (0,), (1,)]
        stack = rng.normal(size=(len(rows), 64)) + 1j * rng.normal(size=(len(rows), 64))
        lost = np.zeros((len(rows), 2))
        out = op._sweep(stack.copy(), rows, adjoint, lost=lost)
        for i, blocks in enumerate(rows):
            alone = np.zeros((1, 2))
            assert np.array_equal(op._sweep(stack[i:i + 1].copy(), [blocks], adjoint, lost=alone),
                                  out[i:i + 1])
            assert np.array_equal(alone[0], lost[i])
        # a lone row's slots hold its even and odd parts' masses, which add up to the
        # row's ||w||^2 - ||out||^2 (largest relative gap seen on random rows: 6.6e-16)
        for i in (1, 3, 4):
            gap = float(np.vdot(stack[i], stack[i]).real - np.vdot(out[i], out[i]).real)
            assert lost[i].all() and abs(lost[i].sum() - gap) <= 1e-14 * gap

    @pytest.mark.parametrize("adjoint", [False, True], ids=["filter", "uncompute"])
    @pytest.mark.parametrize("N, eps", [(5, 0.05), (8, 0.01)])
    def test_lone_parity_row_fills_its_parity_slot(self, N, eps, adjoint):
        # a prepared state swept as a lone row: its mass (0.19 or more) lands in slot n mod 2,
        # and the other slot holds only rounding (at most 3.3e-30 of it at these configs)
        cfg = choose_dimensions(N, eps)
        op = QHTOperator(cfg)
        for n in range(N):
            lost = np.zeros((1, 2))
            op._sweep(_prepared(cfg, n).astype(complex)[None], [(n,)], adjoint, lost=lost)
            own, other = lost[0, n % 2], lost[0, 1 - n % 2]
            assert own > 0.1 and other <= 1e-29 * own, n

    @pytest.mark.parametrize("adjoint", [False, True], ids=["filter", "uncompute"])
    @pytest.mark.parametrize("cfg", [SMALL, choose_dimensions(4, 0.05)], ids=["M64", "N4"])
    def test_paired_row_equals_its_blocks(self, cfg, adjoint, rng):
        # an even and an odd vector swept as one row split back into each swept alone
        op = QHTOperator(cfg)
        v = rng.normal(size=cfg.M) + 1j * rng.normal(size=cfg.M)
        even, odd = (_parity_part(v / np.linalg.norm(v), s, np.empty_like(v)) for s in (1, -1))
        for n in range(0, cfg.N, 2):
            lost = np.zeros((1, 2))
            row = op._sweep((even + odd)[None], [(n, n + 1)], adjoint, lost=lost)[0]
            parts = [_parity_part(row, s, np.empty_like(row)) for s in (1, -1)]
            for k, vec in enumerate((even, odd)):
                alone = np.zeros((1, 2))
                ref = op._sweep(vec[None].copy(), [(n + k,)], adjoint, lost=alone)[0]
                assert np.abs(parts[k] - ref).max() <= 1e-15
                assert abs(lost[0, k] - alone[0, k]) <= 1e-14 * alone[0, k]   # slot n mod 2

    def test_paired_columns_equal_rows_per_block(self):
        # the held columns against each prepared state filtered, amplified and uncomputed alone
        cfg = choose_dimensions(5, 0.05)
        op = QHTOperator(cfg)
        U = op.matrix()
        for n in range(cfg.N):
            kept, leak = _filtered(op, _prepared(cfg, n), n)
            assert abs(op.filter_leaks[n] - leak) <= 1e-15
            work = _amplified(cfg, kept, leak)
            lost = np.zeros((1, 2))
            col = op._sweep(work[None], [(n,)], True, lost=lost)[0]
            assert np.abs(U[n] - col).max() <= 1e-15
            # masses of 1e-15 to 1e-7, moved by the inputs' last bits
            assert abs(op.uncompute_residuals[n] - lost[0, n % 2]) <= 1e-18

    @pytest.mark.parametrize("N", [7, 8])
    def test_held_columns_have_the_parity_of_psi_n(self, N):
        U = QHTOperator(choose_dimensions(N, 0.01)).matrix()
        for n, col in enumerate(U):
            assert np.array_equal(_reflect(col), (-1.0) ** n * col), n

    @pytest.mark.parametrize("N", [7, 8, 16])
    def test_columns_do_not_depend_on_call_order_or_workers(self, N, monkeypatch):
        cfg = choose_dimensions(N, 0.01)
        ops = []
        for workers, order in ((1, None), (2, None), (2, [N - 1, 2, 1]), (1, [3, 0])):
            _force_workers(monkeypatch, workers)
            op = QHTOperator(cfg)
            for n in order or []:
                op.apply(np.eye(N)[n])
            op.matrix()
            ops.append(op)
        for op in ops[1:]:
            for name in self.HELD:
                assert np.array_equal(getattr(op, name), getattr(ops[0], name)), name

    def test_fully_held_apply_builds_no_stack(self, monkeypatch):
        op = QHTOperator(self.SMALL)
        alpha = np.array([0.6, 0.8])
        first = op.apply(alpha)

        def refuse(*args, **kwargs):
            raise AssertionError("a held block was rebuilt")

        class Refused:
            def __enter__(self):
                raise AssertionError("a held call took the build lock")

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(qht_pipeline, "build_pr_state", refuse)
        monkeypatch.setattr(op, "_sweep", refuse)
        op._lock = Refused()
        again = op.apply(alpha)
        assert again.op_passes == 0
        assert np.array_equal(again.output, first.output)
        op.matrix()

    def test_row_loss_does_not_depend_on_its_stack(self, rng):
        M = 16384
        op = QHTOperator(QHTConfig(N=3, eps=0.01, M=M))
        rows = [(0, 1), (2,)]
        stack = rng.normal(size=(2, M)) + 1j * rng.normal(size=(2, M))
        lost = np.zeros((2, 2))
        op._sweep(stack.copy(), rows, True, lost=lost)
        assert lost.all()   # each parity part of every row has its own mass
        for i, blocks in enumerate(rows):
            alone = np.zeros((1, 2))
            op._sweep(stack[i:i + 1].copy(), [blocks], True, lost=alone)
            assert np.array_equal(alone[0], lost[i])

    @pytest.mark.parametrize("cfg", [choose_dimensions(8, 0.01), CFG, WIDE],
                             ids=["N8", "two-stacks", "two-stacks-a-worker"])
    def test_parallel_build_equals_serial(self, cfg, monkeypatch):
        ops = []
        for workers in (1, 2):
            _force_workers(monkeypatch, workers)
            op = QHTOperator(cfg)
            op.matrix()
            assert op.build_workers == min(workers, -(-cfg.N // 2))
            ops.append(op)
        for name in self.METRICS:
            assert np.array_equal(getattr(ops[0], name), getattr(ops[1], name)), name

    @pytest.mark.parametrize("worker", [0, 1], ids=["calling-thread", "started-thread"])
    def test_worker_error_reaches_the_caller(self, worker, monkeypatch):
        # worker 0 is the calling thread and worker 1 the one thread it starts.  With row 0
        # held, the full build deals rows 1 + worker, 3 + worker, ... to each; a fault in the
        # sixth row of either share holds none of the build's rows and zeroes their columns
        real = qht_pipeline.build_pr_state
        bad = 2 * (1 + worker + 2 * 5)

        def refuse(n, *args):
            if n == bad:
                raise ConfigError(f"refused n={n}")
            return real(n, *args)

        monkeypatch.setattr(qht_pipeline, "_usable_cpus", lambda: 2)
        op = QHTOperator(self.WIDE)
        op.apply(np.eye(self.WIDE.N)[0])
        held = op.columns[:2].copy()
        monkeypatch.setattr(qht_pipeline, "build_pr_state", refuse)
        with pytest.raises(ConfigError, match=f"refused n={bad}"):
            op.matrix()
        assert op.build_workers == 2 and op.rows_held == 1
        assert np.array_equal(op.columns[:2], held) and not op.columns[2:].any()
        assert op.v_passes == 2 * self.WIDE.m_bits * 2   # only held blocks count
        monkeypatch.setattr(qht_pipeline, "build_pr_state", real)
        assert op.apply(np.eye(self.WIDE.N)[-1]).op_passes == 2 * self.WIDE.m_bits * 78
        clean = QHTOperator(self.WIDE)
        clean.matrix()
        for name in self.METRICS:
            assert np.array_equal(getattr(op, name), getattr(clean, name)), name

    @pytest.mark.parametrize("n", [0, 3, 5, 6])
    def test_one_hot_holds_the_rows_up_to_its_own(self, n):
        # a one-hot at block n builds rows 0..n//2, every block before n and n's partner
        cfg = QHTConfig(N=7, eps=0.05, M=512)
        op = QHTOperator(cfg)
        res = op.apply(np.eye(cfg.N)[n])
        built = min(n - n % 2 + 2, cfg.N)
        assert op.rows_held == n // 2 + 1
        assert res.op_passes == op.v_passes == 2 * cfg.m_bits * built
        assert op.columns[:built].any(axis=1).all() and not op.columns[built:].any()
        assert np.all(op.input_mass[:built] > 0) and not op.input_mass[built:].any()

    def test_threads_building_one_operator_get_the_serial_bits(self, monkeypatch):
        # the holds of one operator are serialised: each thread's build would sweep in the
        # same columns
        monkeypatch.setattr(qht_pipeline, "_usable_cpus", lambda: 2)
        serial = QHTOperator(self.CFG)
        serial.matrix()
        op = QHTOperator(self.CFG)
        barrier = threading.Barrier(2)
        seen, errors = [], []

        def call():
            try:
                barrier.wait()
                seen.append(op.matrix().copy())
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == [] and len(seen) == 2
        for cols in seen:
            assert np.array_equal(cols, serial.columns)
        for name in self.METRICS:
            assert np.array_equal(getattr(op, name), getattr(serial, name)), name

    def test_held_call_does_not_wait_for_a_build(self, monkeypatch):
        # one thread holds the build lock, paused inside `_hold_rows`, while another answers a
        # one-hot at the held block 0 with the serial operator's bits
        monkeypatch.setattr(qht_pipeline, "_usable_cpus", lambda: 1)
        cfg = choose_dimensions(8, 0.01)
        one_hot = np.eye(cfg.N)[0]
        serial = QHTOperator(cfg)
        serial.matrix()
        expected = serial.apply(one_hot)
        op = QHTOperator(cfg)
        op.apply(one_hot)
        real = QHTOperator._hold_rows
        paused, resume = threading.Event(), threading.Event()

        def pausing(self, rows):
            paused.set()
            assert resume.wait(timeout=30)
            real(self, rows)

        monkeypatch.setattr(QHTOperator, "_hold_rows", pausing)
        answers = []
        builder = threading.Thread(target=op.matrix)
        caller = threading.Thread(target=lambda: answers.append(op.apply(one_hot)))
        builder.start()
        try:
            assert paused.wait(timeout=30)
            caller.start()
            caller.join(timeout=10)
            waited = caller.is_alive()
        finally:
            resume.set()
            builder.join(timeout=30)
        caller.join(timeout=30)
        assert not builder.is_alive() and not caller.is_alive()
        assert not waited, "a held call waited for the build lock"
        res = answers[0]
        assert res.op_passes == 0
        for name in ("output", "block_fidelities", "filter_leaks", "aa_residuals"):
            assert np.array_equal(getattr(res, name), getattr(expected, name)), name
        assert res.uncompute_residual == expected.uncompute_residual
        assert op.rows_held == cfg.N // 2
        assert np.array_equal(op.columns, serial.columns)

    def test_concurrent_calls_get_the_serial_bits(self, monkeypatch):
        # six threads, more than the cores, call fresh operators at every block in their own
        # orders under a short switch interval: a call that found rows_held advanced before
        # the columns and metrics of those rows were written would answer with other bits
        _force_workers(monkeypatch, 2)
        cfg = choose_dimensions(8, 0.05)
        serial = QHTOperator(cfg)
        serial.matrix()
        rng = np.random.default_rng(6)
        alphas = list(np.eye(cfg.N)) + [np.full(cfg.N, cfg.N ** -0.5)]
        expected = [serial.apply(alpha) for alpha in alphas]
        orders = [rng.permutation(len(alphas)) for _ in range(6)]
        wrong, errors = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                op = QHTOperator(cfg)
                barrier = threading.Barrier(len(orders))

                def call(order, op=op, barrier=barrier):
                    try:
                        barrier.wait(timeout=30)
                        for i in order:
                            res, ref = op.apply(alphas[i]), expected[i]
                            if (res.output.tobytes() != ref.output.tobytes()
                                    or res.block_fidelities.tobytes()
                                    != ref.block_fidelities.tobytes()
                                    or res.uncompute_residual != ref.uncompute_residual):
                                wrong.append(i)
                    except Exception as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=call, args=(order,)) for order in orders]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and wrong == []

    @pytest.mark.parametrize("sign", [1, -1], ids=["even", "odd"])
    def test_in_place_split_equals_out_of_place(self, sign, rng):
        # bit for bit, signed zeros included, at labels -M/2 and 0 (their own mirrors) too
        M = 64
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        for k in range(16):
            row = rng.normal(size=M) + 1j * rng.normal(size=M)
            row[0], row[M // 2] = zeros[k % 4], zeros[k // 4]
            ref = _parity_part(row, sign, np.empty_like(row))
            combine = np.add if sign > 0 else np.subtract
            assert ref.tobytes() == (combine(row, _reflect(row)) * 0.5).tobytes()
            same = row.copy()
            assert _parity_part(same, sign, same) is same
            assert same.tobytes() == ref.tobytes()

    def test_rows_are_dealt_evenly(self, monkeypatch):
        # the 40 rows of N = 80 at M = 4096 give each of two workers 20, as one stack each
        real = QHTOperator._sweep
        rows = Counter()

        def counted(op, w, stack, adjoint, *args, **kwargs):
            if not adjoint:
                rows[threading.get_ident()] += len(stack)
            return real(op, w, stack, adjoint, *args, **kwargs)

        monkeypatch.setattr(qht_pipeline, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(QHTOperator, "_sweep", counted)
        op = QHTOperator(self.WIDE)
        op.matrix()
        assert op.build_workers == 2 and op.rows_held == 40
        assert sorted(rows.values()) == [20, 20]

    @pytest.mark.parametrize("N, forced, workers", [
        pytest.param(8, True, 2, id="8-2"), pytest.param(16, False, 2, id="16-2"),
        pytest.param(8, False, 1, id="8-1")])
    def test_workers_follow_the_stacks(self, N, forced, workers, monkeypatch):
        # on two CPUs the 3 rows of N = 8 (M = 4096) left after the warm-up are one share,
        # too little work for two, unless forced (then 2 + 1); N = 16 (M = 16384) splits 4 + 3
        cfg = choose_dimensions(N, 0.01)
        if forced:
            _force_workers(monkeypatch, 2)
        else:
            monkeypatch.setattr(qht_pipeline, "_usable_cpus", lambda: 2)
        op = QHTOperator(cfg)
        op.apply(np.eye(cfg.N)[0])
        op.matrix()
        assert op.build_workers == workers and op.rows_held == N // 2

    @pytest.mark.parametrize("cpus, rows, M, workers", [
        (2, 2, 2048, 1), (2, 4, 4096, 1), (2, 3, 4096, 1), (2, 8, 4096, 1),   # shares of 2^11-2^14
        (2, 16, 4096, 2), (2, 4, 16384, 2), (2, 7, 16384, 2), (2, 8, 16384, 2),
        (2, 1, 2**17, 1), (2, 3, 2**14, 1), (1, 40, 4096, 1),
        (4, 8, 16384, 4), (4, 6, 16384, 3), (4, 5, 16384, 2), (4, 16, 4096, 2),
    ])
    def test_workers_sized_by_the_work(self, cpus, rows, M, workers, monkeypatch):
        # a second worker starts only when every share holds _WORKER_SHARE = 2^15 row-labels
        monkeypatch.setattr(qht_pipeline, "_usable_cpus", lambda: cpus)
        assert qht_pipeline._WORKER_SHARE == 2**15
        assert qht_pipeline._build_workers(rows, M) == workers

    def test_one_usable_cpu_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a build thread was started")

        monkeypatch.setattr(qht_pipeline, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        op = QHTOperator(self.CFG)
        op.matrix()
        assert op.build_workers == 1 and op.rows_held == 18


class TestEndToEnd:
    def test_single_index_fidelity(self, basis_cache):
        cfg = choose_dimensions(8, 0.01)
        basis = basis_cache(cfg.M, 7)
        e0 = np.zeros(8)
        e0[0] = 1.0
        res = qht_apply(e0, cfg)
        ref = qht_reference(e0, basis)
        fid = abs(np.vdot(ref / np.linalg.norm(ref), res.output))
        assert fid >= 1 - cfg.eps

    def test_uniform_fidelity_and_residual(self, basis_cache):
        cfg = choose_dimensions(8, 0.01)
        basis = basis_cache(cfg.M, 7)
        alpha = np.ones(8) / np.sqrt(8)
        res = qht_apply(alpha, cfg)
        ref = qht_reference(alpha, basis)
        fid = abs(np.vdot(ref / np.linalg.norm(ref), res.output))
        assert fid >= 1 - cfg.eps
        assert res.uncompute_residual <= cfg.eps
        assert np.all(res.block_fidelities >= 1 - cfg.eps)

    def test_linearity_regression(self, basis_cache):
        # the simulation is linear by construction; guard against an
        # accidental nonlinearity (e.g. normalization inside a block)
        cfg = choose_dimensions(4, 0.05)
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, 0.0])
        mix = (a + b) / np.sqrt(2)
        out_mix = qht_apply(mix, cfg).output
        out_sum = (qht_apply(a, cfg).output + qht_apply(b, cfg).output) / np.sqrt(2)
        assert np.abs(out_mix - out_sum).max() < 1e-10

    def test_isometry_band(self):
        cfg = choose_dimensions(4, 0.05)
        sv = isometry_singular_values(cfg)
        assert np.all(sv >= 1 - cfg.eps) and np.all(sv <= 1 + cfg.eps)

    def test_complex_amplitudes_ride_through(self, basis_cache):
        # relative phases in alpha must survive every stage (the blocks are
        # recombined coherently in the uncomputation)
        cfg = choose_dimensions(4, 0.05)
        basis = basis_cache(cfg.M, 3)
        alpha = np.array([0.5, 0.5j, -0.5, 0.5 * np.exp(1j * 0.7)])
        res = qht_apply(alpha, cfg)
        ref = qht_reference(alpha, basis)
        fid = abs(np.vdot(ref / np.linalg.norm(ref), res.output))
        assert fid >= 1 - cfg.eps

    @pytest.mark.parametrize("z", [0.8, 0.8 * cmath.exp(0.2j * math.pi)], ids=["real", "complex"])
    def test_coherent_state_through_transform_and_evolution(self, z):
        # sum_n e^(-|z|^2/2) z^n / sqrt(n!) psi_n(x) = pi^(-1/4) exp(-|z|^2/2 - x^2/2
        # + sqrt(2) z x - z^2/2), and e^(-iHt) maps it to e^(-it/2) times the state at
        # z e^(-it).  The output signs (-1)^n carry z to -z.  Measured at (8, 0.01, 4096):
        # 1 - |<ref|out>|^2 = 4.65e-5 at both z (3.96e-7 of it the truncation at N = 8),
        # and evolving by t = 0.7-40 moved <ref|out> by at most 1.4e-15.
        cfg = choose_dimensions(8, 0.01)
        spec = GridSpec(cfg.M)

        def state(w):   # the closed form at z = w on the grid, as a unit vector
            x = spec.points()
            return np.sqrt(spec.h) * np.pi ** -0.25 * np.exp(
                -abs(w) ** 2 / 2 - x * x / 2 + math.sqrt(2) * w * x - w * w / 2)

        n = np.arange(cfg.N)
        alpha = np.exp(-abs(z) ** 2 / 2) * z ** n / np.sqrt([math.factorial(k) for k in n])
        out = qht_apply(alpha / np.linalg.norm(alpha), cfg).output
        overlap = np.vdot(state(-z), out)
        assert 1 - abs(overlap) ** 2 <= 1e-4
        for t in (0.7, math.pi / 2, 3.0, 10.0, 40.0):
            evolved = apply_tables(evolution_tables(cfg.M, decompose(t)), out)
            moved = np.vdot(cmath.exp(-0.5j * t) * state(-z * cmath.exp(-1j * t)), evolved)
            assert abs(moved - overlap) <= 1e-14, t

    def test_reference_basics(self, basis_cache):
        basis = basis_cache(256, 5)
        e3 = np.zeros(4)
        e3[3] = 1.0
        # the reference carries the output signs: -|psibar_3> for |3>
        assert np.abs(qht_reference(e3, basis) + e3 @ basis[:4]).max() < 1e-14
        alpha = np.ones(4) / 2.0
        assert abs(np.linalg.norm(qht_reference(alpha, basis)) - 1.0) < 1e-8

    def test_loewdin_reference_isometric(self, basis_cache):
        basis = basis_cache(256, 7)
        rows = loewdin_orthonormalize(basis.astype(complex))
        gram = rows @ rows.conj().T
        assert np.abs(gram - np.eye(8)).max() < 1e-12

    def test_unnormalized_alpha_rejected(self):
        cfg = choose_dimensions(2, 0.1)
        with pytest.raises(ValueError):
            qht_apply(np.array([1.0, 1.0]), cfg)

    MALFORMED = [
        ("nan", [np.nan, 0.0, 0.0, 0.0], ValueError, "alpha must be finite"),
        ("inf", [np.inf, 0.0, 0.0, 0.0], ValueError, "alpha must be finite"),
        ("2-D", [[1.0, 0.0], [0.0, 0.0]], ValueError,
         "alpha must be a 1-D amplitude vector, got shape \\(2, 2\\)"),
        ("too-long", [1.0, 0.0, 0.0, 0.0, 0.0], ConfigError, "alpha has 5 entries but config.N=4"),
    ]

    @pytest.mark.parametrize("entry, alpha, error, message", [
        pytest.param(entry, alpha, error, message, id=prefix + name)
        for name, alpha, error, message in MALFORMED
        for prefix, entry in (("", "qht_apply"), ("apply-", "apply"))])
    def test_malformed_alpha_rejected_before_any_build(self, monkeypatch, entry, alpha, error,
                                                        message):
        # both entry points refuse before building a row: unchecked, 10 amplitudes on an N = 8
        # operator build every row and then fail with an IndexError, and a NaN alpha builds
        # the rows it touches and returns a NaN output
        def hold(self, blocks):
            raise AssertionError("built a column for a malformed alpha")

        cfg = QHTConfig(N=4, eps=0.1, M=64)
        op = QHTOperator(cfg)
        monkeypatch.setattr(QHTOperator, "_hold", hold)
        with pytest.raises(error, match=message):
            if entry == "apply":
                op.apply(np.array(alpha))
            else:
                qht_apply(np.array(alpha), cfg)
        assert op.rows_held == 0

    @pytest.mark.parametrize("alpha, message", [
        ([1.0 + 2e-9, 0.0], "alpha must be normalized"),
        ([1e200, 1e200], "alpha must be normalized"),   # the squared sum overflows
    ], ids=["long-by-2e-9", "overflowing-squares"])
    def test_norm_boundary_refused(self, alpha, message):
        with pytest.raises(ValueError, match=message):
            qht_apply(np.array(alpha), QHTConfig(N=4, eps=0.1, M=64))

    @pytest.mark.parametrize("alpha", [
        np.array([1.0 + 5e-10, 0.0]), np.array([0.0, 1.0 - 5e-10]), [0.6, 0.8j],
    ], ids=["long-by-5e-10", "short-by-5e-10", "python-list"])
    def test_norm_boundary_passes(self, alpha):
        cfg = QHTConfig(N=4, eps=0.1, M=64)
        res = qht_apply(alpha, cfg)
        assert np.array_equal(res.output, qht_operator(cfg).apply(np.array(alpha)).output)

    def test_oracle_bit_sweep(self, basis_cache):
        # r-bit rounding of the amplitude/phase oracles perturbs the prepared
        # state by O(2^-r); r ~ log2(1/eps) bits already keep the end-to-end
        # fidelity within budget, confirming the logarithmic-precision claim
        base = choose_dimensions(4, 0.01)
        basis = basis_cache(base.M, 3)
        alpha = np.ones(4) / 2.0
        ref = qht_reference(alpha, basis)
        ref /= np.linalg.norm(ref)
        degraded = {}
        for r in (3, 7, 10, 24):
            cfg = replace(base, oracle_bits=r)
            out = qht_apply(alpha, cfg).output
            degraded[r] = 1.0 - abs(np.vdot(ref, out))
        assert degraded[24] < degraded[3]
        assert degraded[7] <= base.eps          # log2(1/0.01) ~ 6.6 bits suffice
        assert degraded[24] <= 2 * base.eps**2 + 1e-4

        # quantized prepared state deviates by O(2^-r) from the exact one
        exact = build_pr_state(2, base.M)
        for r in (4, 8, 12):
            rough = build_pr_state(2, base.M, oracle_bits=r)
            assert np.abs(rough - exact).max() <= 4.0 * 2.0**-r

    def test_aa_rounds_override(self):
        base = choose_dimensions(2, 0.05)
        e0 = np.zeros(2)
        e0[0] = 1.0
        full = qht_apply(e0, base).block_fidelities[0]
        # degree 1 means a bare preparation: the block fidelity collapses to
        # the unamplified filtered overlap (~0.88 here)
        bare = qht_apply(e0, replace(base, aa_rounds=1)).block_fidelities[0]
        assert full >= 1 - base.eps
        assert bare < 0.95
        for L in (3, 5, 9):
            amped = qht_apply(e0, replace(base, aa_rounds=L)).block_fidelities[0]
            assert amped >= 1 - 2 * base.eps

    @pytest.mark.slow
    def test_high_energy_leakage(self):
        # calibrated config at N=8, eps=0.1: prepared-state leakage past
        # N_high stays within eps
        cfg = choose_dimensions(8, 0.1)
        eig = dense_diagonalize(build(GridSpec(cfg.M)))
        n_high = high_energy_cutoff(cfg.N, cfg.eps)
        for n in range(8):
            assert pr_high_energy_leakage(n, n_high, eig) <= cfg.eps
