import numpy as np
import pytest

from qhermite.discrete_qho import (
    TAIL_FAMILIES,
    build,
    commutator_tail_norm,
    dense_momentum_sq,
    dense_tail_reference,
)
from qhermite.spectral_core import GridSpec


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

    def test_coefficient_constants_scale_exactly(self):
        # [c1 A, c2 B]_t = c1^t c2 [A, B]_t, for any |c1|, |c2| <= 1
        qho = build(GridSpec(16))
        full = commutator_tail_norm(qho, 2, 6, dps=60)
        scaled = commutator_tail_norm(qho, 2, 6, dps=60, c1=0.5, c2=0.8)
        for t, norm in full.term_norms.items():
            assert abs(scaled.term_norms[t] - 0.5**t * 0.8 * norm) < 1e-12 * max(norm, 1.0)
        with pytest.raises(ValueError):
            commutator_tail_norm(qho, 2, 6, c1=1.5)

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

    def test_per_term_norms_reported(self):
        rep = commutator_tail_norm(build(GridSpec(64)), N=2, t_max=10)
        assert set(rep.term_norms) == set(range(3, 11))
        assert all(v >= 0 for v in rep.term_norms.values())
