import numpy as np

from qhermite import corpus
from qhermite.hermite_sampling import SamplerConfig
from qhermite.learning_testers import CoefficientPattern
from qhermite.learning_testers import estimate_gamma, gaussian_goldreich_levin
from qhermite.learning_testers import restriction_coefficient, weight_estimate
from qhermite.learning_testers import test_hermite_polynomial as run_hermite_tester
from qhermite.learning_testers import test_low_degree as run_low_degree_tester
from qhermite.learning_testers import test_product_sign as run_product_sign_tester

SCFG = SamplerConfig(M=512, D=9)


class TestPattern:
    def test_fixed_and_wildcard_positions(self):
        p = CoefficientPattern((1, None, 0, None))
        assert p.fixed_positions == (0, 2)
        assert p.wildcard_positions == (1, 3)
        assert p.fixed_len == 2

    def test_prefix_form(self):
        assert CoefficientPattern((1, 2, None, None)).is_prefix_form()
        assert not CoefficientPattern((1, None, 2)).is_prefix_form()

    def test_extend(self):
        p = CoefficientPattern((3, None, None)).extend(5)
        assert p.entries == (3, 5, None)

    def test_matches(self):
        p = CoefficientPattern((1, None))
        assert p.matches((1, 7)) and not p.matches((2, 0))


class TestGammaEstimate:
    def test_matches_declared_on_planted(self, rng):
        f = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2)
        est = estimate_gamma(f, rng, n_points=4000)
        # gamma = 0.64*1 + 0.36*2 = 1.36
        assert abs(est - f.gamma) < 0.25 * f.gamma


class TestWeightEstimate:
    def test_single_coefficient_fully_fixed(self, rng):
        f = corpus.mixture([((2, 1), 1.0)], 2)
        est = weight_estimate(f, CoefficientPattern((2, 1)), 0.05, 0.05, rng)
        assert abs(est.value - 1.0) <= max(0.05, est.half_width)

    def test_disjoint_pattern_vanishes(self, rng):
        f = corpus.mixture([((2, 0), 1.0)], 2)
        est = weight_estimate(f, CoefficientPattern((5, None)), 0.05, 0.05, rng)
        assert abs(est.value) <= max(0.05, est.half_width)

    def test_planted_two_term_weights(self, rng):
        # f = 0.8 h_(1,0) + 0.6 h_(0,2): prefix (1,*) captures 0.64,
        # prefix (0,*) captures 0.36, full pattern (0,2) captures 0.36,
        # and the all-wildcard pattern covers both terms (weight 1.0)
        f = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2)
        for pattern, target in [((1, None), 0.64), ((0, None), 0.36),
                                ((0, 2), 0.36), ((None, None), 1.0)]:
            est = weight_estimate(f, CoefficientPattern(pattern), 0.04, 0.05, rng)
            assert abs(est.value - target) <= 0.06

    def test_sample_count_follows_contract(self, rng):
        f = corpus.mixture([((1,), 1.0)], 1)
        est = weight_estimate(f, CoefficientPattern((1,)), 0.1, 0.1, rng, gamma=2.0)
        assert est.samples >= int(np.ceil(4.0 / 0.1**2 * np.log(2 / 0.1)))


class TestRestriction:
    def test_independent_block_is_constant(self, rng):
        f = corpus.mixture([((2, 0), 1.0)], 2)  # depends only on coordinate 0
        pat = CoefficientPattern((2, None))
        vals = [restriction_coefficient(f, pat, np.array([z])) for z in (-1.0, 0.0, 2.0)]
        assert np.ptp(vals) < 1e-8
        assert abs(vals[0] - 1.0) < 1e-6

    def test_factored_coefficient_is_partner_polynomial(self):
        # f = h_(S u T) has F_S f(z) = h_T(z) pointwise
        f = corpus.mixture([((2, 3), 1.0)], 2)
        pat = CoefficientPattern((2, None))
        from qhermite.spectral_core import probabilist_rows

        for z in (-1.5, 0.3, 0.9):
            expected = probabilist_rows(3, np.array([z]))[3][0]
            assert abs(restriction_coefficient(f, pat, np.array([z])) - expected) < 1e-6

    def test_two_axis_fixed_block(self):
        # f = h_(1,2,0): the block J = {0, 1} carries the whole spectrum at every z
        f = corpus.mixture([((1, 2, 0), 1.0)], 3)
        pat = CoefficientPattern((1, 2, None))
        for z in (-1.2, 0.0, 0.7):
            assert abs(restriction_coefficient(f, pat, np.array([z])) - 1.0) < 1e-6

    def test_consistency_with_weight_estimate(self, rng):
        f = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2)
        pat = CoefficientPattern((1, None))
        zs = rng.standard_normal(3000)
        mc = np.mean([restriction_coefficient(f, pat, np.array([z])) ** 2 for z in zs])
        est = weight_estimate(f, pat, 0.04, 0.05, rng)
        assert abs(mc - est.value) <= est.half_width + 3 * 0.64 / np.sqrt(3000) + 0.04


class TestGGL:
    def test_single_spike(self, rng):
        f = corpus.mixture([((2, 1), 1.0)], 2)
        res = gaussian_goldreich_levin(f, 0.5, 0.1, rng)
        assert res.found == ((2, 1),)
        assert not res.failed

    def test_planted_two_term_completeness(self, rng):
        # 0.9 >= tau must be found; 0.436 >= tau/2 may legitimately appear
        f = corpus.mixture([((1, 0), 0.9), ((0, 3), 0.436)], 2)
        res = gaussian_goldreich_levin(f, 0.6, 0.1, rng)
        assert (1, 0) in res.found
        for v in res.found:
            assert v in (((1, 0)), ((0, 3)))

    def test_flat_instance_returns_empty(self, rng):
        # all coefficients at tau/4: nothing should clear the retention bar
        c = 0.125
        terms = [((a, b), c) for a in range(3) for b in range(3)]
        f = corpus.mixture(terms, 2)
        res = gaussian_goldreich_levin(f, 0.5, 0.1, rng)
        assert res.found == ()

    def test_list_size_cap(self, rng):
        f = corpus.mixture([((1, 0), 0.7), ((0, 1), 0.7)], 2)
        for tau in (0.3, 0.5):
            res = gaussian_goldreich_levin(f, tau, 0.1, rng)
            assert len(res.found) <= int(4.0 / tau**2)

    def test_node_budget_flags_failure(self, rng):
        f = corpus.mixture([((1, 0), 0.9), ((0, 3), 0.436)], 2)
        res = gaussian_goldreich_levin(f, 0.5, 0.1, rng, node_budget=2)
        assert res.failed

    def test_sampler_mode_agrees(self, rng):
        f = corpus.mixture([((1, 0), 0.9), ((0, 2), 0.436)], 2, bounded=True)
        res = gaussian_goldreich_levin(f, 0.55, 0.1, rng, mode="sampler",
                                       sampler_config=SCFG)
        # bounded rescale shrinks every coefficient by the same factor; with
        # the normalized sampler distribution the heavy index still dominates
        assert (1, 0) in res.found or res.found == ()
        assert not res.failed

    def test_soundness_on_found_indices(self, rng):
        f = corpus.mixture([((1, 0), 0.9), ((0, 3), 0.436)], 2)
        res = gaussian_goldreich_levin(f, 0.6, 0.05, rng)
        true_coeffs = {(1, 0): 0.9, (0, 3): 0.436}
        for v in res.found:
            assert abs(true_coeffs.get(v, 0.0)) >= 0.3  # tau/2


class TestProductSignTester:
    def test_exact_instance_accepts(self, rng):
        f = corpus.product_sign((0, 1), 3)
        verdict = run_product_sign_tester(f, 2, 0.1, 0.3, 0.1, rng, SCFG)
        assert verdict.accept

    def test_wrong_support_size_rejects(self, rng):
        # a (k+1)-sign function is at distance 1 from every k-sign function
        f = corpus.product_sign((0, 1, 2), 3)
        verdict = run_product_sign_tester(f, 2, 0.1, 0.3, 0.1, rng, SCFG)
        assert not verdict.accept

    def test_noisy_instance_accepts(self, rng):
        f = corpus.noisy_product_sign((0, 1), 2, eta=0.05)
        verdict = run_product_sign_tester(f, 2, 0.1, 0.3, 0.1, rng, SCFG)
        assert verdict.accept

    def test_monotone_in_promise_gap(self):
        # enlarging eps2 - eps1 never flips a correct verdict
        f = corpus.product_sign((0, 1), 2)
        for eps2 in (0.2, 0.3, 0.5):
            rng = np.random.default_rng(11)
            assert run_product_sign_tester(f, 2, 0.1, eps2, 0.1, rng, SCFG).accept


class TestLowDegreeTester:
    def test_planted_low_degree_accepts(self, rng):
        f = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2, bounded=True)
        verdict = run_low_degree_tester(f, 3, 0.1, 0.3, 0.1, rng, SCFG)
        assert verdict.accept

    def test_high_degree_spike_rejects(self, rng):
        f = corpus.hermite_monomial((3, 3), 2)
        verdict = run_low_degree_tester(f, 5, 0.1, 0.3, 0.1, rng, SCFG)
        assert not verdict.accept

    def test_sample_count_as_configured(self, rng):
        f = corpus.mixture([((1, 0), 1.0)], 2, bounded=True)
        c = 12.0
        verdict = run_low_degree_tester(f, 3, 0.1, 0.3, 0.1, rng, SCFG, c_samples=c)
        expected = int(np.ceil(c * np.log(1 / 0.1) / 0.2**2))
        assert verdict.samples_used == expected


class TestHermitePolynomialTester:
    def test_monomial_accepts(self, rng):
        f = corpus.hermite_monomial((2, 0), 2)
        verdict = run_hermite_tester(f, 1, 0.1, 0.3, 0.1, rng, SCFG)
        assert verdict.accept

    def test_balanced_mixture_rejects(self, rng):
        # max normalized coefficient 1/sqrt(2) ~ 0.707 < 1 - (e1+e2)/2 = 0.8
        s = 1 / np.sqrt(2)
        f = corpus.mixture([((2, 0), s), ((0, 4), s)], 2, bounded=True)
        verdict = run_hermite_tester(f, 1, 0.1, 0.3, 0.1, rng, SCFG)
        assert not verdict.accept

    def test_attenuated_instance_accepts(self, rng):
        a = 0.95
        f = corpus.mixture([((2, 0), a), ((0, 5), np.sqrt(1 - a * a))], 2, bounded=True)
        verdict = run_hermite_tester(f, 1, 0.1, 0.3, 0.1, rng, SCFG)
        assert verdict.accept

    def test_monotone_in_promise_gap(self, rng):
        # enlarging eps2 - eps1 never flips a correct verdict on the corpus
        f = corpus.hermite_monomial((2, 0), 2)
        for eps2 in (0.25, 0.3, 0.4, 0.6):
            rng2 = np.random.default_rng(5)
            assert run_hermite_tester(f, 1, 0.1, eps2, 0.1, rng2, SCFG).accept
