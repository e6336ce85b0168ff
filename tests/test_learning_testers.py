import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import restriction_coefficient

from qhermite import corpus, learning_testers
from qhermite.hermite_sampling import _SLAB_POINTS, OracleFunction, SamplerConfig
from qhermite.learning_testers import COUNT_CAP, LOW_DEGREE_C, CoefficientPattern, _count
from qhermite.learning_testers import coefficient_estimate
from qhermite.learning_testers import gaussian_goldreich_levin
from qhermite.learning_testers import weight_estimate
from qhermite.learning_testers import test_hermite_polynomial as run_hermite_tester
from qhermite.learning_testers import test_low_degree as run_low_degree_tester
from qhermite.learning_testers import test_product_sign as run_product_sign_tester
from qhermite.spectral_core import probabilist_product, probabilist_rows

SCFG = SamplerConfig(M=512, D=9)


class TestPattern:
    def test_fixed_and_wildcard_positions(self):
        p = CoefficientPattern((1, None, 0, None))
        assert p.fixed_positions == (0, 2)
        assert p.wildcard_positions == (1, 3)
        assert p.fixed_len == 2

    def test_extend(self):
        p = CoefficientPattern((3, None, None)).extend(5)
        assert p.entries == (3, 5, None)

    @pytest.mark.parametrize("entries", [(-1, None), (1.5, None), (True, None), (None, 2.0),
                                         ("1", None)])
    def test_degree_must_be_a_non_negative_integer(self, entries):
        # int() would read 1.5 and True as 1, and a product reads degree -1 as 1
        with pytest.raises(ValueError, match="non-negative integer"):
            CoefficientPattern(entries)

    def test_numpy_degrees_are_held_as_ints(self):
        p = CoefficientPattern((np.int64(2), None, np.uint8(0)))
        assert p.entries == (2, None, 0)
        assert [type(e) for e in p.entries] == [int, type(None), int]

    def test_extend_refuses_a_bad_degree(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            CoefficientPattern((3, None)).extend(-2)

    def test_weight_estimate_refuses_a_negative_degree_before_any_draw(self, rng):
        f = corpus.mixture([((1, 0), 1.0)], 2)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="non-negative integer"):
            weight_estimate(f, CoefficientPattern((-1, None)), 0.05, 0.05, rng)
        assert rng.bit_generator.state == state


class TestCoefficientEstimate:
    @pytest.mark.parametrize("v", [(-1,), (1.5,), (True,), (np.float64(1.0),)])
    def test_degree_must_be_a_non_negative_integer(self, rng, v):
        # a product reads degree -1 as 1, so (-1,) would estimate fhat(1)
        f = corpus.hermite_monomial((1,), 1, bounded=False)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="non-negative integer"):
            coefficient_estimate(f, v, 0.05, 0.05, rng)
        assert rng.bit_generator.state == state

    def test_numpy_degrees_accepted(self):
        f = corpus.hermite_monomial((1,), 1, bounded=False)
        got = coefficient_estimate(f, (np.int64(1),), 0.05, 0.05, np.random.default_rng(3))
        assert got == coefficient_estimate(f, (1,), 0.05, 0.05, np.random.default_rng(3))


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
        est = weight_estimate(replace(f, gamma=2.0), CoefficientPattern((1,)), 0.1, 0.1, rng)
        assert est.samples >= int(np.ceil(4.0 / 0.1**2 * np.log(2 / 0.1)))

    def test_promise_holds_for_a_bounded_oracle(self):
        # |f| <= 1: within +-eps_est on at least 19 of 20 seeds; fhat_(1,1) of
        # sgn(x0) sgn(x1) is (E|X|)^2 = 2/pi.  The unbounded h_(2,1) at the same
        # eps_est and delta misses on 16 of these 20 seeds, hence half_width.
        f = corpus.product_sign((0, 1), 2)
        misses = sum(abs(weight_estimate(f, CoefficientPattern((1, 1)), 0.05, 0.05,
                                         np.random.default_rng(seed)).value - (2 / np.pi) ** 2)
                     > 0.05 for seed in range(20))
        assert misses <= 1


def _one_shot_weight(f, pattern, m, rng):
    """weight_estimate's terms drawn and evaluated in one pass over all m points (a reference)."""
    J, rest = list(pattern.fixed_positions), list(pattern.wildcard_positions)
    z = rng.standard_normal((m, len(rest)))
    y1 = rng.standard_normal((m, len(J)))
    y2 = rng.standard_normal((m, len(J)))
    pts1 = np.empty((m, f.arity))
    pts1[:, rest] = z
    pts2 = pts1.copy()
    pts1[:, J] = y1
    pts2[:, J] = y2
    degrees = [pattern.entries[j] for j in J]
    return (f.evaluate(pts1) * f.evaluate(pts2)
            * probabilist_rows_product(degrees, y1) * probabilist_rows_product(degrees, y2))


def probabilist_rows_product(v, x, start=1.0):
    """start * h_v(x) from whole `probabilist_rows` tables, axis by axis (a reference)."""
    for i, d in enumerate(v):
        start = start * probabilist_rows(d, x[..., i])[d]
    return start


class TestSlabbedEstimators:
    """Terms evaluated _SLAB_POINTS at a time give the one-shot estimate bit for bit."""

    F = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2)

    def test_coefficient_estimate(self):
        # m = ceil(8 * 2 / 0.01^2 * ln 40) = 590 221 terms, 10 slabs (the last partial)
        m = 590_221
        assert m // _SLAB_POINTS == 9
        pts = np.random.default_rng(5).standard_normal((m, 2))
        one_shot = float(probabilist_rows_product((0, 2), pts, self.F.evaluate(pts)).mean())
        got = coefficient_estimate(self.F, (0, 2), 0.01, 0.05, np.random.default_rng(5))
        assert got == one_shot

    @pytest.mark.parametrize("pattern", [(0, None), (None, 2), (1, 0)])
    def test_weight_estimate(self, pattern):
        # gamma = 2: m = ceil(4 / 0.01^2 * ln 40) = 147 556 terms, 3 slabs
        pattern = CoefficientPattern(pattern)
        f = replace(self.F, gamma=2.0)
        est = weight_estimate(f, pattern, 0.01, 0.05, np.random.default_rng(6))
        assert est.samples == 147_556 and est.samples > 2 * _SLAB_POINTS
        prods = _one_shot_weight(self.F, pattern, est.samples, np.random.default_rng(6))
        assert est.value == float(prods.mean())
        var, width, log_term = float(prods.var(ddof=1)), float(prods.max() - prods.min()), np.log(60)
        half = np.sqrt(2.0 * var * log_term / est.samples) + 3.0 * width * log_term / est.samples
        assert est.half_width == half

    @pytest.mark.parametrize("v", [(0,), (1,), (5,), (0, 3), (7, 2, 0)])
    def test_product_recurrence_equals_the_tables(self, v, rng):
        x = rng.standard_normal((1000, len(v)))
        start = rng.standard_normal(1000)
        assert np.array_equal(probabilist_product(v, x, start), probabilist_rows_product(v, x, start))


@pytest.fixture
def evaluated(monkeypatch):
    """A list that grows by the point count of every `OracleFunction.evaluate` call."""
    points, evaluate = [], OracleFunction.evaluate

    def counting(self, x):
        points.append(math.prod(np.shape(x)[:-1]))
        return evaluate(self, x)

    monkeypatch.setattr(OracleFunction, "evaluate", counting)
    return points


def _record_coefficient_draws(monkeypatch, evaluated):
    """Wrap coefficient_estimate: the list of the points each call evaluates."""
    calls, estimate = [], learning_testers.coefficient_estimate

    def wrapped(*args, **kwargs):
        before = sum(evaluated)
        out = estimate(*args, **kwargs)
        calls.append(sum(evaluated) - before)
        return out

    monkeypatch.setattr(learning_testers, "coefficient_estimate", wrapped)
    return calls


class TestQueryCounts:
    """Each reported count equals the oracle points the run evaluates, final estimates included."""

    @pytest.mark.parametrize("label, terms, seed, reported", [
        ("spike", [((1, 0), 1.0)], 0, 17_969),
        ("two_term", [((1, 0), 0.9), ((0, 3), 0.436)], 3, 155_374),
    ])
    def test_classical_ggl(self, monkeypatch, evaluated, label, terms, seed, reported):
        # the default `ggl` run's instances; their final estimates drew 1 888 and 22 059
        # points that the count left out (16 081 and 133 315 were reported)
        final = _record_coefficient_draws(monkeypatch, evaluated)
        res = gaussian_goldreich_levin(corpus.mixture(terms, 2), 0.5, 0.1,
                                       np.random.default_rng(seed))
        assert final and all(final)
        assert res.oracle_queries == sum(evaluated) == reported

    def test_hermite_tester(self, monkeypatch, evaluated):
        # the default `test` run's h2_yes instance: the sampler contracts the product
        # oracle's factors, so evaluate sees only the coefficient and norm draws
        final = _record_coefficient_draws(monkeypatch, evaluated)
        f = corpus.hermite_monomial((2, 0), 2)
        repeats = max(4, math.ceil(4 * math.log(2 / 0.1)))
        verdict = run_hermite_tester(f, 1, 0.1, 0.3, 0.1, np.random.default_rng(0), SCFG)
        assert verdict.accept and len(final) == 1
        assert final == [112_180]
        assert verdict.samples_used == repeats + sum(evaluated) == 118_095

    def test_product_sign_tester(self, monkeypatch, evaluated):
        # the default `test` run's chi01_yes instance: the weight estimate evaluates f at
        # two points per sample (1 476 samples), which the count once took as one each (1 488)
        draws, spectrum_draws = [], learning_testers._spectrum_draws

        def counting(f, scfg, rng, k):
            draws.append(k)
            return spectrum_draws(f, scfg, rng, k)

        monkeypatch.setattr(learning_testers, "_spectrum_draws", counting)
        f = corpus.product_sign((0, 1), 2)
        verdict = run_product_sign_tester(f, 2, 0.1, 0.3, 0.1, np.random.default_rng(0), SCFG)
        assert verdict.accept and draws == [12] and sum(evaluated) == 2_952
        assert verdict.samples_used == sum(draws) + sum(evaluated) == 2_964


class TestHermiteTesterSlabs:
    def test_norm_average_is_drawn_in_slabs(self, monkeypatch, evaluated):
        # m = ceil(64 / 0.2^2 ln 40) = 5 903 norm draws, each slab at most 1 000 points,
        # with the verdict and the estimate of the one-slab run, bit for bit
        f = corpus.hermite_monomial((2, 0), 2)
        want = run_hermite_tester(f, 1, 0.1, 0.3, 0.1, np.random.default_rng(3), SCFG)
        assert max(evaluated) > 1000
        evaluated.clear()
        monkeypatch.setattr(learning_testers, "_SLAB_POINTS", 1000)
        got = run_hermite_tester(f, 1, 0.1, 0.3, 0.1, np.random.default_rng(3), SCFG)
        assert 0 < max(evaluated) <= 1000
        assert got == want


class TestUndeclaredGamma:
    # an unbounded oracle without a declared gamma gives the weight estimate no sample count
    F = replace(corpus.hermite_monomial((2,), 1, bounded=False), gamma=None)

    @pytest.mark.parametrize("call", [
        lambda f, rng: weight_estimate(f, CoefficientPattern((2,)), 0.1, 0.1, rng),
        lambda f, rng: gaussian_goldreich_levin(f, 0.5, 0.1, rng),
        lambda f, rng: gaussian_goldreich_levin(f, 0.5, 0.1, rng, mode="sampler"),
        lambda f, rng: run_product_sign_tester(f, 1, 0.1, 0.3, 0.1, rng, SCFG),
    ], ids=["weight_estimate", "ggl_classical", "ggl_sampler", "product_sign_tester"])
    def test_refused_before_any_draw(self, rng, call):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"oracle h\(2,\)_raw is unbounded and declares no gamma"):
            call(self.F, rng)
        assert rng.bit_generator.state == state


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

    def test_all_wildcard_is_the_function(self):
        # no fixed coordinate: F_S f(z) = f(z)
        from qhermite.spectral_core import probabilist_rows

        f = corpus.mixture([((1, 2), 0.8), ((0, 1), 0.6)], 2)
        pat = CoefficientPattern((None, None))
        for z in ((0.3, -1.1), (2.0, 0.5)):
            h0, h1 = probabilist_rows(2, np.array([z[0]]))[:, 0], probabilist_rows(2, np.array([z[1]]))[:, 0]
            expected = 0.8 * h0[1] * h1[2] + 0.6 * h0[0] * h1[1]
            assert abs(restriction_coefficient(f, pat, np.array(z)) - expected) < 1e-12

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
        assert res.failed and res.found == () and res.nodes_examined == 3

    def test_constant_capped_at_its_degree_cutoff(self, rng):
        # a degree cutoff of 0 caps like any other: one node per axis
        res = gaussian_goldreich_levin(corpus.constant(2, 1.0), 0.5, 0.1, rng)
        assert res.found == ((0, 0),) and not res.failed
        assert res.nodes_examined == 2

    def test_sampler_mode_agrees(self, rng):
        f = corpus.mixture([((1, 0), 0.9), ((0, 2), 0.436)], 2, bounded=True)
        res = gaussian_goldreich_levin(f, 0.55, 0.1, rng, mode="sampler")
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
        verdict = run_low_degree_tester(f, 3, 0.1, 0.3, 0.1, rng, SCFG)
        expected = int(np.ceil(LOW_DEGREE_C * np.log(1 / 0.1) / 0.2**2))
        assert verdict.samples_used == expected

    @pytest.mark.parametrize("D", [0, 2])
    def test_cutoff_below_degree_rejected(self, rng, D):
        # a per-axis cutoff below d would count the degree-<=3 mass as high
        f = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2, bounded=True)
        with pytest.raises(ValueError, match="below the tested degree"):
            run_low_degree_tester(f, 3, 0.1, 0.3, 0.1, rng, SamplerConfig(M=64, D=D))

    def test_cutoff_at_degree_accepts(self, rng):
        f = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2, bounded=True)
        assert run_low_degree_tester(f, 3, 0.1, 0.3, 0.1, rng, SamplerConfig(M=256, D=3)).accept


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


class TestConfidenceParameter:
    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1])
    def test_delta_outside_unit_interval_rejected(self, rng, delta):
        # ln(1/delta) sizes every sample count: delta >= 1 gave negative counts
        # and delta = 0 a ZeroDivisionError
        f = corpus.product_sign((0, 1), 2)
        calls = [
            lambda: weight_estimate(f, CoefficientPattern((1, None)), 0.1, delta, rng),
            lambda: coefficient_estimate(f, (1, 1), 0.1, delta, rng),
            lambda: gaussian_goldreich_levin(f, 0.5, delta, rng),
            lambda: run_product_sign_tester(f, 2, 0.1, 0.3, delta, rng, SCFG),
            lambda: run_low_degree_tester(f, 3, 0.1, 0.3, delta, rng, SCFG),
            lambda: run_hermite_tester(f, 1, 0.1, 0.3, delta, rng, SCFG),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="delta"):
                call()


SIGN = corpus.product_sign((0, 1), 2)
MIX = corpus.mixture([((1, 0), 1.0)], 2)


class TestCountsOverflow:
    # a tau or eps gap whose square underflows, or a delta whose ln(2/delta) overflows, used to
    # raise ZeroDivisionError or OverflowError (int(inf)), some of them after the first draws
    @pytest.mark.parametrize("call, name", [
        (lambda rng: weight_estimate(SIGN, CoefficientPattern((1, None)), 1e-200, 0.1, rng),
         "eps_est=1e-200"),
        (lambda rng: coefficient_estimate(SIGN, (1, 1), 0.1, 1e-320, rng), "delta=1e-320"),
        (lambda rng: gaussian_goldreich_levin(MIX, 1e-300, 0.1, rng), "tau=1e-300"),
        (lambda rng: gaussian_goldreich_levin(MIX, 1e-160, 0.1, rng), "tau=1e-160"),
        (lambda rng: gaussian_goldreich_levin(SIGN, 1e-160, 0.1, rng, mode="sampler"),
         "tau=1e-160"),
        (lambda rng: gaussian_goldreich_levin(MIX, 0.5, 1e-320, rng), "delta=1e-320"),
        (lambda rng: run_product_sign_tester(SIGN, 2, 0.1, 0.3, 1e-320, rng, SCFG),
         "delta=1e-320"),
        (lambda rng: run_product_sign_tester(SIGN, 2, 1e-200, 2e-200, 0.1, rng, SCFG),
         "eps1=1e-200"),
        (lambda rng: run_low_degree_tester(SIGN, 3, 1e-200, 2e-200, 0.1, rng, SCFG),
         "eps1=1e-200"),
        (lambda rng: run_hermite_tester(SIGN, 1, 0.1, 0.3, 1e-320, rng, SCFG), "delta=1e-320"),
        (lambda rng: run_hermite_tester(SIGN, 1, 1e-200, 2e-200, 0.1, rng, SCFG),
         "eps1=1e-200"),
    ], ids=["weight_estimate", "coefficient_estimate", "ggl_tau_zero_square", "ggl_tau",
            "ggl_sampler_tau", "ggl_delta", "product_sign_delta", "product_sign_eps",
            "low_degree_eps", "hermite_delta", "hermite_eps"])
    def test_refused_before_any_draw(self, rng, call, name):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"{name}.* sets a count that is not finite"):
            call(rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("call, name", [
        (lambda rng: weight_estimate(SIGN, CoefficientPattern((1, None)), 1e-4, 0.1, rng),
         "eps_est=0.0001"),
        (lambda rng: gaussian_goldreich_levin(MIX, 1e-4, 0.1, rng), "tau=0.0001"),
        (lambda rng: run_low_degree_tester(SIGN, 3, 1e-4, 2e-4, 0.1, rng, SCFG), "eps1=0.0001"),
    ], ids=["weight_estimate", "ggl", "low_degree"])
    def test_count_above_the_cap_is_refused_before_any_draw(self, rng, call, name):
        # finite counts of 3e8 to 3e9, whose draws would take gigabytes per array
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"{name}.* above the cap of {COUNT_CAP}"):
            call(rng)
        assert rng.bit_generator.state == state

    def test_cap_is_the_largest_count(self):
        # stub rules: no count here is drawn
        assert _count(lambda: COUNT_CAP, "x=1") == COUNT_CAP
        for rule, rounding in ((lambda: COUNT_CAP + 0.5, math.ceil),
                               (lambda: COUNT_CAP + 1.0, math.floor)):
            with pytest.raises(ValueError, match=f"x=1 sets a count of 1.68e\\+07, above the cap"):
                _count(rule, "x=1", rounding)
