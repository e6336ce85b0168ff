import math

import numpy as np
import pytest

from qhermite import corpus
from qhermite.hermite_sampling import (
    OracleFunction,
    PostselectionFailure,
    SamplerConfig,
    SpectrumTable,
    coefficient_oracle,
    distortion,
    general_hermite_sample,
    sample_distribution,
    spectrum_table,
    suggest_quadrature_M,
    tv_distance,
)
from qhermite.learning_testers import CoefficientPattern, restriction_coefficient


class TestCoefficientOracle:
    def test_constant_normalization(self):
        val, err = coefficient_oracle(corpus.constant(1, 1.0), (0,), 256)
        assert abs(val - 1.0) < 1e-10

    def test_constant_2d(self):
        val, _ = coefficient_oracle(corpus.constant(2, 1.0), (0, 0), 128)
        assert abs(val - 1.0) < 1e-10

    def test_sgn_even_coefficients_vanish(self):
        sgn = corpus.product_sign((0,), 1)
        for k in (2, 4, 6, 8):
            val, _ = coefficient_oracle(sgn, (k,), 512)
            assert abs(val) < 1e-12

    def test_sgn_first_coefficient(self):
        # E[|x|] = sqrt(2/pi) under the standard normal
        val, _ = coefficient_oracle(corpus.product_sign((0,), 1), (1,), 512)
        assert abs(val - math.sqrt(2 / math.pi)) < 1e-3

    def test_product_structure_agrees_with_grid(self):
        chi = corpus.product_sign((0, 1), 2)
        full, _ = coefficient_oracle(
            OracleFunction(arity=2, evaluator=chi.evaluator, boolean=True), (1, 3), 256)
        prod, _ = coefficient_oracle(chi, (1, 3), 256)
        assert abs(full - prod) < 1e-6

    def test_grid_budget_guard(self):
        f = OracleFunction(arity=3, evaluator=lambda x: np.ones(x.shape[:-1]))
        with pytest.raises(ValueError):
            coefficient_oracle(f, (0, 0, 0), 4096)

    def test_error_estimate_reported(self):
        val, err = coefficient_oracle(corpus.product_sign((0,), 1), (3,), 256)
        assert err >= 0
        fine, _ = coefficient_oracle(corpus.product_sign((0,), 1), (3,), 1024)
        assert abs(val - fine) <= 10 * max(err, 1e-9)


def _dense(f):
    """The same oracle without its per-axis factors, so it takes the dense-grid path."""
    return OracleFunction(arity=f.arity, evaluator=f.evaluator, boolean=f.boolean,
                          kappa=f.kappa, label=f.label)


class TestGridContraction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_probability_mass_conserved(self, n):
        scfg = SamplerConfig(M=256, D=9)
        monomial = corpus.hermite_monomial((2,) + (0,) * (n - 1), n)
        product = [corpus.product_sign(tuple(range(min(2, n))), n), corpus.scaled_constant(3.0, n)]
        for f in product + [_dense(f) for f in product] + [monomial]:
            dist = sample_distribution(f, scfg, normalized=not f.boolean)
            assert abs(dist.probs.sum() + dist.out_mass - 1.0) <= 1e-12
            assert abs(dist.total - (dist.cdf[-1] + dist.out_mass)) <= 1e-15

    def test_three_axis_spectrum_matches_pointwise_oracle(self):
        f = corpus.mixture([((1, 2, 0), 0.8), ((0, 0, 3), 0.6)], 3)
        table = spectrum_table(f, 3, 128)
        for v in ((1, 2, 0), (0, 0, 3), (0, 0, 0), (3, 1, 2), (2, 2, 2)):
            direct, _ = coefficient_oracle(f, v, 64)   # its fine grid is M_quad = 128
            assert abs(table.coefficient(v) - direct) <= 1e-12
        assert abs(table.mass - 1.0) < 1e-6

    def test_leading_axes_walked_in_slabs(self):
        # 8^6 points exceed one slab, so two leading axes are flattened and walked
        f = corpus.product_sign(tuple(range(7)), 7)
        prod = spectrum_table(f, 1, 8)
        dense = spectrum_table(_dense(f), 1, 8)
        assert max(abs(prod.coefficient(v) - c) for v, c in dense.coefficients.items()) <= 1e-12

    @pytest.mark.parametrize("entry", [
        lambda f: coefficient_oracle(f, (0, 0, 0), 512),
        lambda f: spectrum_table(f, 3, 512),
        lambda f: sample_distribution(f, SamplerConfig(M=512, D=3), normalized=True),
        lambda f: distortion(f, 512),
        lambda f: restriction_coefficient(f, CoefficientPattern((0, 0, 0)), np.array([]),
                                          grid_points=512),
    ], ids=["coefficient_oracle", "spectrum_table", "sample_distribution", "distortion",
            "restriction_coefficient"])
    def test_dense_three_axis_budget(self, entry):
        f = corpus.hermite_monomial((2, 0, 0), 3)
        with pytest.raises(ValueError, match="full-grid budget exceeded"):
            entry(f)


class TestOraclePrecision:
    def test_input_snapping_constant_on_cubes(self):
        f = OracleFunction(arity=1, evaluator=lambda x: x[..., 0], input_bits=3)
        # every point of the cube [k/8, (k+1)/8) evaluates at the anchor
        pts = np.array([[0.50], [0.51], [0.62], [0.6249]])
        vals = f.evaluate(pts)
        assert np.allclose(vals[:2], 0.5)
        assert np.allclose(vals[2:], 0.625 - 0.125)

    def test_output_rounding(self):
        f = OracleFunction(arity=1, evaluator=lambda x: np.full(x.shape[:-1], 0.3),
                           output_bits=2)
        assert f.evaluate(np.zeros((3, 1)))[0] == 0.25

    def test_arity_checked(self):
        f = OracleFunction(arity=2, evaluator=lambda x: np.ones(x.shape[:-1]))
        with pytest.raises(ValueError):
            f.evaluate(np.zeros((4, 3)))


class TestSpectrumTable:
    def test_matches_pointwise_oracle(self):
        f = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2)
        table = spectrum_table(f, 3, 256)
        for v in ((1, 0), (0, 2), (0, 0), (3, 3)):
            direct, _ = coefficient_oracle(f, v, 256)
            assert abs(table.coefficient(v) - direct) < 1e-8

    def test_parseval_at_desk_scale(self):
        # planted smooth f: captured mass <= quadrature ||f||^2 + 1e-6
        f = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2)
        table = spectrum_table(f, 6, 256)
        assert table.mass <= 1.0 + 1e-6
        assert abs(table.mass - 1.0) < 1e-6  # exactly the planted mass


class TestBooleanSampler:
    def test_constant_always_zero_index(self, rng):
        dist = sample_distribution(corpus.constant(1, 1.0), SamplerConfig(M=256, D=5))
        for _ in range(20):
            s = general_hermite_sample(dist, rng)
            assert s.v == (0,)

    def test_product_sign_parity_of_support(self, rng):
        # f is odd in each supported coordinate, so even indices there carry
        # only discretization mass (dominated by the jump sitting on the x=0
        # grid point), within the sampler's epsilon contract
        f = corpus.product_sign((0, 1), 2)
        dist = sample_distribution(f, SamplerConfig(M=512, D=9))
        even_mass = sum(dist.prob((a, b))
                        for a in range(0, 10, 2) for b in range(0, 10, 2))
        assert even_mass <= 0.05

    def test_pointwise_probability_tracks_squared_coefficient(self):
        f = corpus.product_sign((0, 1), 2)
        scfg = SamplerConfig(M=512, D=9)
        dist = sample_distribution(f, scfg)
        table = spectrum_table(f, 9, 512)
        worst = max(abs(dist.prob(v) - table.coefficient(v) ** 2)
                    for v in table.coefficients)
        assert worst <= 0.05


class TestGeneralSampler:
    def test_boolean_branch_consistency(self, rng):
        f = corpus.product_sign((0,), 1)
        scfg = SamplerConfig(M=256, D=9)
        d1 = sample_distribution(f, scfg)
        s = general_hermite_sample(d1, rng)
        assert s.attempts == 1
        assert d1.prob(s.v) > 0

    def test_monomial_concentrates(self, rng):
        f = corpus.hermite_monomial((2,), 1)
        scfg = SamplerConfig(M=512, D=9)
        dist = sample_distribution(f, scfg, normalized=True)
        assert dist.prob((2,)) >= 1 - 0.01

    def test_postselection_attempt_statistics(self, rng):
        # kappa = 3 with the bound-tight planted constant: mean <= 2k + .5
        f = corpus.scaled_constant(3.0, 1)
        dist = sample_distribution(f, SamplerConfig(M=256, D=3), normalized=True)
        attempts = [general_hermite_sample(dist, rng).attempts for _ in range(1000)]
        assert np.mean(attempts) <= 2 * 3.0 + 0.5

    def test_attempt_cap_reported(self, rng):
        f = corpus.scaled_constant(3.0, 1)
        dist = sample_distribution(f, SamplerConfig(M=256, D=3, attempt_cap_factor=0),
                                   normalized=True)
        with pytest.raises(PostselectionFailure):
            for _ in range(50):
                general_hermite_sample(dist, rng)


class TestPipelineTransformBackend:
    def test_pipeline_mode_close_to_reference(self):
        # the simulated-transform backend replaces the exact psibar rows with
        # pipeline outputs; distributions agree to the pipeline's eps
        f = corpus.product_sign((0,), 1)
        ref = sample_distribution(f, SamplerConfig(M=256, D=3))
        pipe = sample_distribution(f, SamplerConfig(M=256, D=3, transform="pipeline",
                                                    qht_eps=0.01))
        for v in ((0,), (1,), (2,), (3,)):
            assert abs(ref.prob(v) - pipe.prob(v)) < 1e-3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            sample_distribution(corpus.constant(1, 1.0),
                                SamplerConfig(M=256, D=3, transform="bogus"))


class TestDistortion:
    def test_constant_closed_form(self):
        # kappa(1) = sup sqrt(nu) / ||sqrt(nu)||_2 = nu(0)^(1/2); the midpoint
        # grid misses the exact mode by h/2, an O(h^2) defect
        val = distortion(corpus.constant(1, 1.0), 512)
        assert abs(val - (2 * math.pi) ** -0.25) < 1e-3

    def test_sign_valued_same_as_constant(self):
        chi = corpus.product_sign((0,), 1)
        assert abs(distortion(chi, 512) - distortion(corpus.constant(1, 1.0), 512)) < 1e-9

    def test_bump_narrowing_monotone(self):
        vals = [distortion(corpus.indicator_bump(w, 1), 512) for w in (2.0, 1.0, 0.5)]
        assert vals[0] < vals[1] < vals[2]


class TestTVDistance:
    def test_identical_distributions(self):
        table = SpectrumTable(arity=1, D=3, coefficients={(0,): 0.6, (2,): 0.8})
        hist = {(0,): 360, (2,): 640}
        assert tv_distance(hist, table, 3) < 1e-12

    def test_disjoint_singletons(self):
        table = SpectrumTable(arity=1, D=3, coefficients={(1,): 1.0})
        hist = {(2,): 100}
        assert abs(tv_distance(hist, table, 3) - 1.0) < 1e-12

    def test_out_of_range_counted(self):
        table = SpectrumTable(arity=1, D=3, coefficients={(0,): 1.0})
        hist = {(0,): 50, (7,): 50}
        # half the mass out of range: 0.5*(|0.5-1|) + 0.5 = 0.75
        assert abs(tv_distance(hist, table, 3) - 0.75) < 1e-12

    def test_sampled_planted_function(self, rng):
        f = corpus.product_sign((0, 1), 2)
        dist = sample_distribution(f, SamplerConfig(M=512, D=9))
        hist = {}
        trials = 4000
        for _ in range(trials):
            s = general_hermite_sample(dist, rng)
            hist[s.v] = hist.get(s.v, 0) + 1
        table = spectrum_table(f, 9, 512)
        upsilon = max(1.0 - table.mass, 0.0)
        noise = 3.0 * math.sqrt(len(table.coefficients) / trials) / 2
        assert tv_distance(hist, table, 9) <= 0.05 + upsilon + noise


class TestRiemannHybridBound:
    def test_three_axis_synthetic(self):
        # |prod of sums - prod of integrals| <= n Q^(n-1) max per-axis error,
        # with planted per-axis sums and known targets
        sums = np.array([1.02, 0.97, 1.01])
        targets = np.array([1.0, 1.0, 1.0])
        Q = 1.02
        eps = np.abs(sums - targets).max()
        lhs = abs(np.prod(sums) - np.prod(targets))
        assert lhs <= 3 * Q**2 * eps + 1e-12

    def test_bound_tracks_composition(self, rng):
        for _ in range(25):
            sums = 1.0 + rng.uniform(-0.05, 0.05, size=3)
            targets = 1.0 + rng.uniform(-0.05, 0.05, size=3)
            Q = max(np.abs(sums).max(), np.abs(targets).max())
            eps = np.abs(sums - targets).max()
            assert abs(np.prod(sums) - np.prod(targets)) <= 3 * Q**2 * eps + 1e-12


class TestGaussianTailBound:
    @pytest.mark.parametrize("L", [2.0, 3.0, 4.0])
    def test_truncation_mass_decays(self, L):
        # same fine spacing, domain [-L, L] vs [-2L, 2L]: the difference is
        # pure truncation mass and must sit under exp(-L^2/8)
        from qhermite.spectral_core import probabilist_rows

        h = 1e-3
        big = np.arange(-2 * L, 2 * L + h / 2, h)
        integrand = (np.sign(big) * probabilist_rows(1, big)[1]
                     * np.exp(-0.5 * big * big) / math.sqrt(2 * math.pi))
        inner = np.abs(big) <= L
        total = h * integrand.sum()
        truncated = h * integrand[inner].sum()
        assert abs(total - truncated) <= math.exp(-L * L / 8)


class TestSuggestM:
    def test_power_of_two_and_degree_floor(self):
        f = corpus.product_sign((0,), 1)
        M = suggest_quadrature_M(f, 0.1)
        assert M >= 40 * f.degree_cutoff
        assert M & (M - 1) == 0
