import inspect
import json
import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import coefficient_oracle, restriction_coefficient

from qhermite import corpus, hermite_sampling
from qhermite.cli import main
from qhermite.hermite_sampling import (
    OracleFunction,
    PostselectionFailure,
    SampleDistribution,
    SamplerConfig,
    _tally,
    draw,
    sample_distribution,
    spectrum_table,
    tv_distance,
)
from qhermite.learning_testers import CoefficientPattern, _mode_sample
from qhermite.qht_pipeline import ConfigError


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
            OracleFunction(arity=2, evaluator=chi.evaluate, boolean=True), (1, 3), 256)
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
    return OracleFunction(arity=f.arity, evaluator=f.evaluate, boolean=f.boolean,
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
        c = spectrum_table(f, 3, 128)
        assert c.shape == (4, 4, 4)
        for v in ((1, 2, 0), (0, 0, 3), (0, 0, 0), (3, 1, 2), (2, 2, 2)):
            direct, _ = coefficient_oracle(f, v, 64)   # its fine grid is M_quad = 128
            assert abs(c[v] - direct) <= 1e-12
        assert abs(np.sum(c * c) - 1.0) < 1e-6

    def test_leading_axes_walked_in_slabs(self):
        # 8^6 points exceed one slab, so two leading axes are flattened and walked
        f = corpus.product_sign(tuple(range(7)), 7)
        prod = spectrum_table(f, 1, 8)
        dense = spectrum_table(_dense(f), 1, 8)
        assert np.abs(prod - dense).max() <= 1e-12

    @pytest.mark.parametrize("entry", [
        lambda f: coefficient_oracle(f, (0, 0, 0), 512),
        lambda f: spectrum_table(f, 3, 512),
        lambda f: sample_distribution(f, SamplerConfig(M=512, D=3), normalized=True),
        lambda f: restriction_coefficient(f, CoefficientPattern((0, 0, 0)), np.array([]),
                                          grid_points=512),
    ], ids=["coefficient_oracle", "spectrum_table", "sample_distribution",
            "restriction_coefficient"])
    def test_dense_three_axis_budget(self, entry):
        f = _dense(corpus.hermite_monomial((2, 0, 0), 3))
        with pytest.raises(ValueError, match="full-grid budget exceeded"):
            entry(f)

    @pytest.mark.parametrize("dense", [False, True], ids=["product", "dense"])
    @pytest.mark.parametrize("n, D, entry", [
        (12, 9, lambda f, D: sample_distribution(f, SamplerConfig(M=512, D=D))),
        (12, 9, lambda f, D: spectrum_table(f, D, 512)),
        (4, 200, lambda f, D: sample_distribution(f, SamplerConfig(M=512, D=D), normalized=True)),
    ], ids=["sample-n12", "spectrum-n12", "sample-n4-D200"])
    def test_table_budget_refused_before_allocation(self, dense, n, D, entry):
        # the refused tables hold 10^12 and 201^4 complex entries (14.9 GiB and 24.3 GiB);
        # a refusal allocates no more than the per-axis rows, under 4 MiB
        f = corpus.product_sign((0, 1), n)
        f = _dense(f) if dense else f
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    f"table budget exceeded (n={n}, {D + 1} indices per axis)")):
                entry(f, D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_table_budget_admits_n8_and_refuses_n9_at_D9(self):
        # sampler-mode ggl at n = 8 (10^8 entries, 3.1 GB peak) still runs; n = 9 does not
        assert 10**8 <= 2**hermite_sampling.TABLE_BUDGET < 10**9


class TestCorpusProducts:
    # one instance per corpus family; the product families carry per-axis factors
    ENTRIES = [
        {"family": "constant", "n": 2, "value": -0.7},
        {"family": "scaled_constant", "kappa": 3.0, "n": 3},
        {"family": "product_sign", "n": 3, "support": [0, 2]},
        {"family": "noisy_product_sign", "n": 2, "support": [0, 1], "eta": 0.1},
        {"family": "hermite_monomial", "n": 2, "v": [3, 3]},
        {"family": "hermite_monomial", "n": 3, "v": [2, 0, 1]},
        {"family": "hermite_monomial", "n": 2, "v": [2, 1], "bounded": False},
        {"family": "mixture", "n": 2, "terms": [[[1, 0], 0.8], [[0, 2], 0.6]]},
        {"family": "indicator_bump", "n": 2, "half_width": 0.5},
    ]

    def test_every_family_listed(self):
        assert {e["family"] for e in self.ENTRIES} == set(corpus._FAMILIES)

    def test_evaluator_is_the_product_of_its_factors(self):
        # the axis values include the sgn tie at 0 and points outside the
        # monomials' [-5, 5] sup box
        axis = np.array([-6.0, -1.3, -0.0, 0.0, 0.4, 2.5, 6.0])
        checked = 0
        for entry in self.ENTRIES:
            f = corpus.build_entry(entry)
            if f.product_factors is None:
                continue
            n = f.arity
            pts = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1)
            product = np.ones(pts.shape[:-1])
            for i, factor in enumerate(f.product_factors):
                product = product * factor(pts[..., i])
            np.testing.assert_array_equal(f.evaluate(pts), product, err_msg=f.label)
            checked += 1
        assert checked == 6

    @pytest.mark.parametrize("entry, message", [
        ({"family": "product_sign", "n": 2, "support": [0, 3]}, "distinct axes in \\[0, 2\\)"),
        ({"family": "product_sign", "n": 2, "support": [-1]}, "distinct axes in \\[0, 2\\)"),
        ({"family": "product_sign", "n": 2, "support": [1, 1]}, "distinct axes in \\[0, 2\\)"),
        ({"family": "noisy_product_sign", "n": 1, "support": [0, 1], "eta": 0.1},
         "distinct axes in \\[0, 1\\)"),
        ({"family": "mixture", "n": 2, "terms": [[[1, 0, 2], 1.0]]},
         "index \\(1, 0, 2\\) must have length 2"),
        ({"family": "mixture", "n": 2, "terms": [[[1, 0], 0.8], [[2], 0.6]]},
         "index \\(2,\\) must have length 2"),
        ({"family": "mixture", "n": 1, "terms": [[[-1], 1.0]]},
         "index \\(-1,\\) must have length 1 and no negative degree"),
    ], ids=["outside", "negative", "repeated", "noisy", "long-term", "short-term",
            "negative-degree"])
    def test_index_outside_the_arity_rejected_at_build(self, entry, message):
        # each used to build: a support index past n was dropped from the
        # oracle but kept in its label, and a mixture term failed on evaluation
        with pytest.raises(ValueError, match=message):
            corpus.build_entry(entry)

    @pytest.mark.parametrize("entry, message", [
        ({"family": "hermite_monomial", "n": 1, "v": [-2]},
         "monomial index \\(-2,\\) must have length 1 and no negative degree"),
        ({"family": "product_sign", "n": 1, "support": [0.7]}, "support \\(0.7,\\) must hold"),
        ({"family": "mixture", "n": 1, "terms": [[[1.9], 1.0]]},
         "mixture index \\(1.9,\\) must hold"),
        ({"family": "hermite_monomial", "n": 1, "v": [True]},
         "monomial index \\(True,\\) must hold"),
    ], ids=["negative-degree", "float-axis", "float-degree", "bool-degree"])
    def test_index_not_a_degree_or_axis_rejected_at_build(self, entry, message):
        # an index is a plain integer: a float is not truncated, a bool not read as 1
        with pytest.raises(ValueError, match=message):
            corpus.build_entry(entry)

    @pytest.mark.parametrize("coefficient", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected_at_build(self, coefficient):
        # json reads NaN and Infinity; such a term used to build an oracle that drew every
        # sample at v = 0 and reported a tv of NaN
        entry = json.loads(json.dumps({"family": "mixture", "n": 2,
                                       "terms": [[[0, 1], 0.5], [[1, 0], coefficient]]}))
        with pytest.raises(ValueError, match=re.escape(
                f"mixture term (1, 0) must have a finite coefficient, got {coefficient!r}")):
            corpus.build_entry(entry)

    @pytest.mark.parametrize("build, message", [
        (lambda: corpus.constant(0), "n must be a positive integer, got 0"),
        (lambda: corpus.constant(1.5), "n must be a positive integer, got 1.5"),
        (lambda: corpus.product_sign((0,), True), "n must be a positive integer, got True"),
        (lambda: corpus.scaled_constant(0), "kappa must be finite and at least 1/2, got 0"),
        (lambda: corpus.scaled_constant(math.inf), "kappa must be finite"),
        (lambda: corpus.noisy_product_sign((0,), 1, eta=1.5), "eta must lie in \\[0, 1\\]"),
        (lambda: corpus.noisy_product_sign((0,), 1, eta=math.nan), "eta must lie in \\[0, 1\\]"),
        (lambda: corpus.noisy_product_sign((0,), 1, 0.1, seed=-1), "got 6 and -1"),
        (lambda: corpus.noisy_product_sign((0,), 1, 0.1, bits=2.5), "got 2.5 and 17"),
        (lambda: corpus.mixture([], 1), "mixture needs at least one term"),
        (lambda: corpus.indicator_bump(-1), "half_width must be > 0, got -1"),
        (lambda: corpus.indicator_bump(1e-300, n=2), "half_width 1e-300 is too narrow for n=2"),
        (lambda: corpus.indicator_bump(0.5, n=-2), "n must be a positive integer, got -2"),
    ], ids=["n-zero", "n-float", "n-bool", "kappa-zero", "kappa-inf", "eta-above-one",
            "eta-nan", "negative-seed", "float-bits", "no-terms", "negative-half-width",
            "narrow-half-width", "bump-n"])
    def test_scalar_rejected_by_name_at_build(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("entry, message", [
        ({"family": "hermite_monomial", "n": 1, "v": [2], "bouned": False},
         "unexpected keyword argument 'bouned'"),
        ({"family": "product_sign", "n": 2}, "missing a required argument: 'support'"),
    ], ids=["unknown-key", "missing-key"])
    def test_key_outside_the_signature_names_the_entry(self, entry, message):
        with pytest.raises(ValueError, match=message) as info:
            corpus.build_entry(entry)
        assert str(info.value).startswith(f"corpus entry {entry}: ")

    def test_every_family_loads_with_every_parameter_named(self, tmp_path):
        entries = [
            {"family": "constant", "n": 2, "value": -0.5},
            {"family": "scaled_constant", "kappa": 2.0, "n": 2},
            {"family": "product_sign", "support": [1], "n": 2},
            {"family": "noisy_product_sign", "support": [0, 1], "n": 2, "eta": 0.1, "bits": 5,
             "seed": 3},
            {"family": "hermite_monomial", "v": [2, 1], "n": 2, "bounded": False},
            {"family": "mixture", "terms": [[[1, 0], 0.8], [[0, 2], 0.6]], "n": 2,
             "bounded": True},
            {"family": "indicator_bump", "half_width": 0.5, "n": 2},
        ]
        for entry in entries:   # every key is a parameter name, and every parameter is named
            params = inspect.signature(corpus._FAMILIES[entry["family"]]).parameters
            assert set(entry) - {"family"} == set(params)
        assert [e["family"] for e in entries] == list(corpus._FAMILIES)
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(entries))
        labels = [f.label for f in corpus.load_corpus(path)]
        assert labels == ["const(-0.5)", "const_kappa2.0", "chi(1,)", "noisy_chi(0, 1)@0.1",
                          "h(2, 1)_raw", labels[5], "bump(0.5)"]
        assert labels[5].startswith("mix[((1, 0), 0.8), ((0, 2), 0.6)]/")
        assert all(b is getattr(corpus, name) for name, b in corpus._FAMILIES.items())

    def test_sign_tie_same_on_dense_and_rank1_paths(self):
        # the M = 256 grid holds x = 0 on both axes, where the sgn tie
        # convention decides bin (0, 0)
        f = corpus.product_sign((0, 1), 2)
        scfg = SamplerConfig(M=256, D=9)
        rank1 = sample_distribution(f, scfg)
        dense = sample_distribution(_dense(f), scfg)
        assert np.abs(rank1.probs - dense.probs).max() <= 1e-14
        assert abs(rank1.out_mass - dense.out_mass) <= 1e-14


class TestOraclePrecision:
    def test_arity_checked(self):
        f = OracleFunction(arity=2, evaluator=lambda x: np.ones(x.shape[:-1]))
        with pytest.raises(ValueError):
            f.evaluate(np.zeros((4, 3)))

    @pytest.mark.parametrize("build", [
        lambda: OracleFunction(arity=1),
        lambda: OracleFunction(arity=1, evaluator=np.ones_like, product_factors=(np.ones_like,)),
        lambda: replace(corpus.product_sign((0, 1), 2), evaluator=lambda x: np.ones(x.shape[:-1])),
        lambda: OracleFunction(arity=2, product_factors=(np.ones_like,)),
        lambda: OracleFunction(arity=2, product_factors=(np.ones_like,) * 3),
        lambda: OracleFunction(arity=1, product_factors=()),
    ], ids=["neither", "both", "replace-adds-evaluator", "too-few-factors", "too-many-factors",
            "no-factors"])
    def test_exactly_one_representation(self, build):
        # an oracle holds its function once: an evaluator, or one factor per axis
        with pytest.raises(ValueError, match="needs an evaluator or one factor per axis"):
            build()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("value", [-1, -0.5, 0, 0.3, 0.5, 1])
    def test_constant_evaluates_to_its_value_bitwise(self, n, value):
        # its factors are the value on axis 0 and ones elsewhere, so their product is the value
        pts = np.random.default_rng(n).normal(size=(5, 4, n))
        got = corpus.constant(n, value).evaluate(pts)
        assert got.tobytes() == np.full((5, 4), value, dtype=float).tobytes()


class TestSpectrumTable:
    def test_matches_pointwise_oracle(self):
        f = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2)
        c = spectrum_table(f, 3, 256)
        for v in ((1, 0), (0, 2), (0, 0), (3, 3)):
            direct, _ = coefficient_oracle(f, v, 256)
            assert abs(c[v] - direct) < 1e-8

    def test_parseval_at_desk_scale(self):
        # planted smooth f: captured mass <= quadrature ||f||^2 + 1e-6
        f = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2)
        mass = np.sum(spectrum_table(f, 6, 256) ** 2)
        assert mass <= 1.0 + 1e-6
        assert abs(mass - 1.0) < 1e-6  # exactly the planted mass


class TestBooleanSampler:
    def test_constant_always_zero_index(self, rng):
        dist = sample_distribution(corpus.constant(1, 1.0), SamplerConfig(M=256, D=5))
        v, _ = draw(dist, rng, 20)
        assert (v == 0).all()

    def test_product_sign_parity_of_support(self, rng):
        # f is odd in each supported coordinate, so even indices there carry
        # only discretization mass (dominated by the jump sitting on the x=0
        # grid point), within the sampler's epsilon contract
        f = corpus.product_sign((0, 1), 2)
        dist = sample_distribution(f, SamplerConfig(M=512, D=9))
        even_mass = sum(dist.probs[a, b]
                        for a in range(0, 10, 2) for b in range(0, 10, 2))
        assert even_mass <= 0.05

    def test_pointwise_probability_tracks_squared_coefficient(self):
        f = corpus.product_sign((0, 1), 2)
        scfg = SamplerConfig(M=512, D=9)
        dist = sample_distribution(f, scfg)
        worst = np.abs(dist.probs - spectrum_table(f, 9, 512) ** 2).max()
        assert worst <= 0.05


class TestDraw:
    def test_unpostselected_batch_equals_single_draws(self):
        # product_sign is boolean, so drawn without postselection; its
        # spectrum also leaves mass above D, so out-of-range rows occur
        dist = sample_distribution(corpus.product_sign((0, 1), 2), SamplerConfig(M=256, D=5))
        v, attempts = draw(dist, np.random.default_rng(3), 200)
        rng = np.random.default_rng(3)
        singles = [draw(dist, rng, 1) for _ in range(200)]
        assert v.shape == (200, 2) and attempts.shape == (200,)
        assert np.array_equal(v, np.concatenate([s[0] for s in singles]))
        assert np.array_equal(attempts, np.concatenate([s[1] for s in singles]))

    def test_single_postselected_draw_matches_reference_stream(self):
        # the single-draw stream: one geometric attempt count, then one
        # uniform inverted through the CDF
        dist = SampleDistribution(D=3, probs=np.array([0.1, 0.2, 0.3, 0.3]),
                                  out_mass=0.1, success_prob=0.3, attempt_cap=10**6)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            v, attempts = draw(dist, rng, 1)
            want_attempts = ref.geometric(0.3)
            idx = int(np.searchsorted(dist.cdf, ref.random() * dist.total))
            assert attempts[0] == want_attempts
            assert v[0, 0] == min(idx, dist.D + 1)

    def test_out_of_range_rows_and_tally(self):
        probs = np.array([[0.1, 0.0], [0.0, 0.1]])
        dist = SampleDistribution(D=1, probs=probs, out_mass=0.8)
        v, _ = draw(dist, np.random.default_rng(1), 400)
        out = (v > dist.D).any(axis=1)
        assert (v[out] == dist.D + 1).all()
        assert 0.7 < out.mean() < 0.9
        everything = _tally(v)
        in_range = _tally(v, dist.D)
        assert everything[(2, 2)] == out.sum()
        assert set(in_range) == {(0, 0), (1, 1)}
        assert sum(in_range.values()) == 400 - out.sum()

    def test_ties_break_by_first_draw(self):
        assert list(_tally(np.array([[3], [1], [1], [3]]))) == [(3,), (1,)]
        f = corpus.product_sign((0,), 1)
        scfg = SamplerConfig(M=256, D=9)
        dist = sample_distribution(f, scfg)
        for seed in range(200):   # the first seed whose 4 draws are in range and tie at the top
            v, _ = draw(dist, np.random.default_rng(seed), 4)
            counts = list(_tally(v).items())
            top = max(c for _, c in counts)
            if v.max() <= dist.D and sum(c == top for _, c in counts) > 1:
                break
        # delta = 0.9 asks for the fewest draws, max(4, ceil(4 ln(2/0.9))) = 4
        mode, used = _mode_sample(f, scfg, np.random.default_rng(seed), 0.9)
        assert sum(c == top for _, c in counts) > 1 and used == 4
        assert mode == next(u for u, c in counts if c == top)


class TestGeneralSampler:
    def test_boolean_branch_consistency(self, rng):
        f = corpus.product_sign((0,), 1)
        scfg = SamplerConfig(M=256, D=9)
        d1 = sample_distribution(f, scfg)
        v, attempts = draw(d1, rng, 1)
        assert attempts[0] == 1
        assert d1.probs[tuple(v[0])] > 0

    def test_monomial_concentrates(self, rng):
        f = corpus.hermite_monomial((2,), 1)
        scfg = SamplerConfig(M=512, D=9)
        dist = sample_distribution(f, scfg, normalized=True)
        assert dist.probs[2] >= 1 - 0.01

    def test_postselection_attempt_statistics(self, rng):
        # kappa = 3 with the bound-tight planted constant: mean <= 2k + .5
        f = corpus.scaled_constant(3.0, 1)
        dist = sample_distribution(f, SamplerConfig(M=256, D=3), normalized=True)
        _, attempts = draw(dist, rng, 1000)
        assert np.mean(attempts) <= 2 * 3.0 + 0.5

    @pytest.mark.parametrize("n", [1, 2])
    def test_bump_kappa_covers_its_success(self, n):
        # widths 0.1 to 1 in steps of 0.05; the least success * 2 kappa read 1.02 (n = 1) and
        # 1.03 (n = 2), where a width just short of a grid point leaves one point fewer per axis
        scfg = SamplerConfig(M=256, D=5)
        for w in np.linspace(0.1, 1.0, 19):
            f = corpus.indicator_bump(float(w), n)
            assert f.kappa == 2 ** (n - 1) * math.erf(w / math.sqrt(2)) ** -n
            dist = sample_distribution(f, scfg, normalized=True)
            assert dist.success_prob >= 1 / (2 * f.kappa), w

    def test_narrow_bump_draws_within_its_cap(self, rng):
        # at width 0.1 the success is 0.088: kappa 1 capped the attempts at 64 and raised
        f = corpus.indicator_bump(0.1)
        dist = sample_distribution(f, SamplerConfig(M=256, D=5), normalized=True)
        v, attempts = draw(dist, rng, 1000)
        assert len(v) == 1000 and attempts.max() <= dist.attempt_cap == int(64 * f.kappa)

    def test_attempt_cap_reported(self, rng):
        # a declared kappa below 1/64 gives a cap of one attempt; the constant's true
        # success probability is 1/6, so all 50 draws succeed at once only w.p. 6^-50
        f = replace(corpus.scaled_constant(3.0, 1), kappa=1 / 128)
        dist = sample_distribution(f, SamplerConfig(M=256, D=3), normalized=True)
        assert dist.attempt_cap == 1
        with pytest.raises(PostselectionFailure):
            draw(dist, rng, 50)


class TestSamplerConfigChecks:
    @pytest.mark.parametrize("fields, message", [
        (dict(M=5), "grid size must be even and >= 4, got 5"),
        (dict(M=2), "grid size must be even and >= 4, got 2"),
        (dict(D=-1), "D must be an integer in [0, M=512), got -1"),
        (dict(D=1.5), "D must be an integer in [0, M=512), got 1.5"),
        (dict(D=True), "D must be an integer in [0, M=512), got True"),
        (dict(M=64, D=64), "D must be an integer in [0, M=64), got 64"),
        (dict(qht_eps=0.0), "qht_eps must be in (0, 1), got 0.0"),
        (dict(qht_eps=1.0), "qht_eps must be in (0, 1), got 1.0"),
        (dict(M=100_000_000), "per-axis rows (D+1) x M = 1000000000 exceed the table budget"),
        (dict(M=2**20, D=200), "per-axis rows (D+1) x M = 210763776 exceed the table budget"),
    ], ids=["M-odd", "M-two", "D-negative", "D-float", "D-bool", "D-at-M", "eps-zero",
            "eps-one", "M-1e8", "rows-D200"])
    def test_refused_at_construction(self, fields, message):
        # the 1e8 grid's rows would take 8 GB; a refusal allocates next to nothing
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(message)):
                SamplerConfig(**fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_replace_is_checked(self):
        with pytest.raises(ValueError, match=re.escape("D must be an integer in [0, M=8)")):
            replace(SamplerConfig(M=8, D=3), D=8)

    def test_boundaries_are_admitted(self):
        # the smallest grid with its largest D, and per-axis rows of exactly 2^27 entries
        assert SamplerConfig(M=4, D=3).D == 3
        assert SamplerConfig(M=2**23, D=15).M == 2**23


class TestPipelineTransformBackend:
    def test_pipeline_mode_close_to_reference(self):
        # the simulated-transform backend replaces the exact psibar rows with
        # pipeline outputs; distributions agree to the pipeline's eps
        f = corpus.product_sign((0,), 1)
        ref = sample_distribution(f, SamplerConfig(M=256, D=3))
        pipe = sample_distribution(f, SamplerConfig(M=256, D=3, qht_eps=0.01))
        for v in ((0,), (1,), (2,), (3,)):
            assert abs(ref.probs[v] - pipe.probs[v]) < 1e-3

    @pytest.mark.parametrize("eps", [1.5, 0.0, -0.1, float("nan")])
    def test_eps_outside_unit_interval_rejected(self, eps):
        with pytest.raises(ConfigError, match=f"got {eps}"):
            sample_distribution(corpus.product_sign((0,), 1),
                                SamplerConfig(M=256, D=3, qht_eps=eps), normalized=True)


def _unique_tally(v, D=None):
    """The tally by np.unique(axis=0), in order of first draw: a reference for `_tally`."""
    rows, first, counts = np.unique(v, axis=0, return_index=True, return_counts=True)
    return {tuple(rows[i].tolist()): int(counts[i]) for i in np.argsort(first)
            if D is None or rows[i][0] <= D}


def _dense_tv(v, q):
    """TV from the (D+2,)*n histogram of the draws: a dense reference for the tally form."""
    n, D = v.shape[1], q.shape[0] - 1
    shape = (D + 2,) * n
    counts = np.bincount(np.ravel_multi_index(v.T, shape),
                         minlength=math.prod(shape)).reshape(shape)
    k = counts.sum()
    inside = counts[(slice(-1),) * n] / k
    out = abs(counts[(-1,) * n] / k - max(1.0 - float(q.sum()), 0.0))
    return 0.5 * (float(np.abs(inside - q).sum()) + out)


def _draws_with_out_of_range(rng, k, n, D):
    """k random rows in [0, D]^n, about a quarter of them out of range (D + 1 throughout)."""
    v = rng.integers(0, D + 1, (k, n))
    v[rng.random(k) < 0.25] = D + 1
    return v


class TestTally:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_unique_reference(self, n, rng):
        # keys, counts and first-draw order, with and without the D filter
        for k, D in ((1, 3), (50, 1), (2000, 3), (2000, 9)):
            v = _draws_with_out_of_range(rng, k, n, D)
            for cut in (None, D):
                assert list(_tally(v, cut).items()) == list(_unique_tally(v, cut).items())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_draw(self, n):
        v = np.zeros((0, n), dtype=np.int64)
        assert _tally(v) == {} and _tally(v, 9) == {}


def _dict_tv(v, c, D, norm_sq=1.0):
    """The dict form of the TV distance: a reference for the array form."""
    hist = _tally(v)
    total = sum(hist.values())
    q = {u: cu * cu / norm_sq for u, cu in np.ndenumerate(c)}
    acc = out_mass = 0.0
    for u, count in hist.items():
        if any(x > D for x in u):
            out_mass += count / total
        else:
            acc += abs(count / total - q[u])
    acc += sum(qu for u, qu in q.items() if u not in hist)
    return 0.5 * (acc + abs(out_mass - max(1.0 - sum(q.values()), 0.0)))


class TestTVDistance:
    @staticmethod
    def _counts(rows):
        return _tally(np.array(rows).reshape(len(rows), -1))

    def test_identical_distributions(self):
        q = np.array([0.36, 0.0, 0.64, 0.0])
        counts = self._counts([0] * 360 + [2] * 640)
        assert tv_distance(counts, q) < 1e-12

    def test_disjoint_singletons(self):
        q = np.array([0.0, 1.0, 0.0, 0.0])
        assert abs(tv_distance(self._counts([2] * 100), q) - 1.0) < 1e-12

    def test_out_of_range_counted(self):
        # an out-of-range draw reads D + 1 = 4 in every coordinate
        q = np.array([1.0, 0.0, 0.0, 0.0])
        counts = self._counts([0] * 50 + [4] * 50)
        assert counts == {(0,): 50, (4,): 50}
        # half the draws out of range, where q puts nothing: 0.5*(|0.5-1| + |0.5-0|) = 0.5
        assert abs(tv_distance(counts, q) - 0.5) < 1e-12

    def test_out_of_range_row_lands_in_the_corner(self):
        counts = self._counts([[0, 1], [3, 3], [3, 3]])
        assert counts == {(0, 1): 1, (3, 3): 2}
        assert sum(counts.values()) == 3
        q = np.zeros((3, 3))
        q[0, 1] = 1.0
        # 0.5 * (|1/3 - 1| + |2/3 - 0|)
        assert abs(tv_distance(counts, q) - 2 / 3) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stays_between_zero_and_one(self, n, rng):
        # targets of mass 1 down to 0.1 (the rest is q_out), draws from none to all out of
        # range; the old form, half the in-range sum plus the whole out-of-range share,
        # read up to 1.5 here
        D = 3
        for mass in (1.0, 0.9, 0.5, 0.1):
            q = rng.random((D + 1,) * n)
            q *= mass / q.sum()
            for share in (0.0, 0.25, 0.72, 0.99, 1.0):
                v = rng.integers(0, D + 1, (400, n))
                v[: int(share * 400)] = D + 1
                tv = tv_distance(_tally(v), q)
                assert 0.0 <= tv <= 1.0
                assert abs(tv - _dense_tv(v, q)) <= 1e-15
        # every draw out of range, as q_out = 1 - sum q asks: distance 0 from the corner
        q = np.zeros((D + 1,) * n)
        assert tv_distance(_tally(np.full((10, n), D + 1)), q) == 0.0

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError, match="empty histogram"):
            tv_distance({}, np.ones(4) / 4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tally_form_matches_the_dense_histogram(self, n, rng):
        # random targets of mass 0.9 and draws with out-of-range rows, at several D
        for D, k in ((1, 7), (3, 500), (5, 2000)):
            q = rng.random((D + 1,) * n)
            q *= 0.9 / q.sum()
            v = _draws_with_out_of_range(rng, k, n, D)
            assert abs(tv_distance(_tally(v), q) - _dense_tv(v, q)) <= 1e-15

    def test_sampled_planted_function(self, rng):
        f = corpus.product_sign((0, 1), 2)
        dist = sample_distribution(f, SamplerConfig(M=512, D=9))
        trials = 4000
        counts = _tally(draw(dist, rng, trials)[0])
        c = spectrum_table(f, 9, 512)
        upsilon = max(1.0 - np.sum(c * c), 0.0)
        noise = 3.0 * math.sqrt(c.size / trials) / 2
        assert tv_distance(counts, c * c) <= 0.05 + upsilon + noise

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_array_form_matches_dict_form(self, n):
        # the corpus `sample` draws from by default, at several seeds
        D = 9
        scfg = SamplerConfig(M=256, D=D)
        instances = [corpus.constant(n, 1.0), corpus.product_sign(tuple(range(min(2, n))), n),
                     corpus.hermite_monomial((2,) + (0,) * (n - 1), n)]
        for f in instances:
            dist = sample_distribution(f, scfg, normalized=not f.boolean)
            c = spectrum_table(f, D, M_quad=scfg.M)
            norm_sq = 1.0 if f.boolean else float(np.sum(c * c))
            for seed in range(4):
                v, _ = draw(dist, np.random.default_rng(seed), 500)
                tv = tv_distance(_tally(v), c * c / norm_sq)
                assert abs(tv - _dict_tv(v, c, D, norm_sq)) <= 1e-15


class TestSampleMemory:
    def test_n6_builds_no_dense_histogram(self):
        # traced peak at M = 64: 38.3 MiB here, where a (D+2)^n histogram beside a held
        # distribution (its probabilities and CDF) peaked at 67.1 MiB
        main(["sample", "--n", "1", "--M", "64", "--trials", "5", "--out", os.devnull])
        tracemalloc.start()
        try:
            assert main(["sample", "--n", "6", "--M", "64", "--out", os.devnull]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


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
