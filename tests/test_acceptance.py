"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every tolerance below is pinned from the build contract, and every criterion
is expected green.  Criterion 1's small-n overlap bands are met with the
Plancherel-Rotach window ending at sqrt(3n/2), sqrt(3)/2 of the turning point
sqrt(2n).  A window ending at sqrt(3(2n+1)/4) holds 0.79 .. 0.71 of psi_n's
mass at n = 1..6, near or above the ceilings, and its overlaps fall outside them.
"""
import math
import time
import zlib

import numpy as np
import pytest

from qhermite import corpus
from qhermite.discrete_qho import (
    build,
    commutator_tail_norm,
    dense_diagonalize,
    hermite_basis,
)
from qhermite.fast_forward import apply_factored, decompose, low_energy_error
from qhermite.hermite_sampling import (
    SamplerConfig,
    coefficient_oracle,
    general_hermite_sample,
    sample_distribution,
    spectrum_table,
    tv_distance,
)
from qhermite.learning_testers import gaussian_goldreich_levin
from qhermite.learning_testers import test_hermite_polynomial as hermite_tester
from qhermite.learning_testers import test_low_degree as low_degree_tester
from qhermite.learning_testers import test_product_sign as product_sign_tester
from qhermite.qht_pipeline import (
    QHTConfig,
    build_pr_state,
    choose_dimensions,
    isometry_singular_values,
    qht_apply,
    qht_reference,
)
from qhermite.spectral_core import GridSpec, hermite_function_rows

pytestmark = pytest.mark.acceptance


def _report(num, ok, detail):
    print(f"\n[acceptance {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_overlap_figure():
    """Overlap curve at M=1e5: [0.60,0.72] for 5<=n<=100, [0.55,0.75] for 1<=n<5."""
    t0 = time.time()
    M = 100000
    spec = GridSpec(M)
    psi = hermite_function_rows(100, spec.points()) * np.sqrt(spec.h)
    cfg = QHTConfig(N=101, eps=0.01, M=M, N_high=M // 2)
    overlaps = {}
    for n in range(1, 101):
        pr = build_pr_state(n, cfg)
        overlaps[n] = abs(float(psi[n] @ pr.amplitudes))
    elapsed = time.time() - t0
    violations = []
    for n, v in overlaps.items():
        lo, hi = (0.60, 0.72) if n >= 5 else (0.55, 0.75)
        if not lo <= v <= hi:
            violations.append((n, round(v, 4)))
    ok = not violations and elapsed <= 60.0
    _report(1, ok,
            f"{100 - len(violations)}/100 overlaps in band, "
            f"violations={violations[:8]}, runtime {elapsed:.1f}s (cap 60s)")


def test_criterion_02_discretization_fidelity():
    """M=256: Gram defect <= 1e-10 for k,l <= 32; |E_n-(n+1/2)| <= 1e-8 for n <= 32."""
    t0 = time.time()
    spec = GridSpec(256)
    basis = hermite_basis(spec, 32)
    gram_defect = float(np.abs(basis.gram() - np.eye(33)).max())
    eig = dense_diagonalize(build(spec))
    energy_dev = float(np.abs(eig.energies[:33] - (np.arange(33) + 0.5)).max())
    elapsed = time.time() - t0
    ok = gram_defect <= 1e-10 and energy_dev <= 1e-8 and elapsed <= 30.0
    _report(2, ok,
            f"gram defect {gram_defect:.2e} (<=1e-10), "
            f"energy dev {energy_dev:.2e} (<=1e-8), runtime {elapsed:.1f}s (cap 30s)")


def test_criterion_03_fast_forwarding_error():
    """(512,16,1.0) error <= 1e-6; non-increasing in M at N=8 (1e-12 floor);
    decompose(2*pi) acts as -I on low-energy states to 1e-6."""
    t0 = time.time()
    floor = 1e-12
    point_err = low_energy_error(build(GridSpec(512)),
                                 dense_diagonalize(build(GridSpec(512))), 16, 1.0)
    monotone_ok = True
    sweep = {}
    for t in (0.25, 1.0, 3.0):
        prev = None
        for M in (128, 256, 512, 1024):
            err = low_energy_error(build(GridSpec(M)),
                                   dense_diagonalize(build(GridSpec(M))), 8, t)
            sweep[(M, t)] = err
            clamped = max(err, floor)
            if prev is not None and clamped > prev:
                monotone_ok = False
            prev = max(clamped, floor)
    qho = build(GridSpec(256))
    basis = hermite_basis(GridSpec(256), 7)
    rng = np.random.default_rng(3)
    coeff = rng.normal(size=8)
    v = (coeff @ basis.states).astype(complex)
    v /= np.linalg.norm(v)
    flip_dev = float(np.linalg.norm(apply_factored(qho, decompose(2 * np.pi), v) + v))
    elapsed = time.time() - t0
    ok = point_err <= 1e-6 and monotone_ok and flip_dev <= 1e-6 and elapsed <= 300.0
    _report(3, ok,
            f"error(512,16,1.0)={point_err:.2e} (<=1e-6), monotone={monotone_ok}, "
            f"2pi flip dev {flip_dev:.2e} (<=1e-6), runtime {elapsed:.1f}s (cap 300s)")


def test_criterion_04_commutator_tail_decay():
    """Projected t<=30 tails for all three families drop >= 10x per doubling of M."""
    t0 = time.time()
    norms = {}
    for M in (64, 128, 256):
        N = max(1, int(M / (40 * math.log2(2 * M))))
        for fam in ("x2_p2", "p2_x2", "p2_anti"):
            norms[(fam, M)] = commutator_tail_norm(build(GridSpec(M)), N, 30, fam).tail_norm
    decay_ok = all(
        norms[(fam, 2 * M)] <= norms[(fam, M)] / 10.0
        for fam in ("x2_p2", "p2_x2", "p2_anti") for M in (64, 128))
    elapsed = time.time() - t0
    ok = decay_ok and elapsed <= 600.0
    summary = {fam: [f"{norms[(fam, M)]:.1e}" for M in (64, 128, 256)]
               for fam in ("x2_p2", "p2_x2", "p2_anti")}
    _report(4, ok, f"tails {summary}, decay>=10x per doubling: {decay_ok}, "
                   f"runtime {elapsed:.1f}s (cap 600s)")


def test_criterion_05_end_to_end_qht():
    """N=8, eps=0.01 calibrated: block fidelities >= 1-eps, isometry singular
    values in [1-eps, 1+eps], uncompute residual <= eps."""
    t0 = time.time()
    cfg = choose_dimensions(8, 0.01)
    basis = hermite_basis(GridSpec(cfg.M), 7)
    fidelities = []
    residuals = []
    for n in range(8):
        e = np.zeros(8)
        e[n] = 1.0
        res = qht_apply(e, cfg)
        ref = qht_reference(e, basis)
        fidelities.append(abs(np.vdot(ref / np.linalg.norm(ref), res.output)))
        residuals.append(res.uncompute_residual)
    sv = isometry_singular_values(cfg)
    elapsed = time.time() - t0
    fid_ok = all(f >= 1 - cfg.eps for f in fidelities)
    iso_ok = bool(np.all(sv >= 1 - cfg.eps) and np.all(sv <= 1 + cfg.eps))
    res_ok = all(r <= cfg.eps for r in residuals)
    ok = fid_ok and iso_ok and res_ok and elapsed <= 600.0
    _report(5, ok,
            f"min fidelity {min(fidelities):.6f} (>=0.99), sv in "
            f"[{sv.min():.6f},{sv.max():.6f}] (+-0.01), max residual "
            f"{max(residuals):.2e} (<=0.01), runtime {elapsed:.1f}s (cap 600s)")


def _sampling_corpus():
    return [
        corpus.constant(1, 1.0),
        corpus.constant(2, 1.0),
        corpus.product_sign((0,), 1),
        corpus.product_sign((0, 1), 2),
        corpus.hermite_monomial((2,), 1),
        corpus.hermite_monomial((2, 1), 2),
        corpus.mixture([((1,), 0.8), ((3,), 0.6)], 1, bounded=True),
        corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2, bounded=True),
    ]


def test_criterion_06_hermite_sampling_correctness():
    """Per-index |p_v - q_v| <= 0.05 against the quadrature oracle and
    empirical TV over 1e4 seeded samples <= eps + upsilon + 0.03."""
    t0 = time.time()
    eps = 0.05
    rng = np.random.default_rng(20240817)
    worst_pointwise = 0.0
    tv_report = []
    all_ok = True
    for f in _sampling_corpus():
        scfg = SamplerConfig(M=512, D=9)
        table = spectrum_table(f, 9, 512)
        norm_sq = 1.0 if f.boolean else max(table.mass, 1e-12)
        dist = sample_distribution(f, scfg, normalized=not f.boolean)
        q = table.probabilities(norm_sq)
        pointwise = max(abs(dist.prob(v) - q[v]) for v in q)
        worst_pointwise = max(worst_pointwise, pointwise)
        hist = {}
        for _ in range(10000):
            s = general_hermite_sample(dist, rng)
            hist[s.v] = hist.get(s.v, 0) + 1
        # out-of-window concentration: boolean spectra may carry real mass
        # beyond D (sgn decays like k^(-3/4)); normalized spectra capture
        # everything up to the clipping residue
        upsilon = max(0.0, 1.0 - table.mass / norm_sq)
        tv = tv_distance(hist, table, 9, norm_sq=norm_sq)
        budget = eps + upsilon + 0.03
        tv_report.append((f.label, round(tv, 4), round(budget, 4)))
        if tv > budget or pointwise > eps:
            all_ok = False
    elapsed = time.time() - t0
    ok = all_ok and elapsed <= 300.0
    _report(6, ok,
            f"worst per-index gap {worst_pointwise:.4f} (<=0.05), "
            f"tv(label, value, budget)={tv_report}, runtime {elapsed:.1f}s (cap 300s)")


def test_criterion_07_distortion_postselection():
    """Mean accepted-attempt count <= 2*kappa + 0.5 over 1000 runs, kappa in {1,3}."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    results = {}
    for kappa, f in ((1.0, corpus.product_sign((0,), 1)),
                     (3.0, corpus.scaled_constant(3.0, 1))):
        dist = sample_distribution(f, SamplerConfig(M=256, D=5), normalized=not f.boolean)
        attempts = [general_hermite_sample(dist, rng).attempts for _ in range(1000)]
        results[kappa] = float(np.mean(attempts))
    elapsed = time.time() - t0
    ok = all(results[k] <= 2 * k + 0.5 for k in results)
    _report(7, ok, f"mean attempts {results} vs bounds {{1.0: 2.5, 3.0: 6.5}}, "
                   f"runtime {elapsed:.1f}s")


def _ggl_instances():
    # five planted sparse instances with exact spectra (n = 2)
    return [
        ("spike", corpus.mixture([((1, 0), 1.0)], 2), {(1, 0): 1.0}),
        ("pair_09", corpus.mixture([((1, 0), 0.9), ((0, 3), 0.436)], 2),
         {(1, 0): 0.9, (0, 3): 0.436}),
        ("pair_08", corpus.mixture([((2, 0), 0.8), ((0, 2), 0.6)], 2),
         {(2, 0): 0.8, (0, 2): 0.6}),
        ("triple", corpus.mixture([((1, 0), 0.7), ((0, 1), 0.55), ((1, 1), 0.35)], 2),
         {(1, 0): 0.7, (0, 1): 0.55, (1, 1): 0.35}),
        ("flat", corpus.mixture([((a, b), 0.07) for a in range(3) for b in range(3)], 2),
         {(a, b): 0.07 for a in range(3) for b in range(3)}),
    ]


def test_criterion_08_ggl_guarantee():
    """20 seeds x 5 instances (tau in {0.3, 0.5}): completeness >= 90% of runs,
    zero soundness violations, |L| <= 4/tau^2 always."""
    t0 = time.time()
    runs = 0
    complete_runs = 0
    soundness_violations = 0
    size_ok = True
    for label, f, coeffs in _ggl_instances():
        for i, seed in enumerate(range(20)):
            tau = 0.3 if i % 2 == 0 else 0.5
            rng = np.random.default_rng(seed * 1009 + zlib.crc32(label.encode()) % 97)
            res = gaussian_goldreich_levin(f, tau, 0.1, rng)
            runs += 1
            heavy = {v for v, c in coeffs.items() if abs(c) >= tau}
            if heavy <= set(res.found):
                complete_runs += 1
            for v in res.found:
                if abs(coeffs.get(v, 0.0)) < tau / 2:
                    soundness_violations += 1
            if len(res.found) > 4.0 / tau**2:
                size_ok = False
    elapsed = time.time() - t0
    rate = complete_runs / runs
    ok = rate >= 0.9 and soundness_violations == 0 and size_ok and elapsed <= 600.0
    _report(8, ok,
            f"completeness {complete_runs}/{runs} ({rate:.2f} >= 0.9), "
            f"soundness violations {soundness_violations} (=0), size cap {size_ok}, "
            f"runtime {elapsed:.1f}s (cap 600s)")


def _tester_corpus():
    scfg = SamplerConfig(M=512, D=9)
    e1, e2, d = 0.1, 0.3, 0.1
    lowdeg_yes = corpus.mixture([((1, 0), 0.8), ((0, 2), 0.6)], 2, bounded=True)
    lowdeg_no = corpus.hermite_monomial((3, 3), 2)
    half = 1 / math.sqrt(2)
    return [
        ("sign_yes", "product_sign", True,
         lambda rng: product_sign_tester(corpus.product_sign((0, 1), 3), 2, e1, e2, d, rng, scfg)),
        ("sign_yes_noisy", "product_sign", True,
         lambda rng: product_sign_tester(
             corpus.noisy_product_sign((0, 1), 2, eta=0.025), 2, e1, e2, d, rng, scfg)),
        ("sign_no_bigger_support", "product_sign", False,
         lambda rng: product_sign_tester(corpus.product_sign((0, 1, 2), 3), 2, e1, e2, d, rng, scfg)),
        ("lowdeg_yes", "low_degree", True,
         lambda rng: low_degree_tester(lowdeg_yes, 3, e1, e2, d, rng, scfg)),
        ("lowdeg_no", "low_degree", False,
         lambda rng: low_degree_tester(lowdeg_no, 3, e1, e2, d, rng, scfg)),
        ("hermite_yes", "hermite", True,
         lambda rng: hermite_tester(corpus.hermite_monomial((2, 0), 2), 1, e1, e2, d, rng, scfg)),
        ("hermite_yes_attenuated", "hermite", True,
         lambda rng: hermite_tester(
             corpus.mixture([((2, 0), 0.95), ((0, 5), math.sqrt(1 - 0.95**2))], 2,
                            bounded=True), 1, e1, e2, d, rng, scfg)),
        ("hermite_no_balanced", "hermite", False,
         lambda rng: hermite_tester(
             corpus.mixture([((2, 0), half), ((0, 4), half)], 2, bounded=True),
             1, e1, e2, d, rng, scfg)),
    ]


def test_criterion_09_testers():
    """>= 90% correct verdicts over the promise corpus at (0.1, 0.3), delta=0.1;
    low-degree tester uses exactly ceil(c log(1/delta)/eps^2) samples."""
    t0 = time.time()
    total = 0
    correct = 0
    per_instance = {}
    for label, _tester, expected, run in _tester_corpus():
        hits = 0
        n_seeds = 10
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed * 7919 + zlib.crc32(label.encode()) % 101)
            verdict = run(rng)
            hits += verdict.accept == expected
        per_instance[label] = hits / n_seeds
        total += n_seeds
        correct += hits
    # exact sample-count contract for the low-degree tester
    c = 12.0
    rng = np.random.default_rng(0)
    v = low_degree_tester(corpus.mixture([((1, 0), 1.0)], 2, bounded=True),
                          3, 0.1, 0.3, 0.1, rng, SamplerConfig(M=512, D=9), c_samples=c)
    expected_m = int(math.ceil(c * math.log(1 / 0.1) / 0.2**2))
    count_ok = v.samples_used == expected_m
    elapsed = time.time() - t0
    rate = correct / total
    ok = rate >= 0.9 and count_ok
    _report(9, ok, f"verdict accuracy {rate:.2f} (>=0.9) per-instance {per_instance}, "
                   f"low-degree m={v.samples_used}=={expected_m}: {count_ok}, "
                   f"runtime {elapsed:.1f}s")


def test_criterion_10_sign_spectrum_decay():
    """Univariate sgn: even coefficients <= 1e-12; |fhat(k)| <= exp(-c k) with
    c > 0 fitted over odd k <= 15."""
    t0 = time.time()
    sgn = corpus.product_sign((0,), 1)
    even_ok = True
    for k in range(2, 16, 2):
        val, _ = coefficient_oracle(sgn, (k,), 512)
        if abs(val) > 1e-12:
            even_ok = False
    cs = []
    for k in range(1, 16, 2):
        val, _ = coefficient_oracle(sgn, (k,), 512)
        cs.append(-math.log(abs(val)) / k)
    c_fit = min(cs)
    elapsed = time.time() - t0
    ok = even_ok and c_fit > 0
    _report(10, ok, f"even coeffs <=1e-12: {even_ok}, fitted decay c={c_fit:.4f} (>0), "
                    f"runtime {elapsed:.1f}s")
