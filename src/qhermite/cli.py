"""Reproducibility front-end: experiment sweeps emitted as self-describing tables.

Each output starts with a `# {json}` provenance line carrying the full
configuration and seed; identical configuration and seed produce
byte-identical files (wall-clock timings are therefore opt-in via --timings,
which breaks the hash on purpose).  Exit code 0 means every row computed,
2 means some rows were infeasible (reported in-file), 1 means usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import corpus as corpus_mod
from .calibration import Calibration, load_calibration
from .discrete_qho import build, dense_diagonalize, hermite_basis
from .fast_forward import LOW_ENERGY_M_CAP, decompose, low_energy_error
from .hermite_sampling import (
    SamplerConfig,
    general_hermite_sample,
    sample_distribution,
    spectrum_table,
    tv_distance,
)
from .learning_testers import (
    gaussian_goldreich_levin,
    test_hermite_polynomial,
    test_low_degree,
    test_product_sign,
)
from .qht_pipeline import (
    ConfigError,
    QHTConfig,
    build_pr_state,
    choose_dimensions,
    qht_apply,
)
from .spectral_core import GridSpec, hermite_function_rows

__all__ = ["main", "read_table"]


def _write_table(path, meta: dict, header: list, rows: list, fmt: str, footer: dict | None = None):
    meta_json = json.dumps(meta, sort_keys=True)
    if fmt == "json":
        payload = {"meta": meta, "rows": [dict(zip(header, r)) for r in rows]}
        if footer:
            payload["summary"] = footer
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# {meta_json}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            writer.writerow(r)
        if footer:
            buf.write(f"# summary {json.dumps(footer, sort_keys=True)}\n")
        text = buf.getvalue()
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def read_table(path):
    """Load a CSV or JSON table written by this CLI: (meta, rows, summary)."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        return data["meta"], data["rows"], data.get("summary")
    meta, summary = {}, None
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("# summary "):
            summary = json.loads(line[len("# summary "):])
        elif line.startswith("# "):
            meta = json.loads(line[2:])
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, next(csv.reader([line])))))
    return meta, rows, summary


def _meta(args, command: str) -> dict:
    keep = {k: v for k, v in vars(args).items()
            if k not in ("func", "out", "cal") and v is not None}
    keep["command"] = command
    return keep


def _parse_list(text, cast):
    return [cast(tok) for tok in str(text).split(",") if tok]


def cmd_ff_error(args) -> int:
    Ms = _parse_list(args.M or "128,256,512", int)
    Ns = _parse_list(args.N or "4,8,16", int)
    ts = _parse_list(args.t or "0.25,1.0,3.0", float)
    rows = []
    infeasible = 0
    for M in Ms:
        try:
            if M > LOW_ENERGY_M_CAP:   # checked before the eigensolve
                raise ValueError(f"projected-error budget is M <= {LOW_ENERGY_M_CAP}")
            qho = build(GridSpec(M))
            eig = dense_diagonalize(qho)
        except ValueError:
            for N in Ns:
                for t in ts:
                    rows.append([M, N, t, decompose(t).reps, "", "infeasible"])
                    infeasible += 1
            continue
        for N in Ns:
            for t in ts:
                t0 = time.perf_counter()
                try:
                    err = low_energy_error(qho, eig, N, t)
                except ValueError:
                    rows.append([M, N, t, decompose(t).reps, "", "infeasible"])
                    infeasible += 1
                    continue
                row = [M, N, t, decompose(t).reps, f"{err:.6e}", "ok"]
                if args.timings:
                    row.append(int((time.perf_counter() - t0) * 1000))
                rows.append(row)
    header = ["M", "N", "t", "reps", "projected_error", "status"]
    if args.timings:
        header.append("runtime_ms")
    _write_table(args.out, _meta(args, "ff-error"), header, rows, args.format)
    return 2 if infeasible else 0


def cmd_overlap(args) -> int:
    M = int(args.M or 100000)
    n_max = int(args.n if args.n is not None else 100)
    spec = GridSpec(M)
    x = spec.points()
    sqh = np.sqrt(spec.h)
    psi = hermite_function_rows(n_max, x) * sqh
    cfg = QHTConfig(N=n_max + 1, eps=0.01, M=M, N_high=M // 2)
    rows = []
    for n in range(n_max + 1):
        pr = build_pr_state(n, cfg)
        rows.append([n, f"{float(psi[n] @ pr.amplitudes):.10f}"])
    _write_table(args.out, _meta(args, "overlap"), ["n", "overlap"], rows, args.format)
    return 0


def cmd_qht(args) -> int:
    N = int(args.N or 8)
    eps = float(args.eps or 0.01)
    try:
        cfg = choose_dimensions(N, eps, args.cal)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    basis = hermite_basis(GridSpec(cfg.M), N - 1)
    rows = []
    for n in range(N):
        e = np.zeros(N)
        e[n] = 1.0
        res = qht_apply(e, cfg)
        ref = basis.state(n) * (-1.0) ** n if cfg.signed_output else basis.state(n)
        ref = ref / np.linalg.norm(ref)
        fid = abs(np.vdot(ref.astype(complex), res.output))
        rows.append([n, f"{fid:.8f}", f"{res.block_fidelities[n]:.8f}",
                     f"{res.filter_leaks[n]:.3e}", f"{res.uncompute_residual:.3e}"])
    footer = {"M": cfg.M, "N_high": cfg.N_high}
    _write_table(args.out, _meta(args, "qht"),
                 ["n", "fidelity", "block_fidelity", "filter_leak", "uncompute_residual"],
                 rows, args.format, footer)
    return 0


def _default_corpus(n: int):
    return [
        ("const", corpus_mod.constant(n, 1.0)),
        ("product_sign", corpus_mod.product_sign(tuple(range(min(2, n))), n)),
        ("monomial", corpus_mod.hermite_monomial((2,) + (0,) * (n - 1), n)),
    ]


def cmd_sample(args) -> int:
    n = int(args.n or 1)
    D = int(args.D or 9)
    trials = int(args.trials or 2000)
    rng = np.random.default_rng(int(args.seed))
    scfg = SamplerConfig(M=int(args.M or 512), D=D)
    if args.corpus:
        funcs = [(f.label or f"f{i}", f) for i, f in enumerate(corpus_mod.load_corpus(args.corpus))]
    else:
        funcs = _default_corpus(n)
    rows = []
    summaries = {}
    for label, f in funcs:
        dist = sample_distribution(f, scfg, normalized=not f.boolean)
        hist: dict = {}
        attempts = []
        for trial in range(trials):
            s = general_hermite_sample(dist, rng)
            hist[s.v] = hist.get(s.v, 0) + 1
            attempts.append(s.attempts)
            if args.log:
                rows.append([label, trial, "|".join(map(str, s.v)), s.attempts])
        table = spectrum_table(f, D, M_quad=512)
        dist_norm = 1.0 if f.boolean else max(table.mass, 1e-12)
        tv = tv_distance(hist, table, D, norm_sq=dist_norm)
        if not args.log:
            for v in sorted(hist):
                rows.append([label, "|".join(map(str, v)), hist[v],
                             f"{hist[v] / trials:.6f}"])
        summaries[label] = {"tv": round(tv, 6), "mean_attempts": float(np.mean(attempts))}
    header = (["instance", "trial", "v", "accepted_attempts"] if args.log
              else ["instance", "v", "count", "frequency"])
    _write_table(args.out, _meta(args, "sample"), header, rows, args.format,
                 {"trials": trials, "instances": summaries})
    return 0


def _ggl_corpus(n: int, mode: str):
    if mode == "sampler":
        # sampler mode verifies raw coefficients, so its instances must be
        # unit-norm (boolean) oracles whose declared kappa covers the
        # postselection rate
        e1 = (1,) + (0,) * (n - 1)
        return [
            ("sign_1", corpus_mod.product_sign((0,), n), [e1]),
            ("sign_12", corpus_mod.product_sign((0, 1), n), [(1, 1) + (0,) * (n - 2)]),
        ]
    return [
        ("spike", corpus_mod.mixture([((1,) + (0,) * (n - 1), 1.0)], n), [(1,) + (0,) * (n - 1)]),
        ("two_term", corpus_mod.mixture([((1,) + (0,) * (n - 1), 0.9),
                                         ((0,) * (n - 1) + (3,), 0.436)], n),
         [(1,) + (0,) * (n - 1)]),
    ]


def cmd_ggl(args) -> int:
    n = int(args.n or 2)
    tau = float(args.tau or 0.5)
    delta = float(args.delta or 0.1)
    seeds = _parse_list(args.seeds or "0,1,2,3,4", int)
    mode = args.mode or "classical"
    rows = []
    successes = 0
    total = 0
    for label, f, heavy in _ggl_corpus(n, mode):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            res = gaussian_goldreich_levin(f, tau, delta, rng, mode=mode)
            complete = all(tuple(v) in res.found for v in heavy)
            successes += complete
            total += 1
            rows.append([label, mode, seed, res.oracle_queries,
                         ";".join("|".join(map(str, v)) for v in res.found),
                         int(complete), int(not res.failed)])
    footer = {"success_rate": successes / max(total, 1)}
    _write_table(args.out, _meta(args, "ggl"),
                 ["instance", "mode", "seed", "queries", "found", "complete", "ok"],
                 rows, args.format, footer)
    return 0


def cmd_test(args) -> int:
    eps1 = float(args.eps1 or 0.1)
    eps2 = float(args.eps2 or 0.3)
    delta = float(args.delta or 0.1)
    rng = np.random.default_rng(int(args.seed))
    n = int(args.n or 2)
    scfg = SamplerConfig(M=int(args.M or 512), D=int(args.D or 9))
    lowdeg_yes = corpus_mod.mixture([((1, 0), 0.8), ((0, 2), 0.6)], n, bounded=True)
    lowdeg_no = corpus_mod.hermite_monomial((3, 3), n)
    instances = [
        ("chi01_yes", corpus_mod.product_sign((0, 1), n), "product_sign",
         lambda f: test_product_sign(f, 2, eps1, eps2, delta, rng, scfg), True),
        ("chi012_no", corpus_mod.product_sign((0,), n), "product_sign",
         lambda f: test_product_sign(f, 2, eps1, eps2, delta, rng, scfg), False),
        ("h2_yes", corpus_mod.hermite_monomial((2,) + (0,) * (n - 1), n), "hermite",
         lambda f: test_hermite_polynomial(f, 1, eps1, eps2, delta, rng, scfg), True),
        ("lowdeg_yes", lowdeg_yes, "low_degree",
         lambda f: test_low_degree(f, 3, eps1, eps2, delta, rng, scfg), True),
        ("lowdeg_no", lowdeg_no, "low_degree",
         lambda f: test_low_degree(f, 3, eps1, eps2, delta, rng, scfg), False),
    ]
    rows = []
    for label, f, tester, run, expected in instances:
        verdict = run(f)
        rows.append([label, tester, int(verdict.accept), int(verdict.accept == expected),
                     verdict.samples_used])
    _write_table(args.out, _meta(args, "test"),
                 ["instance", "tester", "accept", "correct", "samples"], rows, args.format)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qhermite",
                                     description="discrete quantum Hermite transform toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", default=0)
        p.add_argument("--out", default="-")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--calibration", default=None)
        p.add_argument("--timings", action="store_true")

    p = sub.add_parser("ff-error", help="fast-forwarding error atlas")
    p.add_argument("--M", default=None)
    p.add_argument("--N", default=None)
    p.add_argument("--t", default=None)
    common(p)
    p.set_defaults(func=cmd_ff_error)

    p = sub.add_parser("overlap", help="Plancherel-Rotach overlap curve")
    p.add_argument("--M", default=None)
    p.add_argument("--n", default=None)
    common(p)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("qht", help="end-to-end transform fidelity report")
    p.add_argument("--N", default=None)
    p.add_argument("--eps", default=None)
    common(p)
    p.set_defaults(func=cmd_qht)

    p = sub.add_parser("sample", help="Hermite sampling histogram + TV report")
    p.add_argument("--n", default=None)
    p.add_argument("--D", default=None)
    p.add_argument("--M", default=None)
    p.add_argument("--trials", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--log", action="store_true",
                   help="emit per-trial rows (trial, v, accepted_attempts)")
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("ggl", help="Gaussian Goldreich-Levin transcript")
    p.add_argument("--n", default=None)
    p.add_argument("--tau", default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--seeds", default=None)
    p.add_argument("--mode", default=None, choices=(None, "classical", "sampler"))
    common(p)
    p.set_defaults(func=cmd_ggl)

    p = sub.add_parser("test", help="property-tester verdict table")
    p.add_argument("--n", default=None)
    p.add_argument("--D", default=None)
    p.add_argument("--M", default=None)
    p.add_argument("--eps1", default=None)
    p.add_argument("--eps2", default=None)
    p.add_argument("--delta", default=None)
    common(p)
    p.set_defaults(func=cmd_test)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:   # loaded before any work, so a bad file fails every subcommand fast
        args.cal = load_calibration(args.calibration) if args.calibration else Calibration()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load calibration: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
