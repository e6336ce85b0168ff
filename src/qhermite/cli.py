"""Reproducibility front-end: experiment sweeps emitted as self-describing tables.

Each output starts with a `# {json}` provenance line carrying the full
configuration and seed; identical configuration and seed produce
byte-identical files (wall-clock timings are therefore opt-in via --timings,
which breaks the hash on purpose).  Exit code 0 means every row computed,
2 means some rows were infeasible (reported in-file), 1 means usage error.

Each `cmd_*` computes and returns (header, rows, footer, exit code); `main`
alone checks --out before any work, writes the table, adds `runtime_ms` to
the footer under --timings, and turns a failure into one `error:` line.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

__all__ = ["main", "read_table"]


def _write_table(path, meta: dict, header: list, rows: list, fmt: str, footer: dict):
    for r in rows:
        if len(r) != len(header):
            raise ValueError(f"row {r} has {len(r)} fields under the {len(header)}-field "
                             f"header {header}")
    if fmt == "json":
        payload = {"meta": meta, "rows": [dict(zip(header, r)) for r in rows]}
        if footer:
            payload["summary"] = footer
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# {json.dumps(meta, sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
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


def _check_out(path) -> None:
    """Refuse an --out that cannot be opened for writing, before any work is done."""
    if path == "-":
        return
    if not path:
        raise ValueError("--out is empty")
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path}: no directory {parent}")


def _meta(args) -> dict:
    """The provenance line: every option set, and the subcommand under "command"."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None}


def _int_at_least(low: int, what: str):
    def parse(text):
        if not text.isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"invalid {what} int value: {text!r}")
        return int(text)

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _int_list(text):
    return [int(tok) for tok in text.split(",")]


def _positive_int_list(text):
    return [_positive_int(tok) for tok in text.split(",")]


def _finite_float_list(text):
    values = [float(tok) for tok in text.split(",")]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"invalid finite float list: {text!r}")
    return values


def cmd_ff_error(args):
    from .discrete_qho import build, dense_diagonalize
    from .fast_forward import LOW_ENERGY_M_CAP, decompose, low_energy_error
    from .spectral_core import GridSpec

    reps = {t: decompose(t).reps for t in args.t}   # refuses a huge t before the eigensolve
    rows = []
    solves_ms, solves_workers = {}, {}   # per M whose eigensolve ran
    for M in args.M:
        try:
            if M > LOW_ENERGY_M_CAP:   # checked before the eigensolve
                raise ValueError(f"projected-error budget is M <= {LOW_ENERGY_M_CAP}")
            qho = build(GridSpec(M))
            t0 = time.perf_counter()
            eig = dense_diagonalize(qho)
            solves_ms[str(M)] = int((time.perf_counter() - t0) * 1000)
            solves_workers[str(M)] = eig.workers
        except ValueError:
            qho = None
        for N in args.N:
            for t in args.t:
                t0 = time.perf_counter()
                error = ""
                if qho is not None and N <= M:   # --N is positive, so 1 <= N <= M
                    try:
                        error = f"{low_energy_error(qho, eig, N, t):.6e}"
                    except ValueError:   # the invariance guard refused t; the row stays infeasible
                        pass
                row = [M, N, t, reps[t], error, "ok" if error else "infeasible"]
                if args.timings:   # left empty where no error was computed
                    row.append(int((time.perf_counter() - t0) * 1000) if error else "")
                rows.append(row)
    header = ["M", "N", "t", "reps", "projected_error", "status"]
    footer = {}
    if args.timings:
        header.append("runtime_ms")
        footer = {"eigensolve_ms": solves_ms, "eigensolve_workers": solves_workers}
    return header, rows, footer, 2 if any(r[5] == "infeasible" for r in rows) else 0


def cmd_overlap(args):
    from .qht_pipeline import build_pr_state
    from .spectral_core import GridSpec, hermite_functions

    M, n_max = args.M, args.n
    spec = GridSpec(M)
    if n_max >= M:
        raise ValueError(f"n_max={n_max} must be < M={M}")
    scale = np.sqrt(spec.h)   # the rows of `hermite_basis`, streamed one at a time
    rows = []
    for n, psi in enumerate(hermite_functions(n_max, spec.points())):
        rows.append([n, f"{float((psi * scale) @ build_pr_state(n, M)):.10f}"])
    return ["n", "overlap"], rows, {}, 0


def cmd_qht(args):
    from .qht_pipeline import choose_dimensions, high_energy_cutoff, psibar_rows, qht_operator

    cfg = choose_dimensions(args.N, args.eps)
    op = qht_operator(cfg)
    t0 = time.perf_counter()
    columns = op.matrix()
    build_s = time.perf_counter() - t0
    rows = []
    for n, (u, target) in enumerate(zip(columns, psibar_rows(cfg.M, range(cfg.N)))):
        # the output for |n> is s_n u_n and its reference s_n |psibar_n>: the signs cancel
        fid = abs(np.vdot(target, u))
        block_fid = op.block_fidelities[n]
        rows.append([n, f"{fid:.8f}", f"{block_fid:.8f}", f"{1.0 - fid:.3e}",
                     f"{1.0 - block_fid:.3e}", f"{op.filter_leaks[n]:.3e}",
                     f"{op.uncompute_residuals[n]:.3e}"])
    footer = {"M": cfg.M, "N_high": high_energy_cutoff(cfg.N, cfg.eps),
              "v_passes": op.v_passes}
    if args.timings:
        footer["columns_ms"] = int(build_s * 1000)
        footer["workers"] = op.build_workers
    return (["n", "fidelity", "block_fidelity", "infidelity", "block_infidelity",
             "filter_leak", "uncompute_residual"], rows, footer, 0)


def _default_corpus(n: int):
    from . import corpus as corpus_mod

    return [
        ("const", corpus_mod.constant(n, 1.0)),
        ("product_sign", corpus_mod.product_sign(tuple(range(min(2, n))), n)),
        ("monomial", corpus_mod.hermite_monomial((2,) + (0,) * (n - 1), n)),
    ]


def cmd_sample(args):
    from . import corpus as corpus_mod
    from .hermite_sampling import (
        SamplerConfig,
        _spectrum_draws,
        _tally,
        spectrum_table,
        tv_distance,
    )

    D, trials = args.D, args.trials
    rng = np.random.default_rng(args.seed)
    scfg = SamplerConfig(M=args.M, D=D)
    if args.corpus:
        funcs = [(f.label or f"f{i}", f) for i, f in enumerate(corpus_mod.load_corpus(args.corpus))]
    else:
        funcs = _default_corpus(args.n)
    rows = []
    summaries = {}
    for label, f in funcs:
        v, attempts = _spectrum_draws(f, scfg, rng, trials)
        counts = _tally(v)
        if args.log:
            rows += [[label, trial, "|".join(map(str, vt)), a]
                     for trial, (vt, a) in enumerate(zip(v.tolist(), attempts.tolist()))]
        else:   # the drawn indices ascending, out-of-range (D+1, ..., D+1) last
            rows += [[label, "|".join(map(str, u)), counts[u], f"{counts[u] / trials:.6f}"]
                     for u in sorted(counts)]
        q = spectrum_table(f, D, M_quad=scfg.M) ** 2
        if not f.boolean:
            q /= max(float(q.sum()), 1e-12)
        summaries[label] = {"tv": round(tv_distance(counts, q), 6),
                            "mean_attempts": float(np.mean(attempts))}
    header = (["instance", "trial", "v", "accepted_attempts"] if args.log
              else ["instance", "v", "count", "frequency"])
    return header, rows, {"trials": trials, "instances": summaries}, 0


def _ggl_corpus(n: int, mode: str):
    from . import corpus as corpus_mod

    if mode == "sampler":
        # sampler mode verifies raw coefficients, so its instances must be
        # unit-norm (boolean) oracles whose declared kappa covers the
        # postselection rate
        instances = [("sign_1", corpus_mod.product_sign((0,), n), [(1,) + (0,) * (n - 1)])]
        if n >= 2:   # sign_12 needs a second axis
            instances.append(("sign_12", corpus_mod.product_sign((0, 1), n),
                              [(1, 1) + (0,) * (n - 2)]))
        return instances
    return [
        ("spike", corpus_mod.mixture([((1,) + (0,) * (n - 1), 1.0)], n), [(1,) + (0,) * (n - 1)]),
        ("two_term", corpus_mod.mixture([((1,) + (0,) * (n - 1), 0.9),
                                         ((0,) * (n - 1) + (3,), 0.436)], n),
         [(1,) + (0,) * (n - 1)]),
    ]


def cmd_ggl(args):
    from .learning_testers import gaussian_goldreich_levin

    mode = args.mode
    rows = []
    for label, f, heavy in _ggl_corpus(args.n, mode):
        for seed in args.seeds:
            rng = np.random.default_rng(seed)
            res = gaussian_goldreich_levin(f, args.tau, args.delta, rng, mode=mode)
            rows.append([label, mode, seed, res.oracle_queries,
                         ";".join("|".join(map(str, v)) for v in res.found),
                         int(all(tuple(v) in res.found for v in heavy)), int(not res.failed)])
    return (["instance", "mode", "seed", "queries", "found", "complete", "ok"], rows,
            {"success_rate": sum(row[5] for row in rows) / max(len(rows), 1)}, 0)


def cmd_test(args):
    from . import corpus as corpus_mod
    from .hermite_sampling import SamplerConfig
    from .learning_testers import test_hermite_polynomial, test_low_degree, test_product_sign

    d = 3   # the degree the low-degree instances are tested at
    if args.D < d:
        raise ValueError(f"--D {args.D} is below the tested degree {d}")
    eps1, eps2, delta, n = args.eps1, args.eps2, args.delta, args.n
    rng = np.random.default_rng(args.seed)
    scfg = SamplerConfig(M=args.M, D=args.D)
    testers = {"product_sign": test_product_sign, "hermite": test_hermite_polynomial,
               "low_degree": test_low_degree}
    instances = [   # (label, oracle, tester, k or d, expected verdict)
        ("chi01_yes", corpus_mod.product_sign((0, 1), n), "product_sign", 2, True),
        ("chi012_no", corpus_mod.product_sign((0,), n), "product_sign", 2, False),
        ("h2_yes", corpus_mod.hermite_monomial((2,) + (0,) * (n - 1), n), "hermite", 1, True),
        ("lowdeg_yes", corpus_mod.mixture([((1, 0), 0.8), ((0, 2), 0.6)], n, bounded=True),
         "low_degree", d, True),
        ("lowdeg_no", corpus_mod.hermite_monomial((3, 3), n), "low_degree", d, False),
    ]
    rows = []
    for label, f, tester, k, expected in instances:
        verdict = testers[tester](f, k, eps1, eps2, delta, rng, scfg)
        rows.append([label, tester, int(verdict.accept), int(verdict.accept == expected),
                     verdict.samples_used])
    return ["instance", "tester", "accept", "correct", "samples"], rows, {}, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qhermite",
                                     description="discrete quantum Hermite transform toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="-")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--timings", action="store_true")

    p = sub.add_parser("ff-error", help="fast-forwarding error atlas")
    p.add_argument("--M", type=_positive_int_list, default="128,256,512")
    p.add_argument("--N", type=_positive_int_list, default="4,8,16")
    p.add_argument("--t", type=_finite_float_list, default="0.25,1.0,3.0")
    common(p)
    p.set_defaults(func=cmd_ff_error)

    p = sub.add_parser("overlap", help="Plancherel-Rotach overlap curve")
    p.add_argument("--M", type=int, default=100000)
    p.add_argument("--n", type=_non_negative_int, default=100)
    common(p)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("qht", help="end-to-end transform fidelity report")
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--eps", type=float, default=0.01)
    common(p)
    p.set_defaults(func=cmd_qht)

    p = sub.add_parser("sample", help="Hermite sampling histogram + TV report")
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--D", type=_non_negative_int, default=9)
    p.add_argument("--M", type=int, default=512)
    p.add_argument("--trials", type=_positive_int, default=2000)
    p.add_argument("--corpus", default=None)
    p.add_argument("--log", action="store_true",
                   help="emit per-trial rows (trial, v, accepted_attempts)")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("ggl", help="Gaussian Goldreich-Levin transcript")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seeds", type=_int_list, default="0,1,2,3,4")
    p.add_argument("--mode", default="classical", choices=("classical", "sampler"))
    common(p)
    p.set_defaults(func=cmd_ggl)

    p = sub.add_parser("test", help="property-tester verdict table")
    p.add_argument("--n", type=int, default=2, choices=(2,),
                   help="arity; the five test instances are defined on two axes")
    p.add_argument("--D", type=_non_negative_int, default=9)
    p.add_argument("--M", type=int, default=512)
    p.add_argument("--eps1", type=float, default=0.1)
    p.add_argument("--eps2", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_test)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    t0 = time.perf_counter()   # runtime_ms counts the subcommand's imports too
    try:
        _check_out(args.out)
        header, rows, footer, code = args.func(args)
        if args.timings:
            footer["runtime_ms"] = int((time.perf_counter() - t0) * 1000)
        _write_table(args.out, _meta(args), header, rows, args.format, footer)
    except (ValueError, OSError) as exc:   # ConfigError and PostselectionFailure are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
