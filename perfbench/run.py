"""qhermite benchmark: one named workload, inputs from a seed, checked outputs.

usage: python3 perfbench/run.py --workload {transform,cli_sweeps,oscillator_lab}
                                --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics;
with --trace 1 the schedule runs untraced and then traced, and the metrics
are the per-layer ones (spans go to .perfbench_out/).  One client, closed
loop: each op starts when the previous one has ended.  The timing metrics are
scaled to a reference host speed (see CAL_REF_S); each run also prints the
raw wall-clock figures.
"""
import os

# BLAS/OpenMP threads are pinned before numpy loads; children inherit them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4        # extra set-ups in fresh processes; setup_s is the median of 5
TAIL_BEYOND = 10        # the tail percentile keeps at least this many ops above it
# Host-speed reference: a typical time of one calibrate() pass on the 2-core
# x86 box the benchmark was tuned on (it read 15-32 ms there, with the host's
# state).  A shared host switches between fast and slow spells, up to 2x
# apart, over seconds to minutes.  A calibrate() pass runs before each timed
# op and after the last; each op's latency is scaled by CAL_REF_S / (median of
# the CAL_WINDOW passes nearest it), so the timing metrics read as times on
# that box at its usual speed.  The kernel is fixed benchmark code, so a
# change to the program moves the metrics in full.
CAL_REF_S = 0.025
CAL_WINDOW = 4         # 2 passes before the op and 2 after it


@dataclass
class Record:
    kind: str
    latency_s: float
    reason: str          # why the op failed, "" when it passed
    ratio: float         # worst deterministic error / tolerance
    wrong: bool          # a deterministic check failed, or the op failed unexpectedly


def import_program():
    """Import every qhermite module, so that no set-up clock includes imports."""
    import importlib

    from tracer import MODULES

    for mod in MODULES:
        importlib.import_module(f"qhermite.{mod}")


def calibrate() -> float:
    """Seconds for one pass of a fixed kernel that never touches qhermite.

    The kernel mixes the kinds of work the workloads do (complex FFTs with a
    phase multiply, a LAPACK eigensolve, interpreted arithmetic), so a slow or
    fast spell of the shared host moves it as it moves the ops.  Its FFT size
    (3000) is one the program never uses, so it warms no plan the program
    would otherwise pay for.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    x = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
    phase = np.exp(1j * rng.standard_normal(3000))
    a = rng.standard_normal((96, 96))
    a = a + a.T
    t0 = time.perf_counter()
    for _ in range(60):
        x = np.fft.ifft(np.fft.fft(x) * phase)
    for _ in range(7):
        np.linalg.eigh(a)
    acc = 0.0
    for i in range(60000):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - t0


def timed_setup(w) -> float:
    """w.setup() seconds at the reference host speed, from 3 passes before it and 3 after."""
    calibrate()                                 # warms the kernel
    cal = [calibrate() for _ in range(3)]
    t0 = time.perf_counter()
    w.setup()
    elapsed = time.perf_counter() - t0
    cal += [calibrate() for _ in range(3)]
    return elapsed * CAL_REF_S / statistics.median(cal)


def environment():
    import mpmath
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": sys.version.split()[0], "numpy": np.__version__,
            "mpmath": mpmath.__version__, "blas": openblas}


def run_ops(w, tracer=None, cal=None):
    """Closed loop over w.ops; returns (records, wall seconds).

    With a list `cal`, a calibrate() pass runs before each op and after the
    last one, outside the op latencies, and its time is appended to the list.
    """
    records = []
    start = time.perf_counter()
    for i, op in enumerate(w.ops):
        if cal is not None:
            cal.append(calibrate())
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out, reason = w.run(i, op), ""
        except Exception as exc:   # the op failed; record why and go on
            out, reason = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        ratio, wrong = 0.0, bool(reason) and not w.expected_failure(op, reason)
        if not reason:
            if tracer is not None:
                tracer.uninstall()     # checks are the benchmark's work, not the program's
            chk = w.check(i, op, out)
            if tracer is not None:
                tracer.install()
            ratio, wrong = chk.ratio, bool(chk.errors)
            reason = "; ".join(chk.errors + chk.mc)
        records.append(Record(op.kind, latency, reason, ratio, wrong))
    if cal is not None:
        cal.append(calibrate())
    return records, time.perf_counter() - start


def report(w, records, wall):
    """Human-readable lines; returns (correct, attempted, failed)."""
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r.kind].append(r.latency_s)
    print(f"# workload {w.name} seed {w.seed}: {len(records)} ops in {wall:.3f} s, "
          f"inputs sha256 {w.inputs_digest()}")
    for kind, lat in by_kind.items():
        print(f"#   {kind}: n={len(lat)} median {1e3 * statistics.median(lat):.1f} ms")
    failed = [(i, r) for i, r in enumerate(records) if r.reason]
    for i, r in failed:
        print(f"#   FAILED op {i} ({r.kind}){' WRONG' if r.wrong else ''}: {r.reason}")
    print(f"# failure_rate {len(failed) / len(records):.4f} ({len(failed)}/{len(records)}), "
          f"max_error_ratio {max(r.ratio for r in records):.6g}")
    return not any(r.wrong for r in records), len(records), len(failed)


def speed_factors(cal):
    """Host speed factor of each op: CAL_REF_S over the median of the passes nearest it.

    cal[i] ran just before op i and cal[i + 1] just after it.
    """
    factors = []
    for i in range(len(cal) - 1):
        lo = min(max(0, i + 1 - CAL_WINDOW // 2), max(0, len(cal) - CAL_WINDOW))
        factors.append(CAL_REF_S / statistics.median(cal[lo:lo + CAL_WINDOW]))
    return factors


def end_to_end(setup_samples, records, speeds, rss_mb):
    """The end-to-end metrics, from op latencies scaled by their host speed factors."""
    n = len(records)
    failed = sum(1 for r in records if r.reason)
    raw = sorted(r.latency_s for r in records)
    lat = sorted(f * r.latency_s for f, r in zip(speeds, records))
    tail_i = max(0, n - 1 - TAIL_BEYOND)
    print(f"# host speed factor median {statistics.median(speeds):.4f} "
          f"(range {min(speeds):.3f}-{max(speeds):.3f}); wall-clock op p50 "
          f"{1e3 * statistics.median(raw):.1f} ms, op tail {1e3 * raw[tail_i]:.1f} ms, "
          f"ops/s {(n - failed) / sum(raw):.4f}")
    print(f"# op_tail_ms is p{100.0 * (tail_i + 1) / n:.1f} of {n} ops; "
          f"setup samples {[round(s, 4) for s in setup_samples]}")
    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": ((n - failed) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * lat[tail_i], "ms"),
        "success_rate": ((n - failed) / n, "ratio"),
        "error_margin": (1.0 - max(r.ratio for r in records), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def probe_setup(args):
    """Set-up time of a fresh process: imports excluded, first-touch included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(w, args):
    samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    samples.append(timed_setup(w))
    cal = []
    records, wall = run_ops(w, cal=cal)
    correct, attempted, failed = report(w, records, wall)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"records-{w.name}-seed{w.seed}.json", "w") as fh:
        json.dump({"setup_s": samples, "calibrate_s": cal,
                   "ops": [[r.kind, r.latency_s, r.reason] for r in records]}, fh)
    return correct, attempted, failed, end_to_end(samples, records, speed_factors(cal),
                                                  w.peak_rss_mb())


def traced_run(w, args):
    from tracer import Tracer, layer_metrics, write_spans

    tracer = Tracer()
    w.prepare()                # reference data is the benchmark's work: not traced
    tracer.install()
    w.warm()
    tracer.uninstall()
    _, untraced_wall = run_ops(w)
    w.traced_children = True
    tracer.install()
    records, traced_wall = run_ops(w, tracer)
    tracer.uninstall()
    correct, attempted, failed = report(w, records, traced_wall)
    dumps = [("main", tracer.dump()), *w.child_dumps]
    extra = {
        "trace.spans": sum(len(d["spans"]) for _, d in dumps),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
        "cli.process_s": w.process_s,
    }
    print(f"# tracing overhead {100 * extra['trace.overhead_ratio']:.1f}% "
          f"(traced {traced_wall:.3f} s vs untraced {untraced_wall:.3f} s)")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    write_spans(out_dir / f"spans-{w.name}-seed{w.seed}.jsonl", dumps)
    return correct, attempted, failed, layer_metrics([d for _, d in dumps], extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qhermite" / "__init__.py").is_file():
        print(f"error: no qhermite package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload](ROOT, args.seed, args.seconds, bool(args.trace))
    import_program()
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(w)}))
        return 0
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    run = traced_run if args.trace else timed_run
    correct, attempted, failed, metrics = run(w, args)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
