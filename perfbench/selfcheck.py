"""Determinism self-check of the benchmark's traced runs.

usage: python3 perfbench/selfcheck.py [--workload W ...] [--seed N] [--seconds S]

For each workload: two traced runs with one seed must give identical counts
(every per-layer metric except times and the tracing overhead); a run with another seed
must generate different inputs (alphas, times, CLI arguments), seen through
the inputs digest each run prints.  The program receives only those
generated inputs, never the seed.  Also checks that the metric names the
runs print are the ones BENCHMARK.json declares.  Exits 1 on any mismatch.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                         check=True).stdout.splitlines()
    digest = next(m.group(1) for line in out if (m := re.search(r"inputs sha256 (\w+)", line)))
    return digest, json.loads(out[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    problems = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        d1, m1 = traced(workload, args.seed, args.seconds)
        d2, m2 = traced(workload, args.seed, args.seconds)
        d3, _ = traced(workload, args.seed + 1, args.seconds)
        if list(m1) != declared:
            problems.append(f"{workload}: printed per-layer names differ from BENCHMARK.json")
        counts = [k for k, v in m1.items() if v["unit"] != "s" and k != "trace.overhead_ratio"]
        differ = [k for k in counts if m1[k]["value"] != m2[k]["value"]]
        problems += [f"{workload}: {k} {m1[k]['value']} != {m2[k]['value']} on one seed"
                     for k in differ]
        if d1 != d2:
            problems.append(f"{workload}: one seed generated different inputs ({d1} vs {d2})")
        if d1 == d3:
            problems.append(f"{workload}: seeds {args.seed} and {args.seed + 1} gave the same inputs")
        print(f"{workload}: {len(counts) - len(differ)}/{len(counts)} counts repeat; "
              f"inputs {d1} (seed {args.seed}) vs {d3} (seed {args.seed + 1})")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
