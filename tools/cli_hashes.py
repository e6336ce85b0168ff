"""Print the sha256 of the qhermite CLI's default output files.

Runs the eleven default outputs below in one fresh interpreter, under the
caller's environment with this tree's src/ first on PYTHONPATH, and prints
one `sha256  name` line per file, in the order of RUNS.

    python tools/cli_hashes.py [NAME ...]

Names select a subset, printed in the order given; an unknown name is an
error.  A given configuration and seed give a byte-identical file (see the
cli module's docstring), so two trees print the same line for a name when
they compute the same numbers under the same environment (the BLAS thread
count included).
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = {
    "qht_N4": ["qht", "--N", "4"],
    "qht_N8": ["qht", "--N", "8"],
    "qht_N16": ["qht", "--N", "16"],
    "overlap": ["overlap", "--M", "20000", "--n", "40"],
    "sample_n1": ["sample", "--n", "1"],
    "sample_n2": ["sample", "--n", "2"],
    "sample_n3": ["sample", "--n", "3"],
    "ggl": ["ggl"],
    "ggl_sampler": ["ggl", "--mode", "sampler"],
    "test": ["test"],
    "ff_error": ["ff-error"],
}

# each job writes its file; the interpreter exits 1 if any subcommand did
_CHILD = """
import json, sys
from qhermite.cli import main
codes = [main(argv + ["--out", path]) for path, argv in json.loads(sys.argv[1])]
sys.exit(1 if 1 in codes else 0)
"""


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(RUNS)
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        print(f"error: unknown output {unknown}; choose from {list(RUNS)}", file=sys.stderr)
        return 1
    src = Path(__file__).resolve().parent.parent / "src"
    path_var = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        jobs = [(str(Path(tmp) / f"{name}.csv"), RUNS[name]) for name in names]
        proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(jobs)],
                              env=dict(os.environ, PYTHONPATH=path_var))
        if proc.returncode:
            return 1
        for name, (path, _) in zip(names, jobs):
            print(f"{hashlib.sha256(Path(path).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
