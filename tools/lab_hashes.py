"""Print the sha256 of every field of the commutator lab's tail reports.

Runs criterion 4's grids (M = 64, 128 and 256 at its N, t_max = 30, the
three families) in one fresh interpreter, under the caller's environment
with this tree's src/ first on PYTHONPATH.  Criterion 4's M = 64 case is
also the oscillator_lab benchmark's tail op, (M, N, t_max) = (64, 1, 30).
Each grid's three families are called once, then once more on the same
grid, so both a first call and a repeat call are hashed.  One line per
field of each report:

    sha256  x2_p2 M=64 N=1 t_max=30 first tail_norm

    python tools/lab_hashes.py [M ...]

Each M selects a grid, printed in the order given; an M that is not one of
criterion 4's is an error.  A field is hashed as JSON, floats as their hex
form, so two trees print the same line when they compute the same bits.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

GRIDS = (64, 128, 256)

_CHILD = """
import hashlib, json, math, sys
from dataclasses import fields
from qhermite.discrete_qho import TAIL_FAMILIES, build, commutator_tail_norm
from qhermite.spectral_core import GridSpec

def canonical(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in value.items()]
    return value

for M in json.loads(sys.argv[1]):
    N = max(1, int(M / (40 * math.log2(2 * M))))   # criterion 4's N
    qho = build(GridSpec(M))
    for call in ("first", "repeat"):
        for family in TAIL_FAMILIES:
            rep = commutator_tail_norm(qho, N, 30, family)
            for f in fields(rep):
                text = json.dumps(canonical(getattr(rep, f.name)))
                digest = hashlib.sha256(text.encode()).hexdigest()
                print(f"{digest}  {family} M={M} N={N} t_max=30 {call} {f.name}")
"""


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or [str(M) for M in GRIDS]
    unknown = [name for name in names if name not in {str(M) for M in GRIDS}]
    if unknown:
        print(f"error: unknown grid {unknown}; choose from {list(GRIDS)}", file=sys.stderr)
        return 1
    src = Path(__file__).resolve().parent.parent / "src"
    path_var = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps([int(M) for M in names])],
                          env=dict(os.environ, PYTHONPATH=path_var))
    return 1 if proc.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
