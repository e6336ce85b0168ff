"""Print the sha256 of every field of the commutator lab's tail reports, and of the meter.

Runs criterion 4's grids (M = 64, 128 and 256 at its N, t_max = 30, the
three families) in one fresh interpreter, under the caller's environment
with this tree's src/ first on PYTHONPATH.  Criterion 4's M = 64 case is
also the oscillator_lab benchmark's tail op, (M, N, t_max) = (64, 1, 30).
Each grid's three families are called once, then once more on the same
grid, so both a first call and a repeat call are hashed.  One line per
field of each report:

    sha256  x2_p2 M=64 N=1 t_max=30 first tail_norm

`meter` hashes `fast_forward.low_energy_error` at M = 128 and 512 on
oscillator_lab's strata, (N, t) = (8, +-0.45), (16, +-1.7) and (8, +-3.65),
and at (16, 3.0): each point on a fresh `dense_diagonalize`, whose first
call builds the Ritz block and whose second holds it, one line per call:

    sha256  meter M=128 N=8 t=0.45 first

    python tools/lab_hashes.py [M | meter ...]

Each name selects a grid or the meter, printed in the order given; the
default is every grid, then the meter.  Any other name is an error.  A
value is hashed as JSON, floats as their hex form, so two trees print the
same line when they compute the same bits.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

GRIDS = (64, 128, 256)
METER_GRIDS = (128, 512)
METER_POINTS = ((8, 0.45), (8, -0.45), (16, 1.7), (16, -1.7), (8, 3.65), (8, -3.65), (16, 3.0))

_CHILD = """
import hashlib, json, math, sys
from dataclasses import fields
from qhermite.discrete_qho import TAIL_FAMILIES, build, commutator_tail_norm, dense_diagonalize
from qhermite.fast_forward import low_energy_error
from qhermite.spectral_core import GridSpec

def canonical(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in value.items()]
    return value

def digest(value):
    return hashlib.sha256(json.dumps(canonical(value)).encode()).hexdigest()

names, meter_grids, meter_points = json.loads(sys.argv[1])
for name in names:
    if name == "meter":
        for M in meter_grids:
            qho = build(GridSpec(M))
            for N, t in meter_points:
                eig = dense_diagonalize(qho)
                for call in ("first", "held"):
                    value = low_energy_error(qho, eig, N, t)
                    print(f"{digest(value)}  meter M={M} N={N} t={t} {call}")
        continue
    M = int(name)
    N = max(1, int(M / (40 * math.log2(2 * M))))   # criterion 4's N
    qho = build(GridSpec(M))
    for call in ("first", "repeat"):
        for family in TAIL_FAMILIES:
            rep = commutator_tail_norm(qho, N, 30, family)
            for f in fields(rep):
                print(f"{digest(getattr(rep, f.name))}  {family} M={M} N={N} t_max=30 {call} {f.name}")
"""


def main(argv=None) -> int:
    known = [str(M) for M in GRIDS] + ["meter"]
    names = (sys.argv[1:] if argv is None else argv) or known
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"error: unknown grid {unknown}; choose from {known}", file=sys.stderr)
        return 1
    src = Path(__file__).resolve().parent.parent / "src"
    path_var = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    job = json.dumps([names, METER_GRIDS, METER_POINTS])
    proc = subprocess.run([sys.executable, "-c", _CHILD, job],
                          env=dict(os.environ, PYTHONPATH=path_var))
    return 1 if proc.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
