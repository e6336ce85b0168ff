"""Run one qhermite CLI invocation with the tracer installed, then save its spans.

usage: python3 perfbench/launcher.py SPANS_JSON <qhermite cli arguments...>

Exits with the CLI's own exit code.  Interpreter start and the program's
imports happen outside the `cli.main` span; the launcher's own work (importing
and installing the tracer, writing the spans) is timed and saved beside the
spans, so the parent can report the rest as process time.  SPANS_JSON gets two
lines: the tracer dump (with "install_s"), then {"dump_s": ...}.
"""
import time

_T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import MODULES, Tracer  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from qhermite import cli

    for mod in MODULES:   # the program's own imports, part of process time
        importlib.import_module(f"qhermite.{mod}")
    tracer = Tracer()
    t0 = time.perf_counter()
    tracer.install()
    install_s = _IMPORT_S + time.perf_counter() - t0
    try:
        return cli.main(argv)
    finally:
        t1 = time.perf_counter()
        tracer.uninstall()
        dump = dict(tracer.dump(), install_s=install_s)
        with open(out, "w") as fh:
            fh.write(json.dumps(dump) + "\n")
            fh.write(json.dumps({"dump_s": time.perf_counter() - t1}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
