"""Simulation and verification toolkit for the discrete quantum Hermite transform.

Importing the package loads no submodule: each one is imported on first
attribute access (PEP 562), so a CLI process pays only for the modules its
subcommand runs.
"""

import importlib

__all__ = [
    "spectral_core",
    "discrete_qho",
    "fast_forward",
    "qht_pipeline",
    "hermite_sampling",
    "corpus",
    "learning_testers",
    "calibration",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
