"""Calibration constants for choosing the ambient dimension of the transform.

The sufficient condition M >= c0 * N^(9/4) / eps^(13/4) carries an unspecified
constant; taken at c0 = 1 it demands M ~ 5e8 already for N = 8, eps = 0.01,
far beyond desk scale and far beyond what the discretization actually needs
(the low-energy subspace is numerically converged to ~1e-13 by M ~ a few
thousand).  The shipped calibration therefore uses c0 = 1e-5; the literal
constants are kept available for comparison via `paper_scaling()`, and a
JSON file of the three fields replaces the default (`qht --calibration`).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["Calibration", "load_calibration"]


@dataclass(frozen=True)
class Calibration:
    version: int = 1
    c0: float = 1e-5     # multiplier of N^(9/4)/eps^(13/4)
    c1: float = 4.0      # N_high = ceil(c1 * N / eps)

    @classmethod
    def paper_scaling(cls) -> "Calibration":
        """The formula constants taken literally (c0 = 1, c1 = 4)."""
        return cls(version=1, c0=1.0, c1=4.0)


def load_calibration(path) -> Calibration:
    with open(path) as fh:
        data = json.load(fh)
    return Calibration(version=int(data["version"]), c0=float(data["c0"]), c1=float(data["c1"]))
