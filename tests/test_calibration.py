import json
from dataclasses import asdict

from qhermite.calibration import Calibration, load_calibration


def test_round_trip(tmp_path):
    cal = Calibration(c0=2.5e-4, c1=3.0)
    path = tmp_path / "cal.json"
    with open(path, "w") as fh:
        json.dump(asdict(cal), fh)
    assert load_calibration(path) == cal


def test_paper_scaling_constants():
    cal = Calibration.paper_scaling()
    assert cal.c0 == 1.0 and cal.c1 == 4.0
