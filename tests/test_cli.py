import hashlib
import json

import pytest

from qhermite.cli import main, read_table


def _run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


class TestFFError:
    def test_default_columns_and_status(self, tmp_path):
        code, out = _run(tmp_path, "ff.csv",
                         ["ff-error", "--M", "64,128", "--N", "4", "--t", "0.0,0.5"])
        assert code == 0
        meta, rows, _ = read_table(out)
        assert meta["command"] == "ff-error"
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        zero_rows = [r for r in rows if float(r["t"]) == 0.0]
        assert all(float(r["projected_error"]) < 1e-12 for r in zero_rows)

    def test_infeasible_rows_exit_two(self, tmp_path):
        code, out = _run(tmp_path, "ff.csv",
                         ["ff-error", "--M", "4096", "--N", "4", "--t", "0.5"])
        assert code == 2
        _, rows, _ = read_table(out)
        assert rows[0]["status"] == "infeasible"


class TestOverlap:
    def test_single_row_when_nmax_zero(self, tmp_path):
        code, out = _run(tmp_path, "ov.csv", ["overlap", "--M", "1024", "--n", "0"])
        assert code == 0
        _, rows, _ = read_table(out)
        assert len(rows) == 1
        assert float(rows[0]["overlap"]) >= 0.6

    def test_band_at_moderate_m(self, tmp_path):
        code, out = _run(tmp_path, "ov.csv", ["overlap", "--M", "8192", "--n", "20"])
        assert code == 0
        _, rows, _ = read_table(out)
        vals = {int(r["n"]): float(r["overlap"]) for r in rows}
        # criterion 1's bands: [0.55, 0.75] for n < 5, [0.60, 0.72] for n >= 5
        assert all(0.55 <= vals[n] <= 0.75 for n in range(1, 5))
        assert all(0.60 <= vals[n] <= 0.72 for n in range(5, 21))


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["ff-error", "--M", "64", "--N", "4", "--t", "0.5"],
        ["overlap", "--M", "512", "--n", "3"],
        ["sample", "--n", "1", "--trials", "50", "--seed", "7"],
    ])
    def test_same_seed_same_bytes(self, tmp_path, args):
        _, out1 = _run(tmp_path, "a.csv", list(args))
        _, out2 = _run(tmp_path, "b.csv", list(args))
        h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_header_echoes_config(self, tmp_path):
        _, out = _run(tmp_path, "a.csv", ["overlap", "--M", "512", "--n", "2", "--seed", "9"])
        meta, _, _ = read_table(out)
        assert meta["M"] == "512" and meta["seed"] == "9"


class TestRoundTrip:
    def test_json_format(self, tmp_path):
        code, out = _run(tmp_path, "q.json",
                         ["qht", "--N", "2", "--eps", "0.1", "--format", "json"])
        assert code == 0
        meta, rows, summary = read_table(out)
        assert meta["command"] == "qht"
        assert len(rows) == 2
        assert all(float(r["fidelity"]) >= 0.9 for r in rows)
        assert summary and "M" in summary

    def test_csv_summary_line(self, tmp_path):
        code, out = _run(tmp_path, "s.csv",
                         ["sample", "--n", "1", "--trials", "40", "--seed", "2"])
        assert code == 0
        _, rows, summary = read_table(out)
        assert summary["trials"] == 40
        assert "const" in summary["instances"]

    def test_loader_sees_all_rows(self, tmp_path):
        _, out = _run(tmp_path, "f.csv", ["ff-error", "--M", "64", "--N", "2,4", "--t", "0.3"])
        _, rows, _ = read_table(out)
        assert {r["N"] for r in rows} == {"2", "4"}


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["bogus"]) == 1

    @pytest.mark.parametrize("command", ["ff-error", "overlap", "qht", "sample", "ggl", "test"])
    @pytest.mark.parametrize("content", [None, "not json", '{"version": 1}'],
                             ids=["missing", "malformed", "incomplete"])
    def test_bad_calibration_fails_fast(self, tmp_path, capsys, command, content):
        cal = tmp_path / "cal.json"
        if content is not None:
            cal.write_text(content)
        out = tmp_path / "x.csv"
        assert main([command, "--calibration", str(cal), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_calibration_path_kept_in_provenance(self, tmp_path):
        cal = tmp_path / "cal.json"
        cal.write_text('{"version": 1, "c0": 1e-5, "c1": 4.0}')
        code, out = _run(tmp_path, "q.csv", ["qht", "--N", "2", "--eps", "0.1",
                                            "--calibration", str(cal)])
        assert code == 0
        meta, rows, _ = read_table(out)
        assert meta["calibration"] == str(cal) and len(rows) == 2

    def test_bad_config_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["qht", "--N", "4", "--eps", "2.0", "--out", str(out)]) == 1


class TestSampleCorpusFile:
    def test_corpus_loading_and_log_mode(self, tmp_path):
        corpus_file = tmp_path / "corpus.json"
        corpus_file.write_text(json.dumps([
            {"family": "constant", "n": 1, "value": 1.0},
            {"family": "product_sign", "n": 1, "support": [0]},
        ]))
        code, out = _run(tmp_path, "s.csv",
                         ["sample", "--trials", "25", "--seed", "4", "--log",
                          "--corpus", str(corpus_file)])
        assert code == 0
        _, rows, summary = read_table(out)
        assert len(rows) == 50  # per-trial log rows for two instances
        assert set(rows[0]) == {"instance", "trial", "v", "accepted_attempts"}
        assert summary["instances"]["const(1.0)"]["tv"] <= 1e-6


class TestGGLCommand:
    def test_transcript_and_success_rate(self, tmp_path):
        code, out = _run(tmp_path, "g.csv",
                         ["ggl", "--n", "2", "--tau", "0.5", "--seeds", "0,1"])
        assert code == 0
        _, rows, summary = read_table(out)
        assert len(rows) == 4
        assert summary["success_rate"] >= 0.9

    def test_sampler_mode_query_advantage(self, tmp_path):
        code, out = _run(tmp_path, "gs.csv",
                         ["ggl", "--n", "2", "--tau", "0.5", "--seeds", "0",
                          "--mode", "sampler"])
        assert code == 0
        _, rows, summary = read_table(out)
        assert summary["success_rate"] >= 0.9
        # the spectrum-sampling route needs orders of magnitude fewer queries
        # than the classical prefix sweep at the same tau
        assert all(int(r["queries"]) < 1000 for r in rows)


class TestTestCommand:
    def test_verdict_table(self, tmp_path):
        code, out = _run(tmp_path, "t.csv", ["test", "--seed", "0"])
        assert code == 0
        _, rows, _ = read_table(out)
        assert all(r["correct"] == "1" for r in rows)
