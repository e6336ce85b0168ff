import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qhermite import cli, discrete_qho, learning_testers
from qhermite.cli import _write_table, main, read_table

QHT_N4 = """\
# {"N": 4, "command": "qht", "eps": 0.01, "format": "csv", "timings": false}
n,fidelity,block_fidelity,infidelity,block_infidelity,filter_leak,uncompute_residual
0,0.99999982,0.99999982,1.785e-07,1.785e-07,2.074e-01,5.873e-10
1,0.99998591,0.99998591,1.409e-05,1.409e-05,3.760e-01,1.198e-10
2,0.99999980,0.99999980,1.988e-07,1.988e-07,3.464e-01,1.092e-09
3,0.99999850,0.99999850,1.503e-06,1.503e-06,3.412e-01,3.128e-10
# summary {"M": 2048, "N_high": 1600, "v_passes": 88}
"""


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

    def test_guard_refusal_is_an_infeasible_row(self, tmp_path):
        # the meter's invariance guard refuses (512, 10000) before any evolution;
        # the other rows are still written
        code, out = _run(tmp_path, "ff.csv",
                         ["ff-error", "--M", "128,512", "--N", "16", "--t", "1.0,10000"])
        assert code == 2
        _, rows, _ = read_table(out)
        status = {(int(r["M"]), float(r["t"])): r["status"] for r in rows}
        assert status == {(128, 1.0): "ok", (128, 10000.0): "ok",
                          (512, 1.0): "ok", (512, 10000.0): "infeasible"}
        assert all(float(r["projected_error"]) < 1e-11 for r in rows if r["status"] == "ok")


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

    def test_streamed_rows_match_the_basis_array(self, tmp_path):
        # each row is the overlap of row n of `hermite_basis` with the prepared state
        import numpy as np

        from qhermite.qht_pipeline import build_pr_state
        from qhermite.spectral_core import GridSpec, hermite_basis

        M, n_max = 512, 8
        code, out = _run(tmp_path, "ov.csv", ["overlap", "--M", str(M), "--n", str(n_max)])
        assert code == 0
        psi = hermite_basis(GridSpec(M), n_max)
        want = [f"{n},{float(psi[n] @ build_pr_state(n, M)):.10f}" for n in range(n_max + 1)]
        assert out.read_text().splitlines()[2:] == want


class TestQHTColumns:
    def test_infidelity_columns(self, tmp_path):
        code, out = _run(tmp_path, "q.csv", ["qht", "--N", "2", "--eps", "0.1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ("n,fidelity,block_fidelity,infidelity,block_infidelity,"
                            "filter_leak,uncompute_residual")
        _, rows, _ = read_table(out)
        for r in rows:
            for fid, infid in (("fidelity", "infidelity"), ("block_fidelity", "block_infidelity")):
                assert len(r[fid].split(".")[1]) == 8
                assert r[infid] == f"{float(r[infid]):.3e}"
                # each printed value is rounded: 4 significant digits against 8 decimals
                assert abs(float(r[infid]) - (1 - float(r[fid]))) <= 5e-4 * float(r[infid]) + 5e-9

    def test_fidelity_is_the_overlap_with_the_basis_rows(self, tmp_path):
        # |<psibar_n|u_n>| from the normalized rows of `hermite_basis`, printed as `qht` prints it
        import numpy as np

        from qhermite.qht_pipeline import choose_dimensions, qht_operator
        from qhermite.spectral_core import GridSpec, hermite_basis

        code, out = _run(tmp_path, "q.csv", ["qht", "--N", "8"])
        assert code == 0
        cfg = choose_dimensions(8, 0.01)
        columns = qht_operator(cfg).matrix()
        basis = hermite_basis(GridSpec(cfg.M), 7)
        _, rows, _ = read_table(out)
        for n, r in enumerate(rows):
            fid = abs(np.vdot(basis[n] / np.linalg.norm(basis[n]), columns[n]))
            assert (r["fidelity"], r["infidelity"]) == (f"{fid:.8f}", f"{1.0 - fid:.3e}")


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

    @pytest.mark.slow
    def test_qht_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # one fresh process per OPENBLAS_NUM_THREADS, which is read only at numpy's import,
        # writes the ten default files below and hashes them with the N = 8 columns and the
        # `QHTResult`s of 20 seeded held calls at N = 8.  Left out: `ff-error`, whose M = 512
        # rows move with the thread count (ROADMAP items 13 and 17), and N = 16, whose columns
        # move by about 1e-15 (the `qht --N 16` file does not show it) and whose held calls'
        # ||out||^2, a vdot over M = 16384, OpenBLAS threads
        runs = [["qht", "--N", "4"], ["qht", "--N", "8"], ["qht", "--N", "16"],
                ["overlap", "--M", "20000", "--n", "40"],
                ["sample", "--n", "1"], ["sample", "--n", "2"], ["sample", "--n", "3"],
                ["ggl"], ["ggl", "--mode", "sampler"], ["test"]]
        code = (
            "import hashlib, json, os, sys\n"
            "import numpy as np\n"
            "from qhermite.cli import main\n"
            "from qhermite.qht_pipeline import QHTOperator, choose_dimensions, qht_apply\n"
            "digests = []\n"
            "for i, args in enumerate(json.loads(sys.argv[2])):\n"
            "    out = os.path.join(sys.argv[1], f'{i}.csv')\n"
            "    assert main(args + ['--out', out]) == 0, args\n"
            "    digests.append(hashlib.sha256(open(out, 'rb').read()).hexdigest())\n"
            "columns = QHTOperator(choose_dimensions(8, 0.01)).matrix().tobytes()\n"
            "digests.append(hashlib.sha256(columns).hexdigest())\n"
            "rng = np.random.default_rng(8)\n"
            "for _ in range(20):\n"
            "    alpha = rng.standard_normal(8) + 1j * rng.standard_normal(8)\n"
            "    res = qht_apply(alpha / np.linalg.norm(alpha), choose_dimensions(8, 0.01))\n"
            "    fields = (res.output, res.block_fidelities, res.filter_leaks, res.aa_residuals,\n"
            "              res.uncompute_residual, res.op_passes)\n"
            "    digests.append(hashlib.sha256(b''.join(np.asarray(x).tobytes()\n"
            "                                           for x in fields)).hexdigest())\n"
            "print(json.dumps(digests))\n"
        )
        src = str(Path(cli.__file__).parent.parent)
        digests = []
        for threads in ("1", "2"):
            out_dir = tmp_path / threads
            out_dir.mkdir()
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code, str(out_dir), json.dumps(runs)],
                                  env=env, capture_output=True, text=True, timeout=300, check=True)
            digests.append(json.loads(proc.stdout.splitlines()[-1]))
        assert len(digests[0]) == len(runs) + 1 + 20
        assert digests[0] == digests[1]

    def test_header_echoes_config(self, tmp_path):
        _, out = _run(tmp_path, "a.csv", ["sample", "--M", "512", "--trials", "10", "--seed", "9"])
        meta, _, _ = read_table(out)
        assert meta["M"] == 512 and meta["seed"] == 9
        # options left out are recorded with their typed defaults
        _, out = _run(tmp_path, "b.csv", ["ff-error", "--M", "64", "--N", "2,4"])
        meta, _, _ = read_table(out)
        assert meta["M"] == [64] and meta["N"] == [2, 4] and meta["t"] == [0.25, 1.0, 3.0]
        assert "seed" not in meta   # ff-error draws nothing


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

    def test_qht_footer_counts_passes(self, tmp_path):
        code, out = _run(tmp_path, "q.csv", ["qht", "--N", "2", "--eps", "0.1"])
        assert code == 0
        _, _, summary = read_table(out)
        m = summary["M"].bit_length() - 1
        assert summary["v_passes"] == 2 * m * 2       # filter and uncompute per block
        assert "columns_ms" not in summary
        code, timed = _run(tmp_path, "t.csv", ["qht", "--N", "2", "--eps", "0.1", "--timings"])
        assert code == 0
        _, timed_rows, timed_summary = read_table(timed)
        assert timed_summary.pop("columns_ms") >= 0
        assert timed_summary.pop("workers") >= 1
        assert timed_summary.pop("runtime_ms") >= 0
        assert timed_summary == summary
        assert timed_rows == read_table(out)[1]

    def test_qht_output_is_pinned(self, tmp_path):
        # the bytes of the paired-row build from parity-definite prepared states
        code, out = _run(tmp_path, "q.csv", ["qht", "--N", "4"])
        assert code == 0
        assert out.read_text() == QHT_N4
        code, timed = _run(tmp_path, "t.csv", ["qht", "--N", "4", "--timings"])
        assert code == 0
        assert read_table(timed)[2]["workers"] >= 1

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
        # no subcommand takes the option, whatever the file holds
        cal = tmp_path / "cal.json"
        if content is not None:
            cal.write_text(content)
        out = tmp_path / "x.csv"
        assert main([command, "--calibration", str(cal), "--out", str(out)]) == 1
        assert "unrecognized arguments: --calibration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["sample", "--seed", "x"], ["qht", "--N", "8.5"],
                                      ["ff-error", "--t", "0.5,y"], ["ff-error", "--M", ""],
                                      ["ff-error", "--N", "0", "--M", "64"],
                                      ["ggl", "--mode", "quantum"], ["sample", "--trials", "-5"],
                                      ["sample", "--n", "0", "--trials", "10"],
                                      ["ggl", "--n", "0", "--seeds", "0"],
                                      ["ff-error", "--M", "0"], ["ff-error", "--M", "128,-4"],
                                      ["sample", "--D", "-1"], ["test", "--D", "-1"],
                                      ["overlap", "--n", "-2"]])
    def test_malformed_option_is_a_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert main(args + ["--out", str(out)]) == 1
        assert "invalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", [["--t", "1.0,nan"], ["--t=-inf"]])
    def test_non_finite_time_fails_before_the_eigensolve(self, tmp_path, capsys,
                                                         monkeypatch, t):
        def refuse(qho):
            raise AssertionError("the eigensolve ran")

        monkeypatch.setattr(discrete_qho, "dense_diagonalize", refuse)
        out = tmp_path / "x.csv"
        assert main(["ff-error", "--M", "2048"] + t + ["--out", str(out)]) == 1
        assert "argument --t: invalid finite float list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", ["1e20", "-4503599627370496"])
    def test_huge_time_fails_before_the_eigensolve(self, tmp_path, capsys, monkeypatch, t):
        # past 2^52 the time does not fix the evolution's phase
        def refuse(qho):
            raise AssertionError("the eigensolve ran")

        monkeypatch.setattr(discrete_qho, "dense_diagonalize", refuse)
        out = tmp_path / "x.csv"
        assert main(["ff-error", "--M", "128", f"--t=0.5,{t}", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: evolution time must satisfy |t| < 2^52")
        assert not out.exists()

    @pytest.mark.parametrize("args", [["test", "--delta", "1.5"], ["test", "--delta", "0"],
                                      ["ggl", "--delta", "0"]])
    def test_confidence_outside_unit_interval_is_an_error(self, tmp_path, capsys, args):
        # rejected before any sampling: main returns 1 instead of raising
        out = tmp_path / "x.csv"
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: delta must be in (0, 1)")
        assert not out.exists()

    def test_bad_config_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["qht", "--N", "4", "--eps", "2.0", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: eps must be in (0, 1), got 2.0"]
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing_dir/x.csv", ".", None],
                             ids=["no-parent", "directory", "empty"])
    def test_unwritable_out_fails_before_any_work(self, tmp_path, capsys, monkeypatch, where):
        def refuse(args):
            raise AssertionError("the subcommand ran")

        monkeypatch.setattr(cli, "cmd_overlap", refuse)
        out = "" if where is None else str(tmp_path / where)
        assert main(["overlap", "--M", "512", "--n", "2", "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --out {out}")
        assert not (tmp_path / "missing_dir").exists()

    @pytest.mark.parametrize("args", [
        ["qht", "--eps", "1e-100"], ["qht", "--eps", "5e-324"], ["qht", "--eps", "1e-97"],
        ["qht", "--N", "1" + "0" * 400],
        ["ggl", "--tau", "1e-300"], ["ggl", "--tau", "1e-160"],
        ["ggl", "--mode", "sampler", "--tau", "1e-160"], ["ggl", "--delta", "1e-320"],
        ["test", "--delta", "1e-320"],
        ["sample", "--corpus", "NaN"], ["sample", "--corpus", "Infinity"],
    ], ids=["qht-eps-underflow", "qht-eps-subnormal", "qht-eps-overflow", "qht-N-overflow",
            "ggl-tau-zero-square", "ggl-tau", "ggl-sampler-tau", "ggl-delta", "test-delta",
            "corpus-nan", "corpus-infinity"])
    def test_extreme_value_is_one_error_line(self, tmp_path, capsys, args):
        # each used to end in a ZeroDivisionError or OverflowError traceback, or (the corpus
        # coefficients) to exit 0 with every draw at v = 0 and "tv": NaN in the summary
        if args[0] == "sample":   # args[2] is the coefficient as json writes it
            entry = '{"family": "mixture", "n": 1, "terms": [[[1], %s]]}' % args[2]
            corpus_file = tmp_path / "corpus.json"
            corpus_file.write_text(f"[{entry}]")
            args = ["sample", "--trials", "5", "--corpus", str(corpus_file)]
        code, out = _run(tmp_path, "x.csv", args)
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["ggl", "--mode", "sampler", "--n", "12"], "(n=12, 10 indices per axis)"),
        (["sample", "--n", "4", "--D", "200"], "(n=4, 201 indices per axis)"),
    ], ids=["ggl-sampler-n12", "sample-n4-D200"])
    def test_oversized_table_is_one_error_line(self, tmp_path, capsys, args, message):
        # each used to end in numpy's _ArrayMemoryError traceback (14.9 GiB and 24.3 GiB
        # tables) where the allocation failed, and to try it where it did not
        code, out = _run(tmp_path, "x.csv", args)
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.splitlines() == [f"error: table budget exceeded {message}"]

    @pytest.mark.parametrize("args, named", [
        (["ggl", "--tau", "1e-70"], "tau=1e-70"),
        (["ggl", "--mode", "sampler", "--tau", "1e-100"], "tau=1e-100"),
        (["test", "--eps1", "1e-100", "--eps2", "2e-100"], "eps1=1e-100, eps2=2e-100"),
        (["ggl", "--tau", "1e-4"], "tau=0.0001"),
    ], ids=["ggl-tau", "ggl-sampler-tau", "test-eps", "ggl-tau-too-big"])
    def test_count_above_the_cap_names_its_parameter(self, tmp_path, capsys, args, named):
        # finite counts that numpy refused ("Maximum allowed dimension exceeded", or "array is
        # too big" at tau = 1e-4) in an error line that named no parameter
        code, out = _run(tmp_path, "x.csv", args)
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(f"error: {named}")
        assert f"above the cap of {learning_testers.COUNT_CAP}" in err

    @pytest.mark.parametrize("command", ["sample", "test"])
    def test_oversized_sampler_grid_is_one_error_line(self, tmp_path, capsys, command):
        # --M 100000000 ended in numpy's _ArrayMemoryError traceback from the per-axis rows
        code, out = _run(tmp_path, "x.csv", [command, "--M", "100000000"])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.splitlines() == ["error: per-axis rows (D+1) x M = 1000000000 exceed the "
                                    "table budget 2^27 (D=9, M=100000000)"]

    def test_missing_corpus_is_an_error_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sample", "--corpus", str(tmp_path / "missing.json"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "missing.json" in err[0]
        assert not out.exists()


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

    def test_tv_of_a_mostly_out_of_range_draw_stays_at_most_one(self, tmp_path):
        # 72% of the draws fall outside [0, 2]^2, where the normalized target puts
        # nothing: the out-of-range cell alone gives tv >= that share, and the
        # old form (half the in-range sum plus the whole share) read 1.08675
        corpus_file = tmp_path / "corpus.json"
        corpus_file.write_text(json.dumps([{"family": "indicator_bump", "n": 2, "half_width": 0.4}]))
        code, out = _run(tmp_path, "s.csv", ["sample", "--D", "2", "--M", "128", "--seed", "7",
                                            "--corpus", str(corpus_file)])
        assert code == 0
        _, rows, summary = read_table(out)
        share = sum(int(r["count"]) for r in rows if r["v"] == "3|3") / summary["trials"]
        assert share > 0.7
        assert share <= summary["instances"]["bump(0.4)"]["tv"] <= 1.0


    def test_postselection_failure_is_an_error_line(self, tmp_path, capsys):
        # unbounded, with its default kappa = 1: the rejection loop gives up
        corpus_file = tmp_path / "corpus.json"
        corpus_file.write_text(json.dumps([
            {"family": "mixture", "n": 3, "terms": [[[1, 0, 0], 0.9], [[0, 1, 2], 0.436]]},
        ]))
        code, out = _run(tmp_path, "s.csv", ["sample", "--n", "3", "--M", "256", "--trials", "100",
                                            "--corpus", str(corpus_file)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: no acceptance in ")
        assert not out.exists()

    def test_other_runtime_error_propagates(self, tmp_path, monkeypatch, capsys):
        # only ValueError (config, corpus, postselection) and OSError become an error line
        def broken(args):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(cli, "cmd_test", broken)
        with pytest.raises(RuntimeError, match="internal fault"):
            _run(tmp_path, "t.csv", ["test"])
        assert capsys.readouterr().err == ""
        assert not (tmp_path / "t.csv").exists()

    def test_entry_outside_its_arity_is_an_error_line(self, tmp_path, capsys):
        corpus_file = tmp_path / "corpus.json"
        corpus_file.write_text(json.dumps([
            {"family": "product_sign", "n": 2, "support": [0, 3]},
        ]))
        code, out = _run(tmp_path, "s.csv", ["sample", "--n", "2", "--corpus", str(corpus_file)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: support (0, 3) must list distinct axes")
        assert not out.exists()

    @pytest.mark.parametrize("entry", [
        {"family": "scaled_constant", "kappa": 0},
        {"family": "constant", "n": 0},
        {"family": "product_sign", "n": 1.5, "support": [0]},
        {"family": "noisy_product_sign", "n": 1, "support": [0], "eta": 1.5},
        {"family": "mixture", "n": 1, "terms": []},
        {"family": "indicator_bump", "half_width": -1},
        {"family": "hermite_monomial", "n": 1, "v": [-2]},
        {"family": "product_sign", "n": 1, "support": [0.7]},
        {"family": "mixture", "n": 1, "terms": [[[1.9], 1.0]]},
        {"family": "hermite_monomial", "n": 1, "v": [True]},
        {"family": "hermite_monomial", "n": 1, "v": [2], "bouned": False},
        {"family": "product_sign", "n": 2},
        {"family": "noisy_product_sign", "n": 1, "support": [0], "eta": 0.1, "seed": -1},
        ["product_sign", 1],
        {"family": "constant", "value": "x"},
        {"family": ["product_sign"], "n": 1},
        {"family": "mixture", "n": 1, "terms": [[1, 0.5]]},
        {"family": "product_sign", "n": 1, "support": 0},
        {"family": "hermite_monomial", "n": 1, "v": [2], "bounded": "no"},
    ], ids=["kappa-zero", "n-zero", "n-float", "eta-above-one", "no-terms",
            "negative-half-width", "negative-degree", "float-axis", "float-degree",
            "bool-degree", "unknown-key", "missing-key", "negative-seed", "not-an-object",
            "string-value", "list-family", "term-not-a-pair", "support-not-a-list",
            "string-flag"])
    def test_bad_entry_is_one_error_line(self, tmp_path, capsys, entry):
        corpus_file = tmp_path / "corpus.json"
        corpus_file.write_text(json.dumps([entry]))
        code, out = _run(tmp_path, "s.csv", ["sample", "--n", "1", "--M", "64", "--D", "3",
                                            "--trials", "5", "--corpus", str(corpus_file)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_dense_three_axis_reference_on_the_command_grid(self, tmp_path):
        # a dense n = 3 oracle fits the full-grid budget at M = 256, not at 512
        corpus_file = tmp_path / "corpus.json"
        corpus_file.write_text(json.dumps([
            {"family": "mixture", "n": 3, "bounded": True,
             "terms": [[[0, 0, 0], 0.9], [[1, 0, 0], 0.3]]},
        ]))
        code, out = _run(tmp_path, "s.csv", ["sample", "--n", "3", "--M", "256", "--trials", "20",
                                            "--seed", "3", "--corpus", str(corpus_file)])
        assert code == 0
        _, rows, summary = read_table(out)
        assert sum(int(r["count"]) for r in rows) == 20
        (instance,) = summary["instances"].values()
        assert 0.0 <= instance["tv"] <= 1.0

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

    def test_sampler_mode_on_one_axis_runs_only_one_axis_instances(self, tmp_path):
        # sign_12 needs two axes; on one it was built as sgn(x0) and never complete
        code, out = _run(tmp_path, "gs1.csv",
                         ["ggl", "--n", "1", "--seeds", "0,1", "--mode", "sampler"])
        assert code == 0
        _, rows, summary = read_table(out)
        assert [r["instance"] for r in rows] == ["sign_1", "sign_1"]
        assert summary["success_rate"] == 1.0


class TestTestCommand:
    def test_verdict_table(self, tmp_path):
        code, out = _run(tmp_path, "t.csv", ["test", "--seed", "0"])
        assert code == 0
        _, rows, _ = read_table(out)
        assert all(r["correct"] == "1" for r in rows)

    @pytest.mark.parametrize("n", ["1", "3"])
    def test_arity_other_than_two_is_a_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "t.csv"
        assert main(["test", "--n", n, "--M", "64", "--out", str(out)]) == 1
        assert "argument --n: invalid choice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("D", ["0", "2"])
    def test_cutoff_below_tested_degree_is_an_error(self, tmp_path, capsys, monkeypatch, D):
        # rejected before the first instance runs
        monkeypatch.setattr(learning_testers, "test_product_sign",
                            lambda *a, **k: pytest.fail("an instance ran"))
        out = tmp_path / "t.csv"
        assert main(["test", "--D", D, "--M", "64", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: --D {D} is below the tested degree 3")
        assert not out.exists()


class TestTimings:
    """--timings adds one wall-clock footer field; without it the output is unchanged.

    ff-error also adds a per-row runtime_ms column and each M's eigensolve
    milliseconds and workers, and qht its build's columns_ms and workers.
    """

    @pytest.mark.parametrize("args, row_fields, footer_fields", [
        (["ff-error", "--M", "64", "--N", "2,4", "--t", "0.5"], ["runtime_ms"],
         ["eigensolve_ms", "eigensolve_workers"]),
        (["overlap", "--M", "512", "--n", "3"], [], []),
        (["qht", "--N", "2", "--eps", "0.1"], [], ["columns_ms", "workers"]),
        (["sample", "--n", "1", "--trials", "30", "--seed", "5"], [], []),
        (["ggl", "--n", "2", "--seeds", "0"], [], []),
        (["test", "--M", "256", "--seed", "1"], [], []),
    ], ids=["ff-error", "overlap", "qht", "sample", "ggl", "test"])
    def test_runtime_only_under_the_flag(self, tmp_path, args, row_fields, footer_fields):
        _, plain = _run(tmp_path, "a.csv", list(args))
        _, again = _run(tmp_path, "b.csv", list(args))
        assert plain.read_bytes() == again.read_bytes()
        meta, rows, summary = read_table(plain)
        assert "runtime_ms" not in (summary or {})
        code, timed = _run(tmp_path, "t.csv", args + ["--timings"])
        assert code == 0
        timed_meta, timed_rows, timed_summary = read_table(timed)
        assert isinstance(timed_summary.pop("runtime_ms"), int)
        for field in footer_fields:   # a number, or one per M
            value = timed_summary.pop(field)
            assert min(value.values()) >= 0 if isinstance(value, dict) else value >= 0
        assert timed_summary == (summary or {})
        for field in row_fields:
            assert all(int(r.pop(field)) >= 0 for r in timed_rows)
        assert timed_rows == rows
        assert timed_meta == {**meta, "timings": True}

    def test_infeasible_rows_keep_the_runtime_column(self, tmp_path):
        # M = 4096 is past the meter's budget and N = 100 > M = 64: those rows are
        # infeasible, and their runtime_ms is left empty
        code, out = _run(tmp_path, "ff.csv", ["ff-error", "--M", "64,4096", "--N", "2,100",
                                              "--t", "0.5", "--timings"])
        assert code == 2
        lines = out.read_text().splitlines()[1:-1]
        assert {line.count(",") for line in lines} == {6}
        _, rows, summary = read_table(out)
        assert [(r["status"], r["runtime_ms"] == "") for r in rows] == [
            ("ok", False), ("infeasible", True), ("infeasible", True), ("infeasible", True)]
        assert summary["runtime_ms"] >= 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ff_error_footer_names_each_eigensolve(self, tmp_path, monkeypatch, workers):
        # M = 4096 is past the meter's budget and M = 6 below the grid's minimum: neither
        # runs an eigensolve, so neither is in the footer
        monkeypatch.setattr(discrete_qho, "_sector_workers", lambda: workers)
        args = ["ff-error", "--M", "64,6,128,4096", "--N", "2", "--t", "0.5"]
        code, timed = _run(tmp_path, "t.csv", args + ["--timings"])
        assert code == 2
        summary = read_table(timed)[2]
        assert summary["eigensolve_workers"] == {"64": workers, "128": workers}
        assert sorted(summary["eigensolve_ms"]) == ["128", "64"]
        assert min(summary["eigensolve_ms"].values()) >= 0

    def test_writer_refuses_a_ragged_row(self, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="row \\[1\\] has 1 fields under the 2-field"):
            _write_table(str(out), {}, ["a", "b"], [[1, 2], [1]], "csv", {})
        assert not out.exists()
