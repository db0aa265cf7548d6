"""End-to-end command-line behaviour: flags, files, exit codes, determinism."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpar2 import cli
from dpar2.analysis import knn
from dpar2.errors import ArchiveFormatError, NumericFailure, ShapeMismatchError
from dpar2.factors import load_factors, write_csv_rows
from dpar2.tensor import (
    MODE_PLANTED,
    MODE_UNIFORM,
    IrregularTensor,
    SyntheticSpec,
    generate,
    load_archive,
    save_archive,
)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def make_archive(tmp_path, name="t.irt", seed=3, rows=14, cols=8, slices=5, rank=2,
                 noise="0.0"):
    path = tmp_path / name
    code = cli.main([
        "generate", "--I", str(rows), "--J", str(cols), "--K", str(slices),
        "--mode", "planted", "--rank", str(rank), "--noise", noise,
        "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return path


def test_report_cells_keep_their_bytes(tmp_path):
    # None is an empty cell and a float its shortest repr, so equal values
    # always give equal report bytes.
    path = tmp_path / "cells.csv"
    write_csv_rows(path, ["a"], [[None, 0.1, np.float64(1 / 3), 7, -0.0, np.inf]])
    assert path.read_bytes() == b"a\r\n,0.1,0.3333333333333333,7,-0.0,inf\r\n"


class TestGenerate:
    def test_writes_loadable_archive(self, tmp_path, capsys):
        path = make_archive(tmp_path)
        out = capsys.readouterr().out
        assert "K=5 J=8" in out
        tensor = load_archive(path)
        assert tensor.num_slices == 5
        assert tensor.num_cols == 8

    def test_matches_library_generation(self, tmp_path, monkeypatch):
        spec = SyntheticSpec(rows=14, cols=8, num_slices=5, mode=MODE_PLANTED,
                             true_rank=2, noise_level=0.0, seed=11)
        direct = generate(spec)
        for threads in ("1", "2"):
            monkeypatch.setenv("DPAR2_THREADS", threads)
            tensor = load_archive(make_archive(tmp_path, name=f"t{threads}.irt", seed=11))
            for a, b in zip(tensor.slices, direct.slices):
                assert a.tobytes() == b.tobytes()

    def test_uniform_bytes_at_any_thread_count(self, tmp_path, monkeypatch):
        blobs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("DPAR2_THREADS", threads)
            path = tmp_path / f"t{threads}.irt"
            assert cli.main(["generate", "--I", "9", "--J", "5", "--K", "7", "--mode", "uniform",
                             "--seed", "4", "--out", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_non_finite_noise_exits_3(self, tmp_path, capsys):
        out = tmp_path / "t.irt"
        assert cli.main(["generate", "--I", "6", "--J", "4", "--K", "3", "--mode", "planted",
                         "--noise", "nan", "--out", str(out)]) == 3
        assert "noise_level must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise, message", [
        ("nan", "noise_level must be finite and >= 0"),
        ("0.1", "noise_level applies to planted mode only"),
    ])
    def test_uniform_noise_exits_3(self, tmp_path, capsys, noise, message):
        out = tmp_path / "t.irt"
        assert cli.main(["generate", "--I", "6", "--J", "4", "--K", "3", "--mode", "uniform",
                         "--noise", noise, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--I", "0", "--J", "4"], "row counts must be positive"),
        (["--I", "12", "--J", "3", "--mode", "planted", "--rank", "9"], "true_rank 9 not in"),
    ], ids=["no-rows", "rank-over-cols"])
    def test_bad_spec_exits_3_before_generating(self, tmp_path, monkeypatch, capsys, flags,
                                                message):
        made = []
        monkeypatch.setattr(cli, "generate", lambda *args, **kw: made.append(args))
        out = tmp_path / "t.irt"
        assert cli.main(["generate", *flags, "--K", "3", "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert made == [] and not out.exists()

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["generate", "--I", "4", "--J", "4", "--K", "2"])
        assert err.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2


class TestDecompose:
    def test_reports_high_fitness_on_planted_data(self, tmp_path, capsys):
        path = make_archive(tmp_path)
        code = cli.main(["decompose", str(path), "--rank", "2", "--tol", "0",
                         "--report-fitness"])
        assert code == 0
        out = capsys.readouterr().out
        fit = float(out.rsplit("fitness=", 1)[1])
        assert fit >= 0.999

    def test_methods_agree_on_fitness(self, tmp_path, capsys):
        path = make_archive(tmp_path, noise="0.1")
        fits = {}
        for method in ("als", "dpar2"):
            assert cli.main(["decompose", str(path), "--method", method,
                             "--rank", "2", "--tol", "0", "--report-fitness"]) == 0
            fits[method] = float(capsys.readouterr().out.rsplit("fitness=", 1)[1])
        assert abs(fits["als"] - fits["dpar2"]) <= 0.01

    def test_csv_directory_input(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(0))
        src = tmp_path / "slices"
        src.mkdir()
        for k, rows in enumerate((6, 4, 7)):
            np.savetxt(src / f"slice_{k:03d}.csv", rng.random((rows, 5)), delimiter=",")
        code = cli.main(["decompose", str(src), "--rank", "2", "--max-iters", "3"])
        assert code == 0
        assert "dpar2 rank=2" in capsys.readouterr().out

    def test_factor_dirs_identical_across_thread_counts(self, tmp_path):
        path = make_archive(tmp_path, noise="0.2")
        dirs = {}
        for n in (1, 8):
            outdir = tmp_path / f"factors_t{n}"
            assert cli.main(["decompose", str(path), "--rank", "2", "--tol", "0",
                             "--threads", str(n), "--out-factors", str(outdir)]) == 0
            dirs[n] = outdir
        names = sorted(p.name for p in dirs[1].iterdir())
        assert names == sorted(p.name for p in dirs[8].iterdir())
        for name in names:
            if name == "manifest.json":
                continue  # records the thread count, so it may differ
            assert (dirs[1] / name).read_bytes() == (dirs[8] / name).read_bytes()

    def test_report_schema_and_determinism(self, tmp_path):
        path = make_archive(tmp_path, noise="0.05")
        reports = []
        for run in range(2):
            report = tmp_path / f"report_{run}.csv"
            assert cli.main(["decompose", str(path), "--rank", "2", "--tol", "0",
                             "--max-iters", "6", "--report-fitness",
                             "--out-report", str(report)]) == 0
            reports.append(read_csv(report))
        header, rows = reports[0]
        assert header == cli.REPORT_HEADER
        assert len(rows) == 6
        assert [r[header.index("iteration")] for r in rows] == [str(i) for i in range(6)]
        timing = {header.index(c) for c in ("seconds", "preprocess_seconds", "total_seconds")}
        stable = [[c for i, c in enumerate(row) if i not in timing] for row in rows]
        other = [[c for i, c in enumerate(row) if i not in timing] for row in reports[1][1]]
        assert stable == other

    def test_report_blank_columns_by_method(self, tmp_path):
        path = make_archive(tmp_path)
        report = tmp_path / "als.csv"
        assert cli.main(["decompose", str(path), "--method", "als", "--rank", "2",
                         "--max-iters", "2", "--out-report", str(report)]) == 0
        header, rows = read_csv(report)
        assert rows[0][header.index("compressed_float_count")] == ""
        assert rows[0][header.index("fitness")] == ""

    def test_manifest_records_archive_hash(self, tmp_path):
        import hashlib
        import json
        path = make_archive(tmp_path)
        outdir = tmp_path / "factors"
        assert cli.main(["decompose", str(path), "--rank", "2",
                         "--out-factors", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["archive_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_rank_too_large_exits_3(self, tmp_path, capsys):
        path = make_archive(tmp_path)
        assert cli.main(["decompose", str(path), "--rank", "100"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_exits_3(self, tmp_path, capsys, tol):
        archive = tmp_path / "u.irt"
        assert cli.main(["generate", "--I", "12", "--J", "6", "--K", "4", "--mode", "uniform",
                         "--out", str(archive)]) == 0
        assert cli.main(["decompose", str(archive), "--rank", "2", "--tol", tol]) == 3
        assert "tol must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--max-iters", "0"], "max_iters must be >= 1"),
        (["--tol", "-1"], "tol must be finite and >= 0"),
        (["--tol", "nan"], "tol must be finite and >= 0"),
    ])
    def test_bad_options_exit_3_before_loading(self, tmp_path, monkeypatch, capsys, flags,
                                               message):
        loads = []
        monkeypatch.setattr(cli, "_load_tensor", lambda *args: loads.append(args))
        assert cli.main(["decompose", str(tmp_path / "t.irt"), "--rank", "2", *flags]) == 3
        assert message in capsys.readouterr().err
        assert loads == []

    def test_missing_input_exits_3(self, tmp_path):
        assert cli.main(["decompose", str(tmp_path / "nope.irt"), "--rank", "2"]) == 3

    def test_out_factors_over_a_file_exits_3(self, tmp_path, capsys):
        path = make_archive(tmp_path)
        taken = tmp_path / "F"
        taken.write_text("")
        assert cli.main(["decompose", str(path), "--rank", "2",
                         "--out-factors", str(taken)]) == 3
        assert "File exists" in capsys.readouterr().err

    def test_corrupt_archive_exits_3(self, tmp_path):
        path = tmp_path / "bad.irt"
        path.write_bytes(b"IRT9" + b"\x00" * 20)
        assert cli.main(["decompose", str(path), "--rank", "2"]) == 3

    def test_numeric_failure_exits_4(self, tmp_path, monkeypatch):
        path = make_archive(tmp_path)

        def explode(*args, **kwargs):
            raise NumericFailure("synthetic blow-up", slice_index=1)

        monkeypatch.setitem(cli.SOLVERS, "dpar2", explode)
        assert cli.main(["decompose", str(path), "--rank", "2"]) == 4

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_in_compression_exits_4(self, tmp_path, capsys):
        tensor = load_archive(make_archive(tmp_path))
        scaled = [x * 1e200 if k == 1 else x for k, x in enumerate(tensor.slices)]
        path = tmp_path / "huge.irt"
        save_archive(IrregularTensor(scaled), path)
        assert cli.main(["decompose", str(path), "--rank", "2"]) == 4
        assert "(slice 1)" in capsys.readouterr().err

    def test_non_finite_objective_exits_4(self, tmp_path, capsys):
        # Finite input whose objective overflows: it used to warn, then
        # return nan as the objective.
        rng = np.random.default_rng(0)
        path = tmp_path / "huge.irt"
        save_archive(IrregularTensor([rng.random((rows, 8)) * 1e153 for rows in (12, 9, 15)]), path)
        assert cli.main(["decompose", str(path), "--rank", "3", "--max-iters", "1"]) == 4
        assert "objective is not finite" in capsys.readouterr().err

    def test_fitness_of_a_fit_whose_total_norm_overflows(self, tmp_path):
        # Sum_k ||X_k||^2 overflows though each term does not; the report
        # read fitness 1.0, after an overflow warning.
        reports = []
        for scale in (1.0, 10.0**153.125):
            rng = np.random.default_rng(0)
            path, report = tmp_path / f"x{scale:g}.irt", tmp_path / f"x{scale:g}.csv"
            save_archive(IrregularTensor([rng.random((rows, 8)) * scale
                                          for rows in (12, 9, 15)]), path)
            assert cli.main(["decompose", str(path), "--method", "als", "--rank", "2",
                             "--threads", "1", "--report-fitness", "--out-report", str(report)]) == 0
            header, rows = read_csv(report)
            reports.append(float(rows[-1][header.index("fitness")]))
        assert reports[1] == pytest.approx(reports[0], abs=1e-12)
        assert reports[1] < 0.9

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_in_als_sweep_exits_4(self, tmp_path, capsys):
        # x1e160 is finite, but the sweep's Gram products overflow; x1e150 still fits.
        tensor = load_archive(make_archive(tmp_path))
        for scale, code in ((1e160, 4), (1e150, 0)):
            scaled = [x * scale if k == 1 else x for k, x in enumerate(tensor.slices)]
            path = tmp_path / f"scaled{scale:g}.irt"
            report = tmp_path / f"scaled{scale:g}.csv"
            save_archive(IrregularTensor(scaled), path)
            assert cli.main(["decompose", str(path), "--method", "als", "--rank", "2",
                             "--report-fitness", "--out-report", str(report)]) == code
            if code:
                assert "ALS sweep" in capsys.readouterr().err
            else:
                header, rows = read_csv(report)
                assert float(rows[-1][header.index("fitness")]) >= 0.99


class TestBench:
    def test_grid_rows_and_float_counts(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", "--sizes", "12x8x4", "--ranks", "2,3", "--methods", "als,dpar2",
            "--mode", "uniform", "--seed", "0", "--max-iters", "3", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == cli.BENCH_HEADER
        assert len(rows) == 4
        spec = SyntheticSpec(rows=12, cols=8, num_slices=4, mode=MODE_UNIFORM,
                             true_rank=3, noise_level=0.0, seed=0)
        counts = generate(spec).row_counts
        for row in rows:
            rank = int(row[header.index("rank")])
            cell = row[header.index("compressed_float_count")]
            if row[header.index("method")] == "als":
                assert cell == ""
            else:
                want = sum(c * rank for c in counts) + 4 * rank * rank + 8 * rank + rank
                assert int(cell) == want
            assert float(row[header.index("fitness")]) <= 1.0

    def test_semicolon_separated_sizes(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--sizes", "8x6x2;10x6x3", "--ranks", "2",
                         "--methods", "dpar2", "--max-iters", "2",
                         "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[:3] for r in rows] == [["8", "6", "2"], ["10", "6", "3"]]

    def test_bad_size_exits_3(self, tmp_path):
        assert cli.main(["bench", "--sizes", "8x6", "--out",
                         str(tmp_path / "x.csv")]) == 3

    def test_no_sizes_exits_3(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(["bench", "--sizes", ";", "--out", str(out)]) == 3
        assert "no sizes given" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_exits_3(self, tmp_path):
        assert cli.main(["bench", "--sizes", "8x6x2", "--methods", "qr",
                         "--out", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("flags, message", [
        (["--max-iters", "0"], "max_iters must be >= 1"),
        (["--tol", "nan"], "tol must be finite and >= 0"),
    ])
    def test_bad_options_exit_3_before_generating(self, tmp_path, monkeypatch, capsys, flags,
                                                  message):
        made = []
        monkeypatch.setattr(cli, "generate", lambda *args, **kw: made.append(args))
        out = tmp_path / "x.csv"
        assert cli.main(["bench", "--sizes", "8x6x2", *flags, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert made == [] and not out.exists()

    def test_non_finite_noise_exits_3(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(["bench", "--sizes", "8x6x2", "--ranks", "2", "--mode", "planted",
                         "--noise", "nan", "--out", str(out)]) == 3
        assert "noise_level must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise, message", [
        ("nan", "noise_level must be finite and >= 0"),
        ("0.1", "noise_level applies to planted mode only"),
    ])
    def test_uniform_noise_exits_3(self, tmp_path, capsys, noise, message):
        out = tmp_path / "x.csv"
        assert cli.main(["bench", "--sizes", "8x6x2", "--ranks", "2", "--mode", "uniform",
                         "--noise", noise, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["ranks", "methods"])
    def test_empty_list_exits_3(self, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        assert cli.main(["bench", "--sizes", "8x6x2", f"--{flag}", "",
                         "--out", str(out)]) == 3
        assert f"no {flag} given" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["dpar2", "als"])
    def test_matches_decompose_of_the_same_tensor(self, tmp_path, method):
        # bench and decompose fit through one job function: same spec,
        # same seed, same iterations and the same fitness text.
        path, report, out = tmp_path / "t.irt", tmp_path / "report.csv", tmp_path / "bench.csv"
        assert cli.main(["generate", "--I", "12", "--J", "8", "--K", "4", "--mode", "uniform",
                         "--rank", "2", "--seed", "0", "--out", str(path)]) == 0
        assert cli.main(["decompose", str(path), "--method", method, "--rank", "2",
                         "--max-iters", "5", "--tol", "0", "--threads", "1",
                         "--report-fitness", "--out-report", str(report)]) == 0
        assert cli.main(["bench", "--sizes", "12x8x4", "--ranks", "2", "--methods", method,
                         "--seed", "0", "--max-iters", "5", "--tol", "0", "--threads", "1",
                         "--out", str(out)]) == 0
        header, rows = read_csv(report)
        bench_header, (bench_row,) = read_csv(out)
        for column in ("iterations", "fitness"):
            assert rows[-1][header.index(column)] == bench_row[bench_header.index(column)]
        assert bench_row[bench_header.index("iterations")] == "5"


class TestAnalyze:
    def fitted_dir(self, tmp_path, num_slices=6):
        # the similarity tooling needs same-height slices: uniform mode
        # gives every slice ``rows`` rows
        spec = SyntheticSpec(rows=10, cols=8, num_slices=num_slices, seed=3)
        path = tmp_path / f"equal{num_slices}.irt"
        save_archive(generate(spec), path)
        outdir = tmp_path / "factors"
        assert cli.main(["decompose", str(path), "--rank", "2", "--tol", "0",
                         "--out-factors", str(outdir)]) == 0
        return outdir

    def test_outputs_are_consistent(self, tmp_path):
        factors = self.fitted_dir(tmp_path)
        out = tmp_path / "analysis"
        code = cli.main(["analyze", str(factors), "--target", "0", "--knn", "3",
                         "--rwr", "--pcc", "--out-dir", str(out)])
        assert code == 0
        header, sim_rows = read_csv(out / "similarity.csv")
        adj = np.array([[float(c) for c in row[1:]] for row in sim_rows])
        assert np.allclose(adj, adj.T)
        assert np.all(np.diag(adj) == 0.0)

        _, knn_rows = read_csv(out / "knn.csv")
        got = [int(r[1]) for r in knn_rows]
        assert got == knn(adj[0], 0, 3)

        _, rwr_rows = read_csv(out / "rwr.csv")
        scores = np.array([float(r[1]) for r in rwr_rows])
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)
        assert (scores >= 0).all()

        _, pcc_rows = read_csv(out / "pcc.csv")
        corr = np.array([[float(c) for c in row[1:]] for row in pcc_rows])
        assert np.allclose(np.diag(corr), 1.0)

    def test_zero_neighbours_gives_empty_table(self, tmp_path):
        factors = self.fitted_dir(tmp_path)
        out = tmp_path / "analysis0"
        assert cli.main(["analyze", str(factors), "--target", "1", "--knn", "0",
                         "--out-dir", str(out)]) == 0
        header, rows = read_csv(out / "knn.csv")
        assert header == ["rank", "node", "similarity"]
        assert rows == []
        assert not (out / "rwr.csv").exists()

    def test_strict_iteration_mode_changes_result(self, tmp_path):
        factors = self.fitted_dir(tmp_path)
        outs = {}
        for extra, name in ((["--strict-iters", "--rwr-iters", "2"], "strict"),
                            ([], "converged")):
            out = tmp_path / name
            argv = (["analyze", str(factors), "--target", "0", "--knn", "3", "--rwr"]
                    + extra + ["--out-dir", str(out)])
            assert cli.main(argv) == 0
            _, rows = read_csv(out / "rwr.csv")
            outs[name] = np.array([float(r[1]) for r in rows])
        # exactly two power steps land far from the stationary point the
        # early-stopped default run settles on
        assert np.abs(outs["strict"] - outs["converged"]).max() > 1e-6

    def test_bad_target_exits_3(self, tmp_path):
        factors = self.fitted_dir(tmp_path)
        assert cli.main(["analyze", str(factors), "--target", "99",
                         "--out-dir", str(tmp_path / "a")]) == 3

    @pytest.mark.parametrize("flags", [
        ["--target", "0", "--knn", "99"],
        ["--target", "99"],
        ["--target", "0", "--rwr", "--restart", "1.5"],
    ], ids=["knn", "target", "rwr-restart"])
    def test_failed_analysis_leaves_no_output(self, tmp_path, flags):
        factors = self.fitted_dir(tmp_path)
        out = tmp_path / "a"
        assert cli.main(["analyze", str(factors), *flags, "--out-dir", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("gamma", ["0", "-1", "nan", "inf"])
    def test_bad_gamma_exits_3_with_no_output(self, tmp_path, capsys, gamma):
        factors = self.fitted_dir(tmp_path)
        out = tmp_path / "a"
        assert cli.main(["analyze", str(factors), "--target", "0", "--rwr", "--gamma", gamma,
                         "--out-dir", str(out)]) == 3
        assert "gamma must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_rwr_without_a_step_exits_3_with_no_output(self, tmp_path, capsys, iters):
        factors = self.fitted_dir(tmp_path)
        out = tmp_path / "a"
        assert cli.main(["analyze", str(factors), "--target", "0", "--rwr", "--rwr-iters", iters,
                         "--out-dir", str(out)]) == 3
        assert "max_iters must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_pcc_of_a_rank_1_fit_exits_3_with_no_output(self, tmp_path, capsys):
        archive = tmp_path / "u.irt"
        assert cli.main(["generate", "--I", "12", "--J", "6", "--K", "4", "--mode", "uniform",
                         "--out", str(archive)]) == 0
        factors = tmp_path / "fu"
        assert cli.main(["decompose", str(archive), "--rank", "1",
                         "--out-factors", str(factors)]) == 0
        out = tmp_path / "au"
        assert cli.main(["analyze", str(factors), "--target", "0", "--pcc",
                         "--out-dir", str(out)]) == 3
        assert "row 0 of V has zero variance" in capsys.readouterr().err
        assert not out.exists()

    def test_smaller_save_over_a_larger_one_is_read_by_its_manifest(self, tmp_path):
        # U_0003.csv and U_0004.csv of the first save stay behind.
        self.fitted_dir(tmp_path, num_slices=5)
        outdir = self.fitted_dir(tmp_path, num_slices=3)
        assert (outdir / "U_0004.csv").exists()
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(outdir), "--target", "0", "--knn", "2",
                         "--out-dir", str(out)]) == 0
        _, sim_rows = read_csv(out / "similarity.csv")
        assert len(sim_rows) == 3

    def test_missing_u_file_or_slice_count_exits_3(self, tmp_path, capsys):
        factors = self.fitted_dir(tmp_path)
        manifest = json.loads((factors / "manifest.json").read_text())
        (factors / "U_0002.csv").unlink()
        assert cli.main(["analyze", str(factors), "--target", "0",
                         "--out-dir", str(tmp_path / "a")]) == 3
        assert "missing U_0002.csv" in capsys.readouterr().err
        # Missing, JSON true, which reads as the count 1 in Python, or a
        # manifest that is a JSON array, not an object.
        del manifest["num_slices"]
        for i, bad in enumerate([manifest, {**manifest, "num_slices": True},
                                 [{**manifest, "num_slices": 6}]]):
            (factors / "manifest.json").write_text(json.dumps(bad))
            with pytest.raises(ArchiveFormatError, match="no positive integer num_slices"):
                load_factors(factors)
            assert cli.main(["analyze", str(factors), "--target", "0",
                             "--out-dir", str(tmp_path / f"b{i}")]) == 3
            assert "manifest.json has no positive integer num_slices" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("U_0001.csv", "nan"), ("V.csv", "inf")])
    def test_non_finite_factor_file_exits_3_with_no_output(self, tmp_path, capsys, name,
                                                           value):
        factors = self.fitted_dir(tmp_path)
        path = factors / name
        text = path.read_text()
        path.write_text(value + text[text.index(","):])  # the first entry
        out = tmp_path / "a"
        assert cli.main(["analyze", str(factors), "--target", "0", "--knn", "3", "--rwr",
                         "--pcc", "--out-dir", str(out)]) == 3
        assert f"{name}: non-finite values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["H.csv", "U_0001.csv"])
    def test_empty_factor_file_exits_3_naming_it(self, tmp_path, capsys, recwarn, name):
        # numpy's loadtxt warned and read a (0, 1) matrix, so the error blamed its shape.
        factors = self.fitted_dir(tmp_path)
        (factors / name).write_text("")
        out = tmp_path / "a"
        assert cli.main(["analyze", str(factors), "--target", "0", "--out-dir", str(out)]) == 3
        assert f"{name}: no values" in capsys.readouterr().err
        assert not recwarn.list and not out.exists()

    def test_default_knn_fits_a_small_factor_set(self, tmp_path):
        factors = self.fitted_dir(tmp_path, num_slices=4)
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(factors), "--target", "0",
                         "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "knn.csv")
        assert [int(r[0]) for r in rows] == [1, 2, 3]

    def test_out_dir_over_a_file_exits_3(self, tmp_path, capsys):
        factors = self.fitted_dir(tmp_path)
        taken = tmp_path / "F"
        taken.write_text("")
        assert cli.main(["analyze", str(factors), "--target", "0",
                         "--out-dir", str(taken)]) == 3
        assert "File exists" in capsys.readouterr().err

    def test_u_file_of_the_wrong_rank_is_rejected(self, tmp_path, capsys):
        factors = self.fitted_dir(tmp_path)
        path = factors / "U_0001.csv"
        path.write_text("".join(line.split(",")[0] + "\n"
                                for line in path.read_text().splitlines()))
        with pytest.raises(ShapeMismatchError, match="U file 1 has 1 columns, expected 2"):
            load_factors(factors)
        assert cli.main(["analyze", str(factors), "--target", "0",
                         "--out-dir", str(tmp_path / "a")]) == 3
        assert "U file 1 has 1 columns" in capsys.readouterr().err

    def test_missing_manifest_exits_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["analyze", str(empty), "--target", "0",
                         "--out-dir", str(tmp_path / "a")]) == 3


class TestEntryPoint:
    def test_console_script_round_trip(self, tmp_path):
        # The child imports the same dpar2 as this process, wherever that is.
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        archive = tmp_path / "cli.irt"
        gen = subprocess.run(
            [sys.executable, "-m", "dpar2.cli", "generate", "--I", "10", "--J", "6",
             "--K", "3", "--mode", "planted", "--rank", "2", "--out", str(archive)],
            capture_output=True, text=True, env=env,
        )
        assert gen.returncode == 0, gen.stderr
        dec = subprocess.run(
            [sys.executable, "-m", "dpar2.cli", "decompose", str(archive),
             "--rank", "2", "--report-fitness"],
            capture_output=True, text=True, env=env,
        )
        assert dec.returncode == 0, dec.stderr
        assert "fitness=" in dec.stdout
