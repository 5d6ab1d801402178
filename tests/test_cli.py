import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unidesign import TaConfig, cd2, cd2_gradient, cli, discrepancy, embed
from unidesign.cli import main, read_design_csv, write_matrix_csv
from conftest import FIXTURES, UD18X7_CD2
from oracles import ta_optimize_reference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_published_design(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--design", str(FIXTURES / "ud18x7.csv"))
        assert code == 0
        assert float(out.strip()) == pytest.approx(UD18X7_CD2, abs=5e-4)

    def test_single_cell(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.5\n")
        code, out, _ = run(capsys, "evaluate", "--design", str(path))
        assert code == 0
        assert float(out.strip()) == pytest.approx(1 / 12, abs=1e-7)

    def test_gradient_output(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        write_matrix_csv(str(path), np.array([[0.25, 0.75], [0.5, 0.125]]))
        code, out, _ = run(capsys, "evaluate", "--design", str(path), "--gradient")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # cd2 then one line per run
        assert len(lines[1].split(",")) == 2

    def test_gradient_builds_one_kernel(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        write_matrix_csv(str(path), np.random.default_rng(5).random((9, 3)))
        x = read_design_csv(str(path))
        expected = [f"{cd2(x):.10g}"] + [",".join(f"{v:.10g}" for v in row) for row in cd2_gradient(x)]
        calls = []
        build = discrepancy._kernel
        monkeypatch.setattr(discrepancy, "_kernel", lambda *a: calls.append(1) or build(*a))
        code, out, _ = run(capsys, "evaluate", "--design", str(path), "--gradient")
        assert code == 0
        assert len(calls) == 1
        assert out.splitlines() == expected

    def test_ragged_rows_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2\n0.3\n")
        code, _, err = run(capsys, "evaluate", "--design", str(path))
        assert code == 3
        assert "row 2" in err

    def test_non_numeric_cell_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,zzz\n")
        code, _, err = run(capsys, "evaluate", "--design", str(path))
        assert code == 3
        assert "column 2" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exit_3(self, capsys, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.1,0.2\n0.3,{cell}\n")
        code, _, err = run(capsys, "evaluate", "--design", str(path))
        assert code == 3
        assert "row 2, column 2" in err

    def test_out_of_range_entry_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,1.7\n")
        code, _, err = run(capsys, "evaluate", "--design", str(path))
        assert code == 3
        assert "outside" in err

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "evaluate", "--design", str(tmp_path / "nope.csv"))
        assert code == 3


class TestSample:
    def test_mlhs_values(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sample", "--kind", "mlhs", "--n", "4", "--s", "1",
                         "--seed", "3", "--out", str(out))
        assert code == 0
        values = sorted(np.loadtxt(out, delimiter=",").ravel())
        assert values == pytest.approx([0.125, 0.375, 0.625, 0.875])

    def test_utype_balance(self, capsys, tmp_path):
        out = tmp_path / "u.csv"
        code, _, _ = run(capsys, "sample", "--kind", "utype", "--n", "6", "--q", "3",
                         "--s", "2", "--out", str(out))
        assert code == 0
        levels = np.loadtxt(out, delimiter=",").astype(int)
        for j in range(2):
            assert sorted(levels[:, j]) == [1, 1, 2, 2, 3, 3]

    def test_utype_divisibility_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sample", "--kind", "utype", "--n", "5", "--q", "2",
                           "--s", "1", "--out", str(tmp_path / "u.csv"))
        assert code == 2
        assert "divide" in err

    def test_seed_reproducibility(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sample", "--kind", "lhs", "--n", "7", "--s", "3", "--seed", "5",
            "--out", str(a))
        run(capsys, "sample", "--kind", "lhs", "--n", "7", "--s", "3", "--seed", "5",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_writes_manifest(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        run(capsys, "sample", "--kind", "lhd", "--n", "3", "--s", "2", "--out", str(out))
        manifest = json.loads((tmp_path / "s.manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["config"]["n"] == 3


class TestConstruct:
    @pytest.mark.parametrize("n, q, s", [(18, 18, 7), (12, 3, 4)])
    def test_ta_writes_the_unscreened_run(self, capsys, tmp_path, n, q, s):
        # the design CSV, stdout and trace steps and values of one exact
        # preview per swap, byte for byte
        out, trace = tmp_path / "d.csv", tmp_path / "t.csv"
        code, stdout, _ = run(
            capsys, "construct", "--algo", "ta", "--n", str(n), "--q", str(q), "--s", str(s),
            "--seed", "11", "--out", str(out), "--trace", str(trace),
        )
        assert code == 0
        expected = ta_optimize_reference(TaConfig(n=n, q=q, s=s, seed=11))
        write_matrix_csv(str(tmp_path / "expected.csv"), embed(expected.design))
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert stdout == f"{expected.cd2:.10g}\n"
        rows = [line.split(",")[:2] for line in trace.read_text().splitlines()]
        assert rows == [[str(r.step), f"{r.cd2:.17g}"] for r in expected.trace.records]

    def test_default_pipeline_reaches_documented_band(self, capsys, tmp_path):
        # the README front-page example at default budgets
        code, stdout, _ = run(
            capsys, "construct", "--n", "18", "--q", "18", "--s", "7",
            "--algo", "ta+cgd", "--seed", "1", "--out", str(tmp_path / "d.csv"),
        )
        assert code == 0
        design = np.loadtxt(tmp_path / "d.csv", delimiter=",")
        assert design.shape == (18, 7)
        assert design.min() >= 0.0 and design.max() <= 1.0
        assert float(stdout.strip()) <= 0.037

    @pytest.mark.parametrize("algo", ["ta", "ta+cgd"])
    def test_pipeline_writes_everything(self, capsys, tmp_path, algo):
        out = tmp_path / "d.csv"
        trace = tmp_path / "t.csv"
        proj = tmp_path / "p.csv"
        code, stdout, _ = run(
            capsys, "construct", "--n", "6", "--q", "6", "--s", "3",
            "--algo", algo, "--seed", "1", "--stages", "3", "--probes", "20",
            "--iters-per-stage", "50", "--max-epochs", "20",
            "--out", str(out), "--trace", str(trace), "--projections", str(proj),
        )
        assert code == 0
        design = np.loadtxt(out, delimiter=",")
        assert design.shape == (6, 3)
        assert design.min() >= 0.0 and design.max() <= 1.0
        printed = float(stdout.strip())
        from unidesign import cd2

        assert printed == pytest.approx(cd2(design), abs=1e-9)
        rows = [r.split(",") for r in trace.read_text().strip().splitlines()]
        assert len(rows) >= 2 and all(len(r) == 3 for r in rows)  # step,cd2,seconds
        assert rows[0][0] == "0"
        manifest = json.loads((tmp_path / "d.manifest.json").read_text())
        assert manifest["result"]["cd2"] == pytest.approx(printed, abs=1e-9)
        if algo == "ta":
            assert manifest["result"]["termination"] == "schedule_exhausted"
            assert "epochs" not in manifest["result"]
        else:
            assert manifest["result"]["epochs"] == len(rows) - 1
        proj_rows = proj.read_text().strip().splitlines()
        assert len(proj_rows) == 3 * 6  # s(s-1)/2 pairs x n runs

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["construct", "--n", "5", "--q", "5", "--s", "2", "--algo", "ta",
                "--seed", "9", "--stages", "3", "--probes", "10",
                "--iters-per-stage", "40"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_replays_bit_for_bit(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        run(capsys, "construct", "--n", "4", "--q", "4", "--s", "2", "--algo", "ta+cdfss",
            "--seed", "2", "--stages", "2", "--probes", "10", "--iters-per-stage", "30",
            "--max-epochs", "15", "--out", str(out))
        manifest = json.loads((tmp_path / "d.manifest.json").read_text())
        replay_out = tmp_path / "replay.csv"
        argv = [a.replace(str(out), str(replay_out)) for a in manifest["argv"]]
        assert main(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == replay_out.read_bytes()

    def test_standalone_refiner_from_init(self, capsys, tmp_path):
        code, stdout, _ = run(
            capsys, "construct", "--algo", "cgd",
            "--init", str(FIXTURES / "ud18x7.csv"), "--max-epochs", "50",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 0
        assert float(stdout.strip()) <= UD18X7_CD2 + 1e-6

    def test_unguarded_czg_records_its_cycle_stop(self, capsys, tmp_path):
        # the default --max-epochs 1000; the sweeps enter a limit cycle within 20
        code, _, _ = run(capsys, "construct", "--algo", "ta+czg", "--n", "27", "--q", "27",
                         "--s", "13", "--seed", "0", "--out", str(tmp_path / "d.csv"))
        assert code == 0
        result = json.loads((tmp_path / "d.manifest.json").read_text())["result"]
        assert result["termination"] == "cycle"
        assert 0 < result["epochs"] < 50

    def test_standalone_refiner_requires_init(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "--algo", "czg",
                           "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "--init" in err

    def test_unreadable_init_exit_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "construct", "--algo", "cgd",
                         "--init", str(tmp_path / "missing.csv"),
                         "--out", str(tmp_path / "r.csv"))
        assert code == 3

    @pytest.mark.parametrize("flag, value", [
        ("--delta", "nan"), ("--delta", "inf"), ("--epsilon", "nan"), ("--epsilon", "inf"),
        ("--delta-j", "nan"),
    ])
    def test_non_finite_refiner_setting_exit_2(self, capsys, tmp_path, flag, value):
        init = tmp_path / "i.csv"
        write_matrix_csv(str(init), np.random.default_rng(5).random((4, 2)))
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, "construct", "--algo", "cgd", "--init", str(init),
                         "--max-epochs", "3", flag, value, "--out", str(out))
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("source", ["ta", "init"])
    def test_wrong_length_delta_j_exit_2(self, capsys, tmp_path, source):
        if source == "ta":
            start = ["--algo", "ta+cdfss", "--n", "4", "--q", "4", "--s", "3",
                     "--stages", "1", "--probes", "2", "--iters-per-stage", "5"]
        else:
            init = tmp_path / "i.csv"
            write_matrix_csv(str(init), np.random.default_rng(6).random((4, 3)))
            start = ["--algo", "cdfss", "--init", str(init)]
        out = tmp_path / "r.csv"
        code, _, err = run(capsys, "construct", *start, "--delta-j", "0.1,0.2",
                           "--out", str(out))
        assert code == 2
        assert "needs 1 or 3 values" in err
        assert not out.exists()

    def test_ta_requires_shape(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "--algo", "ta",
                           "--out", str(tmp_path / "r.csv"))
        assert code == 2

    def test_csv_roundtrip_preserves_float64(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        run(capsys, "construct", "--n", "4", "--q", "4", "--s", "2", "--algo", "ta",
            "--seed", "3", "--stages", "2", "--probes", "5", "--iters-per-stage", "20",
            "--out", str(out))
        manifest = json.loads((tmp_path / "d.manifest.json").read_text())
        design = read_design_csv(str(out))
        from unidesign import cd2

        assert cd2(design) == manifest["result"]["cd2"]

    def test_write_read_roundtrip_is_exact(self, tmp_path):
        x = np.random.default_rng(8).random((7, 3))
        path = tmp_path / "x.csv"
        write_matrix_csv(str(path), x)
        assert np.array_equal(read_design_csv(str(path)), x)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("\n0.25,0.5\n\n  \n0.75,1\n\n")
        assert read_design_csv(str(path)).tolist() == [[0.25, 0.5], [0.75, 1.0]]


class TestBench:
    def test_const_self_test(self, capsys, tmp_path):
        design = tmp_path / "d.csv"
        write_matrix_csv(str(design), np.random.default_rng(0).random((8, 3)))
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "bench", "--fn", "const", "--design", str(design),
                         "--test-points", "50", "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["bases"]["poly0"]["mse"] == pytest.approx(0.0, abs=1e-12)

    def test_wood_design_report_layout(self, capsys, tmp_path):
        design = tmp_path / "d.csv"
        write_matrix_csv(str(design), np.random.default_rng(1).random((10, 4)))
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "bench", "--fn", "wood", "--design", str(design),
                         "--basis", "poly0,poly1", "--test-points", "100",
                         "--seed", "7", "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert set(report["bases"]) == {"poly0", "poly1"}
        for entry in report["bases"].values():
            assert entry["rmse"] == pytest.approx(np.sqrt(entry["mse"]), rel=1e-9)
        assert "manifest" in report

    def test_failed_cells_do_not_abort_others(self, capsys, tmp_path):
        design = tmp_path / "d.csv"
        write_matrix_csv(str(design), np.random.default_rng(2).random((6, 4)))
        report_path = tmp_path / "report.json"
        # poly2 needs n > 15 on four factors and must fail per-cell
        code, _, _ = run(capsys, "bench", "--fn", "wood", "--design", str(design),
                         "--basis", "poly0,poly2", "--test-points", "50",
                         "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert "mse" in report["bases"]["poly0"]
        assert "error" in report["bases"]["poly2"]["cells"][0]

    def test_all_cells_failing_exit_4(self, capsys, tmp_path):
        design = tmp_path / "d.csv"
        write_matrix_csv(str(design), np.random.default_rng(3).random((6, 4)))
        code, _, _ = run(capsys, "bench", "--fn", "wood", "--design", str(design),
                         "--basis", "poly2", "--test-points", "20",
                         "--out", str(tmp_path / "r.json"))
        assert code == 4

    def test_sampler_mode_reproducible(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        args = ["bench", "--fn", "camelback", "--sampler", "mlhs", "--reps", "2",
                "--n", "10", "--s", "2", "--test-points", "50", "--seed", "4",
                "--out", str(out)]
        run(capsys, *args)
        first = json.loads(out.read_text())
        run(capsys, *args)
        second = json.loads(out.read_text())
        del first["manifest"]["wall_time_seconds"], second["manifest"]["wall_time_seconds"]
        assert first == second

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run(capsys, "bench", "--fn", "wood",
                           "--out", str(tmp_path / "r.json"))
        assert code == 2

    def test_dimension_mismatch_exit_3(self, capsys, tmp_path):
        design = tmp_path / "d.csv"
        write_matrix_csv(str(design), np.random.default_rng(4).random((6, 3)))
        code, _, err = run(capsys, "bench", "--fn", "wood", "--design", str(design),
                           "--out", str(tmp_path / "r.json"))
        assert code == 3
        assert "expects 4" in err

    def test_sampler_reps_give_one_cell_each(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "bench", "--fn", "const", "--sampler", "lhs",
                         "--reps", "3", "--n", "6", "--s", "2",
                         "--test-points", "20", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["bases"]["poly0"]["cells"]) == 3

    def test_zero_reps_exit_2(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "bench", "--fn", "const", "--sampler", "lhs",
                           "--reps", "0", "--n", "6", "--s", "2", "--out", str(out))
        assert code == 2
        assert "--reps" in err
        assert not out.exists()

    @pytest.mark.parametrize("basis", ["", "poly3", "poly0,poly9"])
    def test_unknown_basis_exit_2(self, capsys, tmp_path, basis):
        design = tmp_path / "d.csv"
        write_matrix_csv(str(design), np.random.default_rng(0).random((8, 3)))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "bench", "--fn", "const", "--design", str(design),
                           "--basis", basis, "--test-points", "5", "--out", str(out))
        assert code == 2
        assert "--basis" in err
        assert not out.exists()

    def test_zero_test_points_exit_2(self, capsys, tmp_path):
        design = tmp_path / "d.csv"
        write_matrix_csv(str(design), np.random.default_rng(0).random((8, 3)))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "bench", "--fn", "const", "--design", str(design),
                           "--test-points", "0", "--out", str(out))
        assert code == 2
        assert "--test-points" in err
        assert not out.exists()


_TINY_TA = ["construct", "--algo", "ta", "--n", "4", "--q", "4", "--s", "2",
            "--stages", "1", "--probes", "2", "--iters-per-stage", "5"]
_TINY_SAMPLE = ["sample", "--kind", "lhs", "--n", "4", "--s", "2"]
_TINY_BENCH = ["bench", "--fn", "const", "--sampler", "lhs", "--reps", "1",
               "--n", "6", "--s", "2", "--test-points", "5"]


@pytest.mark.parametrize("argv, flag", [
    (_TINY_TA, "--out"), (_TINY_TA, "--trace"), (_TINY_TA, "--projections"),
    (_TINY_TA, "--manifest"), (_TINY_SAMPLE, "--out"), (_TINY_SAMPLE, "--manifest"),
    (_TINY_BENCH, "--out"),
], ids=["construct-out", "construct-trace", "construct-projections", "construct-manifest",
        "sample-out", "sample-manifest", "bench-out"])
def test_unwritable_output_exit_2(capsys, tmp_path, argv, flag):
    path = tmp_path / "nodir" / "x.csv"
    out = [] if flag == "--out" else ["--out", str(tmp_path / "ok.csv")]
    code, _, err = run(capsys, *argv, *out, flag, str(path))
    assert code == 2
    assert str(path) in err
    # every output path is checked before any work, so nothing is written
    assert list(tmp_path.iterdir()) == []


_REFINE_INIT = ["construct", "--algo", "cgd", "--init", "{init}", "--max-epochs", "2"]


@pytest.mark.parametrize("argv, flags", [
    (_REFINE_INIT, ("--out", "--trace")),
    (_REFINE_INIT, ("--out", "--manifest")),
    (_TINY_TA, ("--trace", "--projections")),
    (_TINY_SAMPLE, ("--out", "--manifest")),
], ids=["construct-out-trace", "construct-out-manifest", "construct-trace-projections",
        "sample-out-manifest"])
def test_coinciding_outputs_exit_2(capsys, tmp_path, argv, flags):
    init = tmp_path / "d.csv"
    write_matrix_csv(str(init), np.random.default_rng(5).random((4, 2)))
    target = tmp_path / "o.csv"
    target.write_text("kept\n")
    # the second flag spells the same file another way
    paths = [str(target), f"{tmp_path}/./o.csv"]
    out = [] if "--out" in flags else ["--out", str(tmp_path / "x.csv")]
    argv = [a.format(init=init) for a in argv]
    code, _, err = run(capsys, *argv, *out, *(a for pair in zip(flags, paths) for a in pair))
    assert code == 2
    assert all(flag in err for flag in flags)
    assert target.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [init, target]


def test_init_may_be_the_out_path(capsys, tmp_path):
    # the start design is read before anything is written
    design = tmp_path / "d.csv"
    write_matrix_csv(str(design), read_design_csv(str(FIXTURES / "ud18x7.csv")))
    code, stdout, _ = run(capsys, "construct", "--algo", "cgd", "--init", str(design),
                          "--max-epochs", "2", "--out", str(design))
    assert code == 0
    assert cd2(read_design_csv(str(design))) == pytest.approx(float(stdout), rel=1e-9)


_MANIFEST_KEYS = {"argv", "command", "config", "result", "version", "wall_time_seconds"}


@pytest.mark.parametrize("argv", [_TINY_TA, _TINY_SAMPLE], ids=["construct", "sample"])
def test_manifest_layout(capsys, tmp_path, argv):
    argv = [*argv, "--out", str(tmp_path / "o.csv")]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    manifest = json.loads((tmp_path / "o.manifest.json").read_text())
    assert set(manifest) == _MANIFEST_KEYS
    assert manifest["argv"] == argv
    parsed = vars(cli.build_parser().parse_args(argv))
    assert manifest["config"] == {k: v for k, v in parsed.items()
                                  if k not in ("command", "manifest")}


def test_bench_report_manifest_layout(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, *_TINY_BENCH, "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"bases", "function", "manifest", "source", "test_std"}
    assert set(report["manifest"]) == _MANIFEST_KEYS


@pytest.mark.parametrize("argv, code, message", [
    (["construct", "--algo", "ta+cgd", "--n", "4", "--q", "4"], 2, "--algo ta+cgd requires --s"),
    (["construct", "--algo", "czg"], 2, "--algo czg requires --init"),
    (["sample", "--kind", "utype", "--n", "4", "--s", "2"], 2, "--kind utype requires --q"),
    (["bench", "--fn", "wood"], 2, "exactly one of --design or --sampler is required"),
    ([*_TINY_BENCH, "--reps", "0"], 2, "--reps must be >= 1, got 0"),
    (["bench", "--fn", "const", "--design", "{design}", "--basis", "poly3"], 2,
     "--basis must be a comma list of poly0, poly1, poly2, got 'poly3'"),
    (["bench", "--fn", "const", "--sampler", "lhs", "--n", "6"], 2,
     "--sampler requires --n and --s"),
    (["bench", "--fn", "wood", "--design", "{design}"], 3, "wood expects 4 factors, design has 3"),
    (["bench", "--fn", "camelback", "--sampler", "lhs", "--n", "6", "--s", "4", "--reps", "1"], 2,
     "camelback expects 2 factors, got --s 4"),
], ids=["construct-shape", "construct-init", "sample-utype", "bench-source", "bench-reps",
        "bench-basis", "bench-sampler-shape", "bench-dimension", "bench-sampler-dimension"])
def test_error_paths_print_one_line(capsys, tmp_path, argv, code, message):
    design = tmp_path / "d.csv"
    write_matrix_csv(str(design), np.random.default_rng(4).random((6, 3)))
    argv = [a.format(design=design) for a in argv]
    got, out, err = run(capsys, *argv, "--out", str(tmp_path / "o.out"))
    assert (got, out, err) == (code, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [design]


def test_bench_unwritable_out_runs_no_fit(capsys, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a Kriging fit ran before the output path was checked")

    monkeypatch.setattr(cli, "evaluate_mse", fail)
    code, _, _ = run(capsys, *_TINY_BENCH, "--out", str(tmp_path / "nodir" / "r.json"))
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["construct", "--algo", "nonsense"])
    assert excinfo.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


# Design files the generated argv may name: valid, malformed, or missing.
# An argument "@name" stands for the file "name" in the example's directory.
_DESIGN_FILES = {
    "good.csv": "0.1,0.6\n0.4,0.2\n0.9,0.8\n0.55,0.35\n",
    "nan.csv": "0.1,nan\n0.4,0.2\n",
    "range.csv": "0.1,1.5\n0.4,0.2\n",
    "ragged.csv": "0.1,0.2\n0.3\n",
    "text.csv": "0.1,x\n",
    "empty.csv": "",
    "missing.csv": None,
}


def _pick(good, bad=()):
    """One of ``good``, or one of ``bad`` in about one draw in eight."""
    good, bad = list(good), list(bad)
    return st.integers(0, 7 if bad else 0).flatmap(
        lambda k: st.sampled_from(bad if k == 7 else good)
    )


def _opt(flag, good, bad=()):
    return _pick([[flag, str(v)] for v in good], [[flag, str(v)] for v in bad])


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command, *(a for p in ps for a in p)])


# q is mostly drawn to divide n, so that most examples reach the optimizers
_N_Q = _pick(range(2, 7), (-1, 0, 1)).flatmap(
    lambda n: _pick([n, 1], [0, 2]).map(lambda q: ["--n", str(n), "--q", str(q)])
)
_SEED = _opt("--seed", range(0, 7), (-1,))
_construct = _argv(
    "construct",
    _opt("--algo", ["ta", "ta+cgd", "ta+czg", "ta+cdfss", "cgd", "czg", "cdfss"]),
    _opt("--init", ["@good.csv"], ["@nan.csv", "@range.csv", "@missing.csv"]),
    _N_Q, _opt("--s", range(1, 5), (-1, 0)), _SEED,
    _opt("--alpha", [0.1, 0.5], [0, 1, "nan"]),
    # small budgets keep each example cheap
    _opt("--stages", range(1, 4), (0,)), _opt("--probes", range(1, 6), (0,)),
    _opt("--iters-per-stage", range(1, 21), (0,)), _opt("--max-epochs", range(1, 4), (-1, 0)),
    _opt("--delta", [0.01, 0.1, 0], (-1, "nan")), _opt("--t-max", (1, 2), (0,)),
    _pick([[], ["--delta-j", "0.05"]], (["--delta-j", v] for v in ("0,1", "-1", "a"))),
    _pick([[], ["--guarded"]]),
    _pick([[], ["--trace", "@t.csv"], ["--projections", "@p.csv"]]),
    _opt("--out", ["@out.csv"], ["@nodir/out.csv"]),
)
_evaluate = _argv(
    "evaluate", _opt("--design", [f"@{name}" for name in _DESIGN_FILES]),
    _pick([[], ["--gradient"]]),
)
_sample = _argv(
    "sample", _opt("--kind", ["lhd", "lhs", "mlhs", "utype"]),
    _N_Q, _opt("--s", range(1, 5), (-1, 0)), _SEED,
    _opt("--out", ["@out.csv"], ["@nodir/out.csv"]),
)
_bench = _argv(
    "bench", _opt("--fn", ["wood", "camelback", "const"]),
    _pick(
        [["--design", "@good.csv"], ["--sampler", "lhs", "--n", "6", "--s", "4"],
         ["--sampler", "mlhs", "--n", "5", "--s", "2"]],
        [["--design", "@nan.csv"], ["--design", "@missing.csv"], ["--sampler", "lhs"],
         ["--sampler", "mlhs", "--n", "0", "--s", "2"],
         ["--design", "@good.csv", "--sampler", "lhs"], []],
    ),
    _opt("--reps", (1, 2), (-1, 0)),
    _opt("--basis", ["poly0", "poly1", "poly0,poly2"], ["poly7", ""]),
    _opt("--test-points", range(1, 21), (-1, 0)), _SEED,
    _opt("--out", ["@out.json"], ["@nodir/out.json"]),
)


@settings(max_examples=100, deadline=None)
@given(argv=st.one_of(_construct, _evaluate, _sample, _bench))
def test_generated_argv_exit_codes(argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in _DESIGN_FILES.items():
            if text is not None:
                (root / name).write_text(text)
        argv = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3, 4)
