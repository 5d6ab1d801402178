"""Tests of the benchmark itself: tracer arithmetic, output checks, metric names.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from perfbench import checks, layers, run, workloads
from perfbench.tracer import Counter, Span, Target, Tracer, _covered, self_times
from unidesign.cli import main as cli_main

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_FILLED = {k for k in layers.PER_LAYER_UNITS if k.startswith(("trace.", "ref."))}


def _quiet_cli(argv):
    return run._quiet(cli_main)(argv)


# -- tracer -------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert _covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert _covered([], 0, 10) == 0.0


def test_self_time_subtracts_children_and_outer_counters():
    spans = [
        Span(0, "cli.job", None, 0, 0.0, 10.0),
        Span(1, "lattice.ta_optimize", 0, 0, 1.0, 4.0),
        Span(2, "optimize.czg", 0, 0, 5.0, 7.0),
        Span(3, "lattice.threshold_sequence", 1, 0, 2.0, 3.0),
    ]
    counters = {
        # 2.0 s inclusive, of which 0.5 s nested inside another counted call
        (0, "discrepancy.cache.apply_column_swap"): Counter(3, 2.0, 1.5),
        (1, "discrepancy.cache.preview_column_swap"): Counter(10, 0.5, 0.5),
    }
    own = self_times(spans, counters)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0 - 1.5)
    assert own[1] == pytest.approx(3.0 - 1.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    class Cache:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    def job(cache):
        return cache.outer() + cache.outer()

    mod.Cache, mod.job, mod.REG = Cache, job, {"a": job}
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_tracer_counts_nested_calls_once_and_tolerates_missing_names(fake_module):
    original = (fake_module.job, fake_module.Cache.outer, fake_module.REG["a"])
    tracer = Tracer()
    tracer.install([
        Target("fake.job", "span", ("fake_layer:job", "fake_layer:REG[a]", "fake_layer:REG[gone]")),
        Target("fake.outer", "counter", ("fake_layer:Cache.outer",)),
        Target("fake.inner", "counter", ("fake_layer:Cache.inner", "fake_layer:Gone.inner")),
        Target("fake.absent", "span", ("no_such_module_here:fn", "fake_layer:absent")),
    ])
    try:
        assert fake_module.job(fake_module.Cache()) == 4
    finally:
        tracer.uninstall()
    assert sorted(tracer.missing) == sorted([
        "fake_layer:REG[gone]", "fake_layer:Gone.inner", "no_such_module_here:fn", "fake_layer:absent",
    ])
    assert (fake_module.job, fake_module.Cache.outer, fake_module.REG["a"]) == original
    [span] = tracer.spans
    outer = tracer.counters[(span.id, "fake.outer")]
    inner = tracer.counters[(span.id, "fake.inner")]
    assert (outer.calls, inner.calls) == (2, 2)
    assert inner.outer_seconds == 0.0 and inner.seconds > 0.0
    assert outer.outer_seconds == outer.seconds > inner.seconds


def test_layer_metrics_on_traced_cli_jobs(tmp_path):
    design = tmp_path / "d.csv"
    jobs = [
        ("construct", "--algo", "ta+czg", "--n", "8", "--q", "8", "--s", "3", "--stages", "2",
         "--iters-per-stage", "50", "--probes", "10", "--max-epochs", "5", "--out", str(design)),
        ("construct", "--algo", "cdfss", "--init", str(design), "--max-epochs", "3",
         "--out", str(tmp_path / "r.csv")),
        ("evaluate", "--design", str(design), "--gradient"),
        ("bench", "--fn", "wood", "--sampler", "mlhs", "--n", "8", "--s", "4", "--reps", "1",
         "--test-points", "20", "--out", str(tmp_path / "rep.json")),
    ]
    runner = run.Runner(cli_main)
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        for argv in jobs:
            runner.run(workloads.Job(argv[0], argv), tracer)
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.problems
    assert tracer.missing == []
    m = layers.layer_metrics(tracer)
    assert set(m) == set(layers.PER_LAYER_UNITS) - RUN_FILLED
    assert m["lattice.ta.iterations"] == 3 * 50
    assert 0.0 < m["lattice.ta.accept_ratio"] <= 1.0
    assert m["optimize.czg.epochs"] >= 1 and m["optimize.cdfss.epochs"] >= 1
    assert m["discrepancy.cache.preview_column_swap.calls"] >= 150
    assert m["discrepancy.cd2.calls"] == m["discrepancy.cd2_gradient.calls"] == 1
    assert m["surrogate.kriging_fit.calls"] == 1 and m["surrogate.nll_evals"] > 0
    assert sum(m[f"optimize.termination.{t}"] for t in layers.TERMINATIONS) == 2
    shares = sum(m[f"layer.{name}.share"] for name in layers.LAYERS)
    assert shares == pytest.approx(1.0, abs=1e-6)


# -- output checks ------------------------------------------------------------


def _corrupt(kind):
    def corrupted_cli(argv):
        rc = cli_main(argv)
        path = argv[argv.index("--out") + 1]
        x = np.loadtxt(path, delimiter=",", ndmin=2)
        if kind == "out_of_range":
            x[0, 0] = 1.5
        else:  # inside [0, 1], but off the lattice and off the printed CD2
            x[0, 0] = 0.5 * (x[0, 0] + x[1, 0])
        np.savetxt(path, x, fmt="%.17g", delimiter=",")
        return rc

    return corrupted_cli


@pytest.mark.parametrize("kind", ["none", "out_of_range", "perturbed"])
def test_corrupted_output_design_counts_as_failed_job(tmp_path, kind):
    argv = ("construct", "--algo", "ta", "--n", "6", "--q", "6", "--s", "2", "--stages", "1",
            "--iters-per-stage", "20", "--probes", "5", "--out", str(tmp_path / "d.csv"))
    runner = run.Runner(cli_main if kind == "none" else _corrupt(kind))
    runner.run(workloads.Job("ta 6x2", argv))
    assert runner.attempted == 1
    assert runner.failed == (0 if kind == "none" else 1)


def test_wrong_gradient_and_nonfinite_rmse_fail_their_checks(tmp_path):
    x = (np.argsort(np.random.default_rng(3).random((12, 3)), axis=0) + 0.3) / 12
    path = tmp_path / "x.csv"
    np.savetxt(path, x, fmt="%.17g", delimiter=",")
    argv = ("evaluate", "--design", str(path), "--gradient")
    rc, stdout, _ = run._run_cli(cli_main, argv)
    assert checks.check_job(argv, rc, stdout).problems == []
    lines = stdout.splitlines()
    doubled = [",".join(str(2 * float(v)) for v in row.split(",")) for row in lines[1:]]
    assert checks.check_job(argv, 0, "\n".join(lines[:1] + doubled)).problems

    report = tmp_path / "rep.json"
    report.write_text(json.dumps({"bases": {"poly0": {"rmse": 1.0, "cells": [{"rmse": float("nan")}]}}}))
    argv = ("bench", "--fn", "wood", "--design", str(path), "--out", str(report))
    assert checks.check_job(argv, 0, "").problems


# -- workloads and metric names -------------------------------------------------


@pytest.mark.parametrize("name", ["ta-small", "large-n"])
def test_same_seed_gives_same_inputs(tmp_path, name):
    built = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        blocks = workloads.WORKLOADS[name](5, str(work), _quiet_cli)
        argv = [[a.replace(str(work), "") for a in job.argv] for b in blocks for job in b]
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        built.append((argv, files))
    assert built[0] == built[1]
    other = workloads.WORKLOADS[name](6, str(tmp_path / "1"), _quiet_cli)
    assert [j.argv for b in other for j in b] != [j.argv for b in blocks for j in b]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END_UNITS
    assert declared_layer == layers.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name, unit in {**declared_e2e, **declared_layer}.items():
        assert NAME.match(name) and re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert UNIT.match(unit), unit


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ta-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
