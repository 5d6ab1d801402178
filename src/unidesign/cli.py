"""Command-line front end: construct, evaluate, sample, bench.

File formats: designs are headerless CSV (rows = runs, columns = factors,
values with 17 significant digits so they round-trip float64 exactly);
traces are ``step,cd2,seconds`` CSV for every algorithm, where ``step`` is
the TA iteration or the refiner epoch and 0 is the starting design; every
file-writing command also writes a JSON manifest recording the parsed
arguments, for replay.

Errors: commands raise, and ``main`` alone prints one ``error: ...`` line to
stderr and maps the exception to the exit code: 0 success, 2 usage error
(``ValueError``; ``OSError`` for an output path that cannot be written), 3
input-data error (``DesignFileError``), 4 numerical failure (every bench cell failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from typing import get_args

import numpy as np

from . import __version__, optimize
from .benchfns import get_test_function, scale_design
from .discrepancy import DiscrepancyCache
from .lattice import OptimizationTrace, TaConfig, embed, random_utype, ta_optimize
from .optimize import RefinerConfig
from .sampling import lhd, lhs, mlhs
from .surrogate import TrendBasis, evaluate_mse

__all__ = ["main", "DesignFileError", "read_design_csv", "write_matrix_csv"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

_ALGOS = ("ta", *(f"ta+{r}" for r in optimize._REFINERS), *optimize._REFINERS)

# sample --kind: (draw(args) -> matrix, integer cells); each draw looks its sampler up when called
_SAMPLERS = {
    "lhd": (lambda a: lhd(a.n, a.s, a.seed).levels, True),
    "lhs": (lambda a: lhs(a.n, a.s, a.seed), False),
    "mlhs": (lambda a: mlhs(a.n, a.s, a.seed), False),
    "utype": (lambda a: random_utype(a.n, a.q, a.s, a.seed).levels, True),
}


class DesignFileError(Exception):
    """Bad design: non-numeric or non-finite cell, ragged rows, out-of-range entry, wrong width."""


def read_design_csv(path: str) -> np.ndarray:
    """Read a headerless numeric CSV design of unit-cube points, with row/column diagnostics."""
    rows = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DesignFileError(f"cannot read {path}: {exc}") from exc
    with fh:
        for r, record in enumerate(csv.reader(fh)):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            parsed = []
            for c, cell in enumerate(record):
                try:
                    value = float(cell)
                except ValueError:
                    raise DesignFileError(
                        f"{path}: row {r + 1}, column {c + 1}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DesignFileError(
                        f"{path}: row {r + 1}, column {c + 1}: not finite: {cell!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DesignFileError(f"{path}: no data rows")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DesignFileError(
                f"{path}: row {r + 1} has {len(row)} cells, expected {width}"
            )
    x = np.array(rows, dtype=float)
    if x.min() < 0.0 or x.max() > 1.0:
        i, j = np.unravel_index(np.argmax(np.abs(x - 0.5)), x.shape)
        raise DesignFileError(
            f"{path}: row {i + 1}, column {j + 1}: entry {x[i, j]} outside [0, 1]"
        )
    return x


def write_matrix_csv(path: str, matrix: np.ndarray, integer: bool = False) -> None:
    fmt = "%d" if integer else "%.17g"
    np.savetxt(path, np.atleast_2d(matrix), fmt=fmt, delimiter=",")


def _write_trace_csv(path: str, trace: OptimizationTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for r in trace.records:
            writer.writerow([r.step, f"{r.cd2:.17g}", f"{r.seconds:.17g}"])


def _write_projections_csv(path: str, design: np.ndarray) -> None:
    """All 2-D projections as (col_a, col_b, x, y) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        s = design.shape[1]
        for a in range(s):
            for b in range(a + 1, s):
                for i in range(design.shape[0]):
                    writer.writerow([a, b, f"{design[i, a]:.17g}", f"{design[i, b]:.17g}"])


def _check_writable(**paths) -> None:
    """Raise OSError unless every output path, keyed by its flag, can be opened for writing.

    Called before any work, so that a bad path neither wastes a run nor leaves
    some outputs written without the others.  Two flags that name one file
    raise ValueError, since the later write would overwrite the earlier.
    Leaves every file as it was.
    """
    flags = {}
    for flag, path in paths.items():
        if not path:
            continue
        other = flags.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ValueError(f"--{other} and --{flag} both name {path}")
        existed = os.path.exists(path)
        with open(path, "a"):
            pass
        if not existed:
            os.remove(path)


def _manifest(command: str, argv: list, config: dict, t0: float, result: dict) -> dict:
    """Replayable record of a CLI invocation started at ``perf_counter()`` ``t0``."""
    return {"command": command, "argv": argv, "config": config, "version": __version__,
            "wall_time_seconds": time.perf_counter() - t0, "result": result}


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _manifest_config(args) -> dict:
    """The parsed options, less the subcommand and the manifest path."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "manifest")}


def _add_construct_parser(sub) -> None:
    p = sub.add_parser("construct", help="construct a uniform design")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--algo", choices=_ALGOS, default="ta+cgd")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", help="initial design CSV (required for standalone refiners)")
    p.add_argument("--out", default="design.csv")
    p.add_argument("--trace", help="trace CSV path")
    p.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")
    p.add_argument("--projections", help="write all 2-D projections to this CSV")
    # threshold-accepting knobs
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--stages", type=int, default=20)
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--iters-per-stage", type=int, default=2000)
    # refiner knobs
    p.add_argument("--delta", type=float, default=0.01, help="CGD step size")
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.add_argument("--max-epochs", type=int, default=1000)
    p.add_argument("--t-max", type=int, default=1)
    p.add_argument("--delta-j", help="CDFSS column steps: one value or comma list")
    p.add_argument("--guarded", action="store_true", help="CZG rejects worsening updates")


def _refiner_config(args, s: int) -> RefinerConfig:
    column_steps = None
    if args.delta_j:
        parts = [float(v) for v in args.delta_j.split(",")]
        column_steps = parts * s if len(parts) == 1 else parts
        if len(column_steps) != s:
            raise ValueError(f"--delta-j needs 1 or {s} values, got {len(parts)}")
    return RefinerConfig(
        step_size=args.delta,
        epsilon=args.epsilon,
        max_epochs=args.max_epochs,
        t_max=args.t_max,
        column_steps=column_steps,
        guarded=args.guarded,
    )


def _cmd_construct(args, argv) -> int:
    t0 = time.perf_counter()
    from_ta = args.algo.startswith("ta")
    refine = optimize._REFINERS.get(args.algo.rpartition("+")[2])
    for name in ("n", "q", "s") if from_ta else ("init",):
        if getattr(args, name) in (None, ""):
            raise ValueError(f"--algo {args.algo} requires --{name}")
    _check_writable(out=args.out, trace=args.trace, projections=args.projections,
                    manifest=args.manifest)
    if from_ta:
        ta_config = TaConfig(
            n=args.n, q=args.q, s=args.s, alpha=args.alpha, stages=args.stages,
            probes=args.probes, iterations_per_stage=args.iters_per_stage, seed=args.seed,
        )
    else:
        design = read_design_csv(args.init)
    # built before TA runs, so that bad refiner options fail fast
    if refine:
        refiner_config = _refiner_config(args, args.s if from_ta else design.shape[1])

    # phase 1: the start design is the TA result, or the --init design read above
    if from_ta:
        ta_result = ta_optimize(ta_config)
        design, final_cd2, trace = embed(ta_result.design), ta_result.cd2, ta_result.trace
        summary = {"termination": "schedule_exhausted"}
    # phase 2: the continuous refiner
    if refine:
        result = refine(design, refiner_config)
        design, final_cd2, trace = result.design, result.cd2, result.trace
        summary = {"termination": result.termination, "epochs": len(trace.records) - 1}

    write_matrix_csv(args.out, design)
    if args.trace:
        _write_trace_csv(args.trace, trace)
    if args.projections:
        _write_projections_csv(args.projections, design)

    _write_json(args.manifest, _manifest(
        "construct", argv, _manifest_config(args), t0,
        {"cd2": final_cd2, **summary, "shape": list(design.shape)},
    ))
    print(f"{final_cd2:.10g}")
    return EXIT_OK


def _cmd_evaluate(args, argv) -> int:
    cache = DiscrepancyCache(read_design_csv(args.design))
    print(f"{cache.cd2:.10g}")
    if args.gradient:
        for row in cache.gradient():
            print(",".join(f"{v:.10g}" for v in row))
    return EXIT_OK


def _cmd_sample(args, argv) -> int:
    t0 = time.perf_counter()
    if args.kind == "utype" and args.q is None:
        raise ValueError("--kind utype requires --q")
    _check_writable(out=args.out, manifest=args.manifest)
    draw, integer = _SAMPLERS[args.kind]
    matrix = draw(args)
    write_matrix_csv(args.out, matrix, integer=integer)
    _write_json(args.manifest, _manifest(
        "sample", argv, _manifest_config(args), t0, {"shape": list(matrix.shape)}
    ))
    return EXIT_OK


def _cmd_bench(args, argv) -> int:
    t0 = time.perf_counter()
    if bool(args.design) == bool(args.sampler):
        raise ValueError("exactly one of --design or --sampler is required")
    for flag, value in (("--reps", args.reps), ("--test-points", args.test_points)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    bases = [b.strip() for b in args.basis.split(",") if b.strip()]
    known = get_args(TrendBasis)
    if not bases or not set(bases) <= set(known):
        raise ValueError(f"--basis must be a comma list of {', '.join(known)}, got {args.basis!r}")
    _check_writable(out=args.out)

    if args.design:
        designs = [read_design_csv(args.design)]
        source = {"design": args.design}
    else:
        if args.n is None or args.s is None:
            raise ValueError("--sampler requires --n and --s")
        draw = lhs if args.sampler == "lhs" else mlhs
        designs = [draw(args.n, args.s, args.seed + k) for k in range(args.reps)]
        source = {"sampler": args.sampler, "reps": args.reps, "n": args.n, "s": args.s}

    s = designs[0].shape[1]
    fn = get_test_function(args.fn, dim=s)
    if fn.dim != s:
        if args.sampler:  # a usage error: no file was read
            raise ValueError(f"{args.fn} expects {fn.dim} factors, got --s {s}")
        raise DesignFileError(f"{args.fn} expects {fn.dim} factors, design has {s}")

    rng = np.random.default_rng(args.seed)
    test_unit = rng.random((args.test_points, s))
    y_test = np.asarray(fn(scale_design(test_unit, fn.bounds)), dtype=float)

    def cell(basis: str, design: np.ndarray) -> dict:
        try:
            mse, rmse = evaluate_mse(
                design, fn, basis=basis, seed=args.seed, test_points=test_unit
            )
            return {"mse": mse, "rmse": rmse}
        except (ValueError, np.linalg.LinAlgError) as exc:
            return {"error": str(exc)}

    report_bases: dict[str, dict] = {}
    any_ok = False
    for basis in bases:
        results = [cell(basis, d) for d in designs]
        ok = [r for r in results if "mse" in r]
        entry: dict = {"cells": results}
        if ok:
            any_ok = True
            entry["mse"] = float(np.mean([r["mse"] for r in ok]))
            entry["rmse"] = float(np.mean([r["rmse"] for r in ok]))
        report_bases[basis] = entry

    manifest = _manifest(
        "bench", argv,
        {"fn": args.fn, "bases": bases, "test_points": args.test_points,
         "seed": args.seed, **source},
        t0,
        {b: {k: v for k, v in e.items() if k != "cells"} for b, e in report_bases.items()},
    )
    _write_json(args.out, {
        "function": args.fn,
        "source": source,
        "bases": report_bases,
        "test_std": float(np.std(y_test)),
        "manifest": manifest,
    })
    return EXIT_OK if any_ok else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unidesign",
        description="Uniform experimental designs over the continuous unit cube",
    )
    parser.add_argument("--version", action="version", version=f"unidesign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_construct_parser(sub)

    p = sub.add_parser("evaluate", help="print the CD2 of a design CSV")
    p.add_argument("--design", required=True)
    p.add_argument("--gradient", action="store_true", help="also print the gradient matrix")

    p = sub.add_parser("sample", help="generate lhd/lhs/mlhs/utype samples")
    p.add_argument("--kind", choices=tuple(_SAMPLERS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="sample.csv")
    p.add_argument("--manifest")

    p = sub.add_parser("bench", help="Kriging prediction-MSE benchmark")
    p.add_argument("--fn", choices=("wood", "camelback", "const"), required=True)
    p.add_argument("--design", help="design CSV to benchmark")
    p.add_argument("--sampler", choices=("lhs", "mlhs"), help="benchmark averaged samples")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--n", type=int, help="sampler runs")
    p.add_argument("--s", type=int, help="sampler factors")
    p.add_argument("--basis", default="poly0", help="comma list of poly0,poly1,poly2")
    p.add_argument("--test-points", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="report.json")
    return parser


_COMMANDS = {"construct": _cmd_construct, "evaluate": _cmd_evaluate,
             "sample": _cmd_sample, "bench": _cmd_bench}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    if "manifest" in vars(args) and not args.manifest:  # construct and sample
        args.manifest = os.path.splitext(args.out)[0] + ".manifest.json"
    try:
        return _COMMANDS[args.command](args, argv)
    except (DesignFileError, ValueError, OSError) as exc:  # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, DesignFileError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
