"""Run one benchmark workload against the unidesign CLI and print its metrics.

    python3 perfbench/run.py --workload ta-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  Every job calls ``unidesign.cli.main(argv)`` in this process, one
after another (one closed-loop client, no worker threads).  With
``--trace 0`` the job list runs untraced, once and then again in order for
as long as ``--seconds`` of job time allows, and the end-to-end metrics are
printed.  With ``--trace 1`` the first half of the blocks runs twice each,
untraced and then traced, and the per-layer metrics are printed; spans and
counters are written to ``.perfbench_out/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
M_MMAP_THRESHOLD = -3  # mallopt parameter, glibc malloc.h

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "quality_mean": "1",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_cli(cli_main, argv):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing job is a failed job, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if rc != 0:
        sys.stderr.write(f"job failed ({rc}): {' '.join(argv)}\n{err.getvalue()}")
    return rc, out.getvalue(), seconds


def _quiet(cli_main):
    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(argv)
    return call


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI (median of repeats)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import unidesign.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _blas_threads():
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _stamp(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("version")),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def _fix_mmap_threshold() -> None:
    """Serve every allocation of 128 KiB or more with its own mapping (glibc).

    glibc raises its mmap threshold after each large free, so whether a big
    array comes from the heap, and how much freed heap stays resident, depends
    on the allocation history; the same job's peak RSS then differs by one
    n x n array from run to run.  A fixed threshold makes the peak the size
    of the live arrays.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024)
    except (OSError, AttributeError):
        pass


class Runner:
    """Runs and checks jobs, keeping each job's times and problems."""

    def __init__(self, cli_main):
        from perfbench.checks import check_job
        from perfbench.layers import JOB_SPAN

        self.cli_main = cli_main
        self.check = check_job
        self.job_span = JOB_SPAN
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, job, tracer=None):
        if tracer is None:
            rc, stdout, seconds = _run_cli(self.cli_main, job.argv)
        else:
            tracer.job = self.attempted
            span = tracer.open(self.job_span)
            try:
                rc, stdout, seconds = _run_cli(self.cli_main, job.argv)
            finally:
                tracer.close(span)
            span.attrs["label"] = job.label
        outcome = self.check(job.argv, rc, stdout)
        # a CLI job is a process of its own: free its garbage before the next
        # one, so that a collection does not fall into another job's time
        gc.collect()
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.problems.extend(f"{job.label}: {p}" for p in outcome.problems)
            sys.stderr.write(f"check failed: {job.label}: {outcome.problems}\n")
        return seconds, outcome


def _untraced(runner, jobs, seconds):
    """One whole pass over the job list, then more jobs in list order while the
    next one, at its median time so far, still fits in ``seconds`` of job time."""
    times = [[] for _ in jobs]
    outcomes = []
    for k, job in enumerate(jobs):
        t, outcome = runner.run(job)
        times[k].append(t)
        outcomes.append(outcome)
    elapsed = sum(t[0] for t in times)
    k = 0
    while elapsed + statistics.median(times[k]) <= seconds:
        t, _ = runner.run(jobs[k])
        times[k].append(t)
        elapsed += t
        k = (k + 1) % len(jobs)
    return times, outcomes


def _end_to_end(runner, times, outcomes, setup_s):
    # bench jobs report RMSEs and construct jobs write designs; no workload has both
    cd2s = [o.cd2 for o in outcomes if o.cd2 is not None]
    rmses = [r for o in outcomes for r in o.rmses]
    quality = rmses or cd2s
    return {
        # each job costed at its median over its runs
        "jobs_per_s": len(times) / sum(statistics.median(t) for t in times),
        "quality_mean": statistics.fmean(quality) if quality else 0.0,  # every job failed
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }, {"jobs": len(times), "runs": sum(map(len, times)),
        "quality": "rmse_mean" if rmses else "cd2_mean"}


def _references(seed: int) -> dict[str, float]:
    """External reference points from SciPy, beside the program's own numbers."""
    import numpy as np
    from scipy.stats import qmc

    rng = np.random.default_rng(seed)
    out = {}
    for n, s in ((500, 10), (2000, 5)):
        x = rng.random((n, s))
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            qmc.discrepancy(x, method="CD")
            times.append(time.perf_counter() - t0)
        out[f"ref.qmc_cd_{n}x{s}.ms"] = 1e3 * statistics.median(times)
    for n, s in ((18, 7), (27, 13)):
        t0 = time.perf_counter()
        engine = qmc.LatinHypercube(d=s, scramble=False, optimization="random-cd", rng=rng)
        x = engine.random(n)
        out[f"ref.random_cd_{n}x{s}.s"] = time.perf_counter() - t0
        out[f"ref.random_cd_{n}x{s}.cd2"] = float(qmc.discrepancy(x, method="CD"))
    return out


def _traced(runner, blocks, seed):
    """Per-layer pass: each of the first half of the blocks untraced, then traced."""
    from perfbench.layers import TARGETS, layer_metrics
    from perfbench.tracer import Tracer

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for block in blocks[: (len(blocks) + 1) // 2]:
        for job in block:
            untraced_s += runner.run(job)[0]
        tracer.install(TARGETS)
        try:
            for job in block:
                traced_s += runner.run(job, tracer)[0]
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = 1.0 - untraced_s / traced_s
    metrics["trace.missing_targets"] = len(tracer.missing)
    metrics.update(_references(seed))
    if tracer.missing:
        sys.stderr.write(f"trace targets absent at this commit: {tracer.missing}\n")
    return metrics, tracer


def _dump(path: Path, record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")


def main(argv=None) -> int:
    # Pin BLAS to one thread before numpy is imported, here and in child processes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _fix_mmap_threshold()
    args = _parse_args(argv)
    if not (SRC / "unidesign" / "cli.py").is_file():
        print(f"error: {SRC}/unidesign not found; run from a unidesign source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    import_s = _import_seconds()
    from unidesign.cli import main as cli_main

    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        build_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            blocks = WORKLOADS[args.workload](args.seed, str(work), _quiet(cli_main))
            build_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(build_times)

        runner = Runner(cli_main)
        stamp = _stamp(args)
        record = {"stamp": stamp, "setup": {"import_s": import_s, "build_s": build_times}}
        if args.trace:
            metrics, tracer = _traced(runner, blocks, args.seed)
            units = PER_LAYER_UNITS
            record["missing_targets"] = tracer.missing
            record["spans"] = [vars(s) for s in tracer.spans]
            record["counters"] = [
                {"parent": parent, "name": name, **vars(c)}
                for (parent, name), c in tracer.counters.items()
            ]
        else:
            jobs = [job for block in blocks for job in block]
            times, outcomes = _untraced(runner, jobs, args.seconds)
            metrics, record["runs"] = _end_to_end(runner, times, outcomes, setup_s)
            record["job_seconds"] = {f"{k}: {job.label}": t for k, (job, t) in enumerate(zip(jobs, times))}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["problems"] = runner.problems
    record["metrics"] = metrics
    _dump(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={runner.attempted} failed={runner.failed}")
    print("# stamp " + json.dumps(stamp))
    for name, unit in units.items():
        alias = f" ({record['runs']['quality']})" if name == "quality_mean" else ""
        print(f"# {name}{alias} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
