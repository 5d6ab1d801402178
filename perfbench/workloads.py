"""The four workloads: job lists of CLI argv, and the input files they read.

Each workload is a list of blocks; a block holds one job of every kind the
workload runs, so any prefix of whole blocks keeps the workload's mix.  Job
seeds and input designs are drawn from the workload seed, so one seed always
gives the same argv and the same files; only the kriging suite is fixed.  Sizes were chosen so that one pass
over all blocks takes about 20 s on a 2-CPU x86 box, which keeps a run
inside the benchmark's ``run_seconds``; see README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

PAPER_SHAPES = ((18, 7), (27, 13))  # n x s at the paper's sizes, q = n
LARGE_SHAPES = ((500, 10), (2000, 5))

TA_SMALL_BLOCKS = 4
REFINE_BLOCKS = 4
REFINE_MAX_EPOCHS = 60
# short TA schedule for designs built in set-up (refiner starts, camelback),
# so that set-up stays cheap
SETUP_TA = ("--stages", "4", "--iters-per-stage", "500", "--probes", "50")
KRIGING_REPS = 2
KRIGING_SAMPLER_SEEDS = range(1, 11, KRIGING_REPS)  # MLHS designs of seeds 1..10
CAMELBACK_SHAPE = (20, 2)
LARGE_N_BLOCKS = 6
LARGE_N_TA = ("--stages", "2", "--iters-per-stage", "100", "--probes", "20")
BASES = "poly0,poly1,poly2"


@dataclass(frozen=True)
class Job:
    label: str  # job kind, shared by the same job in every block
    argv: tuple[str, ...]


def _seeds(rng: np.random.Generator, k: int) -> list[str]:
    return [str(int(v)) for v in rng.integers(0, 2**31 - 1, size=k)]


def _write_design(path: str, x: np.ndarray) -> None:
    np.savetxt(path, x, fmt="%.17g", delimiter=",")


def _lhs(n: int, s: int, rng: np.random.Generator) -> np.ndarray:
    """Random Latin hypercube sample: distinct values per column, none on a kink."""
    return (np.argsort(rng.random((n, s)), axis=0) + rng.uniform(0.05, 0.95, (n, s))) / n


def _run(cli_main: Callable, argv: list[str]) -> None:
    rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit code {rc}: {' '.join(argv)}")


def ta_small(seed: int, work: str, cli_main: Callable) -> list[list[Job]]:
    rng = np.random.default_rng(seed)
    blocks = []
    for b, job_seed in enumerate(_seeds(rng, TA_SMALL_BLOCKS)):
        block = []
        for n, s in PAPER_SHAPES:
            out = os.path.join(work, f"ta-czg-{n}x{s}-{b}.csv")
            block.append(Job(f"ta+czg {n}x{s}", (
                "construct", "--algo", "ta+czg", "--guarded", "--n", str(n), "--q", str(n),
                "--s", str(s), "--seed", job_seed, "--out", out,
            )))
        blocks.append(block)
    return blocks


def refine(seed: int, work: str, cli_main: Callable) -> list[list[Job]]:
    rng = np.random.default_rng(seed)
    blocks = []
    for b, start_seed in enumerate(_seeds(rng, REFINE_BLOCKS)):
        block = []
        for n, s in PAPER_SHAPES:
            start = os.path.join(work, f"start-{n}x{s}-{b}.csv")
            _run(cli_main, [
                "construct", "--algo", "ta", "--n", str(n), "--q", str(n), "--s", str(s),
                "--seed", start_seed, *SETUP_TA, "--out", start,
            ])
            for algo in ("cgd", "czg", "cdfss"):
                out = os.path.join(work, f"{algo}-{n}x{s}-{b}.csv")
                block.append(Job(f"{algo} {n}x{s}", (
                    "construct", "--algo", algo, "--init", start,
                    "--max-epochs", str(REFINE_MAX_EPOCHS), "--out", out,
                )))
        blocks.append(block)
    return blocks


def kriging(seed: int, work: str, cli_main: Callable) -> list[list[Job]]:
    # A fixed problem suite: the workload seed does not change it.  Some
    # Kriging fits have a Nelder-Mead start that wanders a flat, clipped
    # likelihood region until maxiter (~9k evaluations, 4x a normal fit), and
    # how many of them a seed-drawn set of ~30 fits holds swings the job rate
    # by more than any allowed bound.  README.md gives the counts.
    n, s = CAMELBACK_SHAPE
    design = os.path.join(work, f"camelback-{n}x{s}.csv")
    _run(cli_main, [
        "construct", "--algo", "ta", "--n", str(n), "--q", str(n), "--s", str(s),
        "--seed", "0", *SETUP_TA, "--out", design,
    ])
    blocks = []
    for b, first in enumerate(KRIGING_SAMPLER_SEEDS):
        block = [Job("bench wood mlhs 27x4", (
            "bench", "--fn", "wood", "--sampler", "mlhs", "--n", "27", "--s", "4",
            "--reps", str(KRIGING_REPS), "--basis", BASES, "--seed", str(first),
            "--out", os.path.join(work, f"wood-{b}.json"),
        ))]
        if b == 0:
            block.append(Job(f"bench camelback {n}x{s}", (
                "bench", "--fn", "camelback", "--design", design, "--basis", BASES,
                "--seed", "0", "--out", os.path.join(work, "camelback.json"),
            )))
        blocks.append(block)
    return blocks


def large_n(seed: int, work: str, cli_main: Callable) -> list[list[Job]]:
    rng = np.random.default_rng(seed)
    blocks = []
    for b, job_seed in enumerate(_seeds(rng, LARGE_N_BLOCKS)):
        block = []
        for n, s in LARGE_SHAPES:
            block.append(Job(f"ta {n}x{s}", (
                "construct", "--algo", "ta", "--n", str(n), "--q", str(n), "--s", str(s),
                "--seed", job_seed, *LARGE_N_TA,
                "--out", os.path.join(work, f"ta-{n}x{s}-{b}.csv"),
            )))
        for n, s in LARGE_SHAPES:
            path = os.path.join(work, f"lhs-{n}x{s}-{b}.csv")
            _write_design(path, _lhs(n, s, rng))
            block.append(Job(f"evaluate --gradient {n}x{s}", (
                "evaluate", "--design", path, "--gradient",
            )))
        blocks.append(block)
    return blocks


WORKLOADS: dict[str, Callable] = {
    "ta-small": ta_small,
    "refine": refine,
    "kriging": kriging,
    "large-n": large_n,
}
