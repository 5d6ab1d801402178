"""U-type lattice designs and the threshold-accepting optimizer.

A U-type design U(n, q^s) is an n x s integer array whose columns contain
each level 1..q exactly n/q times; it embeds into [0,1]^s at (l - 0.5)/q.
Threshold accepting walks the swap neighborhood (exchange two entries of one
column), accepting a candidate iff its CD2 worsens the current value by at
most a threshold drawn from a decreasing schedule that ends at exactly zero.
One sampler, ``_draw_swaps``, draws the schedule's probes and each stage's
swaps, one batch per call.  After a run of rejects a stage screens its swaps a
block at a time and previews exactly only those that can pass, with
bit-identical decisions and results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .discrepancy import DiscrepancyCache, _check_count, cd2

__all__ = [
    "UTypeDesign",
    "random_utype",
    "embed",
    "threshold_sequence",
    "TraceRecord",
    "OptimizationTrace",
    "TaConfig",
    "TaResult",
    "ta_optimize",
]


def _check_shape(n: int, q: int, s: int) -> None:
    """Raise ValueError unless n, q and s are integers >= 1 and q divides n."""
    for name, value in (("n", n), ("q", q), ("s", s)):
        _check_count(name, value)
    if n % q != 0:
        raise ValueError(f"q={q} must divide n={n}")


def _lattice_levels(levels, q: int) -> np.ndarray:
    """``levels`` as a new 2-D int64 matrix; raises unless q is an integer >= 1 and each entry one in 1..q."""
    _check_count("q", q)
    levels = np.asarray(levels)
    if levels.ndim != 2:
        raise ValueError("levels must be a 2-D integer matrix")
    if not np.issubdtype(levels.dtype, np.integer):
        if not np.all(np.isfinite(levels) & (levels == np.round(levels))):
            raise ValueError("levels must be integers")
    levels = levels.astype(np.int64)
    if levels.min() < 1 or levels.max() > q:
        raise ValueError(f"levels must lie in 1..{q}")
    return levels


@dataclass(frozen=True)
class UTypeDesign:
    """Balanced lattice design: levels in {1..q}, each n/q times per column (q = n: an LHD)."""

    levels: np.ndarray
    q: int

    def __post_init__(self):
        levels = _lattice_levels(self.levels, self.q)
        n, s = levels.shape
        _check_shape(n, self.q, s)
        q = int(self.q)
        reps = n // q
        for j in range(s):
            counts = np.bincount(levels[:, j], minlength=q + 1)[1:]
            if not np.all(counts == reps):
                raise ValueError(f"column {j} is not balanced: each level must appear {reps} times")
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.levels.shape[0]

    @property
    def s(self) -> int:
        return self.levels.shape[1]


def random_utype(n: int, q: int, s: int, seed) -> UTypeDesign:
    """Uniformly random balanced U-type design, deterministic per seed.

    ``seed`` may be an int or an existing ``numpy.random.Generator``.
    """
    _check_shape(n, q, s)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    base = np.repeat(np.arange(1, q + 1, dtype=np.int64), n // q)
    cols = [rng.permutation(base) for _ in range(s)]
    return UTypeDesign(np.column_stack(cols), q)


def embed(design: UTypeDesign) -> np.ndarray:
    """Real-valued embedding: level l maps to (l - 0.5) / q."""
    return (design.levels - 0.5) / design.q


def _draw_swaps(rng: np.random.Generator, n: int, s: int, size: int):
    """``size`` random (column, row1, row2) triples with distinct rows, as three arrays.

    TA's one swap sampler, for the schedule's probes and for each stage's swaps.  Row 2
    is drawn from the n - 1 rows other than row 1, by shifting draws from 0..n-2
    past row 1, so each distinct pair is equally likely.
    """
    cols = rng.integers(s, size=size)
    rows1 = rng.integers(n, size=size)
    rows2 = rng.integers(n - 1, size=size)
    rows2 += rows2 >= rows1
    return cols, rows1, rows2


# Screened TA: with ``rejects`` swaps taken since the design last changed, a stage scores
# its next K = min(4 * rejects, _SCREEN_ELEMENTS // 2n) swaps in one pass (K x 2 x n arrays,
# <= 16 KB) and previews only those the cache's ``_near`` keeps, the swaps within its screen
# tolerance of the threshold.  Blocks under _SCREEN_MIN_BLOCK (fewer than 4 rejects, or
# n > 64) do not repay the screen's per-call cost and are not used.
_SCREEN_MIN_BLOCK, _SCREEN_ELEMENTS = 16, 2048


def threshold_sequence(
    cache: DiscrepancyCache,
    alpha: float,
    stages: int,
    probes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Data-driven threshold schedule T_0..T_I, decreasing to exactly zero.

    T_0 is ``alpha`` times the range of CD2 over ``probes`` random swap
    neighbors of the lattice design held in ``cache`` (which is left as it
    was), drawn in one ``_draw_swaps`` call and each scored by the exact
    ``preview_column_swap``; thereafter T_i = (I - i)/I * T_{i-1}.  A zero
    probe range yields the all-zero schedule (TA degrades to local search); a
    one-row design has no swaps and draws nothing from ``rng``.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    _check_count("stages", stages)
    _check_count("probes", probes)
    spread = 0.0
    if cache.n > 1:
        cols, rows1, rows2 = (d.tolist() for d in _draw_swaps(rng, cache.n, cache.s, probes))
        values = [cache.preview_column_swap(r1, r2, col) for col, r1, r2 in zip(cols, rows1, rows2)]
        spread = max(values) - min(values)
    return np.cumprod(np.r_[alpha * spread, (stages - np.arange(1, stages + 1)) / stages])


class TraceRecord(NamedTuple):
    step: int  # TA iteration or refiner epoch; 0 is the starting design
    cd2: float
    seconds: float  # wall time since the previous record, 0.0 for the first


@dataclass
class OptimizationTrace:
    """The CD2 history of one TA or refiner run."""

    records: list[TraceRecord] = field(default_factory=list)
    _last: float = field(default=0.0, init=False, repr=False, compare=False)

    def append(self, step: int, value: float) -> None:
        """Record ``value`` at ``step``, timed from the previous record."""
        now = time.perf_counter()
        self.records.append(TraceRecord(step, value, now - self._last if self.records else 0.0))
        self._last = now

    @property
    def cd2_values(self) -> list[float]:
        return [r.cd2 for r in self.records]


@dataclass
class TaConfig:
    """Threshold-accepting run parameters.

    ``iterations_per_stage`` candidate swaps are attempted at each of the
    ``stages`` + 1 schedule values (the final stage runs at threshold zero).
    ``stages``, ``probes`` and ``iterations_per_stage`` are integers >= 1.
    """

    n: int
    q: int
    s: int
    alpha: float = 0.1
    stages: int = 20
    probes: int = 100
    iterations_per_stage: int = 2000
    seed: int = 0

    def __post_init__(self):
        _check_shape(self.n, self.q, self.s)
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        for name in ("stages", "probes", "iterations_per_stage"):
            _check_count(name, getattr(self, name))


@dataclass
class TaResult:
    design: UTypeDesign
    cd2: float
    trace: OptimizationTrace = field(default_factory=OptimizationTrace)


def ta_optimize(config: TaConfig, schedule=None) -> TaResult:
    """Threshold-accepting search for a low-CD2 U-type design.

    Tracks and returns the best design ever visited; ``TaResult.cd2`` is its
    from-scratch CD2.  The trace records the initial value and the CD2 after
    every accepted move.  Each swap is scored and committed in O(n) by the
    cache, which re-sums its kernel at the end of every stage.  Swaps are
    screened K = min(4 * rejects, _SCREEN_ELEMENTS // 2n) at a time whenever
    K >= _SCREEN_MIN_BLOCK; only those that the cache's ``_near`` keeps get
    the exact preview, which decides and commits, so designs, ``cd2`` and
    trace are those of previewing every swap.  The cache is released before
    the final CD2 builds a kernel of its own.  Bit-reproducible for a fixed
    config.  ``schedule`` overrides the data-driven threshold sequence (used
    for forcing pure local search in tests).
    """
    rng = np.random.default_rng(config.seed)
    current = random_utype(config.n, config.q, config.s, rng)
    cache = DiscrepancyCache(embed(current))
    if schedule is None:
        schedule = threshold_sequence(cache, config.alpha, config.stages, config.probes, rng)
    schedule = np.asarray(schedule, dtype=float).tolist()

    levels = current.levels.copy()
    best_levels = levels.copy()
    best_cd2 = cache.cd2
    trace = OptimizationTrace()
    trace.append(0, cache.cd2)

    if config.n < 2:
        return TaResult(UTypeDesign(best_levels, config.q), best_cd2, trace)

    cap = _SCREEN_ELEMENTS // (2 * config.n)
    for stage, threshold in enumerate(schedule):
        cols, rows1, rows2 = _draw_swaps(rng, config.n, config.s, config.iterations_per_stage)
        t = rejects = 0  # swaps of this stage taken, and those since the design last changed
        while t < len(cols):
            block = min(4 * rejects, cap)
            if block < _SCREEN_MIN_BLOCK:
                end, passing = t + 1, (t,)
            else:
                end = min(len(cols), t + block)
                deltas = cache._swap_deltas(rows1[t:end], rows2[t:end], cols[t:end])
                passing = (t + cache._near(deltas, threshold)).tolist()
            for i in passing:
                col, r1, r2 = cols.item(i), rows1.item(i), rows2.item(i)
                candidate = cache.preview_column_swap(r1, r2, col)
                if candidate - cache.cd2 <= threshold:
                    cache.apply_column_swap(r1, r2, col)
                    levels[r1, col], levels[r2, col] = levels[r2, col], levels[r1, col]
                    trace.append(stage * len(cols) + i + 1, cache.cd2)
                    if cache.cd2 < best_cd2:
                        best_cd2 = cache.cd2
                        best_levels = levels.copy()
                    if levels[r1, col] != levels[r2, col]:  # u != v: the rest of the block is stale
                        t, rejects = i + 1, 0
                        break
            else:
                t, rejects = end, rejects + end - t
        cache.resum()
        del cols, rows1, rows2  # before the next stage draws its own
    del cache
    best = UTypeDesign(best_levels, config.q)
    return TaResult(best, cd2(embed(best)), trace)
