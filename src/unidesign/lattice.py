"""U-type lattice designs and the threshold-accepting optimizer.

A U-type design U(n, q^s) is an n x s integer array whose columns contain
each level 1..q exactly n/q times; it embeds into [0,1]^s at (l - 0.5)/q.
Threshold accepting walks the swap neighborhood (exchange two entries of one
column), accepting a candidate iff its CD2 worsens the current value by at
most a threshold drawn from a decreasing schedule that ends at exactly zero.
After a run of rejects a stage screens its swaps a block at a time and previews
exactly only those that can pass, with bit-identical decisions and results.
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


def _lattice_levels(levels, q: int) -> np.ndarray:
    """``levels`` as a new 2-D int64 matrix; a non-finite, fractional or out-of-range entry raises."""
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
        q = int(self.q)
        if q < 1:
            raise ValueError("q must be >= 1")
        levels = _lattice_levels(self.levels, q)
        n, s = levels.shape
        if n % q != 0:
            raise ValueError(f"q={q} must divide n={n}")
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
    if n < 1 or s < 1 or q < 1:
        raise ValueError("n, q, s must all be >= 1")
    if n % q != 0:
        raise ValueError(f"q={q} must divide n={n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    base = np.repeat(np.arange(1, q + 1, dtype=np.int64), n // q)
    cols = [rng.permutation(base) for _ in range(s)]
    return UTypeDesign(np.column_stack(cols), q)


def embed(design: UTypeDesign) -> np.ndarray:
    """Real-valued embedding: level l maps to (l - 0.5) / q."""
    return (design.levels - 0.5) / design.q


def _draw_swap(rng: np.random.Generator, n: int, s: int):
    """One random (column, row1, row2) with distinct rows.

    Draws the ``threshold_sequence`` probes; ``ta_optimize`` draws its swaps a
    stage at a time with ``_draw_swaps``.
    """
    col = int(rng.integers(s))
    r1, r2 = rng.choice(n, size=2, replace=False)
    return col, int(r1), int(r2)


def _draw_swaps(rng: np.random.Generator, n: int, s: int, size: int):
    """``size`` random (column, row1, row2) triples with distinct rows, as three arrays.

    Row 2 is drawn from the n - 1 rows other than row 1, by shifting draws
    from 0..n-2 past row 1, so each distinct pair is equally likely.
    """
    cols = rng.integers(s, size=size)
    rows1 = rng.integers(n, size=size)
    rows2 = rng.integers(n - 1, size=size)
    rows2 += rows2 >= rows1
    return cols, rows1, rows2


# Screened TA: after _SCREEN_AFTER straight rejects a stage scores its next K =
# min(4 * rejects, _SCREEN_MAX_BLOCK, _SCREEN_ELEMENTS // 2n) swaps in one pass (K x 2 x n
# arrays, <= 16 KB) and skips those more than _SCREEN_MARGIN * term_scale above the
# threshold, thousands of times the screen's worst error (1.5e-16 * term_scale).  Blocks
# under _SCREEN_MIN_BLOCK (n > 64) do not repay the screen's per-call cost and are not used.
_SCREEN_AFTER, _SCREEN_MIN_BLOCK, _SCREEN_MAX_BLOCK = 4, 16, 256
_SCREEN_ELEMENTS, _SCREEN_MARGIN = 2048, 1e-12


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
    was); thereafter T_i = (I - i)/I * T_{i-1}.  A zero probe range yields
    the all-zero schedule (TA degrades to local search).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    _check_count("stages", stages)
    _check_count("probes", probes)
    lo = np.inf
    hi = -np.inf
    for _ in range(probes):
        if cache.n < 2:
            val = cache.cd2
        else:
            col, r1, r2 = _draw_swap(rng, cache.n, cache.s)
            val = cache.preview_column_swap(r1, r2, col)
        lo = min(lo, val)
        hi = max(hi, val)
    values = np.empty(stages + 1)
    values[0] = alpha * (hi - lo)
    for i in range(1, stages + 1):
        values[i] = (stages - i) / stages * values[i - 1]
    return values


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
    initial: UTypeDesign | None = None

    def __post_init__(self):
        if self.n < 1 or self.q < 1 or self.s < 1:
            raise ValueError("n, q, s must all be >= 1")
        if self.n % self.q != 0:
            raise ValueError(f"q={self.q} must divide n={self.n}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        for name in ("stages", "probes", "iterations_per_stage"):
            _check_count(name, getattr(self, name))
        if self.initial is not None:
            ini = self.initial
            if (ini.n, ini.q, ini.s) != (self.n, self.q, self.s):
                raise ValueError("initial design shape does not match the config")


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
    screened in blocks (see ``_SCREEN_AFTER``); only those within 1e-12 *
    ``term_scale`` of passing get the exact preview, which decides and commits,
    so designs, ``cd2`` and trace are those of previewing every swap.  The
    cache is released before the final CD2 builds a kernel of its own.
    Bit-reproducible for a fixed config.  ``schedule`` overrides the
    data-driven threshold sequence (used for forcing pure local search in
    tests).
    """
    rng = np.random.default_rng(config.seed)
    if config.initial is not None:
        current = config.initial
    else:
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

    max_block = min(_SCREEN_MAX_BLOCK, _SCREEN_ELEMENTS // (2 * config.n))
    for stage, threshold in enumerate(schedule):
        cols, rows1, rows2 = _draw_swaps(rng, config.n, config.s, config.iterations_per_stage)
        t = rejects = 0  # swaps of this stage taken, and those since the design last changed
        while t < len(cols):
            if rejects < _SCREEN_AFTER or max_block < _SCREEN_MIN_BLOCK:
                end, passing = t + 1, (t,)
            else:
                end = min(len(cols), t + min(4 * rejects, max_block))
                excess = cache._swap_deltas(rows1[t:end], rows2[t:end], cols[t:end]) - threshold
                passing = (t + np.flatnonzero(excess <= _SCREEN_MARGIN * cache.term_scale)).tolist()
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
