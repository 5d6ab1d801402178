"""Continuous coordinate-descent refiners over the unit cube.

Three single-coordinate sweep strategies minimize CD2 from a given
initialization, visiting coordinates in row-major order with in-place
(Gauss-Seidel) updates:

* ``cgd``   -- step against the analytic coordinate gradient, fixed step size;
* ``czg``   -- jump to the frozen-sign stationarity solution of the coordinate;
* ``cdfss`` -- per epoch, apply the single best move among all x_ij +/- delta_j.

All refiners clamp iterates into [0, 1], are deterministic, and return the
best design seen at any epoch boundary, so the result never degrades the
initialization even when the per-sweep trajectory fluctuates.

Every run ends for one stated reason, its ``termination``:

* ``converged``         -- CD2 changed by less than ``epsilon`` over an epoch
  (CGD, CZG);
* ``cycle``             -- the design came back to within 1e-9 of its design
  after one of the previous 12 epochs, so the sweeps repeat a limit cycle
  (cyclic coordinate descent can cycle without converging; unguarded CZG at
  27x13 does, with periods 2 to 12) and later epochs could only find
  round-off (CGD, CZG);
* ``max_epochs``        -- the epoch budget ran out;
* ``no_improving_move`` -- no grid move lowers CD2 (CDFSS).

The paper's pipeline, as ``construct`` runs it, starts a refiner from threshold
accepting's best lattice design: ``cgd(embed(ta_optimize(ta_config).design))``.

CGD and CZG state their visit rule here and run each epoch as one
``DiscrepancyCache.sweep`` of it: O(ns) elementwise work per visit, plus one
O(n^2) re-sum per epoch (guarded CZG re-sums after every visit).  CDFSS scores
its 2ns moves in one O(n^2 s) pass per epoch and confirms the best with
``preview_update``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .discrepancy import DiscrepancyCache, _check_count, _visit_slope, _zero_gradient_recursion
from .lattice import OptimizationTrace

__all__ = [
    "RefinerConfig",
    "RefineResult",
    "cgd",
    "czg",
    "cdfss",
]

TerminationReason = Literal["converged", "cycle", "max_epochs", "no_improving_move"]

# a design within _CYCLE_TOL (max-abs) of the design after one of the previous
# _CYCLE_WINDOW epochs ends the run with "cycle"
_CYCLE_WINDOW = 12
_CYCLE_TOL = 1e-9


@dataclass
class RefinerConfig:
    """Shared knobs for the coordinate refiners.

    ``step_size`` is the CGD step, finite and >= 0 (0 is accepted as a
    degenerate no-op configuration); ``epsilon`` is the per-epoch CD2 change,
    finite and > 0, below which a run is declared converged (CDFSS ignores it
    and stops only when no move improves); ``max_epochs`` and ``t_max``, the epoch
    budget and the CZG recursion depth, are integers >= 1; ``column_steps`` are
    the CDFSS per-column grid steps, finite and positive (default 1/(2n)).
    ``guarded`` makes CZG reject coordinate updates that increase CD2.
    """

    step_size: float = 0.01
    epsilon: float = 1e-9
    max_epochs: int = 1000
    t_max: int = 1
    column_steps: Optional[Sequence[float]] = None
    guarded: bool = False

    def __post_init__(self):
        # written so that NaN fails every test
        if not 0.0 <= self.step_size < np.inf:
            raise ValueError("step_size must be finite and >= 0")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and > 0")
        _check_count("max_epochs", self.max_epochs)
        _check_count("t_max", self.t_max)
        if self.column_steps is not None:
            steps = np.asarray(self.column_steps, dtype=float)
            if steps.ndim != 1 or not np.all((0.0 < steps) & (steps < np.inf)):
                raise ValueError("column_steps must be a 1-D sequence of finite positive reals")
            self.column_steps = steps


@dataclass
class RefineResult:
    design: np.ndarray
    cd2: float
    trace: OptimizationTrace
    termination: TerminationReason


def _loop(cache: DiscrepancyCache, epoch, max_epochs: int, epsilon: float) -> RefineResult:
    """The epoch loop common to all refiners.

    Calls ``epoch()`` up to ``max_epochs`` times.  The body moves the design
    in ``cache``, or returns a termination reason, which ends the run before
    that epoch is recorded.  Each recorded epoch refreshes the best design so
    far.  The run has then converged when CD2 changed by less than
    ``epsilon`` over the epoch; if not, it ends with ``cycle`` when the
    design is within ``_CYCLE_TOL`` in every coordinate of the design after
    one of the previous ``_CYCLE_WINDOW`` epochs (the starting design counts
    as epoch 0).  An ``epsilon`` of 0 turns both tests off: CDFSS lowers CD2
    at every recorded epoch, so its designs cannot come back, and a tiny
    grid step must not read as a cycle.
    """
    best_design, best_cd2 = cache.design, cache.cd2
    trace = OptimizationTrace()
    trace.append(0, best_cd2)
    prev_cd2 = best_cd2
    recent = deque([best_design], maxlen=_CYCLE_WINDOW if epsilon > 0 else 0)
    termination: TerminationReason = "max_epochs"
    for step in range(1, max_epochs + 1):
        reason = epoch()
        if reason is not None:
            termination = reason
            break
        value, design = cache.cd2, cache.design
        trace.append(step, value)
        if value < best_cd2:
            best_design, best_cd2 = design, value
        if abs(value - prev_cd2) < epsilon:
            termination = "converged"
            break
        if any(np.abs(design - past).max() <= _CYCLE_TOL for past in recent):
            termination = "cycle"
            break
        recent.append(design)
        prev_cd2 = value
    return RefineResult(best_design, best_cd2, trace, termination)


def cgd(init, config: RefinerConfig | None = None) -> RefineResult:
    """Coordinate gradient descent with a fixed step size.

    Each visit moves x_ij by -step_size times the coordinate gradient at the
    current (partially updated) design, clamped into [0, 1].
    """
    config = config or RefinerConfig()
    cache = DiscrepancyCache(init)
    h, n = config.step_size, cache.n

    def epoch():
        cache.sweep(lambda x, *terms: min(1.0, max(0.0, x - h * _visit_slope(x, x - 0.5, *terms, n))))

    return _loop(cache, epoch, config.max_epochs, config.epsilon)


def czg(init, config: RefinerConfig | None = None) -> RefineResult:
    """Coordinate zero-gradient sweeps.

    Each visit replaces x_ij with the frozen-sign stationarity solution
    (``t_max`` recursion steps).  In guarded mode an update that increases
    CD2 is rolled back, making the per-coordinate trajectory non-increasing;
    unguarded sweeps may fluctuate, which the best-so-far return absorbs.
    """
    config = config or RefinerConfig()
    cache = DiscrepancyCache(init)
    n, t_max = cache.n, config.t_max

    def epoch():
        cache.sweep(lambda *terms: _zero_gradient_recursion(*terms, n, t_max), config.guarded)

    return _loop(cache, epoch, config.max_epochs, config.epsilon)


def cdfss(init, config: RefinerConfig | None = None) -> RefineResult:
    """Coordinate descent with fixed per-column step sizes.

    Each epoch scores all 2ns candidates x_ij +/- delta_j (clamped) in one
    pass and commits the single lowest-CD2 move, provided it strictly improves
    the current design; otherwise the run stops with ``no_improving_move``.
    Ties go to the first move in (i, j, +, -) order.  There is no convergence
    test: ``epsilon`` is not used.
    """
    config = config or RefinerConfig()
    cache = DiscrepancyCache(init)
    steps = config.column_steps
    if steps is None:
        steps = np.full(cache.s, 1.0 / (2 * cache.n))

    def epoch():
        base = cache.cd2
        targets, values = cache.preview_steps(steps)
        best_move = None
        best_val = base
        # re-score each move near the best one-pass score, to commit exactly the move a
        # preview_update of every candidate would pick; flat indices run in (i, j, +, -) order.
        # When every move is a clamped no-op all are kept, and each previews to ``base``
        for k in cache._near(values, values.min()):
            i, j, d = np.unravel_index(k, values.shape)
            v = targets[i, j, d]
            candidate = cache.preview_update(i, j, v)
            if candidate < best_val:
                best_val = candidate
                best_move = (i, j, v)
        if best_move is None:
            return "no_improving_move"
        i, j, v = best_move
        old = cache.value_at(i, j)
        if cache.update(i, j, v) >= base:
            # preview and committed CD2 can differ by ~1 ulp; treat a
            # non-improving commit as no improving move and roll back
            cache.update(i, j, old)
            return "no_improving_move"

    # an epsilon of 0 turns the convergence test off
    return _loop(cache, epoch, config.max_epochs, 0.0)


_REFINERS = {"cgd": cgd, "czg": czg, "cdfss": cdfss}
