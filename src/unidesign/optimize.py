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
``refine_pipeline`` chains threshold accepting with a chosen refiner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .discrepancy import DiscrepancyCache, cd2_gradient
from .lattice import OptimizationTrace, TaConfig, embed, ta_optimize

__all__ = [
    "RefinerConfig",
    "RefineResult",
    "cgd",
    "czg",
    "cdfss",
    "gradient_descent",
    "refine_pipeline",
]

TerminationReason = Literal["converged", "max_epochs", "no_improving_move"]


@dataclass
class RefinerConfig:
    """Shared knobs for the coordinate refiners.

    ``step_size`` is the CGD step, finite and >= 0 (0 is accepted as a
    degenerate no-op configuration); ``epsilon`` is the per-epoch CD2 change
    below which a run is declared converged (CDFSS ignores it and stops only
    when no move improves); ``t_max`` is the CZG recursion depth;
    ``column_steps`` are the CDFSS per-column grid steps, finite and positive
    (default 1/(2n)).  ``guarded`` makes CZG reject coordinate updates that
    increase CD2.
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
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
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


class _Run:
    """The epoch loop common to all refiners.

    ``loop`` calls ``epoch()`` up to ``max_epochs`` times.  The body moves the
    design in ``self.cache`` (or replaces the cache), or returns a termination
    reason, which ends the run before that epoch is recorded.  Each recorded
    epoch refreshes the best design so far, and the run has converged when
    CD2 changed by less than ``epsilon`` over the epoch.
    """

    def __init__(self, cache: DiscrepancyCache):
        self.cache = cache

    def loop(self, epoch, max_epochs: int, epsilon: float) -> RefineResult:
        best_design, best_cd2 = self.cache.design, self.cache.cd2
        trace = OptimizationTrace()
        trace.append(0, best_cd2)
        prev_cd2 = best_cd2
        termination: TerminationReason = "max_epochs"
        for step in range(1, max_epochs + 1):
            reason = epoch()
            if reason is not None:
                termination = reason
                break
            value = self.cache.cd2
            trace.append(step, value)
            if value < best_cd2:
                best_design, best_cd2 = self.cache.design, value
            if abs(value - prev_cd2) < epsilon:
                termination = "converged"
                break
            prev_cd2 = value
        return RefineResult(best_design, best_cd2, trace, termination)


def _clamp(v: float) -> float:
    return min(1.0, max(0.0, v))


def cgd(init, config: RefinerConfig | None = None) -> RefineResult:
    """Coordinate gradient descent with a fixed step size.

    Each visit moves x_ij by -step_size times the coordinate gradient at the
    current (partially updated) design, clamped into [0, 1].
    """
    config = config or RefinerConfig()
    cache = DiscrepancyCache(init)

    def epoch():
        for i in range(cache.n):
            for j in range(cache.s):
                g = cache.coordinate_gradient(i, j)
                cache.update(i, j, _clamp(cache.value_at(i, j) - config.step_size * g))

    return _Run(cache).loop(epoch, config.max_epochs, config.epsilon)


def czg(init, config: RefinerConfig | None = None) -> RefineResult:
    """Coordinate zero-gradient sweeps.

    Each visit replaces x_ij with the frozen-sign stationarity solution
    (``t_max`` recursion steps).  In guarded mode an update that increases
    CD2 is rolled back, making the per-coordinate trajectory non-increasing;
    unguarded sweeps may fluctuate, which the best-so-far return absorbs.
    """
    config = config or RefinerConfig()
    cache = DiscrepancyCache(init)

    def epoch():
        for i in range(cache.n):
            for j in range(cache.s):
                old = cache.value_at(i, j)
                before = cache.cd2
                after = cache.update(i, j, cache.zero_gradient_value(i, j, config.t_max))
                if config.guarded and after > before:
                    cache.update(i, j, old)

    return _Run(cache).loop(epoch, config.max_epochs, config.epsilon)


def cdfss(init, config: RefinerConfig | None = None) -> RefineResult:
    """Coordinate descent with fixed per-column step sizes.

    Each epoch previews all 2ns candidates x_ij +/- delta_j (clamped) and
    commits the single lowest-CD2 move, provided it strictly improves the
    current design; otherwise the run stops with ``no_improving_move``.
    There is no convergence test: ``epsilon`` is not used.
    """
    config = config or RefinerConfig()
    cache = DiscrepancyCache(init)
    if config.column_steps is None:
        steps = np.full(cache.s, 1.0 / (2 * cache.n))
    else:
        steps = np.asarray(config.column_steps, dtype=float)
        if steps.shape != (cache.s,):
            raise ValueError(f"column_steps must have length s={cache.s}")

    def epoch():
        base = cache.cd2
        best_move = None
        best_val = base
        for i in range(cache.n):
            for j in range(cache.s):
                x = cache.value_at(i, j)
                for direction in (1.0, -1.0):
                    v = _clamp(x + direction * steps[j])
                    if v == x:
                        continue
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
    return _Run(cache).loop(epoch, config.max_epochs, 0.0)


def gradient_descent(init, config: RefinerConfig | None = None) -> RefineResult:
    """Plain full-matrix gradient descent (comparison baseline).

    Updates every coordinate simultaneously with the same step/epsilon/epoch
    contract as the coordinate methods.
    """
    config = config or RefinerConfig()
    run = _Run(DiscrepancyCache(init))

    def epoch():
        x = run.cache.design
        run.cache = DiscrepancyCache(np.clip(x - config.step_size * cd2_gradient(x), 0.0, 1.0))

    return run.loop(epoch, config.max_epochs, config.epsilon)


_REFINERS = {"cgd": cgd, "czg": czg, "cdfss": cdfss}


def refine_pipeline(
    ta_config: TaConfig,
    refiner: str = "cgd",
    refiner_config: RefinerConfig | None = None,
) -> RefineResult:
    """Threshold accepting followed by a continuous coordinate refiner.

    The best TA lattice design is embedded at (l - 0.5)/q and handed to the
    chosen refiner; the result CD2 never exceeds the embedded TA value.  The
    refiner trace starts at the TA design (step 0).
    """
    if refiner not in _REFINERS:
        raise ValueError(f"unknown refiner {refiner!r}; expected one of {sorted(_REFINERS)}")
    return _REFINERS[refiner](embed(ta_optimize(ta_config).design), refiner_config)
