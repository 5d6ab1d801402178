"""Independent oracles: naive CD2 translation, finite differences, reference
refiners and a reference Kriging fit.

These deliberately mirror the defining formulas with plain loops and stay
independent of the vectorized/cached production paths they are used to check.
The CGD and CZG references build no cache: they move a plain design matrix one
coordinate at a time, score each visit from row i's own kernel row and take CD2
from scratch, so the cache's row-blocked sweeps must reproduce them bit for bit.
The CDFSS reference makes one public ``DiscrepancyCache`` call per candidate, so
the one-pass CDFSS scoring must reproduce it bit for bit.  ``kernel_reference``
builds the pairwise kernel as whole n x n products, and the reference CD2,
gradient matrix, coordinate gradient and zero-gradient solve build their own
kernels, so the cache's row-blocked kernel, ``cd2``, ``cd2_gradient`` and the
sweeps' per-visit slope and recursion must reproduce them bit for bit too.
``preview_steps_reference`` builds whole n x n temporaries per column and
direction, and ``ta_optimize_reference`` previews every drawn swap exactly, so
the row-blocked ``preview_steps`` and the screened ``ta_optimize`` must
reproduce them bit for bit.  The reference Kriging fit solves every likelihood
through scipy.linalg's checked wrappers and keeps no memo, so ``kriging_fit``'s
direct LAPACK calls must reproduce it bit for bit.
"""

import numpy as np
from scipy.linalg import cholesky, qr, solve_triangular
from scipy.optimize import minimize

from unidesign import (DiscrepancyCache, KrigingModel, OptimizationTrace, RefinerConfig, TaResult,
                       UTypeDesign, basis_matrix, cd2, embed, random_utype)
from unidesign.discrepancy import as_design_matrix
from unidesign.lattice import _draw_swaps
from unidesign.surrogate import DEFAULT_NUGGET, DEFAULT_THETA_BOUNDS


def _f1(a):
    """f1 from a = |x - 1/2|, written out as in the CD2 formula; broadcasts."""
    return 1.0 + 0.5 * a - 0.5 * a * a


def _f2(u, au, w, aw):
    """f2(u, w) from the points and their distances to 1/2, written out; broadcasts."""
    return 1.0 + 0.5 * (au + aw) - 0.5 * np.abs(u - w)


def cd2_reference(design) -> float:
    """Literal triple-loop evaluation of the squared centered L2-discrepancy."""
    x = np.asarray(design, dtype=float)
    n, s = x.shape
    sum1 = 0.0
    for i in range(n):
        prod = 1.0
        for k in range(s):
            a = abs(x[i, k] - 0.5)
            prod *= 1.0 + 0.5 * a - 0.5 * a * a
        sum1 += prod
    sum2 = 0.0
    for i in range(n):
        for j in range(n):
            prod = 1.0
            for k in range(s):
                prod *= (
                    1.0
                    + 0.5 * abs(x[i, k] - 0.5)
                    + 0.5 * abs(x[j, k] - 0.5)
                    - 0.5 * abs(x[i, k] - x[j, k])
                )
            sum2 += prod
    return (13.0 / 12.0) ** s - (2.0 / n) * sum1 + sum2 / n**2


def central_difference_gradient(design, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of CD2, coordinate by coordinate."""
    x = np.asarray(design, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            plus = x.copy()
            minus = x.copy()
            plus[i, j] += h
            minus[i, j] -= h
            grad[i, j] = (cd2(plus) - cd2(minus)) / (2.0 * h)
    return grad


def gradient_relative_error(
    analytic: np.ndarray, finite: np.ndarray, floor: float = 1e-3
) -> float:
    """Max relative deviation with the denominator floored at ``floor``.

    Central differences with h = 1e-6 on CD2 resolve gradient entries only
    down to ~1e-10 absolute, so raw relative error is noise-dominated for
    near-stationary coordinates; the floor turns the check into an absolute
    bound of floor * tolerance there while keeping full relative strength
    everywhere the gradient is meaningfully nonzero.
    """
    denom = np.maximum(np.abs(finite), floor)
    return float(np.max(np.abs(analytic - finite) / denom))


def kernel_reference(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The n x n pairwise f2 kernel as full-matrix products, one factor at a time."""
    kernel = np.ones((x.shape[0], x.shape[0]))
    for k in range(x.shape[1]):
        kernel *= _f2(x[:, k, None], a[:, k, None], x[None, :, k], a[None, :, k])
    return kernel


def cd2_kernel_reference(design) -> float:
    """CD2 from ``kernel_reference`` and the f1 row products, summed as whole arrays."""
    x = as_design_matrix(design)
    n, s = x.shape
    a = np.abs(x - 0.5)
    sum_rp = float(np.prod(_f1(a), axis=1).sum())
    return (13.0 / 12.0) ** s - (2.0 / n) * sum_rp + float(kernel_reference(x, a).sum()) / n**2


def cd2_gradient_reference(design) -> np.ndarray:
    """The gradient matrix from its own kernel, column by column."""
    x = as_design_matrix(design)
    n, s = x.shape
    a = np.abs(x - 0.5)
    d = x - 0.5
    sc = np.sign(d)

    f1 = _f1(a)
    p1 = np.prod(f1, axis=1, keepdims=True) / f1

    g2 = 1.0 + a
    p2 = np.prod(g2, axis=1, keepdims=True) / g2

    kernel = kernel_reference(x, a)

    grad = -(2.0 / n) * p1 * (0.5 * sc - d) + p2 * sc / n**2
    for j in range(s):
        col = x[:, j]
        aj = a[:, j]
        loo = kernel / _f2(col[:, None], aj[:, None], col[None, :], aj[None, :])
        w = 0.5 * sc[:, j, None] - 0.5 * np.sign(col[:, None] - col[None, :])
        pair = np.einsum("ik,ik->i", loo, w) - p2[:, j] * 0.5 * sc[:, j]
        grad[:, j] += (2.0 / n**2) * pair
    return grad


def preview_steps_reference(cache, steps):
    """``DiscrepancyCache.preview_steps`` from whole n x n temporaries, column by column."""
    steps = np.asarray(steps, dtype=float)
    x, kernel, rp = cache.design, cache._kernel, cache._rp
    a = np.abs(x - 0.5)
    targets = np.empty((cache.n, cache.s, 2))
    values = np.empty((cache.n, cache.s, 2))
    row_sums = kernel.sum(axis=1)
    diagonal = kernel.diagonal()
    for j in range(cache.s):
        u, au = x[:, j], a[:, j]
        loo, p1 = kernel / _f2(u[:, None], au[:, None], u, au), rp / _f1(au)
        for d, direction in enumerate((1.0, -1.0)):
            v = np.clip(u + direction * steps[j], 0.0, 1.0)
            av = np.abs(v - 0.5)
            f2_new = _f2(v[:, None], av[:, None], u, au)
            g2_new = 1.0 + av
            np.fill_diagonal(f2_new, g2_new)
            new_sums = np.einsum("ik,ik->i", loo, f2_new)
            d_kernel = 2.0 * (new_sums - row_sums) - (loo.diagonal() * g2_new - diagonal)
            d_rp = p1 * _f1(av) - rp
            value = cache._combine(cache._sum_rp + d_rp, cache._sum_kernel + d_kernel)
            targets[:, j, d] = v
            values[:, j, d] = np.where(v == u, np.inf, value)
    return targets, values


def _visit_reference(design, i: int, j: int):
    """x, column j, p1, p2 and the leave-one-out kernel row at (i, j) from row i's kernel alone (O(ns))."""
    x = as_design_matrix(design)
    n, s = x.shape
    if not (0 <= i < n and 0 <= j < s):
        raise IndexError(f"coordinate ({i}, {j}) out of range for a {n}x{s} design")
    a = np.abs(x - 0.5)
    ai = a[i]
    kernel_row = np.prod(_f2(x[i][None, :], ai[None, :], x, a), axis=1)
    kernel_row[i] = np.prod(1.0 + ai)
    g2_row = 1.0 + ai
    column = x[:, j]
    p1 = float(np.prod(_f1(ai))) / _f1(ai[j])
    p2 = float(g2_row.prod() / g2_row[j])
    return x, column, p1, p2, kernel_row / _f2(x[i, j], ai[j], column, a[:, j])


def _slope_reference(xt, d, column, p1, p2, kernel_row_loo, n):
    """dCD2/dx_ij, written out, with the signs taken at x_ij = xt and d in place of x_ij - 1/2."""
    sc = float(np.sign(xt - 0.5))
    w = 0.5 * sc - 0.5 * np.sign(xt - column)
    pair_sum = float(kernel_row_loo @ w) - p2 * 0.5 * sc
    return -(2.0 / n) * p1 * (0.5 * sc - d) + p2 * sc / n**2 + (2.0 / n**2) * pair_sum


def coordinate_gradient_reference(design, i: int, j: int) -> float:
    """dCD2/dx_ij from row i's kernel alone (O(ns))."""
    x, *terms = _visit_reference(design, i, j)
    return _slope_reference(x[i, j], x[i, j] - 0.5, *terms, len(x))


def zero_gradient_solve_reference(design, i: int, j: int, t_max: int = 1) -> float:
    """The frozen-sign stationarity recursion at (i, j) from row i's kernel alone (O(ns))."""
    x, *terms = _visit_reference(design, i, j)
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    n, xt = len(x), x[i, j]
    b = -(2.0 / n) * terms[1]
    for _ in range(t_max):
        # with the signs frozen at xt the slope at d = x_ij - 1/2 is its value at d = 0 minus b * d
        xt = _slope_reference(xt, 0.0, *terms, n) / b + 0.5
    return min(1.0, max(0.0, xt))


def off_kink_design(n: int, s: int, seed: int, gap: float = 1e-3) -> np.ndarray:
    """Random design whose coordinates stay >= gap from 0.5 and column-mates.

    Columns draw without replacement from a 2*gap-spaced grid that excludes
    the band around 0.5, so finite differences never straddle a kink.
    """
    grid = np.arange(2 * gap, 1.0 - gap, 2 * gap)
    grid = grid[np.abs(grid - 0.5) >= 2 * gap]
    if len(grid) < n:
        raise ValueError("grid too coarse for the requested n")
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.choice(grid, size=n, replace=False) for _ in range(s)])


def _reference_loop(state, epoch, max_epochs, epsilon):
    """Epoch loop of the refiners: best-so-far, |delta CD2| < epsilon, a design
    within 1e-9 (max-abs) of one of the 12 before it, max_epochs.  An epsilon
    of 0 turns off the two tests.  ``state()`` returns a copy of the current
    design and its CD2.

    Returns ``(design, cd2, termination, [(step, cd2), ...])``.
    """
    best_design, best_cd2 = state()
    trace = [(0, best_cd2)]
    designs = [best_design]
    prev = best_cd2
    for step in range(1, max_epochs + 1):
        reason = epoch()
        if reason is not None:
            return best_design, best_cd2, reason, trace
        design, value = state()
        trace.append((step, value))
        if value < best_cd2:
            best_design, best_cd2 = design, value
        if abs(value - prev) < epsilon:
            return best_design, best_cd2, "converged", trace
        if epsilon > 0 and any(np.max(np.abs(design - past)) <= 1e-9 for past in designs[-12:]):
            return best_design, best_cd2, "cycle", trace
        designs.append(design)
        prev = value
    return best_design, best_cd2, "max_epochs", trace


def _clamp(v):
    return min(1.0, max(0.0, v))


def _coordinate_descent_reference(init, config, rule, guarded=False):
    """Row-major Gauss-Seidel epochs on a plain design matrix: x_ij = rule(x, i, j).

    No cache: CD2 is ``cd2_kernel_reference`` of the whole design, after every
    visit when ``guarded`` (a visit that raises it is undone), else once per epoch.
    """
    x = as_design_matrix(init).copy()
    value = cd2_kernel_reference(x)

    def epoch():
        nonlocal value
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                old, before = x[i, j], value
                x[i, j] = rule(x, i, j)
                if guarded:
                    value = cd2_kernel_reference(x)
                    if value > before:
                        x[i, j], value = old, before
        value = cd2_kernel_reference(x)

    return _reference_loop(lambda: (x.copy(), value), epoch, config.max_epochs, config.epsilon)


def cgd_reference(init, config=None):
    """CGD with each step from ``coordinate_gradient_reference``; builds no cache."""
    config = config or RefinerConfig()
    step = config.step_size
    return _coordinate_descent_reference(
        init, config, lambda x, i, j: _clamp(x[i, j] - step * coordinate_gradient_reference(x, i, j))
    )


def czg_reference(init, config=None):
    """CZG with each move from ``zero_gradient_solve_reference``; builds no cache."""
    config = config or RefinerConfig()
    return _coordinate_descent_reference(
        init, config, lambda x, i, j: zero_gradient_solve_reference(x, i, j, config.t_max), config.guarded
    )


def cdfss_reference(init, config=None):
    """CDFSS as one ``preview_update`` per candidate move and an ``update`` commit."""
    config = config or RefinerConfig()
    cache = DiscrepancyCache(init)
    if config.column_steps is None:
        steps = np.full(cache.s, 1.0 / (2 * cache.n))
    else:
        steps = np.asarray(config.column_steps, dtype=float)

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
            cache.update(i, j, old)
            return "no_improving_move"

    return _reference_loop(lambda: (cache.design, cache.cd2), epoch, config.max_epochs, 0.0)


def profiled_fit_reference(x, y, f, theta, nugget):
    """GLS solve for fixed theta through scipy.linalg; returns parameters and the profiled NLL."""
    n = len(y)
    r = np.exp(-(((x[:, None, :] - x[None, :, :]) ** 2) @ theta)) + nugget * np.eye(n)
    chol_l = cholesky(r, lower=True)
    ft = solve_triangular(chol_l, f, lower=True)
    yt = solve_triangular(chol_l, y, lower=True)
    q, g = qr(ft, mode="economic")
    beta = solve_triangular(g, q.T @ yt, lower=False)
    rho = yt - ft @ beta
    sigma2 = float(rho @ rho) / n
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol_l))))
    nll = n * np.log(max(sigma2, 1e-300)) + logdet
    return chol_l, beta, rho, sigma2, nll


def kriging_fit_reference(design, y, basis="poly0", theta_bounds=DEFAULT_THETA_BOUNDS,
                          nugget=DEFAULT_NUGGET):
    """Profiled maximum likelihood by 8 log-spaced Nelder-Mead starts, one solve per evaluation."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    s = x.shape[1]
    f = basis_matrix(x, basis)
    lb, ub = np.log(theta_bounds[0]), np.log(theta_bounds[1])

    def nll_at(log_theta):
        try:
            return profiled_fit_reference(x, y, f, np.exp(np.clip(log_theta, lb, ub)), nugget)[4]
        except np.linalg.LinAlgError:
            return np.inf

    best_log_theta = None
    best_nll = np.inf
    for t0 in np.geomspace(theta_bounds[0], theta_bounds[1], 8):
        start = np.full(s, np.log(t0))
        for cand in (start, None):
            if cand is None:
                cand = minimize(
                    nll_at, start, method="Nelder-Mead",
                    options={"xatol": 1e-4, "fatol": 1e-10, "maxiter": 400 * s},
                ).x
            val = nll_at(cand)
            if val < best_nll:
                best_nll = val
                best_log_theta = np.clip(cand, lb, ub)
    theta = np.exp(best_log_theta)
    chol_l, beta, rho, sigma2, nll = profiled_fit_reference(x, y, f, theta, nugget)
    return KrigingModel(
        x_train=x.copy(), y_train=y.copy(), basis=basis, beta=beta, theta=theta,
        sigma2=sigma2, chol=chol_l, gamma=solve_triangular(chol_l.T, rho, lower=False),
        nugget=nugget, log_likelihood=-0.5 * nll,
    )


def threshold_schedule_reference(cache, alpha, stages, probes, rng):
    """The threshold schedule from one exact ``preview_column_swap`` per probe.

    The probes come from one ``_draw_swaps`` call, as in ``threshold_sequence``.
    """
    lo = np.inf
    hi = -np.inf
    if cache.n < 2:
        lo = hi = cache.cd2
    else:
        for col, r1, r2 in zip(*(d.tolist() for d in _draw_swaps(rng, cache.n, cache.s, probes))):
            val = cache.preview_column_swap(r1, r2, col)
            lo = min(lo, val)
            hi = max(hi, val)
    values = np.empty(stages + 1)
    values[0] = alpha * (hi - lo)
    for i in range(1, stages + 1):
        values[i] = (stages - i) / stages * values[i - 1]
    return values


def ta_optimize_reference(config, schedule=None):
    """Threshold accepting with one exact ``preview_column_swap`` per drawn swap.

    The same draws, schedule, accept test and commits as ``ta_optimize``, with
    no screening, so ``ta_optimize`` must reproduce its design, ``cd2`` and
    trace steps and values bit for bit.
    """
    rng = np.random.default_rng(config.seed)
    current = random_utype(config.n, config.q, config.s, rng)
    cache = DiscrepancyCache(embed(current))
    if schedule is None:
        schedule = threshold_schedule_reference(cache, config.alpha, config.stages, config.probes, rng)
    schedule = np.asarray(schedule, dtype=float).tolist()

    levels = current.levels.copy()
    best_levels = levels.copy()
    best_cd2 = cache.cd2
    trace = OptimizationTrace()
    trace.append(0, cache.cd2)

    if config.n < 2:
        return TaResult(UTypeDesign(best_levels, config.q), best_cd2, trace)

    iteration = 0
    for threshold in schedule:
        draws = _draw_swaps(rng, config.n, config.s, config.iterations_per_stage)
        for col, r1, r2 in zip(*(d.tolist() for d in draws)):
            iteration += 1
            candidate = cache.preview_column_swap(r1, r2, col)
            if candidate - cache.cd2 <= threshold:
                cache.apply_column_swap(r1, r2, col)
                levels[r1, col], levels[r2, col] = levels[r2, col], levels[r1, col]
                trace.append(iteration, cache.cd2)
                if cache.cd2 < best_cd2:
                    best_cd2 = cache.cd2
                    best_levels = levels.copy()
        cache.resum()
    best = UTypeDesign(best_levels, config.q)
    return TaResult(best, cd2(embed(best)), trace)
