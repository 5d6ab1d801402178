"""Independent oracles: naive CD2 translation, finite differences, reference
refiners and a reference Kriging fit.

These deliberately mirror the defining formulas with plain loops and stay
independent of the vectorized/cached production paths they are used to check.
The reference refiners visit one coordinate per public ``DiscrepancyCache``
call, so the production refiners' row-blocked sweeps and one-pass CDFSS
scoring must reproduce them bit for bit.  The reference Kriging fit solves
every likelihood through scipy.linalg's checked wrappers and keeps no memo,
so ``kriging_fit``'s direct LAPACK calls must reproduce it bit for bit.
"""

import numpy as np
from scipy.linalg import cholesky, qr, solve_triangular
from scipy.optimize import minimize

from unidesign import DiscrepancyCache, KrigingModel, RefinerConfig, basis_matrix, cd2
from unidesign.surrogate import DEFAULT_NUGGET, DEFAULT_THETA_BOUNDS


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


def _reference_loop(cache, epoch, max_epochs, epsilon):
    """Epoch loop of the refiners: best-so-far, |delta CD2| < epsilon, max_epochs.

    Returns ``(design, cd2, termination, [(step, cd2), ...])``.
    """
    best_design, best_cd2 = cache.design, cache.cd2
    trace = [(0, best_cd2)]
    prev = best_cd2
    for step in range(1, max_epochs + 1):
        reason = epoch()
        if reason is not None:
            return best_design, best_cd2, reason, trace
        value = cache.cd2
        trace.append((step, value))
        if value < best_cd2:
            best_design, best_cd2 = cache.design, value
        if abs(value - prev) < epsilon:
            return best_design, best_cd2, "converged", trace
        prev = value
    return best_design, best_cd2, "max_epochs", trace


def _clamp(v):
    return min(1.0, max(0.0, v))


def cgd_reference(init, config=None):
    """CGD as one ``coordinate_gradient`` and one ``update`` per visit."""
    config = config or RefinerConfig()
    cache = DiscrepancyCache(init)

    def epoch():
        for i in range(cache.n):
            for j in range(cache.s):
                g = cache.coordinate_gradient(i, j)
                cache.update(i, j, _clamp(cache.value_at(i, j) - config.step_size * g))

    return _reference_loop(cache, epoch, config.max_epochs, config.epsilon)


def czg_reference(init, config=None):
    """CZG as one ``zero_gradient_value`` and one ``update`` per visit (two if rolled back)."""
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

    return _reference_loop(cache, epoch, config.max_epochs, config.epsilon)


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

    return _reference_loop(cache, epoch, config.max_epochs, 0.0)


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
