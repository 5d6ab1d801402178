"""Gaussian Kriging metamodels with polynomial trends, and the MSE harness.

The model is y(x) = b(x)' beta + z(x) with b a polynomial basis (poly0 =
constant, poly1 = linear, poly2 = full quadratic with cross terms) and z a
stationary Gaussian process with anisotropic squared-exponential correlation

    R(x, x') = prod_k exp(-theta_k (x_k - x'_k)^2).

Models work in the unit cube: training designs live in [0,1]^s and the MSE
harness maps between experiment bounds and the cube.  The correlation scales
theta are chosen by maximizing the profiled log-likelihood (beta and sigma^2
concentrated out) with a bounded Nelder-Mead search in log space from
log-spaced multi-starts; a small nugget keeps the Cholesky factorization
positive definite while preserving near-interpolation.

A fit builds the n x n x s squared differences once; one likelihood evaluation
is then O(n^2 s + n^3) arithmetic on them through direct LAPACK calls, and
theta that clip to scales already solved are served from a per-fit memo.

SciPy supplies those LAPACK routines from ``scipy.linalg``, imported at the first
fit, so that the package and the ``construct``, ``evaluate`` and ``sample``
commands load numpy alone.  The Nelder-Mead search is this module's own, on
Python floats, and takes SciPy's steps bit for bit.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Literal

import numpy as np

from .benchfns import TestFunction, scale_design
from .discrepancy import _check_count, as_design_matrix

__all__ = [
    "TrendBasis",
    "basis_matrix",
    "KrigingModel",
    "kriging_fit",
    "kriging_predict",
    "evaluate_mse",
]

TrendBasis = Literal["poly0", "poly1", "poly2"]

DEFAULT_NUGGET = 1e-10
DEFAULT_THETA_BOUNDS = (1e-2, 1e2)
_MULTISTARTS = 8


@functools.cache
def _lapack_funcs() -> tuple:
    """potrf, trtrs, geqrf and orgqr for doubles, looked up at the first fit."""
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs(("potrf", "trtrs", "geqrf", "orgqr"), dtype=float)


def _sorted(sim: list, fs: list) -> tuple[list, list]:
    """Vertices and values in ``np.argsort`` order, so ties fall as SciPy's do."""
    order = np.array(fs, dtype=float).argsort().tolist()
    return [sim[i] for i in order], [fs[i] for i in order]


def minimize(fun, x0, maxiter: int, xatol: float, fatol: float) -> SimpleNamespace:
    """Nelder-Mead from ``x0``, bit for bit the steps, result and evaluation count
    of ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options={"xatol":
    xatol, "fatol": fatol, "maxiter": maxiter})``, plus one stop: a search whose
    best value is inf after an iteration ends there, since a simplex of equal
    values never meets the stopping test.  ``fun`` gets each vertex as a list of
    floats that it must not modify.  Returns ``x``, ``fun`` and ``nfev``.

    ``kriging_fit`` looks this up at each start, so the theta search can be
    wrapped or traced as ``unidesign.surrogate.minimize``.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1:]
                  for k, v in enumerate(x0)]
    sim, fs = _sorted(*_sorted(sim, [fun(v) for v in sim]))  # SciPy sorts twice here
    nfev = n + 1
    iterations = 1
    # an inf best ends the search, tested where SciPy's callback runs: after each iteration
    while iterations < maxiter and (iterations == 1 or fs[0] != np.inf):
        best, worst = sim[0], sim[-1]
        # fs is sorted, so its largest gap to fs[0] is the last; NaN fails both tests
        if abs(fs[-1] - fs[0]) <= fatol and all(
                abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, best)):
            break
        xbar = best
        for v in sim[1:n]:
            xbar = [a + b for a, b in zip(xbar, v)]
        xbar = [a / n for a in xbar]
        xr = [2.0 * c - w for c, w in zip(xbar, worst)]
        fxr = fun(xr)
        nfev += 1
        if fxr < fs[0]:
            xe = [3.0 * c - 2.0 * w for c, w in zip(xbar, worst)]
            fxe = fun(xe)
            nfev += 1
            sim[-1], fs[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fs[-2]:
            sim[-1], fs[-1] = xr, fxr
        else:
            outside = fxr < fs[-1]
            if outside:
                xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
            else:
                xc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
            fxc = fun(xc)
            nfev += 1
            if fxc <= fxr if outside else fxc < fs[-1]:
                sim[-1], fs[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                    fs[j] = fun(sim[j])
                nfev += n
        iterations += 1
        sim, fs = _sorted(sim, fs)
    return SimpleNamespace(x=np.array(sim[0]), fun=np.min(fs), nfev=nfev)


def basis_matrix(points: np.ndarray, basis: str) -> np.ndarray:
    """Trend design matrix: rows b(x)' for the requested polynomial basis."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, s = x.shape
    cols = [np.ones((n, 1))]
    if basis in ("poly1", "poly2"):
        cols.append(x)
    elif basis != "poly0":
        raise ValueError(f"unknown basis {basis!r}; expected poly0, poly1 or poly2")
    if basis == "poly2":
        for k in range(s):
            cols.append(x[:, k : k + 1] * x[:, k:])
    return np.hstack(cols)


def _sq_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared coordinate differences, shape (len(a), len(b), s)."""
    return (a[:, None, :] - b[None, :, :]) ** 2


@functools.lru_cache(maxsize=64)
def _qr_lwork(m: int, k: int) -> tuple[int, int]:
    """geqrf and orgqr workspaces from LAPACK's query, as scipy.linalg.qr sizes them."""
    geqrf, orgqr = _lapack_funcs()[2:]
    a = np.zeros((m, k), order="F")
    return int(geqrf(a, lwork=-1)[2][0]), int(orgqr(a, np.zeros(k), lwork=-1)[1][0])


@dataclass
class KrigingModel:
    """Fitted Kriging state; immutable after fitting, safe for concurrent predict."""

    x_train: np.ndarray
    y_train: np.ndarray
    basis: str
    beta: np.ndarray
    theta: np.ndarray
    sigma2: float
    chol: np.ndarray
    gamma: np.ndarray
    nugget: float
    log_likelihood: float

    @property
    def n(self) -> int:
        return self.x_train.shape[0]

    @property
    def s(self) -> int:
        return self.x_train.shape[1]


def _profiled_fit(d2, y, f, theta, nugget):
    """GLS solve for fixed theta on squared differences ``d2``; returns the
    parameters and the profiled NLL, bit for bit those of scipy.linalg's
    cholesky, solve_triangular and economic qr."""
    potrf, trtrs, geqrf, orgqr = _lapack_funcs()
    n, k = f.shape
    r = np.exp(-(d2 @ theta))
    r.reshape(-1)[:: n + 1] += nugget
    # r is symmetric, so r.T is r in Fortran order, factored in place
    chol_l, info = potrf(r.T, lower=1, clean=1, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"potrf returned info={info}")
    # L has a positive diagonal, so these two solves cannot fail
    ft, _ = trtrs(chol_l, f, lower=1)
    yt, _ = trtrs(chol_l, y, lower=1)
    lwork_qr, lwork_q = _qr_lwork(n, k)
    qr, tau, _, _ = geqrf(ft, lwork=lwork_qr)
    g = qr[:k].copy()  # R on and above the diagonal; orgqr overwrites qr
    q, _, _ = orgqr(qr, tau, lwork=lwork_q, overwrite_a=1)
    # as solve_triangular(g, b) does for C-ordered g; trtrs reads only g's upper triangle
    beta, info = trtrs(g.T, q.T @ yt, lower=1, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"trtrs returned info={info}")
    rho = yt - ft @ beta
    sigma2 = float(rho @ rho) / n
    logdet = 2.0 * float(np.add.reduce(np.log(chol_l.diagonal())))
    nll = n * np.log(max(sigma2, 1e-300)) + logdet
    return chol_l, beta, rho, sigma2, nll


def kriging_fit(
    design,
    y,
    basis: str = "poly0",
    theta_bounds: tuple[float, float] = DEFAULT_THETA_BOUNDS,
    nugget: float = DEFAULT_NUGGET,
    theta=None,
) -> KrigingModel:
    """Fit a Kriging model on a unit-cube design by profiled maximum likelihood.

    The theta search runs a bounded Nelder-Mead in log(theta) space from
    ``_MULTISTARTS`` log-spaced isotropic starts and keeps the best of all
    starts and their initial points, so the returned likelihood is never
    worse than any start; a start whose whole simplex is inf ends early.
    Fully deterministic.  Passing ``theta`` skips the search and fits the
    generalized least squares model at those scales.

    Raises ``ValueError`` before any solve: for NaN or inf in ``y``, a
    non-finite or non-positive ``theta``, ``theta_bounds`` not a finite pair
    with 0 < low < high, a ``nugget`` not finite and >= 0, duplicate training
    rows (singular correlation) or n <= trend size (underdetermined GLS).
    """
    x = as_design_matrix(design)
    y = np.asarray(y, dtype=float).reshape(-1)
    n, s = x.shape
    if y.shape != (n,):
        raise ValueError(f"y must have length n={n}, got {y.shape}")
    bad = np.count_nonzero(~np.isfinite(y))
    if bad:
        raise ValueError(f"y has {bad} non-finite value(s)")
    if np.shape(theta_bounds) != (2,) or not 0 < theta_bounds[0] < theta_bounds[1] < np.inf:  # NaN fails
        raise ValueError("theta_bounds must be a finite positive pair with low < high")
    if not 0 <= nugget < np.inf:
        raise ValueError(f"nugget must be finite and >= 0, got {nugget}")
    if theta is not None:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape != (s,) or not np.all((theta > 0) & (theta < np.inf)):
            raise ValueError(f"theta must be {s} finite positive scales")
    if len(np.unique(x, axis=0)) != n:
        raise ValueError("duplicate training rows make the correlation matrix singular")
    f = np.asfortranarray(basis_matrix(x, basis))  # LAPACK's order: no transpose per solve
    if n <= f.shape[1]:
        raise ValueError(
            f"need n > {f.shape[1]} runs for the {basis} trend, got n={n}"
        )

    d2 = _sq_diff(x, x)
    lb, ub = float(np.log(theta_bounds[0])), float(np.log(theta_bounds[1]))
    solved = {}  # profiled NLL by clipped scales: out-of-box points repeat them

    def nll_at(log_theta) -> float:
        scales = np.exp([lb if v < lb else ub if v > ub else v for v in log_theta])
        key = scales.tobytes()
        nll = solved.get(key)
        if nll is None:
            try:
                nll = float(_profiled_fit(d2, y, f, scales, nugget)[4])
            except np.linalg.LinAlgError:
                nll = np.inf
            solved[key] = nll
        return nll

    if theta is None:
        best_log_theta = None
        best_nll = np.inf
        for t0 in np.geomspace(theta_bounds[0], theta_bounds[1], _MULTISTARTS):
            start = np.full(s, np.log(t0))
            for cand in (start, None):
                if cand is None:
                    cand = minimize(nll_at, start, 400 * s, xatol=1e-4, fatol=1e-10).x
                val = nll_at(cand)
                if val < best_nll:
                    best_nll = val
                    best_log_theta = np.clip(cand, lb, ub)
        if best_log_theta is None:
            raise np.linalg.LinAlgError("no admissible theta found")
        theta = np.exp(best_log_theta)
    chol_l, beta, rho, sigma2, nll = _profiled_fit(d2, y, f, theta, nugget)
    # gamma solves R gamma = y - F beta, as solve_triangular(chol_l.T, rho) does
    gamma, _ = _lapack_funcs()[1](chol_l, rho, lower=1, trans=1)
    return KrigingModel(
        x_train=x.copy(),
        y_train=y.copy(),
        basis=basis,
        beta=beta,
        theta=theta,
        sigma2=sigma2,
        chol=chol_l,
        gamma=gamma,
        nugget=nugget,
        log_likelihood=-0.5 * nll,
    )


def kriging_predict(model: KrigingModel, points) -> np.ndarray:
    """BLUP predictions b(x)' beta + r(x)' R^-1 (y - F beta) at given points.

    Points outside the unit cube are evaluated but flagged with a
    ``RuntimeWarning`` (trend extrapolation dominates far away).  NaN or inf
    in ``points`` raises ``ValueError``.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    if p.shape[1] != model.s:
        raise ValueError(f"points must have {model.s} columns, got {p.shape[1]}")
    bad = np.count_nonzero(~np.isfinite(p))
    if bad:
        raise ValueError(f"points have {bad} non-finite value(s)")
    outside = np.count_nonzero((p < 0.0) | (p > 1.0))
    if outside:
        warnings.warn(
            f"{outside} coordinate(s) outside the unit cube: extrapolating",
            RuntimeWarning,
            stacklevel=2,
        )
    r = np.exp(-(_sq_diff(p, model.x_train) @ model.theta))
    return basis_matrix(p, model.basis) @ model.beta + r @ model.gamma


def evaluate_mse(
    design,
    fn: TestFunction,
    basis: str = "poly0",
    num_test_points: int = 1000,
    seed: int = 0,
    test_points=None,
) -> tuple[float, float]:
    """Prediction error of a Kriging fit on a design, wood-style protocol.

    Scales the unit-cube design to ``fn.bounds``, evaluates ``fn``,
    fits the requested trend, then scores mean squared prediction error on
    ``num_test_points`` uniform points in the bounds (drawn with ``seed``).
    Returns (mse, rmse).  ``test_points`` overrides the drawn unit-cube test
    set (harness hook; e.g. re-scoring at the training points).  A bad test
    set (no points, the wrong width, NaN or inf) raises ``ValueError``
    before the fit.
    """
    x = as_design_matrix(design)
    if test_points is None:
        _check_count("num_test_points", num_test_points)
        rng = np.random.default_rng(seed)
        test_points = rng.random((num_test_points, x.shape[1]))
    test_points = np.atleast_2d(np.asarray(test_points, dtype=float))
    if test_points.shape[1] != x.shape[1]:
        raise ValueError(f"test_points must have {x.shape[1]} columns, got {test_points.shape[1]}")
    if len(test_points) == 0:
        raise ValueError("test_points must hold at least one point")
    bad = np.count_nonzero(~np.isfinite(test_points))
    if bad:
        raise ValueError(f"test_points have {bad} non-finite value(s)")
    y = np.asarray(fn(scale_design(x, fn.bounds)), dtype=float)
    model = kriging_fit(x, y, basis)
    y_true = np.asarray(fn(scale_design(test_points, fn.bounds)), dtype=float)
    err = kriging_predict(model, test_points) - y_true
    mse = float(np.mean(err**2))
    return mse, float(np.sqrt(mse))
