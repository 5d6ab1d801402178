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

SciPy supplies those LAPACK routines and the Nelder-Mead search.  It is imported
at the first fit, not with this module, so that importing the package and the
``construct``, ``evaluate`` and ``sample`` commands load numpy alone.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .benchfns import TestFunction, scale_design
from .discrepancy import as_design_matrix

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


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported at its first call.  It stays an
    attribute of this module, which ``kriging_fit`` looks up at each search, so
    the theta search can be wrapped or traced as ``unidesign.surrogate.minimize``."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


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


def _lapack(routine, *args, **kwargs) -> list:
    """Call a LAPACK routine; a nonzero info raises as scipy.linalg's wrappers do."""
    *out, info = routine(*args, **kwargs)
    if info:
        error = np.linalg.LinAlgError if info > 0 else ValueError
        raise error(f"{routine.__name__} returned info={info}")
    return out


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
    [chol_l] = _lapack(potrf, r, lower=1, clean=1)
    [ft] = _lapack(trtrs, chol_l, f, lower=1)
    [yt] = _lapack(trtrs, chol_l, y, lower=1)
    lwork_qr, lwork_q = _qr_lwork(n, k)
    qr, tau, _ = _lapack(geqrf, ft, lwork=lwork_qr)
    g = qr[:k].copy()  # R on and above the diagonal; orgqr overwrites qr
    q, _ = _lapack(orgqr, qr, tau, lwork=lwork_q, overwrite_a=1)
    # as solve_triangular(g, b) does for C-ordered g; trtrs reads only g's upper triangle
    [beta] = _lapack(trtrs, g.T, q.T @ yt, lower=1, trans=1)
    rho = yt - ft @ beta
    sigma2 = float(rho @ rho) / n
    logdet = 2.0 * float(np.log(chol_l.diagonal()).sum())
    nll = n * np.log(max(sigma2, 1e-300)) + logdet
    return chol_l, beta, rho, sigma2, nll


def _stop_if_hopeless(intermediate_result) -> None:
    """Nelder-Mead callback: end a start whose whole simplex is inf.

    Such a start has found no scales whose correlation matrix factors, and a
    simplex of equal values never meets the search's stopping test, so it
    would wander for all ``maxiter`` iterations.
    """
    if intermediate_result.fun == np.inf:
        raise StopIteration


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
    non-finite or non-positive ``theta``, ``theta_bounds`` not finite with
    0 < low < high, a ``nugget`` not finite and >= 0, duplicate training rows
    (singular correlation) or n <= trend size (underdetermined GLS).
    """
    x = as_design_matrix(design)
    y = np.asarray(y, dtype=float).reshape(-1)
    n, s = x.shape
    if y.shape != (n,):
        raise ValueError(f"y must have length n={n}, got {y.shape}")
    bad = np.count_nonzero(~np.isfinite(y))
    if bad:
        raise ValueError(f"y has {bad} non-finite value(s)")
    if not 0 < theta_bounds[0] < theta_bounds[1] < np.inf:  # NaN fails every comparison
        raise ValueError("theta_bounds must be finite and positive with low < high")
    if not 0 <= nugget < np.inf:
        raise ValueError(f"nugget must be finite and >= 0, got {nugget}")
    if theta is not None:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape != (s,) or not np.all((theta > 0) & (theta < np.inf)):
            raise ValueError(f"theta must be {s} finite positive scales")
    if len(np.unique(x, axis=0)) != n:
        raise ValueError("duplicate training rows make the correlation matrix singular")
    f = basis_matrix(x, basis)
    if n <= f.shape[1]:
        raise ValueError(
            f"need n > {f.shape[1]} runs for the {basis} trend, got n={n}"
        )

    d2 = _sq_diff(x, x)
    lb, ub = np.log(theta_bounds[0]), np.log(theta_bounds[1])
    solved = {}  # profiled NLL by clipped scales: out-of-box points repeat them

    def nll_at(log_theta: np.ndarray) -> float:
        scales = np.exp(np.clip(log_theta, lb, ub))
        key = scales.tobytes()
        if key not in solved:
            try:
                solved[key] = _profiled_fit(d2, y, f, scales, nugget)[4]
            except np.linalg.LinAlgError:
                solved[key] = np.inf
        return solved[key]

    if theta is None:
        best_log_theta = None
        best_nll = np.inf
        for t0 in np.geomspace(theta_bounds[0], theta_bounds[1], _MULTISTARTS):
            start = np.full(s, np.log(t0))
            for cand in (start, None):
                if cand is None:
                    res = minimize(
                        nll_at,
                        start,
                        method="Nelder-Mead",
                        options={"xatol": 1e-4, "fatol": 1e-10, "maxiter": 400 * s},
                        callback=_stop_if_hopeless,
                    )
                    cand = res.x
                val = nll_at(cand)
                if val < best_nll:
                    best_nll = val
                    best_log_theta = np.clip(cand, lb, ub)
        if best_log_theta is None:
            raise np.linalg.LinAlgError("no admissible theta found")
        theta = np.exp(best_log_theta)
    chol_l, beta, rho, sigma2, nll = _profiled_fit(d2, y, f, theta, nugget)
    # gamma solves R gamma = y - F beta, as solve_triangular(chol_l.T, rho) does
    [gamma] = _lapack(_lapack_funcs()[1], chol_l, rho, lower=1, trans=1)
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
    set (too few points, the wrong width, NaN or inf) raises ``ValueError``
    before the fit.
    """
    x = as_design_matrix(design)
    if test_points is None:
        if num_test_points < 1:
            raise ValueError("num_test_points must be >= 1")
        rng = np.random.default_rng(seed)
        test_points = rng.random((num_test_points, x.shape[1]))
    test_points = np.atleast_2d(np.asarray(test_points, dtype=float))
    if test_points.shape[1] != x.shape[1]:
        raise ValueError(f"test_points must have {x.shape[1]} columns, got {test_points.shape[1]}")
    bad = np.count_nonzero(~np.isfinite(test_points))
    if bad:
        raise ValueError(f"test_points have {bad} non-finite value(s)")
    y = np.asarray(fn(scale_design(x, fn.bounds)), dtype=float)
    model = kriging_fit(x, y, basis)
    y_true = np.asarray(fn(scale_design(test_points, fn.bounds)), dtype=float)
    err = kriging_predict(model, test_points) - y_true
    mse = float(np.mean(err**2))
    return mse, float(np.sqrt(mse))
