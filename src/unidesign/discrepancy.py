"""Centered L2-discrepancy: exact evaluation, coordinate gradient, incremental cache.

The squared centered L2-discrepancy of an n x s point set X in [0,1]^s is

    CD2(X) = (13/12)^s - (2/n) sum_i prod_k f1(x_ik)
             + (1/n^2) sum_i sum_j prod_k f2(x_ik, x_jk)

with the two kernels

    f1(x)    = 1 + |x - 1/2|/2 - |x - 1/2|^2 / 2
    f2(a, b) = 1 + |a - 1/2|/2 + |b - 1/2|/2 - |a - b|/2.

Both kernels are >= 1 everywhere on [0,1], which keeps every divide in the
incremental paths well conditioned.  ``cd2`` and ``cd2_gradient`` evaluate through a
``DiscrepancyCache``, which also serves the optimizers' moves; its docstring says how.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_design_matrix",
    "cd2",
    "cd2_gradient",
    "DiscrepancyCache",
]


def as_design_matrix(values) -> np.ndarray:
    """Validate and return a design as an (n, s) float64 array in [0,1]."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"design must be a 2-D matrix, got ndim={x.ndim}")
    n, s = x.shape
    if n < 1 or s < 1:
        raise ValueError(f"design must have n >= 1 runs and s >= 1 factors, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("design contains non-finite entries")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("design entries must lie in [0, 1]")
    return x


def _check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a Python or numpy integer >= 1."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _f1(a):
    """f1 from a = |x - 1/2|; broadcasts."""
    return 1.0 + 0.5 * a - 0.5 * a * a


def _f2(u, au, w, aw):
    """f2(u, w) from the points and their distances to 1/2; broadcasts."""
    return 1.0 + 0.5 * (au + aw) - 0.5 * np.abs(u - w)


# rows per block of the O(n^2 s) passes; at 2000x5 the gradient takes 10% longer
# at 64 rows than at 32, and at 27x13 ``preview_steps`` takes 1.8x as long at 16
_BLOCK = 32

# the batch scorers' worst measured errors, in units of ``term_scale``, are 1.5e-16
# (``_swap_deltas``) and 6e-16 (``preview_steps``); ``_near`` allows thousands of times more
_SCREEN_RTOL = 1e-12


def _f2_rows(out, tmp, u, au, w, aw, one=1.0, diff=None) -> None:
    """Write (one + (au_r + aw_k)) - |u_r - w_k| into ``out`` (len(u) x len(w)).

    On halved columns (u = x/2, au = |x - 1/2|/2) this is ``_f2`` bit for bit:
    halving is exact for every a and for x >= 2^-1021, so au_r + aw_k and
    u_r - w_k round to exactly half of the sum and difference ``_f2`` halves;
    below 2^-1021 the error is far under half an ulp of the result (>= 1).  On
    whole columns with one = 2 it is exactly 2 * f2.  ``tmp`` is scratch; a
    ``diff`` array of the same shape also receives u_r - w_k.
    """
    np.add(au[:, None], aw, out=out)
    out += one
    if diff is None:
        diff = tmp
    np.subtract(u[:, None], w, out=diff)
    np.abs(diff, out=tmp)
    out -= tmp


def _kernel(xt: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The n x n pairwise kernel, entry (i, l) = prod_k f2(x_ik, x_lk), in row blocks.

    From the s x n columns of x and |x - 1/2|.  Each unordered pair is computed once and
    mirrored: a block of rows r0..r0+m-1 takes only columns r0..n-1, in a contiguous
    m x (n - r0) buffer, and its part right of the block is copied into the rows below it.
    The entries are still bit for bit those of whole-matrix products, factor by factor in
    k order: f2 is symmetric in IEEE arithmetic (a + b == b + a and |u - w| == |w - u|),
    and the first factor is written as is (1 * f == f).
    """
    n = xt.shape[1]
    xt, at = 0.5 * xt, 0.5 * at  # halved columns
    kernel = np.empty((n, n))
    scratch = np.empty((3, min(_BLOCK, n) * n))
    for r0 in range(0, n, _BLOCK):
        m, width = min(_BLOCK, n - r0), n - r0
        rows = slice(r0, r0 + m)
        product, f2, tmp = (buffer[:m * width].reshape(m, width) for buffer in scratch)
        for k, (u, au) in enumerate(zip(xt, at)):
            _f2_rows(f2 if k else product, tmp, u[rows], au[rows], u[r0:], au[r0:])
            if k:
                product *= f2
        kernel[rows, r0:] = product
        kernel[r0 + m:, rows] = product[:, m:].T
    return kernel


def _moved_row(factors, xt: np.ndarray, at: np.ndarray, i: int, j: int, value: float):
    """f1 product and kernel row of row i with x_ij = value (O(ns)).

    ``factors`` are row i's ``DiscrepancyCache._row_factors``; their entries for
    coordinate j are set to those of ``value``.
    """
    f2_t, f1_row, g2_row = factors
    aij = abs(value - 0.5)
    f1_row[j], g2_row[j] = _f1(aij), 1.0 + aij
    f2_t[j] = _f2(value, aij, xt[j], at[j])
    row = f2_t.prod(axis=0)
    # the diagonal pairs the moved row with itself, not with the old x_i
    row[i] = g2_row.prod()
    return f1_row.prod(), row


def _slope(p1, p2, sc, d, pair_sum, n: int):
    """dCD2/dx_ij from leave-one-out products, sgn(d), d = x_ij - 1/2 and pair sum; broadcasts."""
    return -(2.0 / n) * p1 * (0.5 * sc - d) + p2 * sc / n**2 + (2.0 / n**2) * pair_sum


def cd2(design) -> float:
    """Squared centered L2-discrepancy of a design in [0,1]^s.

    Raw value; tiny negatives from round-off are not clamped.
    """
    return DiscrepancyCache(design).cd2


def _visit_slope(x: float, d: float, column: np.ndarray, p1: float, p2: float,
                 loo: np.ndarray, n: int) -> float:
    """dCD2/dx_ij at x_ij = x, with d in place of x - 1/2 in the f1 term, from ``_visit_terms``.

    The pair sum over k != i subtracts the k = i term, loo[i] = p2 with weight sc/2
    (sgn(x - x) = 0), from the full dot product.  sgn(0) = 0 picks a deterministic
    subgradient at kinks.
    """
    sc = float(np.sign(x - 0.5))
    pair_sum = float(loo @ (0.5 * sc - 0.5 * np.sign(x - column))) - p2 * 0.5 * sc
    return _slope(p1, p2, sc, d, pair_sum, n)


def _zero_gradient_recursion(
    x: float,
    column: np.ndarray,
    p1: float,
    p2: float,
    loo: np.ndarray,
    n: int,
    t_max: int,
) -> float:
    """Fixed-point recursion for the coordinate stationarity equation.

    Freezes the sign terms at the previous iterate, solves the then-linear
    gradient equation, and repeats ``t_max`` times.  The denominator is
    -(2/n) * p1 <= -2/n < 0, so the step is always defined.  The final value
    is clamped into [0, 1].
    """
    b = -(2.0 / n) * p1
    for _ in range(t_max):
        # with the signs frozen the slope is _visit_slope(d = 0) - b * d, zero at d = that / b
        x = _visit_slope(x, 0.0, column, p1, p2, loo, n) / b + 0.5
    return min(1.0, max(0.0, x))


def cd2_gradient(design) -> np.ndarray:
    """Analytic gradient matrix of CD2, entry (i, j) = dCD2/dx_ij.

    Uses the standard sign convention sgn(u) = +1 (u > 0), 0 (u = 0),
    -1 (u < 0); at non-differentiable points (x_ij = 1/2 or column ties)
    sgn(0) = 0 selects a deterministic subgradient.
    """
    return DiscrepancyCache(design).gradient()


class DiscrepancyCache:
    """Cached CD2 state for single-coordinate re-evaluation.

    Holds the design column by column (s x n, beside |x - 1/2|), its per-row
    f1 products, the symmetric pairwise f2 kernel and the current CD2 value.

    Coordinate moves: ``_commit`` is the one writer, and ``_moved_row`` the one
    builder of a moved kernel row, from the design (no multiplicative deltas, so
    repeated moves cannot drift from a fresh build).  ``update`` is a commit, O(ns),
    plus an O(n^2) re-sum, and ``preview_update`` scores one in O(ns) without mutating
    any state.  ``sweep`` runs a refiner's epoch of commits and leaves every array and
    value exactly as one ``update`` per visit would.

    Column swaps: ``preview_column_swap`` scores one in O(n), and ``apply_column_swap``
    commits it from the preview's terms and returns exactly the previewed value; its
    sums carry round-off from one commit to the next, which ``resum`` (O(n^2)
    additions) clears.  ``_swap_deltas`` scores K swaps in one O(Kn) pass, to round-off
    of the preview, for threshold accepting's screen; ``_near`` keeps the batch scores
    that need an exact preview.

    Batch passes: the kernel build, ``gradient`` (all ns derivatives) and
    ``preview_steps`` (all 2ns fixed-step moves) are O(n^2 s) passes over contiguous
    columns in ``_BLOCK`` = 32-row blocks, with O(32 n) scratch and no n x n
    temporaries, forming f2 in five array operations (``_f2_rows``).  The build
    mirrors each unordered pair of rows, and the other two share the half leave-one-out
    blocks kernel / (2 f2) of ``_half_loo_blocks``; every result is bit for bit that
    of whole-matrix products.

    Single-writer: concurrent mutation is not supported.
    """

    def __init__(self, design):
        self._xt = xt = as_design_matrix(design).T.copy()
        self._at = np.abs(xt - 0.5)
        self.s, self.n = xt.shape
        self._const = (13.0 / 12.0) ** self.s
        self._rp = np.prod(_f1(self._at), axis=0)
        self._kernel = _kernel(xt, self._at)
        # (r1, r2, col) and _swap_terms of the last swap preview, while the
        # design has not changed since
        self._previewed = None, None
        self.resum()

    def _combine(self, sum_rp: float, sum_kernel: float) -> float:
        return self._const - (2.0 / self.n) * sum_rp + sum_kernel / self.n**2

    @property
    def design(self) -> np.ndarray:
        """Copy of the current design."""
        return self._xt.T.copy()

    @property
    def row_products(self) -> np.ndarray:
        return self._rp.copy()

    @property
    def kernel(self) -> np.ndarray:
        return self._kernel.copy()

    @property
    def term_scale(self) -> float:
        """Sum of the magnitudes of CD2's three terms, the scale of its round-off."""
        return self._const + (2.0 / self.n) * self._sum_rp + self._sum_kernel / self.n**2

    def _near(self, values, cut: float) -> np.ndarray:
        """Flat indices of the batch scores ``values`` whose exact score may be <= ``cut``."""
        return np.flatnonzero(values <= cut + _SCREEN_RTOL * self.term_scale)

    def value_at(self, i: int, j: int) -> float:
        self._check_index(i, j)
        return float(self._xt[j, i])

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.n and 0 <= j < self.s):
            raise IndexError(
                f"coordinate ({i}, {j}) out of range for a {self.n}x{self.s} design"
            )

    def _check_swap(self, r1: int, r2: int, col: int) -> None:
        if not (0 <= r1 < self.n and 0 <= r2 < self.n and 0 <= col < self.s):
            raise IndexError(f"swap ({r1}, {r2}, {col}) outside a {self.n}x{self.s} design")

    def _check_update(self, i: int, j: int, value: float) -> None:
        self._check_index(i, j)
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"new value {value!r} outside [0, 1]")

    def _row_factors(self, i: int):
        """Row i's s x n factors f2(x_ij, x_kj), its f1 factors and its 1 + |x_ij - 1/2| (O(ns))."""
        xt, at = self._xt, self._at
        return _f2(xt[:, i, None], at[:, i, None], xt, at), _f1(at[:, i]), 1.0 + at[:, i]

    def _commit(self, i: int, j: int, value: float, factors) -> None:
        """Set x_ij = value and rewrite row i's f1 product and kernel row/column (O(ns)).

        The one writer of a coordinate move, so the one place that drops the swap-preview
        memo; the sums are left to the caller.
        """
        self._previewed = None, None
        self._xt[j, i] = value
        self._at[j, i] = abs(value - 0.5)
        self._rp[i], row = _moved_row(factors, self._xt, self._at, i, j, value)
        self._kernel[i] = self._kernel[:, i] = row

    def update(self, i: int, j: int, value: float) -> float:
        """Set x_ij = value, refresh the affected cache entries, return CD2."""
        self._check_update(i, j, value)
        self._commit(i, j, value, self._row_factors(i))
        return self.resum()

    def preview_update(self, i: int, j: int, value: float) -> float:
        """CD2 the design would have with x_ij = value; no state change."""
        self._check_update(i, j, value)
        if value == self._xt[j, i]:
            return self.cd2
        rp, row = _moved_row(self._row_factors(i), self._xt, self._at, i, j, value)
        old_row = self._kernel[i]
        d_rp = rp - self._rp[i]
        d_kernel = 2.0 * float(row.sum() - old_row.sum()) - (row[i] - old_row[i])
        return self._combine(self._sum_rp + d_rp, self._sum_kernel + d_kernel)

    def preview_steps(self, steps) -> tuple[np.ndarray, np.ndarray]:
        """Score every move x_ij -> clip(x_ij +/- steps[j]) in one pass; no state change.

        Returns ``(targets, values)``, both n x s x 2 with the + move first:
        the moved coordinate and the CD2 the move gives, ``inf`` where clamping
        leaves x_ij unchanged.  Column by column, the half leave-one-out kernel times
        2 f2 of the moved point, each product exactly that of the whole ones, gives every
        candidate row's sum in O(n^2 s) work in ``_BLOCK``-row blocks with O(_BLOCK * n) scratch.
        Its values agree with ``preview_update`` up to round-off, not bit for bit.
        """
        steps = np.asarray(steps, dtype=float)
        if steps.shape != (self.s,) or not np.all((0.0 < steps) & (steps < np.inf)):
            raise ValueError(f"steps must be {self.s} finite positive reals, one per column")
        xt, rp, n = self._xt, self._rp, self.n
        # the + and - moves of every coordinate, 2 x s x n, and the f1 product changes they make
        v = np.clip(xt + np.multiply.outer([1.0, -1.0], steps)[..., None], 0.0, 1.0)
        av = np.abs(v - 0.5)
        d_rp = rp / _f1(self._at) * _f1(av) - rp
        d_kernel = np.empty_like(v)
        row_sums, diagonal = self._kernel.sum(axis=1), self._kernel.diagonal()
        f2_new = np.empty((min(_BLOCK, n), n))
        for rows, j, half, tmp in self._half_loo_blocks():
            fb = f2_new[:len(half)]
            fb_diagonal = fb.reshape(-1)[rows.start::n + 1]  # entries (r, r0 + r): a point with itself
            g2_new = 2.0 + 2.0 * av[:, j, rows]  # twice 1 + |v - 1/2|
            for d in range(2):
                _f2_rows(fb, tmp, v[d, j, rows], av[d, j, rows], xt[j], self._at[j], one=2.0)
                fb_diagonal[:] = g2_new[d]
                d_kernel[d, j, rows] = 2.0 * (np.einsum("ik,ik->i", half, fb) - row_sums[rows])
            d_kernel[:, j, rows] -= half[:, rows].diagonal() * g2_new - diagonal[rows]
        cd2 = self._combine(self._sum_rp + d_rp, self._sum_kernel + d_kernel)
        return v.transpose(2, 1, 0).copy(), np.where(v == xt, np.inf, cd2).transpose(2, 1, 0).copy()

    def gradient(self) -> np.ndarray:
        """The gradient matrix of CD2 at the cached design (O(n^2 s)); see ``cd2_gradient``."""
        xt, at, n = self._xt, self._at, self.n
        d = xt - 0.5
        sc = np.sign(d)
        g2 = 1.0 + at
        p2 = np.prod(g2, axis=0) / g2
        sums = np.empty_like(xt)
        w = np.empty((min(_BLOCK, n), n))
        ties = np.empty(w.shape, dtype=bool)
        for rows, j, half, _ in self._half_loo_blocks(diff=w):
            # wb = sc - sgn(x_ij - x_kj), twice the weight of the half leave-one-out kernel,
            # so each product and the einsum's sums keep their bits
            wb, eb = w[:len(half)], ties[:len(half)]
            np.equal(wb, 0.0, out=eb)  # ties, the diagonal among them: sgn 0, copysign 1
            np.copysign(1.0, wb, out=wb)
            sc_rows = sc[j, rows, None]
            np.subtract(sc_rows, wb, out=wb)
            np.copyto(wb, sc_rows, where=eb)
            sums[j, rows] = np.einsum("ik,ik->i", half, wb)
        pair = sums - p2 * 0.5 * sc
        return _slope(self._rp / _f1(at), p2, sc, d, pair, n).T.copy()

    def _half_loo_blocks(self, diff=None):
        """Yield ``rows, j, half, tmp`` for each ``_BLOCK``-row block and column j.

        ``half`` is kernel / (2 f2(x_rj, x_kj)), with 2 f2 from whole columns (``_f2_rows``
        with one = 2), so it is exactly half the kernel over the factors q != j.  Both buffers are
        reused at the next yield (``tmp`` is free scratch); a ``diff`` (_BLOCK x n) gets x_rj - x_kj.
        """
        xt, at, n = self._xt, self._at, self.n
        half, tmp = np.empty((2, min(_BLOCK, n), n))
        for r0 in range(0, n, _BLOCK):
            rows = slice(r0, r0 + _BLOCK)
            kernel = self._kernel[rows]
            hb, tb, db = (None if b is None else b[:len(kernel)] for b in (half, tmp, diff))
            for j, (u, au) in enumerate(zip(xt, at)):
                _f2_rows(hb, tb, u[rows], au[rows], u, au, one=2.0, diff=db)
                np.divide(kernel, hb, out=hb)
                yield rows, j, hb, tb

    def _swap_terms(self, r1: int, r2: int, col: int):
        """Sum deltas and f2 ratio vectors of exchanging x_{r1,col} and x_{r2,col}.

        Returns None for the no-op u == v, else ``(d_rp, d_kernel, f1_ratio,
        g_ratio, ratio, inv)``: the changes of the row-product and kernel sums,
        the factors f1(v)/f1(u) and f2(v, v)/f2(u, u) of row r1's f1 product and
        diagonal entry (row r2 takes their inverses), and the factors
        f2(v, x_kcol)/f2(u, x_kcol) and their inverses that rescale kernel rows
        r1 and r2.  O(n); every f1 and f2 value is >= 1.
        """
        w, aw, kernel = self._xt[col], self._at[col], self._kernel
        u, v = w.item(r1), w.item(r2)
        if u == v:
            return None
        au, av = aw.item(r1), aw.item(r2)
        f1_ratio = _f1(av) / _f1(au)
        rp = self._rp
        d_rp = rp.item(r1) * (f1_ratio - 1.0) + rp.item(r2) * (1.0 / f1_ratio - 1.0)

        # the ratios are taken of 2 * f2, which needs fewer array operations
        aw2 = aw + 2.0
        f2_u = (aw2 + au) - np.abs(w - u)
        f2_v = (aw2 + av) - np.abs(w - v)
        ratio = f2_v / f2_u
        inv = f2_u / f2_v
        # off-diagonal deltas of both rows: the (r1, r2) entry keeps its
        # value (f2 is symmetric) and the diagonals change by g_ratio
        k1, k2 = kernel[r1], kernel[r2]
        k11, k12, k22 = k1.item(r1), k1.item(r2), k2.item(r2)
        d1 = float(k1 @ (ratio - 1.0))
        d1 -= k11 * (ratio.item(r1) - 1.0) + k12 * (ratio.item(r2) - 1.0)
        d2 = float(k2 @ (inv - 1.0))
        d2 -= k22 * (inv.item(r2) - 1.0) + k12 * (inv.item(r1) - 1.0)
        g_ratio = (1.0 + av) / (1.0 + au)
        d_diag = k11 * (g_ratio - 1.0) + k22 * (1.0 / g_ratio - 1.0)
        return d_rp, 2.0 * (d1 + d2) + d_diag, f1_ratio, g_ratio, ratio, inv

    def _swap_deltas(self, rows1, rows2, cols) -> np.ndarray:
        """CD2 change of each exchange of x[rows1[k], cols[k]] and x[rows2[k], cols[k]] (O(Kn)).

        ``_swap_terms`` on K x 2 x n arrays in another summation order: ``preview_column_swap(...)
        - cd2`` to ~1e-16 * ``term_scale``, and exactly 0 for u == v.  No state change.
        """
        xt, at, kernel, n, c = self._xt, self._at, self._kernel, self.n, cols[:, None]
        rows = np.stack([rows1, rows2], axis=1)
        xs, axs = xt.take(c * n + rows), at.take(c * n + rows)  # u, v and their |. - 1/2|
        # 2 * f2 of u (first) and of v with each point of the column, in place
        f2, terms = at[c] + (axs + 2.0)[..., None], xt[c] - xs[..., None]
        f2 -= np.abs(terms, out=terms)
        # rows r1, r2 scale by f2(v, .)/f2(u, .) and its inverse, but for entry (r1, r2) and the diagonal
        np.divide(f2[:, ::-1], f2, out=terms)
        terms -= 1.0
        terms *= kernel[rows]
        terms[np.arange(len(cols))[:, None], :, rows] = 0.0
        g2, f1 = 1.0 + axs, _f1(axs)
        ends = (kernel.diagonal()[rows] * (g2[:, ::-1] / g2 - 1.0)
                - (2.0 * n) * self._rp[rows] * (f1[:, ::-1] / f1 - 1.0))
        return (2.0 * terms.reshape(len(cols), -1).sum(axis=1) + ends.sum(axis=1)) / n**2

    def preview_column_swap(self, r1: int, r2: int, col: int) -> float:
        """CD2 after exchanging x_{r1,col} and x_{r2,col}; no state change (O(n))."""
        self._check_swap(r1, r2, col)
        terms = self._swap_terms(r1, r2, col)
        self._previewed = (r1, r2, col), terms
        if terms is None:
            return self.cd2
        d_rp, d_kernel = terms[:2]
        return self._combine(self._sum_rp + d_rp, self._sum_kernel + d_kernel)

    def apply_column_swap(self, r1: int, r2: int, col: int) -> float:
        """Commit the exchange of x_{r1,col} and x_{r2,col}, return CD2 (O(n)).

        Rescales kernel rows r1 and r2 by the preview's f2 ratios and advances
        the sums by the preview's deltas, so it returns exactly the value
        ``preview_column_swap`` gave for the same swap.  The terms of a
        preview of this swap made just before are reused, not recomputed.
        """
        key, terms = self._previewed
        if key != (r1, r2, col):
            self._check_swap(r1, r2, col)
            terms = self._swap_terms(r1, r2, col)
        self._previewed = None, None
        if terms is None:
            return self.cd2
        d_rp, d_kernel, f1_ratio, g_ratio, ratio, inv = terms
        w, aw, kernel = self._xt[col], self._at[col], self._kernel
        k11, k22, k12 = kernel[r1, r1], kernel[r2, r2], kernel[r1, r2]
        w[r1], w[r2] = w[r2], w[r1]
        aw[r1], aw[r2] = aw[r2], aw[r1]
        self._rp[r1] *= f1_ratio
        self._rp[r2] /= f1_ratio
        kernel[r1] *= ratio
        kernel[r2] *= inv
        kernel[r1, r1] = k11 * g_ratio
        kernel[r2, r2] = k22 / g_ratio
        kernel[r1, r2] = kernel[r2, r1] = k12
        kernel[:, r1] = kernel[r1]
        kernel[:, r2] = kernel[r2]
        self._sum_rp += d_rp
        self._sum_kernel += d_kernel
        self.cd2 = self._combine(self._sum_rp, self._sum_kernel)
        return self.cd2

    def resum(self) -> float:
        """Re-sum the cached row products and kernel, return CD2 (O(n^2) additions).

        Clears the round-off that swap commits leave in the sums; the cached
        arrays themselves are kept, not rebuilt.
        """
        self._sum_rp = float(self._rp.sum())
        self._sum_kernel = float(self._kernel.sum())
        self.cd2 = self._combine(self._sum_rp, self._sum_kernel)
        return self.cd2

    def _visit_terms(self, i: int, j: int, factors, g2_prod: float):
        """x_ij, column j and leave-one-out p1, p2 and kernel row at (i, j) from row i's factors (O(n)).

        ``factors`` are row i's ``_row_factors`` and ``g2_prod`` the product of its 1 + |x_iq - 1/2|.
        """
        f2_t, f1_row, g2_row = factors
        column = self._xt[j]
        p1, p2 = self._rp[i] / f1_row[j], float(g2_prod / g2_row[j])
        return column[i], column, p1, p2, self._kernel[i] / f2_t[j]

    def sweep(self, rule, guarded: bool = False) -> float:
        """One refiner epoch: x_ij = rule(*terms) at every (i, j) in row-major order, return CD2.

        A Gauss-Seidel pass: the terms are ``_visit_terms`` at the partially updated
        design (x_ij, column j, and the leave-one-out p1, p2 and kernel row), and the
        rule returns the new x_ij in [0, 1].  With ``guarded`` a visit that increases
        CD2 is rolled back.  Row i's ``_row_factors`` are built once; each visit reads
        its terms from them and ``_commit`` writes its move from them, O(ns) elementwise
        work in a few numpy calls.  An unguarded pass re-sums once at the end (O(n^2));
        a guarded one re-sums after every visit, because it compares CD2 there, and
        undoes a rejected visit by committing the old value again and restoring the
        three sums.
        """
        xt, kernel = self._xt, self._kernel
        for i in range(self.n):
            factors = self._row_factors(i)
            g2_prod = factors[2].prod()
            for j in range(self.s):
                old, sums = xt[j, i], (self._sum_rp, self._sum_kernel, self.cd2)
                self._commit(i, j, rule(*self._visit_terms(i, j, factors, g2_prod)), factors)
                if guarded and self.resum() > sums[-1]:
                    self._commit(i, j, old, factors)
                    self._sum_rp, self._sum_kernel, self.cd2 = sums
                g2_prod = kernel[i, i]  # the commit's g2_row.prod()
        return self.resum()
