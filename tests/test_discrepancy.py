import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from unidesign import DiscrepancyCache, cd2, cd2_gradient, lattice
from unidesign.discrepancy import _BLOCK, _visit_slope, _zero_gradient_recursion
from conftest import UD18X7_CD2, UD27X13_CD2
from oracles import (
    cd2_gradient_reference,
    cd2_kernel_reference,
    cd2_reference,
    central_difference_gradient,
    coordinate_gradient_reference,
    gradient_relative_error,
    kernel_reference,
    off_kink_design,
    preview_steps_reference,
    zero_gradient_solve_reference,
)


def random_design(n, s, seed):
    return np.random.default_rng(seed).random((n, s))


class TestCd2:
    def test_center_point(self):
        assert cd2([[0.5]]) == pytest.approx(1 / 12, abs=1e-15)

    def test_two_point_hand_value(self):
        # f1(0.25) = f1(0.75) = 1.09375; kernel entries 1.25, 1.0, 1.0, 1.25
        assert cd2([[0.25], [0.75]]) == pytest.approx(1 / 48, abs=1e-15)

    def test_published_18x7(self, ud18x7):
        assert cd2(ud18x7) == pytest.approx(UD18X7_CD2, abs=5e-4)

    def test_published_27x13(self, ud27x13):
        assert cd2(ud27x13) == pytest.approx(UD27X13_CD2, abs=1e-3)

    @pytest.mark.parametrize("shape", [(1, 1), (5, 2), (9, 4), (12, 6)])
    def test_matches_naive_reference(self, shape):
        x = random_design(*shape, seed=shape[0] * 31 + shape[1])
        assert cd2(x) == pytest.approx(cd2_reference(x), abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cd2([[1.2]])
        with pytest.raises(ValueError):
            cd2([[-0.1, 0.4]])

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            cd2([0.1, 0.2])

    @pytest.mark.parametrize("x, match", [
        ([[0.2, np.nan]], "non-finite"), (np.empty((0, 3)), "n >= 1"), (np.empty((3, 0)), "s >= 1"),
    ], ids=["nan", "no-runs", "no-factors"])
    def test_rejects_non_finite_or_empty(self, x, match):
        with pytest.raises(ValueError, match=match):
            cd2(x)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 9), s=st.integers(1, 5))
    def test_symmetry_properties(self, seed, n, s):
        x = random_design(n, s, seed)
        value = cd2(x)
        assert value >= -1e-12
        rng = np.random.default_rng(seed + 1)
        rows = rng.permutation(n)
        cols = rng.permutation(s)
        assert cd2(x[rows]) == pytest.approx(value, abs=1e-12)
        assert cd2(x[:, cols]) == pytest.approx(value, abs=1e-12)
        assert cd2(1.0 - x) == pytest.approx(value, abs=1e-12)


class TestScipyOracle:
    """cd2 and the cache's build against SciPy's independent CD implementation."""

    @staticmethod
    def check(x):
        expected = qmc.discrepancy(x, method="CD")
        assert cd2(x) == pytest.approx(expected, abs=1e-12)
        assert DiscrepancyCache(x).cd2 == pytest.approx(expected, abs=1e-12)

    def test_published_designs(self, ud18x7, ud27x13):
        self.check(ud18x7)
        self.check(ud27x13)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 30), s=st.integers(1, 8))
    def test_random_shapes(self, seed, n, s):
        self.check(random_design(n, s, seed))


class TestGradient:
    def test_center_point_is_stationary(self):
        assert cd2_gradient([[0.5]]) == pytest.approx(np.zeros((1, 1)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        x = off_kink_design(10, 4, seed)
        grad = cd2_gradient(x)
        fd = central_difference_gradient(x)
        assert gradient_relative_error(grad, fd) < 1e-5

    def test_reflection_antisymmetry(self):
        x = off_kink_design(8, 3, seed=7)
        assert cd2(1.0 - x) == pytest.approx(cd2(x), abs=1e-14)
        assert cd2_gradient(1.0 - x) == pytest.approx(-cd2_gradient(x), abs=1e-12)

    def test_deterministic_at_kinks(self):
        # sgn(0) = 0 must give finite, repeatable values on ties and at 0.5
        x = np.array([[0.5, 0.25], [0.25, 0.25]])
        g1 = cd2_gradient(x)
        g2 = cd2_gradient(x)
        assert np.all(np.isfinite(g1))
        assert np.array_equal(g1, g2)


_EDGE_VALUES = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53,
                1.0 - 2.0**-53, 1.0]


def _kind_design(kind, n, s, rng):
    if kind == "random":
        return rng.random((n, s))
    if kind == "lattice":
        return (np.argsort(rng.random((n, s)), axis=0) + 0.5) / n
    if kind == "subnormal":
        # entries where halving a column is inexact (below 2^-1021) and the
        # neighbours of 1/2 and 1, mixed with random values, some rows repeated
        x = np.where(rng.random((n, s)) < 0.5, rng.choice(_EDGE_VALUES, (n, s)), rng.random((n, s)))
        return x[rng.integers(0, n, n)]
    # kinks at 0.5, ties within columns and points on the boundary, where the
    # derivative takes its sgn(0) = 0 branches
    return rng.integers(0, 5, (n, s)) / 4


_SHAPES = [(1, 1), (1, 4), (3, 1), (2, 3), (5, 2), (9, 4), (18, 7), (27, 13)]


def _visit(cache, i, j):
    """x_ij and the rest of (i, j)'s terms, read from row i's factors as a sweep reads them."""
    f = cache._row_factors(i)
    return cache._visit_terms(i, j, f, f[2].prod())


def _sweep_slope(cache, i, j):
    """dCD2/dx_ij as a CGD visit computes it from the cache's state."""
    x, *terms = _visit(cache, i, j)
    return _visit_slope(x, x - 0.5, *terms, cache.n)


def _sweep_zero(cache, i, j, t_max=1):
    """The new x_ij a CZG visit computes from the cache's state."""
    return _zero_gradient_recursion(*_visit(cache, i, j), cache.n, t_max)


def _gradient_rule(n, step_size):
    """CGD's visit rule for ``DiscrepancyCache.sweep``."""
    return lambda x, *terms: min(1.0, max(0.0, x - step_size * _visit_slope(x, x - 0.5, *terms, n)))


def _zero_gradient_rule(n, t_max=1):
    """CZG's visit rule for ``DiscrepancyCache.sweep``."""
    return lambda *terms: _zero_gradient_recursion(*terms, n, t_max)


class TestOneDerivative:
    """The cache's gradient and zero-gradient paths equal the oracles bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "lattice", "kinks", "subnormal"])
    def test_gradient_matches_reference_bit_for_bit(self, kind):
        rng = np.random.default_rng(21)
        for n, s in _SHAPES:
            x = _kind_design(kind, n, s, rng)
            assert cd2_gradient(x).tobytes() == cd2_gradient_reference(x).tobytes()
            cache = DiscrepancyCache(x)
            assert cache.gradient().tobytes() == cd2_gradient_reference(x).tobytes()

    @pytest.mark.parametrize("kind", ["random", "lattice", "kinks", "subnormal"])
    def test_zero_gradient_matches_reference_bit_for_bit(self, kind):
        rng = np.random.default_rng(22)
        for n, s in _SHAPES:
            x = _kind_design(kind, n, s, rng)
            cache = DiscrepancyCache(x)
            for i in range(n):
                for j in range(s):
                    for t_max in (1, 3):
                        expected = zero_gradient_solve_reference(x, i, j, t_max)
                        assert _sweep_zero(cache, i, j, t_max) == expected
                    assert _sweep_slope(cache, i, j) == coordinate_gradient_reference(x, i, j)

    def test_gradient_after_commits_matches_fresh(self):
        # swap commits rescale kernel rows, so the cached arrays carry
        # round-off; measured at most ~6e-17 of term_scale over 60 runs
        # of 600 swaps and 20 updates, so 1e-14 leaves a wide margin
        rng = np.random.default_rng(23)
        for n, s in [(6, 2), (18, 7), (27, 13)]:
            cache = DiscrepancyCache(_kind_design("lattice", n, s, rng))
            for k in range(320):
                if k % 16 == 15:
                    cache.update(int(rng.integers(n)), int(rng.integers(s)), float(rng.random()))
                else:
                    r1, r2 = rng.choice(n, 2, replace=False)
                    cache.apply_column_swap(int(r1), int(r2), int(rng.integers(s)))
            fresh = cd2_gradient(cache.design)
            assert np.max(np.abs(cache.gradient() - fresh)) <= 1e-14 * cache.term_scale

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (-1, -1), (-5, 0), (4, 0), (0, 3)])
    def test_per_visit_methods_check_indices(self, i, j):
        x = random_design(4, 3, seed=3)
        cache = DiscrepancyCache(x)
        before = _state(cache)
        for call in (lambda: cache.value_at(i, j),
                     lambda: cache.preview_column_swap(i, 1, j),
                     lambda: cache.apply_column_swap(1, i, j)):
            with pytest.raises(IndexError):
                call()
            assert _state(cache) == before


class TestRowBlocks:
    """The row-blocked kernel build and gradient pass equal whole-matrix references."""

    @pytest.mark.parametrize("kind", ["random", "lattice", "kinks", "subnormal"])
    @pytest.mark.parametrize(
        "n, s",
        [(n, 3) for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 2 * _BLOCK + 3)]
        + [(2 * _BLOCK + 1, 1), (500, 10)],
    )
    def test_matches_full_matrix_references_bit_for_bit(self, kind, n, s):
        # 2 * _BLOCK + 1 rows leave a last block of one row; s = 1 builds from the first factor alone
        x = _kind_design(kind, n, s, np.random.default_rng(n))
        kernel = kernel_reference(x, np.abs(x - 0.5))
        built = DiscrepancyCache(x).kernel
        assert built.tobytes() == kernel.tobytes()
        # the mirrored triangle is exactly the computed one
        assert built.tobytes() == built.T.copy().tobytes()
        assert np.float64(cd2(x)).tobytes() == np.float64(cd2_kernel_reference(x)).tobytes()
        assert cd2_gradient(x).tobytes() == cd2_gradient_reference(x).tobytes()

    def test_large_n_shape_matches_reference_bit_for_bit(self):
        x = random_design(2000, 5, seed=905)
        built = DiscrepancyCache(x).kernel
        assert built.tobytes() == kernel_reference(x, np.abs(x - 0.5)).tobytes()
        assert built.tobytes() == built.T.copy().tobytes()
        assert np.float64(cd2(x)).tobytes() == np.float64(cd2_kernel_reference(x)).tobytes()

    @pytest.mark.parametrize("fn", [cd2, cd2_gradient])
    def test_peak_memory_is_about_one_kernel(self, fn):
        # the kernel itself is 8 n^2 bytes; whole-matrix f2 temporaries would
        # add at least two more n x n arrays
        n = 1000
        x = random_design(n, 3, seed=4)
        tracemalloc.start()
        try:
            fn(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n

    @pytest.mark.parametrize("method", ["gradient", "preview_steps"])
    def test_pass_scratch_is_a_few_blocks(self, method):
        # beyond the cache's own kernel, a pass holds a few _BLOCK x n buffers
        # and O(ns) arrays; one n x n temporary (8 n^2 bytes) is several times this bound
        n, s = 1000, 3
        cache = DiscrepancyCache(random_design(n, s, seed=4))
        args = ([0.01, 0.02, 0.03],) if method == "preview_steps" else ()
        tracemalloc.start()
        try:
            getattr(cache, method)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (4 * _BLOCK * n + 16 * n * s)


def assert_matches_fresh(cache: DiscrepancyCache, rel: float = 1e-12) -> None:
    """The cache's arrays and value agree with a cache built from its design."""
    fresh = DiscrepancyCache(cache.design)
    assert np.allclose(cache.row_products, fresh.row_products, rtol=rel, atol=0.0)
    assert np.allclose(cache.kernel, fresh.kernel, rtol=rel, atol=0.0)
    assert np.array_equal(cache.kernel, cache.kernel.T)
    assert cache.cd2 == pytest.approx(fresh.cd2, rel=rel)


class TestCache:
    def test_center_point_contents(self):
        cache = DiscrepancyCache([[0.5]])
        assert cache.row_products == pytest.approx([1.0])
        assert cache.kernel.ravel() == pytest.approx([1.0])
        assert cache.cd2 == pytest.approx(1 / 12, abs=1e-15)

    def test_build_matches_cd2(self):
        x = random_design(9, 4, seed=3)
        cache = DiscrepancyCache(x)
        assert cache.cd2 == pytest.approx(cd2(x), abs=1e-12)
        assert cache.kernel == pytest.approx(cache.kernel.T)

    def test_noop_update_keeps_value(self):
        x = random_design(6, 3, seed=4)
        cache = DiscrepancyCache(x)
        before = cache.cd2
        cache.update(2, 1, x[2, 1])
        assert cache.cd2 == pytest.approx(before, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_update_involution(self, seed):
        rng = np.random.default_rng(seed)
        cache = DiscrepancyCache(rng.random((7, 3)))
        before = cache.cd2
        i, j = int(rng.integers(7)), int(rng.integers(3))
        original = cache.value_at(i, j)
        cache.update(i, j, float(rng.random()))
        cache.update(i, j, original)
        assert cache.cd2 == pytest.approx(before, abs=1e-12)

    def test_thousand_updates_stay_consistent(self):
        rng = np.random.default_rng(11)
        cache = DiscrepancyCache(rng.random((9, 4)))
        for _ in range(1000):
            i, j = int(rng.integers(9)), int(rng.integers(4))
            cache.update(i, j, float(rng.random()))
        assert cache.cd2 == pytest.approx(cd2(cache.design), abs=1e-12)

    def test_single_update_matches_modified_matrix(self, ud18x7):
        cache = DiscrepancyCache(ud18x7)
        cache.update(0, 0, 0.5)
        modified = ud18x7.copy()
        modified[0, 0] = 0.5
        assert cache.cd2 == pytest.approx(cd2(modified), abs=1e-12)

    def test_preview_update_matches_commit(self):
        rng = np.random.default_rng(5)
        cache = DiscrepancyCache(rng.random((8, 5)))
        previewed = cache.preview_update(3, 2, 0.125)
        committed = cache.update(3, 2, 0.125)
        assert previewed == pytest.approx(committed, abs=1e-12)

    def test_preview_swap_matches_commit(self):
        rng = np.random.default_rng(6)
        cache = DiscrepancyCache(rng.random((9, 5)))
        previewed = cache.preview_column_swap(2, 7, 3)
        committed = cache.apply_column_swap(2, 7, 3)
        assert previewed == pytest.approx(committed, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 12), s=st.integers(1, 5))
    def test_swap_commit_returns_preview_exactly(self, seed, n, s):
        rng = np.random.default_rng(seed)
        cache = DiscrepancyCache(rng.random((n, s)))
        for k in range(20):
            r1, r2 = (int(r) for r in rng.choice(n, size=2, replace=False))
            col = int(rng.integers(s))
            previewed = cache.preview_column_swap(r1, r2, col)
            if k % 2:
                # another preview in between: the commit recomputes its terms
                cache.preview_column_swap(r2, r1, (col + 1) % s)
            assert cache.apply_column_swap(r1, r2, col) == previewed
            assert cache.cd2 == previewed
        assert_matches_fresh(cache)

    def test_swap_commit_at_kinks(self):
        # entries at 1/2 sit on the kink of |x - 1/2|; swaps cross it both ways
        x = np.array([[0.5, 0.1], [0.2, 0.5], [0.5, 0.9], [0.8, 0.5], [0.35, 0.5]])
        cache = DiscrepancyCache(x)
        for r1, r2, col in ((0, 1, 0), (2, 3, 0), (1, 0, 0), (0, 2, 1), (3, 4, 1), (4, 1, 0)):
            previewed = cache.preview_column_swap(r1, r2, col)
            assert cache.apply_column_swap(r1, r2, col) == previewed
            x[[r1, r2], col] = x[[r2, r1], col]
            assert np.array_equal(cache.design, x)
            assert cache.cd2 == pytest.approx(cd2(x), rel=1e-13)
        assert_matches_fresh(cache)

    def test_swap_of_equal_entries_is_a_noop(self):
        x = np.array([[0.5, 0.3], [0.5, 0.7], [0.25, 0.3]])
        cache = DiscrepancyCache(x)
        before = (cache.cd2, cache.row_products, cache.kernel)
        for r1, r2, col in ((0, 1, 0), (2, 0, 1)):
            assert cache.preview_column_swap(r1, r2, col) == before[0]
            assert cache.apply_column_swap(r1, r2, col) == before[0]
        assert np.array_equal(cache.design, x)
        assert np.array_equal(cache.row_products, before[1])
        assert np.array_equal(cache.kernel, before[2])

    def test_swap_commit_does_not_call_update(self, monkeypatch):
        cache = DiscrepancyCache(random_design(9, 4, seed=12))

        def fail(*args):
            raise AssertionError("apply_column_swap must not call update")

        monkeypatch.setattr(DiscrepancyCache, "update", fail)
        cache.apply_column_swap(1, 6, 2)
        assert_matches_fresh(cache)

    @pytest.mark.parametrize("mutate", [
        lambda cache: cache.update(2, 1, 0.0625),
        lambda cache: cache.sweep(_gradient_rule(cache.n, 0.05)),
        lambda cache: cache.sweep(_zero_gradient_rule(cache.n)),
        lambda cache: cache.sweep(_zero_gradient_rule(cache.n), guarded=True),
    ], ids=["update", "gradient_sweep", "zero_gradient_sweep", "guarded_zero_gradient_sweep"])
    def test_swap_commit_after_update_ignores_stale_preview(self, mutate):
        cache = DiscrepancyCache(random_design(8, 3, seed=13))
        cache.preview_column_swap(2, 5, 1)
        mutate(cache)
        x = cache.design
        x[[2, 5], 1] = x[[5, 2], 1]
        cache.apply_column_swap(2, 5, 1)
        assert np.array_equal(cache.design, x)
        assert_matches_fresh(cache)

    def test_resum_keeps_arrays_and_refreshes_value(self):
        rng = np.random.default_rng(14)
        cache = DiscrepancyCache(rng.random((10, 4)))
        for _ in range(200):
            r1, r2 = (int(r) for r in rng.choice(10, size=2, replace=False))
            cache.apply_column_swap(r1, r2, int(rng.integers(4)))
        kernel = cache.kernel
        value = cache.resum()
        assert value == cache.cd2
        assert np.array_equal(cache.kernel, kernel)
        assert value == pytest.approx(cd2(cache.design), rel=1e-13)

    def test_update_validation(self):
        cache = DiscrepancyCache([[0.5, 0.5]])
        with pytest.raises(IndexError):
            cache.update(1, 0, 0.5)
        with pytest.raises(IndexError):
            cache.update(0, 2, 0.5)
        with pytest.raises(ValueError):
            cache.update(0, 0, 1.5)

    def test_design_property_is_a_copy(self):
        cache = DiscrepancyCache([[0.25, 0.75]])
        cache.design[0, 0] = 0.9
        assert cache.value_at(0, 0) == 0.25


def _state(cache: DiscrepancyCache):
    return (cache.design.tobytes(), cache.row_products.tobytes(), cache.kernel.tobytes(),
            cache.cd2)


class TestSweeps:
    @pytest.mark.parametrize("guarded", [False, True])
    def test_sweep_leaves_the_arrays_of_a_fresh_build(self, guarded):
        # every entry is recomputed from the design, as update does, so the
        # arrays are bitwise those of a cache built from the new design
        for seed, (n, s) in enumerate([(1, 1), (6, 3), (11, 5)]):
            cache = DiscrepancyCache(random_design(n, s, seed))
            cache.sweep(_zero_gradient_rule(n, t_max=2), guarded=guarded)
            cache.sweep(_gradient_rule(n, 0.05))
            assert _state(cache) == _state(DiscrepancyCache(cache.design))


class TestPreviewSteps:
    @pytest.mark.parametrize("kind", ["random", "lattice", "kinks"])
    def test_matches_preview_update(self, kind):
        # the pass sums in a different order than preview_update, so the two
        # agree to round-off relative to the size of CD2's terms
        rng = np.random.default_rng(13)
        for n, s in [(1, 1), (2, 3), (9, 4), (18, 7)]:
            if kind == "random":
                x = rng.random((n, s))
            elif kind == "lattice":
                x = (np.argsort(rng.random((n, s)), axis=0) + 0.5) / n
            else:
                x = rng.integers(0, 5, (n, s)) / 4
            cache = DiscrepancyCache(x)
            steps = rng.uniform(0.01, 0.3, s)
            before = _state(cache)
            targets, values = cache.preview_steps(steps)
            assert _state(cache) == before
            assert targets.shape == values.shape == (n, s, 2)
            for i in range(n):
                for j in range(s):
                    for d, direction in enumerate((1.0, -1.0)):
                        v = min(1.0, max(0.0, x[i, j] + direction * steps[j]))
                        assert targets[i, j, d] == v
                        if v == x[i, j]:
                            assert values[i, j, d] == np.inf
                            continue
                        exact = cache.preview_update(i, j, v)
                        assert abs(values[i, j, d] - exact) <= 1e-14 * cache.term_scale

    @pytest.mark.parametrize("kind", ["random", "lattice", "kinks", "subnormal"])
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_row_blocks_match_whole_matrix_reference_bit_for_bit(self, kind, n):
        rng = np.random.default_rng(n)
        cache = DiscrepancyCache(_kind_design(kind, n, 3, rng))
        steps = rng.uniform(0.01, 0.3, 3)
        targets, values = cache.preview_steps(steps)
        expected_targets, expected_values = preview_steps_reference(cache, steps)
        assert targets.tobytes() == expected_targets.tobytes()
        assert values.tobytes() == expected_values.tobytes()

    def test_peak_memory_is_about_one_kernel(self):
        # the cache's kernel is 8 n^2 bytes; whole-matrix leave-one-out and
        # f2 temporaries would add at least two more n x n arrays
        n = 1000
        tracemalloc.start()
        try:
            DiscrepancyCache(random_design(n, 3, seed=4)).preview_steps([0.01, 0.02, 0.03])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n

    @pytest.mark.parametrize("steps", [[0.1] * 5, [0.1] * 2, [0.1, 0.0, 0.1], [0.1, -0.1, 0.1],
                                       [0.1, float("nan"), 0.1], [0.1, float("inf"), 0.1]])
    def test_rejects_bad_steps(self, steps):
        with pytest.raises(ValueError):
            DiscrepancyCache(random_design(4, 3, seed=3)).preview_steps(steps)

    def test_clamped_moves_read_inf(self):
        cache = DiscrepancyCache([[0.0, 1.0], [1.0, 0.5]])
        _, values = cache.preview_steps([0.25, 0.25])
        # x = 0 cannot move down, x = 1 cannot move up
        assert values[0, 0, 1] == values[0, 1, 0] == values[1, 0, 0] == np.inf
        assert np.isfinite(values[[0, 0, 1, 1, 1], [0, 1, 0, 1, 1], [0, 1, 1, 0, 1]]).all()


class TestSwapDeltas:
    """The screen of threshold accepting agrees with the exact swap preview to round-off."""

    @pytest.mark.parametrize("kind", ["random", "lattice", "kinks"])
    @pytest.mark.parametrize("n, s", [(18, 7), (27, 13), (12, 4), (200, 6), (2000, 5)])
    def test_matches_preview_after_commits(self, kind, n, s):
        # the commits leave round-off in the cached arrays and sums, as a
        # long TA stage does; 1e-14 of term_scale is ~60 times the worst
        # error measured (1.5e-16) and 100 times inside TA's margin
        rng = np.random.default_rng(n + s)
        cache = DiscrepancyCache(_kind_design(kind, n, s, rng))
        for _ in range(1000):
            r1, r2 = rng.choice(n, 2, replace=False)
            cache.apply_column_swap(int(r1), int(r2), int(rng.integers(s)))
        cap = max(1, lattice._SCREEN_ELEMENTS // (2 * n))
        for k in sorted({1, 16, cap}):
            cols, rows1, rows2 = lattice._draw_swaps(rng, n, s, k)
            before = _state(cache)
            deltas = cache._swap_deltas(rows1, rows2, cols)
            assert _state(cache) == before
            exact = [cache.preview_column_swap(r1, r2, c) - cache.cd2
                     for c, r1, r2 in zip(cols.tolist(), rows1.tolist(), rows2.tolist())]
            assert deltas.shape == (k,)
            assert np.max(np.abs(deltas - exact)) <= 1e-14 * cache.term_scale
            # u == v swaps change nothing, and the screen reads exactly 0
            equal = cache.design[rows1, cols] == cache.design[rows2, cols]
            assert np.all(deltas[equal] == 0.0)


class TestZeroGradientSolve:
    def test_center_fixed_point(self):
        assert _sweep_zero(DiscrepancyCache([[0.5]]), 0, 0) == 0.5

    def test_stationarity_when_sign_pattern_stable(self):
        # if the solved value keeps the sign pattern of the start point, the
        # gradient there must vanish
        x = off_kink_design(8, 3, seed=9)
        cache = DiscrepancyCache(x)
        for i, j in [(0, 0), (3, 1), (7, 2)]:
            solved = _sweep_zero(cache, i, j, t_max=1)
            d_old = x[i, j] - 0.5
            d_new = solved - 0.5
            same_center_side = np.sign(d_old) == np.sign(d_new)
            others = np.delete(x[:, j], i)
            same_order = np.array_equal(
                np.sign(x[i, j] - others), np.sign(solved - others)
            )
            if same_center_side and same_order and 0.0 < solved < 1.0:
                moved = x.copy()
                moved[i, j] = solved
                assert abs(cd2_gradient(moved)[i, j]) < 1e-10

    def test_clamps_to_endpoint(self):
        # one coordinate just above 1/2 with every column mate far above it
        # and strongly correlated rows pushes the raw solution below zero
        x = np.full((3, 7), 0.95)
        x[0, 0] = 0.55
        x[2, 0] = 0.98
        assert _sweep_zero(DiscrepancyCache(x), 0, 0) == 0.0

    def test_cache_variant_agrees(self):
        # after committed swaps and updates the cached recursion agrees with a fresh cache's
        cache = DiscrepancyCache(random_design(9, 4, seed=12))
        cache.apply_column_swap(1, 6, 2)
        cache.update(4, 1, 0.3)
        cache.apply_column_swap(0, 8, 3)
        fresh = DiscrepancyCache(cache.design)
        for i, j in [(0, 0), (4, 2), (8, 3)]:
            assert _sweep_zero(cache, i, j, 2) == pytest.approx(_sweep_zero(fresh, i, j, 2), abs=1e-13)


def test_coordinate_gradient_matches_full_matrix():
    x = random_design(10, 5, seed=13)
    cache = DiscrepancyCache(x)
    full = cd2_gradient(x)
    per_coord = np.array(
        [[_sweep_slope(cache, i, j) for j in range(5)] for i in range(10)]
    )
    assert per_coord == pytest.approx(full, abs=1e-12)
