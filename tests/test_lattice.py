import tracemalloc

import numpy as np
import pytest
from scipy.stats import qmc

from unidesign import discrepancy, lattice
from unidesign import (
    DiscrepancyCache,
    TaConfig,
    UTypeDesign,
    cd2,
    embed,
    random_utype,
    ta_optimize,
    threshold_sequence,
)
from oracles import ta_optimize_reference, threshold_schedule_reference


def column_multisets(design: UTypeDesign):
    return [sorted(design.levels[:, j]) for j in range(design.s)]


class TestUTypeDesign:
    def test_balance_enforced(self):
        with pytest.raises(ValueError):
            UTypeDesign(np.array([[1, 1], [1, 2]]), q=2)

    def test_q_must_divide_n(self):
        with pytest.raises(ValueError):
            UTypeDesign(np.array([[1], [2], [1]]), q=2)
        # a fractional q used to be truncated: 6.9 became 6
        for bad in (6.9, 6.0):
            with pytest.raises(ValueError):
                UTypeDesign(np.arange(1, 7).reshape(6, 1), q=bad)

    def test_levels_in_range(self):
        with pytest.raises(ValueError):
            UTypeDesign(np.array([[0], [1]]), q=2)

    def test_levels_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            UTypeDesign(np.array([1, 2]), q=2)

    def test_levels_are_read_only(self):
        design = random_utype(4, 4, 2, seed=0)
        with pytest.raises(ValueError):
            design.levels[0, 0] = 1


class TestRandomUtype:
    def test_n_equals_q_columns_are_permutations(self):
        design = random_utype(3, 3, 2, seed=5)
        assert column_multisets(design) == [[1, 2, 3], [1, 2, 3]]

    def test_balanced_with_repeats(self):
        design = random_utype(6, 3, 1, seed=5)
        assert column_multisets(design) == [[1, 1, 2, 2, 3, 3]]

    def test_seed_determinism(self):
        a = random_utype(8, 8, 3, seed=42)
        b = random_utype(8, 8, 3, seed=42)
        assert np.array_equal(a.levels, b.levels)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            random_utype(5, 2, 1, seed=0)
        # floats used to pass the check and fail with TypeError partway through
        for shape in ((6, 6, 3.0), (6.0, 6, 3), (6, 6.0, 3)):
            with pytest.raises(ValueError):
                random_utype(*shape, seed=0)


class TestEmbed:
    @pytest.mark.parametrize(
        "q,level,expected",
        [(9, 4, 3.5 / 9), (1, 1, 0.5), (18, 18, 17.5 / 18)],
    )
    def test_formula(self, q, level, expected):
        design = UTypeDesign(np.full((q, 1), 0) + np.arange(1, q + 1)[:, None], q)
        assert embed(design)[level - 1, 0] == pytest.approx(expected, abs=1e-15)

    def test_range_is_interior(self):
        design = random_utype(10, 10, 3, seed=1)
        x = embed(design)
        assert x.min() >= 0.5 / 10
        assert x.max() <= 9.5 / 10


def lattice_cache(design: UTypeDesign) -> DiscrepancyCache:
    return DiscrepancyCache(embed(design))


def swap_in_cache(cache: DiscrepancyCache, rng: np.random.Generator) -> float:
    """TA's neighbour move: draw a swap, preview it and commit it; return the committed CD2."""
    col, r1, r2 = (int(d[0]) for d in lattice._draw_swaps(rng, cache.n, cache.s, 1))
    preview = cache.preview_column_swap(r1, r2, col)
    assert cache.apply_column_swap(r1, r2, col) == preview
    return preview


def embedded_column_multisets(x: np.ndarray):
    return [sorted(x[:, j]) for j in range(x.shape[1])]


class TestTaNeighbor:
    """TA's in-cache neighbour: one level exchange within a column."""

    def test_preserves_column_multisets(self):
        rng = np.random.default_rng(0)
        design = random_utype(6, 3, 4, seed=2)
        cache = lattice_cache(design)
        for _ in range(20):
            swap_in_cache(cache, rng)
            assert embedded_column_multisets(cache.design) == \
                embedded_column_multisets(embed(design))
        assert cache.cd2 == pytest.approx(cd2(cache.design), rel=1e-12)

    def test_differs_in_exactly_two_cells_when_distinct(self):
        rng = np.random.default_rng(1)
        design = random_utype(5, 5, 3, seed=3)
        cache = lattice_cache(design)
        swap_in_cache(cache, rng)
        assert np.count_nonzero(cache.design != embed(design)) == 2

    def test_degenerate_single_level(self):
        rng = np.random.default_rng(2)
        design = random_utype(2, 1, 2, seed=4)
        cache = lattice_cache(design)
        before = cache.cd2
        assert swap_in_cache(cache, rng) == before
        assert np.array_equal(cache.design, embed(design))

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            lattice._draw_swaps(np.random.default_rng(0), 1, 1, 1)


class TestThresholdSequence:
    def test_matches_fresh_neighbor_probes(self):
        # the schedule base must be alpha times the CD2 range over probe swaps,
        # each scored here from scratch on a swapped copy of the levels
        design = random_utype(6, 6, 3, seed=7)
        cache = lattice_cache(design)
        schedule = threshold_sequence(
            cache, alpha=0.3, stages=5, probes=40, rng=np.random.default_rng(9)
        )
        rng = np.random.default_rng(9)
        values = []
        for col, r1, r2 in zip(*lattice._draw_swaps(rng, design.n, design.s, 40)):
            levels = design.levels.copy()
            levels[[r1, r2], col] = levels[[r2, r1], col]
            values.append(cd2(embed(UTypeDesign(levels, design.q))))
        assert schedule[0] == pytest.approx(0.3 * (max(values) - min(values)), rel=1e-9)
        # probing previews the swaps and leaves the cache as it was
        assert np.array_equal(cache.design, embed(design))
        assert cache.cd2 == lattice_cache(design).cd2

    def test_decay_proportions(self):
        design = random_utype(5, 5, 2, seed=8)
        schedule = threshold_sequence(
            lattice_cache(design), alpha=0.5, stages=4, probes=10, rng=np.random.default_rng(1)
        )
        assert len(schedule) == 5
        # ratios (I-i)/I: 3/4, 1/2, 1/4, 0 -> proportions 1, .75, .375, .09375, 0
        proportions = schedule / schedule[0]
        assert proportions == pytest.approx([1.0, 0.75, 0.375, 0.09375, 0.0], abs=1e-12)
        assert schedule[-1] == 0.0
        assert np.all(np.diff(schedule) <= 0)

    def test_single_stage(self):
        design = random_utype(4, 4, 2, seed=9)
        schedule = threshold_sequence(
            lattice_cache(design), alpha=0.2, stages=1, probes=5, rng=np.random.default_rng(2)
        )
        assert len(schedule) == 2
        assert schedule[1] == 0.0

    def test_zero_range_gives_zero_schedule(self):
        # a single-level design has only no-op swaps, so all probes tie
        design = random_utype(4, 1, 2, seed=10)
        schedule = threshold_sequence(
            lattice_cache(design), alpha=0.9, stages=3, probes=8, rng=np.random.default_rng(3)
        )
        assert np.all(schedule == 0.0)

    def test_one_row_draws_nothing(self):
        # a one-row design has no swap to probe
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        schedule = threshold_sequence(lattice_cache(random_utype(1, 1, 3, seed=0)), 0.5, 4, 10, rng)
        assert schedule.tolist() == [0.0] * 5
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n, q, s", [(2, 2, 1), (12, 3, 4), (18, 18, 7)])
    def test_probes_are_one_stage_draw(self, n, q, s):
        # probes and stage swaps come from one sampler: the schedule consumes
        # exactly one _draw_swaps call's worth of the stream
        rng, expected = np.random.default_rng(n), np.random.default_rng(n)
        threshold_sequence(lattice_cache(random_utype(n, q, s, seed=1)), 0.1, 5, 37, rng)
        lattice._draw_swaps(expected, n, s, 37)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_alpha_domain(self):
        cache = lattice_cache(random_utype(4, 4, 2, seed=11))
        with pytest.raises(ValueError):
            threshold_sequence(cache, 0.0, 3, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            threshold_sequence(cache, 1.0, 3, 5, np.random.default_rng(0))

    def test_stages_and_probes_domain(self):
        cache = lattice_cache(random_utype(4, 4, 2, seed=11))
        with pytest.raises(ValueError):
            threshold_sequence(cache, 0.5, 0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            threshold_sequence(cache, 0.5, 3, 0, np.random.default_rng(0))
        # non-integral counts are rejected up front, not by range() partway through
        for bad in (2.5, float("nan"), 3.0):
            with pytest.raises(ValueError):
                threshold_sequence(cache, 0.5, bad, 5, np.random.default_rng(0))
            with pytest.raises(ValueError):
                threshold_sequence(cache, 0.5, 3, bad, np.random.default_rng(0))
        assert len(threshold_sequence(cache, 0.5, np.int64(3), np.int32(5), np.random.default_rng(0))) == 4


def small_config(**overrides):
    params = dict(n=6, q=6, s=3, stages=4, probes=20, iterations_per_stage=100, seed=0)
    params.update(overrides)
    return TaConfig(**params)


class TestTaOptimize:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
    def test_config_rejects_alpha_outside_the_open_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            small_config(alpha=alpha)

    def test_never_worse_than_initial(self):
        config = small_config()
        result = ta_optimize(config)
        assert result.cd2 <= result.trace.records[0].cd2

    def test_result_matches_design(self):
        result = ta_optimize(small_config(seed=3))
        assert result.cd2 == pytest.approx(cd2(embed(result.design)), abs=1e-12)

    def test_result_is_balanced(self):
        result = ta_optimize(small_config(seed=5))
        UTypeDesign(result.design.levels, result.design.q)  # revalidates

    def test_bit_reproducible(self):
        a = ta_optimize(small_config(seed=9))
        b = ta_optimize(small_config(seed=9))
        assert np.array_equal(a.design.levels, b.design.levels)
        assert a.cd2 == b.cd2
        # the seconds column is wall time and differs between runs
        assert [r[:2] for r in a.trace.records] == [r[:2] for r in b.trace.records]

    def test_zero_schedule_is_descent_only(self):
        # with all thresholds at zero every accepted move improves or ties
        config = small_config(seed=13)
        result = ta_optimize(config, schedule=np.zeros(5))
        values = result.trace.cd2_values
        assert all(b - a <= 1e-15 for a, b in zip(values, values[1:]))
        assert result.cd2 <= values[0]

    @pytest.mark.parametrize("name", ["stages", "probes", "iterations_per_stage", "n", "q", "s"])
    def test_counts_must_be_integers(self, name):
        # 2.5 and NaN used to pass and then fail with TypeError partway through a run
        # (n = 6.0 ran to a result)
        for bad in (0, 2.5, float("nan"), 3.0):
            with pytest.raises(ValueError):
                small_config(**{name: bad})
        assert getattr(small_config(**{name: np.int64(6)}), name) == 6

    def test_trace_iterations_increase(self):
        result = ta_optimize(small_config(seed=21))
        iterations = [r.step for r in result.trace.records]
        assert iterations == sorted(iterations)
        assert iterations[0] == 0


def test_preview_swap_used_by_ta_matches_full_recompute():
    design = random_utype(7, 7, 4, seed=30)
    cache = DiscrepancyCache(embed(design))
    previewed = cache.preview_column_swap(1, 5, 2)
    swapped = embed(design).copy()
    swapped[[1, 5], 2] = swapped[[5, 1], 2]
    assert previewed == pytest.approx(cd2(swapped), abs=1e-12)


class TestDrawSwaps:
    def test_distinct_uniform_pairs_and_every_column(self):
        # the 20 ordered pairs of distinct rows each appear ~1000 times
        cols, rows1, rows2 = lattice._draw_swaps(np.random.default_rng(40), 5, 3, 20_000)
        assert all(v.shape == (20_000,) and v.dtype.kind == "i" for v in (cols, rows1, rows2))
        assert set(cols.tolist()) == {0, 1, 2}
        assert min(rows1.min(), rows2.min()) >= 0
        counts = np.zeros((5, 5), dtype=int)
        np.add.at(counts, (rows1, rows2), 1)
        assert np.all(np.diag(counts) == 0)
        assert np.all(np.abs(counts[~np.eye(5, dtype=bool)] - 1000) < 150)

    def test_two_rows(self):
        _, rows1, rows2 = lattice._draw_swaps(np.random.default_rng(42), 2, 4, 100)
        assert all({r1, r2} == {0, 1} for r1, r2 in zip(rows1.tolist(), rows2.tolist()))


def test_long_ta_run_cache_stays_exact(monkeypatch):
    # 50k O(n) swap commits at a paper size leave the cached arrays at
    # round-off from a rebuilt cache, and TA builds a single cache per run
    caches = []

    class RecordingCache(DiscrepancyCache):
        def __init__(self, design):
            super().__init__(design)
            caches.append(self)

    monkeypatch.setattr(lattice, "DiscrepancyCache", RecordingCache)
    config = TaConfig(n=27, q=27, s=13, stages=4, iterations_per_stage=10_000, seed=0)
    result = ta_optimize(config)
    assert len(caches) == 1
    cache = caches[0]
    fresh = DiscrepancyCache(cache.design)
    assert np.allclose(cache.row_products, fresh.row_products, rtol=1e-12, atol=0.0)
    assert np.allclose(cache.kernel, fresh.kernel, rtol=1e-12, atol=0.0)
    assert cache.cd2 == pytest.approx(qmc.discrepancy(cache.design, method="CD"), abs=1e-12)
    # the last stage ended with a re-sum, so re-summing again changes nothing
    value = cache.cd2
    assert cache.resum() == value
    assert result.cd2 == cd2(embed(result.design))


def assert_same_run(config, schedule=None):
    """``ta_optimize`` gives the design, cd2 and trace steps and values of the unscreened loop."""
    result = ta_optimize(config, schedule)
    expected = ta_optimize_reference(config, schedule)
    assert result.design.levels.tobytes() == expected.design.levels.tobytes()
    assert np.float64(result.cd2).tobytes() == np.float64(expected.cd2).tobytes()
    assert [r[:2] for r in result.trace.records] == [r[:2] for r in expected.trace.records]
    return result


class TestScreenedTa:
    """Screening swaps a block at a time leaves every decision of the exact loop."""

    @pytest.mark.parametrize("n, s, seed", [(18, 7, 123), (27, 13, 0)])
    def test_paper_sizes_at_the_default_budget(self, n, s, seed):
        result = assert_same_run(TaConfig(n=n, q=n, s=s, seed=seed))
        # the late stages reject nearly every swap, which is where screening runs
        assert len(result.trace.records) < 0.5 * 21 * 2000

    def test_noop_swaps_are_accepted(self):
        # with q = 3 a quarter of the swaps exchange equal levels: u == v
        # changes nothing, and its zero change passes every threshold >= 0
        assert_same_run(TaConfig(n=12, q=3, s=4, seed=5))
        assert_same_run(TaConfig(n=12, q=3, s=4, seed=6, stages=3), schedule=np.zeros(4))

    @pytest.mark.parametrize("n, q, s", [(2, 2, 3), (2, 1, 2), (1, 1, 3), (10, 10, 1), (6, 2, 1)])
    def test_degenerate_shapes(self, n, q, s):
        assert_same_run(TaConfig(n=n, q=q, s=s, seed=3, stages=3, iterations_per_stage=300))

    @pytest.mark.parametrize("schedule", [
        np.zeros(6),  # pure descent: the screen runs from the first stage on
        np.full(3, 1e9),  # every swap passes, so every block is cut at its first swap
        np.full(3, -1e-3),  # nothing passes, not even u == v
        np.full(3, -1e-18),  # u == v is rejected, but inside the screen's margin
        [1e-4, 0.0, -1e-4, np.inf, 0.0],
    ])
    def test_schedule_overrides(self, schedule):
        for q in (12, 3):
            assert_same_run(TaConfig(n=12, q=q, s=4, seed=8, iterations_per_stage=1500), schedule)

    @pytest.mark.parametrize("n", [64, 65])
    def test_either_side_of_the_shortest_block(self, n, monkeypatch):
        # at n = 64 the scratch cap still allows 16-swap blocks; at n = 65 TA
        # previews every swap
        screened = []
        deltas = DiscrepancyCache._swap_deltas
        monkeypatch.setattr(DiscrepancyCache, "_swap_deltas",
                            lambda cache, *swaps: screened.append(1) or deltas(cache, *swaps))
        assert_same_run(TaConfig(n=n, q=n, s=3, seed=4, stages=6, iterations_per_stage=1000))
        assert bool(screened) == (n == 64)

    @pytest.mark.parametrize("n, q, s, schedule", [
        (3, 3, 4, np.full(4, -1e-3)),  # every swap is rejected
        (2, 1, 3, np.zeros(4)),  # every swap is an accepted no-op
    ])
    def test_tiny_designs_screen_blocks_past_256(self, n, q, s, schedule, monkeypatch):
        # at n <= 3 only the scratch bound 2048 // 2n caps a block
        sizes = []
        deltas = DiscrepancyCache._swap_deltas
        monkeypatch.setattr(DiscrepancyCache, "_swap_deltas",
                            lambda cache, *swaps: sizes.append(len(swaps[2])) or deltas(cache, *swaps))
        assert_same_run(TaConfig(n=n, q=q, s=s, seed=0, stages=3), schedule)
        assert max(sizes) > 256

    def test_large_design_short_schedule(self):
        # the scratch cap would cut blocks to 2048 // (2 * 500) = 2 swaps, too
        # short to pay, so every swap gets the exact preview
        assert_same_run(TaConfig(n=500, q=500, s=10, seed=2, iterations_per_stage=300),
                        schedule=[1e-6, 0.0])

    @pytest.mark.parametrize("n, q, s", [(18, 18, 7), (27, 27, 13), (12, 3, 4)])
    def test_threshold_probes_are_exact_previews(self, n, q, s):
        design = random_utype(n, q, s, seed=n)
        schedule = threshold_sequence(lattice_cache(design), 0.1, 20, 100, np.random.default_rng(1))
        expected = threshold_schedule_reference(lattice_cache(design), 0.1, 20, 100,
                                                np.random.default_rng(1))
        assert schedule.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("error", [0.9, -0.9])
    def test_screen_error_inside_the_margin_changes_nothing(self, monkeypatch, error):
        # a screen off by 0.9 of the margin still skips no swap that passes;
        # threshold 0 and u == v swaps put exact changes right on the bound
        deltas = DiscrepancyCache._swap_deltas

        def off(cache, rows1, rows2, cols):
            shift = error * discrepancy._SCREEN_RTOL * cache.term_scale
            return deltas(cache, rows1, rows2, cols) + shift

        monkeypatch.setattr(DiscrepancyCache, "_swap_deltas", off)
        assert_same_run(TaConfig(n=12, q=3, s=4, seed=9, stages=3), schedule=np.zeros(4))
        assert_same_run(TaConfig(n=18, q=18, s=7, seed=9, stages=6))

    def test_screened_blocks_replace_most_previews(self, monkeypatch):
        calls = {"preview": 0, "screened": 0}
        preview, deltas = DiscrepancyCache.preview_column_swap, DiscrepancyCache._swap_deltas

        def counted_preview(cache, *args):
            calls["preview"] += 1
            return preview(cache, *args)

        def counted_deltas(cache, rows1, rows2, cols):
            calls["screened"] += len(cols)
            return deltas(cache, rows1, rows2, cols)

        monkeypatch.setattr(DiscrepancyCache, "preview_column_swap", counted_preview)
        monkeypatch.setattr(DiscrepancyCache, "_swap_deltas", counted_deltas)
        config = TaConfig(n=18, q=18, s=7, seed=123)
        ta_optimize(config)
        # 100 threshold probes plus one preview per swap would be 42,100
        assert calls["preview"] < 0.5 * 42_100
        assert calls["screened"] > 0

    def test_peak_memory_is_about_one_kernel(self):
        # the run's cache is released before the final from-scratch CD2
        # builds its kernel, so the two are never alive together
        n = 1000
        config = TaConfig(n=n, q=n, s=3, seed=4, stages=2, probes=10, iterations_per_stage=200)
        tracemalloc.start()
        try:
            ta_optimize(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n
