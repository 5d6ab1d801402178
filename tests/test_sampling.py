import numpy as np
import pytest

from unidesign import (
    RefinerConfig,
    TaConfig,
    UTypeDesign,
    cd2,
    cgd,
    embed,
    lhd,
    lhs,
    mlhs,
    random_utype,
    ta_optimize,
)


class TestLhd:
    def test_columns_are_permutations(self):
        design = lhd(8, 4, seed=0)
        for j in range(4):
            assert sorted(design.levels[:, j]) == list(range(1, 9))

    def test_single_run(self):
        assert lhd(1, 3, seed=1).levels.tolist() == [[1, 1, 1]]

    def test_seed_determinism(self):
        assert np.array_equal(lhd(6, 3, seed=7).levels, lhd(6, 3, seed=7).levels)

    def test_validation(self):
        with pytest.raises(ValueError):
            lhd(0, 2, seed=0)

    def test_is_read_only_utype_design_with_q_equal_n(self):
        design = lhd(7, 3, seed=2)
        assert isinstance(design, UTypeDesign)
        assert design.q == design.n == 7
        assert not design.levels.flags.writeable
        with pytest.raises(ValueError):
            design.levels[0, 0] = 1

    def test_utype_rejects_non_permutation_column_at_q_equal_n(self):
        # the Latin hypercube check: at q = n each level appears exactly once
        with pytest.raises(ValueError, match="not balanced"):
            UTypeDesign(np.array([[1, 1], [2, 1], [3, 3]]), q=3)


@pytest.mark.parametrize("sampler", [lhd, lhs, mlhs])
@pytest.mark.parametrize("n, s", [(3.5, 2), (float("nan"), 2), (2, 3.5), (2, float("nan"))])
def test_samplers_reject_non_count_shapes(sampler, n, s):
    # a fractional or NaN run or factor count is a ValueError, not a numpy error
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        sampler(n, s, seed=0)


class TestPinnedStreams:
    """Sampler outputs recorded while ``lhd`` still had its own design type, compared exactly.

    ``bench --sampler`` designs and the sampling acceptance criterion depend
    on these streams, so they must not move between versions.
    """

    def test_lhd(self):
        assert lhd(5, 3, seed=1).levels.tolist() == [
            [5, 5, 1], [2, 2, 2], [3, 1, 5], [4, 4, 3], [1, 3, 4]]

    def test_lhs(self):
        expected = np.array([float.fromhex(h) for h in (
            "0x1.fefd75d778e20p-1", "0x1.4f840f6a24ff5p-2",
            "0x1.1760e445af199p-2", "0x1.9c8a88f8dd44fp-1",
            "0x1.312cd6bab30b7p-1", "0x1.0c9573ccd192ep-1",
        )]).reshape(3, 2)
        assert lhs(3, 2, seed=4).tobytes() == expected.tobytes()

    def test_mlhs(self):
        expected = np.array([[0.375, 0.375], [0.875, 0.875], [0.125, 0.625], [0.625, 0.125]])
        assert mlhs(4, 2, seed=9).tobytes() == expected.tobytes()

    def test_random_utype(self):
        expected = np.array([[2, 2], [3, 1], [2, 3], [3, 2], [1, 1], [1, 3]], dtype=np.int64)
        assert random_utype(6, 3, 2, seed=2).levels.tobytes() == expected.tobytes()


class TestLhs:
    def test_entries_strictly_inside_unit_interval(self):
        x = lhs(10, 4, seed=2)
        assert x.min() > 0.0
        assert x.max() < 1.0

    def test_stratification_identity(self):
        # floor(n x) + 1 must hit every stratum of every column exactly once
        for seed in range(3):
            x = lhs(9, 3, seed=seed)
            strata = np.floor(9 * x).astype(int) + 1
            for j in range(3):
                assert sorted(strata[:, j]) == list(range(1, 10))

    def test_single_run_is_one_minus_uniform(self):
        x = lhs(1, 1, seed=3)
        assert 0.0 < x[0, 0] < 1.0

    def test_seed_determinism(self):
        assert np.array_equal(lhs(7, 2, seed=11), lhs(7, 2, seed=11))

    def test_empirical_mean_is_half(self):
        # E[x] = (E[pi] - 1/2)/n = 1/2; Monte Carlo over many seeded draws
        total = 0.0
        count = 0
        for seed in range(10_000):
            x = lhs(2, 1, seed=seed)
            total += x.sum()
            count += x.size
        assert total / count == pytest.approx(0.5, abs=0.01)


class TestMlhs:
    def test_single_run_is_center(self):
        assert mlhs(1, 1, seed=4).tolist() == [[0.5]]

    def test_columns_are_midpoint_lattice(self):
        n = 6
        x = mlhs(n, 3, seed=5)
        expected = (np.arange(1, n + 1) - 0.5) / n
        for j in range(3):
            assert np.array_equal(np.sort(x[:, j]), expected)

    def test_matches_utype_embedding(self):
        # an MLHS sample is exactly the embedding of a U-type design with q=n
        n, s, seed = 5, 2, 6
        x = mlhs(n, s, seed)
        utype = UTypeDesign(lhd(n, s, seed).levels, q=n)
        assert np.array_equal(x, embed(utype))

    def test_seed_determinism(self):
        assert np.array_equal(mlhs(6, 2, seed=8), mlhs(6, 2, seed=8))


def test_random_samples_are_less_uniform_than_optimized_designs():
    # a modest construction budget already beats the MLHS average on 18x7
    config = TaConfig(n=18, q=18, s=7, stages=5, probes=50,
                      iterations_per_stage=500, seed=0)
    optimized = cgd(embed(ta_optimize(config).design), RefinerConfig(max_epochs=40))
    average = np.mean([cd2(mlhs(18, 7, seed=k)) for k in range(10)])
    assert average > optimized.cd2
