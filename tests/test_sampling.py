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
    ta_optimize,
)


class TestLhd:
    def test_columns_are_permutations(self):
        design = lhd(8, 4, seed=0)
        for j in range(4):
            assert sorted(design.perms[:, j]) == list(range(1, 9))

    def test_single_run(self):
        assert lhd(1, 3, seed=1).perms.tolist() == [[1, 1, 1]]

    def test_seed_determinism(self):
        assert np.array_equal(lhd(6, 3, seed=7).perms, lhd(6, 3, seed=7).perms)

    def test_validation(self):
        with pytest.raises(ValueError):
            lhd(0, 2, seed=0)


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
        utype = UTypeDesign(lhd(n, s, seed).perms, q=n)
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
