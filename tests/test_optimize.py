import numpy as np
import pytest

from unidesign import (
    DiscrepancyCache,
    RefinerConfig,
    TaConfig,
    cd2,
    cdfss,
    cgd,
    czg,
    embed,
    optimize,
    ta_optimize,
)
from unidesign import cli
from conftest import UD18X7_CD2
from oracles import cdfss_reference, cgd_reference, czg_reference


def random_design(n, s, seed):
    return np.random.default_rng(seed).random((n, s))


def assert_refine_invariants(result, init):
    assert result.cd2 <= cd2(init) + 1e-15
    assert result.cd2 == pytest.approx(cd2(result.design), abs=1e-12)
    assert result.design.min() >= 0.0
    assert result.design.max() <= 1.0


class TestCgd:
    def test_zero_step_is_a_noop(self):
        init = random_design(5, 3, seed=0)
        result = cgd(init, RefinerConfig(step_size=0.0))
        assert np.array_equal(result.design, init)
        assert result.termination == "converged"
        assert len(result.trace.records) == 2  # initial + first epoch

    def test_single_point_converges_to_center(self):
        result = cgd([[0.3]], RefinerConfig(max_epochs=2000))
        values = result.trace.cd2_values
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert result.design[0, 0] == pytest.approx(0.5, abs=1e-3)
        assert result.cd2 == pytest.approx(1 / 12, abs=1e-6)

    def test_published_design_is_a_fixed_point(self, ud18x7):
        result = cgd(ud18x7)
        assert result.cd2 <= UD18X7_CD2 + 1e-6
        assert result.termination == "converged"

    def test_deterministic(self):
        init = random_design(6, 3, seed=1)
        a = cgd(init, RefinerConfig(max_epochs=20))
        b = cgd(init, RefinerConfig(max_epochs=20))
        assert np.array_equal(a.design, b.design)
        assert a.cd2 == b.cd2

    def test_invariants_on_random_inits(self):
        for seed in range(3):
            init = random_design(7, 4, seed=seed)
            assert_refine_invariants(cgd(init, RefinerConfig(max_epochs=30)), init)


class TestCzg:
    def test_center_point_is_fixed(self):
        result = czg([[0.5]])
        assert result.design[0, 0] == 0.5
        assert result.termination == "converged"

    def test_best_so_far_despite_fluctuations(self):
        init = random_design(18, 7, seed=2)
        result = czg(init, RefinerConfig(max_epochs=50))
        assert_refine_invariants(result, init)

    def test_guarded_epochs_never_increase(self):
        init = random_design(9, 4, seed=3)
        result = czg(init, RefinerConfig(max_epochs=40, guarded=True))
        values = result.trace.cd2_values
        assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))
        assert_refine_invariants(result, init)

    def test_t_max_depth_changes_solution(self):
        init = random_design(8, 3, seed=4)
        one = czg(init, RefinerConfig(max_epochs=5, t_max=1))
        three = czg(init, RefinerConfig(max_epochs=5, t_max=3))
        assert_refine_invariants(one, init)
        assert_refine_invariants(three, init)
        assert not np.array_equal(one.design, three.design)


class TestCycleStop:
    def test_unguarded_czg_stops_at_its_limit_cycle(self, monkeypatch):
        init = embed(ta_optimize(TaConfig(n=27, q=27, s=13, seed=0)).design)
        result = czg(init)
        assert result.termination == "cycle"
        assert len(result.trace.records) - 1 < 50
        assert_refine_invariants(result, init)
        # with the rule off the sweeps repeat their cycle until max_epochs
        monkeypatch.setattr(optimize, "_CYCLE_WINDOW", 0)
        full = czg(init, RefinerConfig(max_epochs=1000))
        assert full.termination == "max_epochs"
        assert abs(result.cd2 - full.cd2) <= 1e-13

    def test_tiny_cdfss_steps_are_not_a_cycle(self):
        # each epoch moves the point by 1e-12, well inside the cycle tolerance
        result = cdfss([[0.3]], RefinerConfig(column_steps=[1e-12], max_epochs=5))
        assert result.termination == "max_epochs"
        assert len(result.trace.records) == 6


class TestCdfss:
    def test_single_point_reaches_center_on_grid(self):
        result = cdfss([[0.3]], RefinerConfig(column_steps=[0.1], max_epochs=20))
        assert result.design[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert result.cd2 == pytest.approx(1 / 12, abs=1e-12)
        assert result.termination == "no_improving_move"
        assert len(result.trace.records) == 3  # initial + two improving epochs

    def test_grid_local_minimum_returns_input(self):
        result = cdfss([[0.5]], RefinerConfig(column_steps=[0.1], max_epochs=20))
        assert result.design[0, 0] == 0.5
        assert result.termination == "no_improving_move"
        assert len(result.trace.records) == 1

    def test_trace_strictly_decreasing(self):
        init = random_design(6, 3, seed=5)
        result = cdfss(init, RefinerConfig(max_epochs=200))
        values = result.trace.cd2_values
        assert all(b < a for a, b in zip(values, values[1:]))
        assert result.termination in ("no_improving_move", "max_epochs")
        assert_refine_invariants(result, init)

    def test_moves_stay_on_column_grids(self):
        init = random_design(5, 3, seed=6)
        steps = np.array([0.05, 0.1, 0.25])
        result = cdfss(init, RefinerConfig(column_steps=steps, max_epochs=100))
        moved = result.design - init
        for j, step in enumerate(steps):
            for i in range(init.shape[0]):
                v = result.design[i, j]
                if v in (0.0, 1.0):  # clamped entries may leave the grid
                    continue
                multiple = moved[i, j] / step
                assert multiple == pytest.approx(round(multiple), abs=1e-9)

    def test_column_steps_length_checked(self):
        with pytest.raises(ValueError):
            cdfss(random_design(4, 3, seed=7), RefinerConfig(column_steps=[0.1, 0.2]))


class TestRefinePipeline:
    """TA's best lattice design, embedded, then a refiner: the two phases of ``construct``."""

    def test_improves_on_ta_result(self):
        config = TaConfig(n=6, q=6, s=3, stages=4, probes=20,
                          iterations_per_stage=100, seed=1)
        ta_result = ta_optimize(config)
        result = cgd(embed(ta_result.design), RefinerConfig(max_epochs=50))
        assert result.trace.records[0].cd2 == pytest.approx(
            cd2(embed(ta_result.design)), abs=1e-12
        )
        assert result.cd2 <= ta_result.cd2 + 1e-15

    @pytest.mark.parametrize("refiner", ["cgd", "czg", "cdfss"])
    def test_all_refiners_accepted(self, refiner):
        config = TaConfig(n=4, q=4, s=2, stages=2, probes=10,
                          iterations_per_stage=30, seed=2)
        result = optimize._REFINERS[refiner](embed(ta_optimize(config).design),
                                             RefinerConfig(max_epochs=10))
        assert 0.0 <= result.design.min() and result.design.max() <= 1.0

    def test_unknown_refiner_rejected(self, capsys):
        # construct names its refiner through --algo; argparse refuses one not in _REFINERS
        assert "sgd" not in optimize._REFINERS
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["construct", "--algo", "ta+sgd", "--n", "4", "--q", "4", "--s", "2"])
        assert excinfo.value.code == 2
        assert "ta+sgd" in capsys.readouterr().err


def test_different_initializations_reach_different_minima():
    # uniform random, all-zeros and all-ones starts must not all collapse
    # to one value on the 18x7 problem
    config = RefinerConfig(max_epochs=60)
    finals = [
        cgd(random_design(18, 7, seed=123), config).cd2,
        cgd(np.zeros((18, 7)), config).cd2,
        cgd(np.ones((18, 7)), config).cd2,
    ]
    assert max(finals) - min(finals) > 1e-4


def test_config_validation():
    for bad in (-0.1, -float("inf")):
        with pytest.raises(ValueError):
            RefinerConfig(step_size=bad)
    with pytest.raises(ValueError):
        RefinerConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        RefinerConfig(max_epochs=0)
    with pytest.raises(ValueError):
        RefinerConfig(t_max=0)
    # counts must be integers: 2.5 and NaN used to raise TypeError from range() mid-run
    for bad in (2.5, float("nan"), 3.0):
        with pytest.raises(ValueError):
            RefinerConfig(max_epochs=bad)
        with pytest.raises(ValueError):
            RefinerConfig(t_max=bad)
    assert RefinerConfig(max_epochs=np.int64(5), t_max=np.int32(2)).max_epochs == 5
    with pytest.raises(ValueError):
        RefinerConfig(column_steps=[0.1, -0.2])
    # NaN fails every comparison, so each bound must reject it explicitly
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RefinerConfig(step_size=bad)
        with pytest.raises(ValueError):
            RefinerConfig(column_steps=[0.1, bad])
        with pytest.raises(ValueError):
            RefinerConfig(epsilon=bad)


def _design(kind, n, s, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random((n, s))
    if kind == "lattice":
        return (np.argsort(rng.random((n, s)), axis=0) + 0.5) / n
    # kinks at 0.5, ties within columns and points on the boundary
    return rng.integers(0, 5, (n, s)) / 4


_REFERENCES = {"cgd": (cgd, cgd_reference), "czg": (czg, czg_reference),
               "cdfss": (cdfss, cdfss_reference)}


@pytest.mark.parametrize("kind", ["random", "lattice", "kinks"])
@pytest.mark.parametrize("name", sorted(_REFERENCES))
def test_refiners_match_per_visit_reference_bit_for_bit(name, kind):
    # the row-blocked sweeps and the one-pass CDFSS scoring must reproduce
    # one public cache call per visit exactly: design bytes, CD2,
    # termination and every (step, cd2) trace record
    refine, reference = _REFERENCES[name]
    for seed, (n, s) in enumerate([(1, 1), (1, 3), (5, 1), (2, 2), (7, 4), (12, 5)]):
        configs = [
            RefinerConfig(max_epochs=25),
            RefinerConfig(max_epochs=15, step_size=0.07, t_max=3),
            RefinerConfig(max_epochs=15, guarded=True, epsilon=1e-6),
            RefinerConfig(max_epochs=15, guarded=True, t_max=2,
                          column_steps=np.linspace(0.03, 0.3, s)),
        ]
        init = _design(kind, n, s, seed)
        for config in configs:
            result = refine(init, config)
            design, value, termination, trace = reference(init, config)
            assert result.design.tobytes() == design.tobytes()
            assert result.cd2 == value
            assert result.termination == termination
            assert [(r.step, r.cd2) for r in result.trace.records] == trace


def test_cdfss_rolls_back_a_commit_that_does_not_improve(monkeypatch):
    # from a design where no move improves, a preview that reads 1.0 too low picks a move
    # whose commit does not lower CD2: the commit is undone and the run stops
    init = cdfss(random_design(5, 2, seed=21), RefinerConfig(max_epochs=1000)).design
    start = DiscrepancyCache(init)
    preview, update = DiscrepancyCache.preview_update, DiscrepancyCache.update
    updates = []

    def recorded(cache, i, j, value):
        updates.append((i, j, value))
        return update(cache, i, j, value)

    monkeypatch.setattr(DiscrepancyCache, "preview_update", lambda *a: preview(*a) - 1.0)
    monkeypatch.setattr(DiscrepancyCache, "update", recorded)
    result = cdfss(init, RefinerConfig(max_epochs=5))
    assert result.termination == "no_improving_move"
    assert np.array_equal(result.design, init) and result.cd2 == start.cd2
    (i, j, moved), undo = updates
    assert moved != init[i, j] and undo == (i, j, init[i, j])


def test_cdfss_exact_tie_goes_to_first_move():
    # rows 2 and 3 mirror rows 0 and 1 about 0.5, so moving x_10 down and
    # x_30 up give mirror-image designs whose previews tie exactly; the
    # one-pass scores order them the other way round here (numpy 2.4,
    # x86-64), and the first move in (i, j, +, -) order must still win
    half = np.array([[0.5293121601967704, 0.7857857007138075],
                     [0.4146558493556708, 0.7344835717887294]])
    init = np.vstack([half, 1.0 - half])
    cache = DiscrepancyCache(init)
    step = 1.0 / 8
    first = cache.preview_update(1, 0, init[1, 0] - step)
    assert first == cache.preview_update(3, 0, init[3, 0] + step) < cache.cd2
    _, values = cache.preview_steps(np.full(2, step))
    assert first == pytest.approx(values.min(), rel=1e-14)
    result = cdfss(init, RefinerConfig(max_epochs=1))
    moved = np.argwhere(result.design != init)
    assert moved.tolist() == [[1, 0]]
    assert result.design[1, 0] == init[1, 0] - step
    design, _, _, _ = cdfss_reference(init, RefinerConfig(max_epochs=1))
    assert result.design.tobytes() == design.tobytes()
