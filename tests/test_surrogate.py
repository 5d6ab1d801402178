import json

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from unidesign import (
    TaConfig,
    basis_matrix,
    constant,
    embed,
    evaluate_mse,
    get_test_function,
    kriging_fit,
    kriging_predict,
    lhs,
    mlhs,
    scale_design,
    ta_optimize,
)
from unidesign import cli, surrogate
from unidesign.surrogate import _profiled_fit, _sq_diff
from oracles import kriging_fit_reference, profiled_fit_reference


def training_set(n=12, s=3, seed=5):
    x = np.random.default_rng(seed).random((n, s))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2 + 0.3 * x[:, 2]
    return x, y


class TestBasisMatrix:
    def test_poly0_is_constant_column(self):
        f = basis_matrix(np.random.default_rng(0).random((4, 3)), "poly0")
        assert f.shape == (4, 1)
        assert np.all(f == 1.0)

    def test_poly1_size(self):
        f = basis_matrix(np.zeros((4, 3)), "poly1")
        assert f.shape == (4, 4)

    def test_poly2_full_quadratic_size(self):
        # 1 + s + s(s+1)/2 columns, cross terms included
        f = basis_matrix(np.zeros((4, 3)), "poly2")
        assert f.shape == (4, 1 + 3 + 6)

    def test_poly2_values(self):
        f = basis_matrix(np.array([[2.0, 3.0]]), "poly2")
        assert f.tolist() == [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]]

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            basis_matrix(np.zeros((2, 2)), "poly3")


class TestKrigingFit:
    @pytest.mark.parametrize("basis", ["poly0", "poly1", "poly2"])
    def test_interpolates_training_data(self, basis):
        x, y = training_set()
        model = kriging_fit(x, y, basis)
        pred = kriging_predict(model, x)
        rel = np.abs(pred - y) / np.maximum(np.abs(y), 1e-12)
        assert rel.max() < 1e-6

    def test_constant_data_predicts_constant(self):
        x, _ = training_set(n=8)
        model = kriging_fit(x, np.full(8, 3.25), "poly0")
        pts = np.random.default_rng(1).random((20, 3))
        assert kriging_predict(model, pts) == pytest.approx(np.full(20, 3.25), abs=1e-8)

    def test_duplicate_rows_rejected(self):
        x = np.array([[0.1, 0.2], [0.1, 0.2], [0.7, 0.6]])
        with pytest.raises(ValueError, match="duplicate"):
            kriging_fit(x, np.arange(3.0), "poly0")

    def test_underdetermined_trend_rejected(self):
        x, y = training_set(n=9, s=4, seed=2)
        with pytest.raises(ValueError, match="trend"):
            kriging_fit(x, y, "poly2")  # needs n > 15

    def test_y_length_checked(self):
        x, _ = training_set()
        with pytest.raises(ValueError):
            kriging_fit(x, np.zeros(5), "poly0")

    def test_theta_bounds_checked(self):
        x, y = training_set()
        with pytest.raises(ValueError):
            kriging_fit(x, y, "poly0", theta_bounds=(0.0, 10.0))

    @pytest.mark.parametrize("kwargs, match", [
        pytest.param({"theta": [np.nan, 1.0, 1.0]}, "theta must be", id="theta-nan"),
        pytest.param({"theta": [np.inf, 1.0, 1.0]}, "theta must be", id="theta-inf"),
        pytest.param({"theta": [0.0, 1.0, 1.0]}, "theta must be", id="theta-zero"),
        pytest.param({"theta_bounds": (np.nan, 1.0)}, "theta_bounds", id="bounds-low-nan"),
        pytest.param({"theta_bounds": (1e-2, np.nan)}, "theta_bounds", id="bounds-high-nan"),
        pytest.param({"theta_bounds": (1e-2, np.inf)}, "theta_bounds", id="bounds-high-inf"),
        pytest.param({"theta_bounds": (1.0, 1.0)}, "theta_bounds", id="bounds-empty"),
        pytest.param({"theta_bounds": (1e-2,)}, "theta_bounds", id="bounds-one-value"),
        pytest.param({"theta_bounds": (1e-2, 1.0, 1e2)}, "theta_bounds", id="bounds-three-values"),
        pytest.param({"nugget": np.nan}, "nugget", id="nugget-nan"),
        pytest.param({"nugget": np.inf}, "nugget", id="nugget-inf"),
        pytest.param({"nugget": -1.0}, "nugget", id="nugget-negative"),
    ])
    def test_bad_settings_rejected_before_any_solve(self, monkeypatch, kwargs, match):
        def fail(*args):
            raise AssertionError("solved before the settings were checked")

        monkeypatch.setattr(surrogate, "_profiled_fit", fail)
        x, y = training_set()
        with pytest.raises(ValueError, match=match):
            kriging_fit(x, y, "poly0", **kwargs)

    def test_likelihood_not_worse_than_any_start(self):
        x, y = training_set(seed=9)
        model = kriging_fit(x, y, "poly0")
        f = basis_matrix(x, "poly0")
        d2 = _sq_diff(x, x)
        for t0 in np.geomspace(1e-2, 1e2, 8):
            nll_start = _profiled_fit(d2, y, f, np.full(x.shape[1], t0), model.nugget)[4]
            assert model.log_likelihood >= -0.5 * nll_start - 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_y_rejected(self, bad):
        x, y = training_set()
        y[[2, 7]] = bad
        with pytest.raises(ValueError, match="y has 2 non-finite"):
            kriging_fit(x, y, "poly0")
        with pytest.raises(ValueError, match="y has 2 non-finite"):
            kriging_fit(x, y, "poly0", theta=np.ones(3))

    def test_deterministic(self):
        x, y = training_set(seed=11)
        a = kriging_fit(x, y, "poly1")
        b = kriging_fit(x, y, "poly1")
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.beta, b.beta)


def assert_same_fit(model, reference, points):
    for field in ("theta", "beta", "gamma", "chol"):
        a, b = getattr(model, field), getattr(reference, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert model.sigma2 == reference.sigma2
    assert model.log_likelihood == reference.log_likelihood
    assert kriging_predict(model, points).tobytes() == kriging_predict(reference, points).tobytes()


class TestBitIdenticalToReference:
    """The fit matches scipy.linalg's wrappers without a memo, bit for bit."""

    @pytest.mark.parametrize("n, s, seed", [(6, 1, 0), (9, 2, 1), (13, 3, 2), (16, 4, 3),
                                            (21, 2, 4), (27, 4, 5)])
    @pytest.mark.parametrize("basis", ["poly0", "poly1", "poly2"])
    def test_random_mlhs(self, n, s, seed, basis):
        x = mlhs(n, s, seed=seed)
        if n <= basis_matrix(x, basis).shape[1]:
            pytest.skip("trend larger than the design")
        y = np.sin(4.0 * x).sum(axis=1) + 2.0 * x[:, 0] ** 2
        pts = np.random.default_rng(seed).random((40, s))
        assert_same_fit(kriging_fit(x, y, basis), kriging_fit_reference(x, y, basis), pts)

    @pytest.mark.parametrize("basis", ["poly0", "poly1", "poly2"])
    def test_camelback_20x2(self, basis):
        ta = ta_optimize(TaConfig(n=20, q=20, s=2, seed=0, stages=4, probes=50,
                                  iterations_per_stage=500))
        x = embed(ta.design)
        fn = get_test_function("camelback")
        y = fn(scale_design(x, fn.bounds))
        pts = np.random.default_rng(0).random((40, 2))
        assert_same_fit(kriging_fit(x, y, basis), kriging_fit_reference(x, y, basis), pts)

    def test_constant_y(self):
        x = mlhs(8, 2, seed=8)
        y = np.full(8, -1.5)
        pts = np.random.default_rng(1).random((20, 2))
        assert_same_fit(kriging_fit(x, y, "poly1"), kriging_fit_reference(x, y, "poly1"), pts)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_failing_starts(self, monkeypatch):
        # without a nugget the smallest scales leave R numerically singular
        x = mlhs(20, 2, seed=3)
        y = np.sin(5.0 * x).sum(axis=1)
        failures = []
        solve = surrogate._profiled_fit

        def counting(*args):
            try:
                return solve(*args)
            except np.linalg.LinAlgError:
                failures.append(args[3])
                raise

        monkeypatch.setattr(surrogate, "_profiled_fit", counting)
        kw = dict(theta_bounds=(1e-6, 1e2), nugget=0.0)
        model = kriging_fit(x, y, "poly0", **kw)
        assert failures
        pts = np.random.default_rng(2).random((20, 2))
        assert_same_fit(model, kriging_fit_reference(x, y, "poly0", **kw), pts)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_hopeless_starts_end_early(self, monkeypatch):
        # the smallest scales of test_failing_starts fail at every simplex
        # vertex; such a start must end, not wander for all 400 * s iterations
        x = mlhs(20, 2, seed=3)
        y = np.sin(5.0 * x).sum(axis=1)
        results = []
        search = surrogate.minimize
        monkeypatch.setattr(surrogate, "minimize",
                            lambda *a, **kw: results.append(search(*a, **kw)) or results[-1])
        kriging_fit(x, y, "poly0", theta_bounds=(1e-6, 1e2), nugget=0.0)
        hopeless = [r.nfev for r in results if r.fun == np.inf]
        assert hopeless and max(hopeless) <= 10


@pytest.mark.parametrize("n, s, basis", [(7, 1, "poly0"), (12, 3, "poly1"), (27, 4, "poly2"),
                                         (140, 15, "poly2")])
def test_one_solve_matches_reference(n, s, basis):
    # 140x15 poly2 has 136 trend columns, past LAPACK's unblocked-QR crossover
    # (128), so the QR workspace decides the blocking and hence the bits
    x = mlhs(n, s, seed=n)
    y = np.cos(3.0 * x).sum(axis=1)
    f = basis_matrix(x, basis)
    for theta in np.random.default_rng(s).uniform(0.05, 50.0, (3, s)):
        got = _profiled_fit(_sq_diff(x, x), y, f, theta, 1e-10)
        want = profiled_fit_reference(x, y, f, theta, 1e-10)
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_repeated_clipped_theta_is_solved_once(monkeypatch):
    # the end starts sit on the theta bounds, so Nelder-Mead steps outside
    # them clip back onto scales that were already solved
    x, y = training_set(seed=4)
    solves = []
    nfev = []
    solve, search = surrogate._profiled_fit, surrogate.minimize
    monkeypatch.setattr(surrogate, "_profiled_fit",
                        lambda *args: solves.append(args[3]) or solve(*args))

    def counted_search(*args, **kwargs):
        res = search(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(surrogate, "minimize", counted_search)
    model = kriging_fit(x, y, "poly0")
    assert len(solves) - 1 < sum(nfev)  # the last solve is the final fit
    distinct = {t.tobytes() for t in solves[:-1]}
    assert len(distinct) == len(solves) - 1
    assert model.log_likelihood == kriging_fit_reference(x, y, "poly0").log_likelihood


def _objective(g):
    """``g`` on a float array, for SciPy's array vertices and the search's float lists."""
    return lambda v: g(np.asarray(v, dtype=float))


SEARCHES = {
    "rosenbrock": (_objective(lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2),
                   [-1.2, 1.0]),
    "weighted-quadratic": (_objective(lambda x: np.sum(np.arange(1.0, 6.0)
                                                       * (x - [1.0, -1.0, 0.5, 2.0, 0.0]) ** 2)),
                           [0.0, 1.0, -2.0, 0.5, 3.0]),
    "clipped-plateau": (_objective(lambda x: np.sum(np.clip(x, -1.0, 1.0) ** 2)), [3.0, -2.5, 4.0]),
    "steps-with-ties": (_objective(lambda x: np.floor(4.0 * x[0]) + np.floor(4.0 * x[1]) ** 2),
                        [1.3, -0.7]),
    # x0 and its first vertex tie above a tie of the other two, an order that
    # numpy's argsort can reorder and a stable sort keeps
    "tied-floors": (_objective(lambda x: np.sum(np.floor((x - [0.0, 3.0, 3.0]) ** 2))),
                    [1.0, 0.96, 0.96]),
    "inf-below-half": (_objective(lambda x: np.inf if x[0] < 0.5 else (x[0] - 1.0) ** 2 + x[1] ** 2),
                       [0.49, 1.0]),
    "all-inf": (_objective(lambda x: np.inf), [1.0, 2.0]),
    "one-dimensional": (_objective(lambda x: np.abs(x[0] - 2.0) ** 1.5), [0.0]),
    # its ripples make an outside contraction worse than the reflection, then a shrink
    "rippled-bowl": (_objective(lambda x: np.sum(x ** 2 + 0.3 * np.sin(30.0 * x) ** 2)), [1.5, -2.0]),
}


@pytest.mark.parametrize("maxiter", [5, 60, 1600])
@pytest.mark.parametrize("name", SEARCHES)
def test_search_takes_scipys_nelder_mead_steps(name, maxiter):
    # SciPy passes the iteration's result only to a parameter of this name
    def stop_if_hopeless(intermediate_result):
        if intermediate_result.fun == np.inf:
            raise StopIteration

    fun, x0 = SEARCHES[name]
    got = surrogate.minimize(fun, np.array(x0), maxiter, xatol=1e-4, fatol=1e-10)
    want = scipy_minimize(fun, np.array(x0), method="Nelder-Mead", callback=stop_if_hopeless,
                          options={"xatol": 1e-4, "fatol": 1e-10, "maxiter": maxiter})
    assert got.x.tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert got.nfev == want.nfev


class TestKrigingPredict:
    def test_far_extrapolation_reverts_to_trend(self):
        x, y = training_set()
        model = kriging_fit(x, y, "poly0")
        with pytest.warns(RuntimeWarning, match="extrapolating"):
            far = kriging_predict(model, np.full((1, 3), 40.0))
        assert far[0] == pytest.approx(model.beta[0], abs=1e-8)

    def test_inside_domain_does_not_warn(self):
        import warnings

        x, y = training_set()
        model = kriging_fit(x, y, "poly0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kriging_predict(model, np.full((1, 3), 0.5))

    def test_row_permutation_invariance(self):
        x, y = training_set(seed=13)
        order = np.random.default_rng(0).permutation(len(y))
        a = kriging_fit(x, y, "poly0")
        # the GLS/BLUP path is exactly invariant at fixed scales; the scale
        # search itself is only stable to optimizer precision
        b = kriging_fit(x[order], y[order], "poly0", theta=a.theta)
        c = kriging_fit(x[order], y[order], "poly0")
        pts = np.random.default_rng(2).random((10, 3))
        assert kriging_predict(a, pts) == pytest.approx(kriging_predict(b, pts), abs=1e-8)
        assert kriging_predict(a, pts) == pytest.approx(kriging_predict(c, pts), abs=1e-5)

    def test_reflection_symmetric_model(self):
        # mirror-closed design with mirror-invariant outputs must predict
        # symmetrically under x -> 1 - x
        base = np.random.default_rng(3).random((6, 2))
        x = np.vstack([base, 1.0 - base])
        y = np.sum((x - 0.5) ** 2, axis=1)
        model = kriging_fit(x, y, "poly0")
        pts = np.random.default_rng(4).random((15, 2))
        assert kriging_predict(model, pts) == pytest.approx(
            kriging_predict(model, 1.0 - pts), abs=1e-8
        )

    def test_dimension_mismatch(self):
        x, y = training_set()
        model = kriging_fit(x, y, "poly0")
        with pytest.raises(ValueError):
            kriging_predict(model, np.zeros((2, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        import warnings

        x, y = training_set()
        model = kriging_fit(x, y, "poly0")
        points = np.full((2, 3), 0.5)
        points[1, 0] = bad
        points[1, 2] = 7.0  # outside the cube: the error comes before the warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="1 non-finite"):
                kriging_predict(model, points)


class TestEvaluateMse:
    def test_constant_function_fits_exactly(self):
        fn = constant(3)
        design = np.random.default_rng(5).random((8, 3))
        mse, rmse = evaluate_mse(design, fn, basis="poly0", num_test_points=50, seed=1)
        assert mse == pytest.approx(0.0, abs=1e-12)
        assert rmse == pytest.approx(0.0, abs=1e-6)

    def test_training_points_as_test_set(self):
        fn = get_test_function("wood")
        design = np.random.default_rng(6).random((10, 4))
        mse, _ = evaluate_mse(design, fn, basis="poly0", seed=2, test_points=design)
        assert mse <= 1e-10 * np.mean(fn(scale_design(design, fn.bounds)) ** 2)

    def test_wood_on_published_design_beats_constant_predictor(self, u9_continuous):
        fn = get_test_function("wood")
        _, rmse = evaluate_mse(u9_continuous, fn, basis="poly0",
                               num_test_points=1000, seed=3)
        rng = np.random.default_rng(3)
        y = fn(scale_design(rng.random((1000, 4)), fn.bounds))
        assert np.isfinite(rmse)
        assert rmse < np.std(y)

    @pytest.mark.parametrize("kwargs", [
        {"num_test_points": 0},
        {"num_test_points": 2.5},
        {"num_test_points": np.nan},
        {"test_points": np.zeros((5, 3))},
        {"test_points": [[0.5, np.nan, 0.5, 0.5], [0.2, 0.3, 0.4, 0.5]]},
    ])
    def test_bad_test_set_rejected_before_fitting(self, monkeypatch, kwargs):
        def no_fit(*args, **kw):
            raise AssertionError("kriging_fit called")

        monkeypatch.setattr(surrogate, "kriging_fit", no_fit)
        fn = get_test_function("wood")
        with pytest.raises(ValueError, match="test"):
            evaluate_mse(mlhs(27, 4, seed=1), fn, basis="poly1", **kwargs)

    def test_non_finite_test_points_rejected(self):
        fn = get_test_function("camelback")
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_mse(mlhs(8, 2, seed=2), fn, test_points=[[np.nan, 0.5], [0.2, 0.3]])

    def test_bit_reproducible(self):
        fn = get_test_function("camelback")
        design = mlhs(12, 2, seed=7)
        a = evaluate_mse(design, fn, basis="poly1", num_test_points=200, seed=4)
        b = evaluate_mse(design, fn, basis="poly1", num_test_points=200, seed=4)
        assert a == b


def bench_sampler(tmp_path, *argv) -> dict:
    """The poly0 entry of a ``bench --sampler`` report: cells and their mean mse and rmse."""
    out = tmp_path / "report.json"
    assert cli.main(["bench", "--basis", "poly0", *argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())["bases"]["poly0"]


class TestAverageMse:
    """``bench --sampler``: evaluate_mse averaged over seeded samples on one test set."""

    def test_single_rep_reduces_to_evaluate_mse(self, tmp_path):
        fn = get_test_function("camelback")
        seed = 21
        avg = bench_sampler(tmp_path, "--fn", "camelback", "--sampler", "lhs", "--n", "10",
                            "--s", "2", "--reps", "1", "--test-points", "100", "--seed", str(seed))
        single = evaluate_mse(lhs(10, 2, seed), fn, basis="poly0",
                              num_test_points=100, seed=seed)
        assert (avg["mse"], avg["rmse"]) == single

    def test_constant_function_is_zero(self, tmp_path):
        avg = bench_sampler(tmp_path, "--fn", "const", "--sampler", "mlhs", "--n", "6", "--s", "2",
                            "--reps", "3", "--test-points", "40", "--seed", "0")
        assert avg["mse"] == pytest.approx(0.0, abs=1e-12)
        assert avg["rmse"] == pytest.approx(0.0, abs=1e-6)

    def test_wood_sixteen_run_mlhs_band(self, tmp_path):
        # sanity band around the published sixteen-run MLHS average
        avg = bench_sampler(tmp_path, "--fn", "wood", "--sampler", "mlhs", "--n", "16", "--s", "4",
                            "--reps", "10", "--test-points", "1000", "--seed", "1")
        assert len(avg["cells"]) == 10
        assert np.isfinite(avg["rmse"])
        assert 725.0 / 5.0 <= avg["rmse"] <= 725.0 * 5.0

    def test_sampler_name_checked(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_sampler(tmp_path, "--fn", "const", "--sampler", "sobol", "--n", "4", "--s", "2")
        assert excinfo.value.code == 2
        assert "sobol" in capsys.readouterr().err
