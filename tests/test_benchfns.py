import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unidesign import (
    UTypeDesign,
    camelback,
    constant,
    get_test_function,
    scale_design,
    scale_lattice,
    wood,
)


class TestWood:
    def test_global_minimum(self):
        assert wood([1.0, 1.0, 1.0, 1.0]) == 0.0

    def test_origin(self):
        assert wood([0.0, 0.0, 0.0, 0.0]) == pytest.approx(42.0, abs=1e-12)

    def test_mirror_point(self):
        assert wood([-1.0, 1.0, -1.0, 1.0]) == pytest.approx(8.0, abs=1e-12)

    def test_vectorized(self):
        pts = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        assert wood(pts) == pytest.approx([0.0, 42.0])

    def test_nonnegative_on_domain_sample(self):
        # sum of squares plus a positive-definite form in (x2-1, x4-1)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2.0, 2.0, size=(1_000_000, 4))
        assert wood(pts).min() >= 0.0


class TestCamelback:
    def test_origin(self):
        assert camelback([0.0, 0.0]) == 0.0

    def test_global_minimum_value(self):
        assert camelback([0.09, -0.71]) == pytest.approx(-1.03, abs=0.01)
        assert camelback([-0.09, 0.71]) == pytest.approx(-1.03, abs=0.01)

    def test_positive_at_domain_corners(self):
        assert camelback([3.0, 0.0]) > 0.0
        assert camelback([-3.0, 0.0]) > 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        x1=st.floats(-3.0, 3.0, allow_nan=False),
        x2=st.floats(-2.0, 2.0, allow_nan=False),
    )
    def test_even_under_joint_negation(self, x1, x2):
        assert camelback([x1, x2]) == pytest.approx(camelback([-x1, -x2]), rel=1e-12, abs=1e-12)


class TestScaleDesign:
    def test_reference_value(self):
        assert scale_design(np.array([[0.3942]]), (-2.0, 2.0))[0, 0] == pytest.approx(
            -0.4232, abs=1e-12
        )

    def test_unit_bounds_identity(self):
        x = np.random.default_rng(1).random((5, 3))
        assert np.array_equal(scale_design(x, (0.0, 1.0)), x)

    def test_midpoint(self):
        assert scale_design(np.array([[0.5]]), (-2.0, 2.0))[0, 0] == 0.0

    def test_roundtrip_inverse(self):
        x = np.random.default_rng(2).random((6, 2))
        bounds = np.array([(-2.0, 2.0), (0.5, 3.5)])
        scaled = scale_design(x, bounds)
        back = (scaled - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])
        assert back == pytest.approx(x, abs=1e-12)

    def test_per_column_bounds(self):
        x = np.array([[0.0, 1.0]])
        out = scale_design(x, [(-1.0, 1.0), (10.0, 20.0)])
        assert out.tolist() == [[-1.0, 20.0]]

    @pytest.mark.parametrize("bounds", [
        (1.0, 1.0), (2.0, -2.0), (np.nan, 1.0), (0.0, np.inf), [(-np.inf, 1.0), (0.0, 1.0)],
    ])
    def test_degenerate_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            scale_design(np.array([[0.25, 0.5]]), bounds)

    @pytest.mark.parametrize("bounds", [(0.0, 1.0, 2.0), [(0.0, 1.0)] * 3, [[0.0], [1.0]]])
    def test_wrongly_shaped_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="pair"):
            scale_design(np.array([[0.25, 0.5]]), bounds)


class TestScaleLattice:
    def lattice(self, q):
        return UTypeDesign(np.arange(1, q + 1).reshape(q, 1), q)

    def test_reference_value(self):
        assert scale_lattice(self.lattice(9), (-2.0, 2.0))[3, 0] == -0.5

    def test_endpoints_inclusive(self):
        scaled = scale_lattice(self.lattice(9), (-2.0, 2.0))
        assert scaled[0, 0] == -2.0
        assert scaled[8, 0] == 2.0

    def test_sixteen_level_value(self):
        scaled = scale_lattice(self.lattice(16), (-2.0, 2.0))
        assert scaled[8, 0] == pytest.approx(0.13, abs=0.005)

    def test_single_level_rejected(self):
        with pytest.raises(ValueError):
            scale_lattice(UTypeDesign(np.array([[1], [1]]), q=1), (-2.0, 2.0))

    def test_plain_matrix_needs_q(self):
        levels = np.array([[1], [3], [2]])
        assert scale_lattice(levels, (0.0, 1.0), q=3)[:, 0].tolist() == [0.0, 1.0, 0.5]
        with pytest.raises(ValueError):
            scale_lattice(levels, (0.0, 1.0))

    @pytest.mark.parametrize("bad", [1.5, np.nan])
    def test_plain_matrix_rejects_non_integer_levels(self, bad):
        # a NaN level fails no range comparison, so it needs its own check
        with pytest.raises(ValueError, match="levels must be integers"):
            scale_lattice([[bad], [2], [3]], (0.0, 1.0), q=3)

    @pytest.mark.parametrize("q", [3.5, np.nan])
    def test_plain_matrix_rejects_non_integer_q(self, q):
        with pytest.raises(ValueError, match="q must be an integer >= 1"):
            scale_lattice([[1], [2], [3]], (0.0, 1.0), q=q)

    def test_plain_matrix_skips_balance_check(self):
        # published tables sometimes repeat a level; scaling must still work
        levels = np.array([[1, 2], [2, 2]])
        scaled = scale_lattice(levels, (0.0, 1.0), q=2)
        assert scaled.tolist() == [[0.0, 1.0], [1.0, 1.0]]

    def test_differs_from_interior_embedding(self):
        # endpoint scaling deliberately disagrees with the (l-0.5)/q embedding
        from unidesign import embed

        design = self.lattice(4)
        endpoint = scale_lattice(design, (0.0, 1.0))
        interior = embed(design)
        assert not np.allclose(endpoint, interior)


class TestRegistry:
    def test_known_functions(self):
        assert get_test_function("wood").dim == 4
        assert get_test_function("camelback").dim == 2

    def test_camelback_bounds(self):
        fn = get_test_function("camelback")
        assert fn.bounds == ((-3.0, 3.0), (-2.0, 2.0))

    def test_const_needs_dimension(self):
        with pytest.raises(ValueError):
            get_test_function("const")
        fn = get_test_function("const", dim=3)
        assert fn(np.zeros((5, 3))) == pytest.approx(np.ones(5))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_test_function("rosenbrock")

    def test_constant_scalar_point(self):
        assert constant(2, value=4.5)([0.1, 0.2]) == 4.5
