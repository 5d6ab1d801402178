"""Benchmark test functions and domain scaling for the modeling harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import UTypeDesign, _lattice_levels

__all__ = [
    "TestFunction",
    "wood",
    "camelback",
    "constant",
    "get_test_function",
    "normalize_bounds",
    "scale_design",
    "scale_lattice",
]


def wood(x) -> np.ndarray | float:
    """Wood function on [-2, 2]^4; global minimum 0 at (1, 1, 1, 1)."""
    x = np.asarray(x, dtype=float)
    x1, x2, x3, x4 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    value = (
        100.0 * (x1**2 - x2) ** 2
        + (1.0 - x1) ** 2
        + 90.0 * (x4 - x3**2) ** 2
        + (1.0 - x3) ** 2
        + 10.1 * ((x2 - 1.0) ** 2 + (x4 - 1.0) ** 2)
        + 19.8 * (x2 - 1.0) * (x4 - 1.0)
    )
    return float(value) if value.ndim == 0 else value


def camelback(x) -> np.ndarray | float:
    """Six-hump camelback on [-3, 3] x [-2, 2]; global minimum about -1.03."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    value = (
        4.0 * x1**2
        - 2.1 * x1**4
        + x1**6 / 3.0
        + x1 * x2
        - 4.0 * x2**2
        + 4.0 * x2**4
    )
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class TestFunction:
    name: str
    dim: int
    bounds: tuple
    fn: Callable

    def __call__(self, points):
        return self.fn(points)


def constant(dim: int, value: float = 1.0) -> TestFunction:
    """Constant test function (harness self-test hook)."""

    def fn(points):
        points = np.asarray(points, dtype=float)
        out = np.full(points.shape[:-1], value)
        return float(out) if out.ndim == 0 else out

    return TestFunction("const", dim, tuple((0.0, 1.0) for _ in range(dim)), fn)


WOOD = TestFunction("wood", 4, ((-2.0, 2.0),) * 4, wood)
CAMELBACK = TestFunction("camelback", 2, ((-3.0, 3.0), (-2.0, 2.0)), camelback)


def get_test_function(name: str, dim: int | None = None) -> TestFunction:
    """Look up a benchmark function by name; ``const`` requires ``dim``."""
    if name == "wood":
        return WOOD
    if name == "camelback":
        return CAMELBACK
    if name == "const":
        if dim is None:
            raise ValueError("the constant test function needs an explicit dimension")
        return constant(dim)
    raise ValueError(f"unknown test function {name!r}")


def normalize_bounds(bounds, s: int) -> np.ndarray:
    """Bounds as an (s, 2) array; accepts one finite (a, b) pair with a < b or one per column."""
    arr = np.asarray(bounds, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (s, 1))
    if arr.shape != (s, 2):
        raise ValueError(f"bounds must be one (a, b) pair or {s} pairs, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr)) and np.all(arr[:, 0] < arr[:, 1])):
        raise ValueError("each bound must be finite and satisfy a < b")
    return arr


def scale_design(design, bounds) -> np.ndarray:
    """Affine map of a unit-cube design onto rectangular bounds."""
    x = np.asarray(design, dtype=float)
    b = normalize_bounds(bounds, x.shape[1])
    return b[:, 0] + x * (b[:, 1] - b[:, 0])


def scale_lattice(design, bounds, q: int | None = None) -> np.ndarray:
    """Endpoint-inclusive map of lattice levels onto bounds.

    Level l in a q-level column maps to a + (l - 1)/(q - 1) * (b - a), so
    levels 1 and q sit exactly on the bounds.  This is the published scaling
    for lattice designs and intentionally differs from the interior
    (l - 0.5)/q embedding used on the unit cube.

    ``design`` is a ``UTypeDesign`` or a plain integer level matrix with an
    explicit ``q`` (plain matrices skip the balance check: published tables
    occasionally carry printing quirks yet still need scaling).
    """
    if isinstance(design, UTypeDesign):
        levels, q = design.levels, design.q
    else:
        if q is None:
            raise ValueError("plain level matrices need an explicit q")
        levels = _lattice_levels(design, q)
    if q < 2:
        raise ValueError("lattice scaling needs q >= 2")
    return scale_design((levels - 1) / (q - 1), bounds)
