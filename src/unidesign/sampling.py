"""Latin hypercube designs and the LHS / mid-point LHS samplers.

A Latin hypercube design (LHD) is the U-type design U(n; n^s) with q = n:
column j is a random permutation pi_j of {1..n}, and ``lhd`` returns it as a
``UTypeDesign``.  LHS places point k of column j at (pi_j(k) - U) / n with U
uniform on (0, 1], one independent draw per cell; MLHS fixes U at the stratum
mid-point 0.5, so it is the LHD's ``embed``.  Each column uses its own spawned
child stream of the seed, which draws the permutation first and any uniforms
second, so samplers are reproducible and columns can be generated independently.
"""

from __future__ import annotations

import numpy as np

from .lattice import UTypeDesign, embed

__all__ = ["lhd", "lhs", "mlhs"]


def _column_draws(n: int, s: int, seed: int) -> list[tuple[np.random.Generator, np.ndarray]]:
    """Each column's child stream of ``seed``, with the permutation of 1..n it drew."""
    if n < 1 or s < 1:
        raise ValueError("n and s must be >= 1")
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(s)]
    return [(rng, rng.permutation(n) + 1) for rng in rngs]


def lhd(n: int, s: int, seed: int) -> UTypeDesign:
    """Random Latin hypercube design (a U-type design with q = n), deterministic per seed."""
    return UTypeDesign(np.column_stack([perm for _, perm in _column_draws(n, s, seed)]), q=n)


def lhs(n: int, s: int, seed: int) -> np.ndarray:
    """Latin hypercube sample: entries (pi_j(k) - U_k^j)/n, all in (0, 1).

    U is taken from (0, 1] so that every entry stays strictly inside its
    stratum [(pi-1)/n, pi/n).
    """
    return np.column_stack([(perm - (1.0 - rng.random(n))) / n
                            for rng, perm in _column_draws(n, s, seed)])


def mlhs(n: int, s: int, seed: int) -> np.ndarray:
    """Mid-point LHS: entries (pi_j(k) - 0.5)/n, the embedding of ``lhd``."""
    return embed(lhd(n, s, seed))
