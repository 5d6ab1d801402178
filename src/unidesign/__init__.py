"""Uniform experimental designs over the continuous unit cube.

Construction minimizes the squared centered L2-discrepancy: threshold
accepting over U-type lattices provides initial designs, continuous
coordinate-descent refiners improve them, and a Kriging harness scores the
resulting designs on benchmark models.
"""

__version__ = "0.1.0"

from . import benchfns, discrepancy, lattice, optimize, sampling, surrogate
from .benchfns import *  # noqa: F401,F403
from .discrepancy import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .optimize import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .surrogate import *  # noqa: F401,F403

# each public name is listed once, in its module's __all__
_MODULES = (discrepancy, lattice, optimize, sampling, surrogate, benchfns)
__all__ = list(dict.fromkeys(["__version__", *(n for m in _MODULES for n in m.__all__)]))
