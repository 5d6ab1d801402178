"""Uniform experimental designs over the continuous unit cube.

Construction minimizes the squared centered L2-discrepancy: threshold
accepting over U-type lattices provides initial designs, continuous
coordinate-descent refiners improve them, and a Kriging harness scores the
resulting designs on benchmark models.
"""

__version__ = "0.1.0"

from .discrepancy import (
    DiscrepancyCache,
    as_design_matrix,
    cd2,
    cd2_gradient,
    zero_gradient_solve,
)
from .lattice import (
    OptimizationTrace,
    TaConfig,
    TaResult,
    UTypeDesign,
    embed,
    random_utype,
    ta_neighbor,
    ta_optimize,
    threshold_sequence,
)
from .optimize import (
    RefineResult,
    RefinerConfig,
    cdfss,
    cgd,
    czg,
    gradient_descent,
    refine_pipeline,
)
from .sampling import LatinHypercubeDesign, lhd, lhs, mlhs
from .surrogate import (
    KrigingModel,
    average_mse_over_samples,
    basis_matrix,
    evaluate_mse,
    kriging_fit,
    kriging_predict,
)
from .benchfns import (
    TestFunction,
    camelback,
    constant,
    get_test_function,
    scale_design,
    scale_lattice,
    wood,
)

__all__ = [
    "__version__",
    "as_design_matrix",
    "cd2",
    "cd2_gradient",
    "DiscrepancyCache",
    "zero_gradient_solve",
    "UTypeDesign",
    "random_utype",
    "embed",
    "ta_neighbor",
    "threshold_sequence",
    "TaConfig",
    "TaResult",
    "ta_optimize",
    "RefinerConfig",
    "RefineResult",
    "OptimizationTrace",
    "cgd",
    "czg",
    "cdfss",
    "gradient_descent",
    "refine_pipeline",
    "LatinHypercubeDesign",
    "lhd",
    "lhs",
    "mlhs",
    "KrigingModel",
    "basis_matrix",
    "kriging_fit",
    "kriging_predict",
    "evaluate_mse",
    "average_mse_over_samples",
    "TestFunction",
    "wood",
    "camelback",
    "constant",
    "get_test_function",
    "scale_design",
    "scale_lattice",
]
