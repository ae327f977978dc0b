"""Fractal interpolation with sigmoidal quasi-interpolation heights."""

from .analysis import (
    DimensionReport,
    box_counting_dimension,
    error_bound_alpha,
    error_bound_discrete,
    holder_seminorm,
    knot_data_collinear,
    modulus_of_continuity,
    theoretical_box_dimension,
)
from .errors import (
    CrossCheckError,
    FifError,
    InvalidConfig,
    MatchingConditionError,
    NonConvergence,
)
from .fractal import (
    FifProblem,
    FifResult,
    chaos_game_render,
    solve_fif,
)
from .kernels import (
    SigmoidalKernel,
    kernel_from_name,
    ramp,
    sigma_eval,
    smooth_bump,
    smoothstep,
    xi_derivative,
    xi_eval,
)
from .maps import Partition, ScalingVector
from .operators import (
    FunctionInput,
    OperatorConfig,
    nn_eval,
    nn_eval_derivative,
    nn_eval_four_layer,
)
from .registry import make_function

__version__ = "0.1.0"

__all__ = [
    "CrossCheckError",
    "DimensionReport",
    "FifError",
    "FifProblem",
    "FifResult",
    "FunctionInput",
    "InvalidConfig",
    "MatchingConditionError",
    "NonConvergence",
    "OperatorConfig",
    "Partition",
    "ScalingVector",
    "SigmoidalKernel",
    "box_counting_dimension",
    "chaos_game_render",
    "error_bound_alpha",
    "error_bound_discrete",
    "holder_seminorm",
    "kernel_from_name",
    "knot_data_collinear",
    "make_function",
    "modulus_of_continuity",
    "nn_eval",
    "nn_eval_derivative",
    "nn_eval_four_layer",
    "ramp",
    "sigma_eval",
    "smooth_bump",
    "smoothstep",
    "solve_fif",
    "theoretical_box_dimension",
    "xi_derivative",
    "xi_eval",
]
