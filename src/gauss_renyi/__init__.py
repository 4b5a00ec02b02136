"""Sandwiched Renyi relative entropy of multimode Gaussian states.

Closed-form evaluation through the coherent-vector generating-kernel
parametrization, plus a dense truncated Fock-space oracle for cross checks.
"""

from .exceptions import (
    AlphaRangeError,
    DecompositionError,
    GaussRenyiError,
    NotFaithfulError,
    NotTraceClassError,
    UnphysicalStateError,
)
from .states import (
    GaussianState,
    ThermalParams,
    coherent_state,
    gaussian_transform,
    is_symplectic,
    squeezed_vacuum,
    symplectic_form,
    tensor,
    thermal_state,
    validate_state,
)
from .williamson import (
    WilliamsonForm,
    d_to_t,
    symplectic_eigenvalues,
    t_to_d,
    williamson_decompose,
)
from .kernel import (
    CoherentKernel,
    apply_contraction,
    evaluate_kernel,
    form_matrix,
    kernel_to_state,
    log_kernel_trace,
    state_to_kernel,
)
from .entropy import (
    EntropyReport,
    fractional_power_contraction,
    log_thermal_norm,
    reduce_to_thermal,
    sandwiched_renyi,
    sandwiched_renyi_sweep,
)
from .recipes import Recipe, recipe_to_state

__version__ = "0.1.0"

__all__ = [
    "AlphaRangeError",
    "CoherentKernel",
    "DecompositionError",
    "EntropyReport",
    "GaussRenyiError",
    "GaussianState",
    "NotFaithfulError",
    "NotTraceClassError",
    "Recipe",
    "ThermalParams",
    "UnphysicalStateError",
    "WilliamsonForm",
    "apply_contraction",
    "coherent_state",
    "d_to_t",
    "evaluate_kernel",
    "form_matrix",
    "fractional_power_contraction",
    "gaussian_transform",
    "is_symplectic",
    "kernel_to_state",
    "log_kernel_trace",
    "log_thermal_norm",
    "recipe_to_state",
    "reduce_to_thermal",
    "sandwiched_renyi",
    "sandwiched_renyi_sweep",
    "squeezed_vacuum",
    "state_to_kernel",
    "symplectic_eigenvalues",
    "symplectic_form",
    "t_to_d",
    "tensor",
    "thermal_state",
    "validate_state",
    "williamson_decompose",
]
