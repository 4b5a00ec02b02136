"""Sandwiched Renyi relative entropy of multimode Gaussian states.

Closed-form evaluation through the coherent-vector generating-kernel
parametrization, plus a dense truncated Fock-space oracle for cross checks.
The names below are the documented API; the pipeline's stages stay
importable from their submodules (states, williamson, kernel, entropy).
"""

from ._heap import keep_freed_memory
from .exceptions import (
    AlphaRangeError,
    DecompositionError,
    GaussRenyiError,
    ModeMismatchError,
    NotFaithfulError,
    NotTraceClassError,
    UnphysicalStateError,
)
from .states import (
    GaussianState,
    coherent_state,
    gaussian_transform,
    squeezed_vacuum,
    tensor,
    thermal_state,
)
from .entropy import EntropyReport, sandwiched_renyi, sandwiched_renyi_sweep

keep_freed_memory()

__version__ = "0.1.0"

__all__ = [
    "AlphaRangeError",
    "DecompositionError",
    "EntropyReport",
    "GaussRenyiError",
    "GaussianState",
    "ModeMismatchError",
    "NotFaithfulError",
    "NotTraceClassError",
    "UnphysicalStateError",
    "coherent_state",
    "gaussian_transform",
    "sandwiched_renyi",
    "sandwiched_renyi_sweep",
    "squeezed_vacuum",
    "tensor",
    "thermal_state",
]
