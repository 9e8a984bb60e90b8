"""Approximate single-qubit gate compiler.

Targets hardware whose native operations are XY-plane rotations (one
microwave pulse each) and free virtual-Z frame shifts. The greedy
compiler reaches any requested gate error with a total rotation
distance well below the fixed pi of the two-pulse baseline.
"""

from .su2 import (
    hs_fidelity,
    rotation_unitary,
)
from .ir import (
    XYPulse,
    absorb_virtual_z,
    merge_adjacent,
    pulse_count,
    sequence_unitary,
)
from .greedy import (
    CompileError,
    GreedyConfig,
    allowed_axes,
    greedy_compile,
)
from .u3 import u3_compile
from .bench import (
    evaluation_dataset,
    fit_log_model,
    run_sweep,
)

# the names callers use; everything else is imported from its module
__all__ = [
    "hs_fidelity",
    "rotation_unitary",
    "XYPulse",
    "absorb_virtual_z",
    "merge_adjacent",
    "pulse_count",
    "sequence_unitary",
    "CompileError",
    "GreedyConfig",
    "allowed_axes",
    "greedy_compile",
    "u3_compile",
    "evaluation_dataset",
    "fit_log_model",
    "run_sweep",
]

__version__ = "0.1.0"
