"""Approximate single-qubit gate compiler.

Targets hardware whose native operations are XY-plane rotations (one
microwave pulse each) and free virtual-Z frame shifts. The greedy
compiler reaches any requested gate error with a total rotation
distance well below the fixed pi of the two-pulse baseline.
"""

from .su2 import (
    EulerZXZ,
    InvalidAxisError,
    InvalidUnitaryError,
    compose,
    euler_matrix,
    euler_zxz,
    hs_fidelity,
    residual_angle,
    rotation_unitary,
)
from .ir import (
    CompiledGate,
    CompileReport,
    VirtualZ,
    XYPulse,
    absorb_virtual_z,
    distance,
    merge_adjacent,
    pulse_count,
    sequence_unitary,
)
from .greedy import (
    AxisSet,
    CompileError,
    GreedyConfig,
    MaxItersError,
    NoProgressError,
    allowed_axes,
    best_axis_step,
    greedy_compile,
)
from .u3 import u3_compile, u3_sequence
from .bench import (
    EvalTarget,
    FitResult,
    SweepRow,
    evaluation_dataset,
    fit_log_model,
    run_sweep,
)

__all__ = [
    "EulerZXZ",
    "InvalidAxisError",
    "InvalidUnitaryError",
    "compose",
    "euler_matrix",
    "euler_zxz",
    "hs_fidelity",
    "residual_angle",
    "rotation_unitary",
    "CompiledGate",
    "CompileReport",
    "VirtualZ",
    "XYPulse",
    "absorb_virtual_z",
    "distance",
    "merge_adjacent",
    "pulse_count",
    "sequence_unitary",
    "AxisSet",
    "CompileError",
    "GreedyConfig",
    "MaxItersError",
    "NoProgressError",
    "allowed_axes",
    "best_axis_step",
    "greedy_compile",
    "u3_compile",
    "u3_sequence",
    "EvalTarget",
    "FitResult",
    "SweepRow",
    "evaluation_dataset",
    "fit_log_model",
    "run_sweep",
]

__version__ = "0.1.0"
