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

# name -> module, loaded on first use (PEP 562): a greedy compile needs neither u3 nor bench
_LAZY = {"u3": "u3", "u3_compile": "u3", "bench": "bench", "evaluation_dataset": "bench",
         "fit_log_model": "bench", "run_sweep": "bench"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
