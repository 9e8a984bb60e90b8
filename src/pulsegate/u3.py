"""Fixed two-pulse baseline compiler.

Any single-qubit unitary decomposes as Z X Z Euler rotations, and the
middle X rotation expands into two X_{pi/2} pulses bracketed by z
rotations. With virtual-Z shifts free, every gate then costs exactly
two physical pulses and a fixed rotation distance of pi. This is the
comparison point the greedy compiler is measured against, so no
shortcuts are taken (the identity still costs two pulses).

Under this package's z convention the schedule realizing
euler_matrix(theta, phi, lam) is, in time order:

    Z_{lam - pi}, X_{pi/2}, Z_{pi - theta}, X_{pi/2}, Z_{phi}

u3_sequence returns these five steps as they are, a zero shift included:
`ir.absorb_virtual_z`, inside `ir.finish`, is the one place a shift is folded.
"""

from __future__ import annotations

import math

from . import ir
from .su2 import euler_zxz


def u3_sequence(theta: float, phi: float, lam: float) -> list[ir.PulseStep]:
    """Time-ordered two-pulse schedule for euler_matrix(theta, phi, lam): always five steps."""
    x90 = ir.XYPulse(0.0, math.pi / 2.0)
    return [ir.VirtualZ(lam - math.pi), x90, ir.VirtualZ(math.pi - theta), x90, ir.VirtualZ(phi)]


def u3_compile(target) -> tuple[ir.CompiledGate, ir.CompileReport]:
    """Compile the 2x2 unitary `target` (an array or nested rows) to the two-pulse schedule."""
    e = euler_zxz(target)
    # no merge pass: the two pulses must stay distinct even when the interior
    # z rotation vanishes (theta = pi), because the baseline's cost is fixed
    return ir.finish(target, u3_sequence(e.theta, e.phi, e.lam), 0, merge=False)
