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
"""

from __future__ import annotations

import math

import numpy as np

from . import ir
from .su2 import euler_zxz


def u3_sequence(theta: float, phi: float, lam: float) -> list[ir.PulseStep]:
    """Time-ordered two-pulse schedule for euler_matrix(theta, phi, lam)."""
    steps: list[ir.PulseStep] = []
    head = ir.canonical_virtual_z(lam - math.pi)
    if head is not None:
        steps.append(head)
    steps.append(ir.XYPulse(0.0, math.pi / 2.0))
    mid = ir.canonical_virtual_z(math.pi - theta)
    if mid is not None:
        steps.append(mid)
    steps.append(ir.XYPulse(0.0, math.pi / 2.0))
    tail = ir.canonical_virtual_z(phi)
    if tail is not None:
        steps.append(tail)
    return steps


def u3_compile(target: np.ndarray) -> tuple[ir.CompiledGate, ir.CompileReport]:
    """Compile `target` to the fixed two-pulse schedule.

    Absorption is not followed by the merge pass: the two pulses must
    stay distinct even when the interior z rotation vanishes (theta = pi),
    because the baseline's cost is fixed by construction.
    """
    e = euler_zxz(target)
    seq = u3_sequence(e.theta, e.phi, e.lam)
    pulses, frame_phase = ir.absorb_virtual_z(seq)
    return ir.finish(target, seq, pulses, frame_phase, 0, 0)
