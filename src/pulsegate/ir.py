"""Pulse-schedule intermediate representation.

A schedule is an ordered list of steps, index 0 applied first in time.
Two step kinds exist: physical XY-plane pulses (phase selects the axis,
angle the rotation) and virtual-Z frame shifts, which cost nothing on
hardware. Passes here are exact up to global phase:

  * absorb_virtual_z -- pushes every virtual-Z into the phases of later
    pulses, leaving canonical physical pulses plus one trailing frame
    shift; it alone owns frame shifts and the canonical form, and its
    mod_2pi of their sum is the one place a shift is folded
  * merge_adjacent  -- folds a canonical schedule's adjacent same-line
    pulses together

Cost metrics follow the zero-cost virtual-Z accounting: distance sums
only physical pulse angles, pulse_count counts only physical pulses.

Every compiler ends in `finish`, which owns the pass order: it runs the
passes on the compiler's raw steps, evaluates the finished schedule with
`schedule_error` and packages it as a CompiledGate plus its
CompileReport. Neither holds a wall-clock time, so a compile is a pure
function of its input; callers that report timing measure the call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence, Union

from .su2 import hs_fidelity, mod_2pi, rotation_unitary

if TYPE_CHECKING:
    import numpy as np

# Canonical angles below this are dropped (pure global phase at double precision).
ANGLE_EPS = 1e-12
# Tolerance for recognizing equal / antipodal pulse phases when merging.
PHASE_EPS = 1e-12
# Rounding allowance of the gate error 1 - F, which cancels near F = 1:
# the acceptance checks (greedy's post-pass re-check and `verify`) pass a
# schedule_error up to this much above its target.
ERROR_SLACK = 1e-12


class VirtualZ(NamedTuple):
    """Zero-cost z-axis frame shift by `alpha` radians."""

    alpha: float


class XYPulse(NamedTuple):
    """Physical rotation by `angle` about the XY-plane axis at `phase`."""

    phase: float
    angle: float


PulseStep = Union[VirtualZ, XYPulse]
PulseSequence = Sequence[PulseStep]


def canonical_xy(phase: float, angle: float) -> Optional[XYPulse]:
    """Canonical form: angle in (0, pi], phase in [0, 2*pi); None if trivial.

    A rotation by theta in (pi, 2*pi) equals (up to global phase) a rotation
    by 2*pi - theta about the antipodal axis.
    """
    a = mod_2pi(angle)
    if a > math.pi:
        a = 2.0 * math.pi - a
        phase = phase + math.pi
    if a < ANGLE_EPS:
        return None
    return XYPulse(mod_2pi(phase), a)


def sequence_unitary(steps: PulseSequence) -> np.ndarray:
    """Semantic unitary of a schedule; later steps left-multiply.

    The steps compose as quaternions (a0, a), u = a0 I - i a.sigma, in
    Python floats: a step by t about n is (c, s n), c = cos(t/2),
    s = sin(t/2), and maps (a0, a) to (c a0 - s n.a, c a + s a0 n + s n x a).
    One array is built at the end, by rotation_unitary from the product's
    axis and angle (axis +z when its vector part is zero).
    """
    if not steps:
        import numpy as np
        return np.eye(2, dtype=complex)
    cos, sin = math.cos, math.sin
    a0, ax, ay, az = 1.0, 0.0, 0.0, 0.0
    for step in steps:
        t, nx, ny, nz = ((step.alpha, 0.0, 0.0, 1.0) if isinstance(step, VirtualZ)
                         else (step.angle, cos(step.phase), sin(step.phase), 0.0))
        c, s = cos(t / 2.0), sin(t / 2.0)
        a0, ax, ay, az = (c * a0 - s * (nx * ax + ny * ay + nz * az),
                          c * ax + s * (a0 * nx + ny * az - nz * ay),
                          c * ay + s * (a0 * ny + nz * ax - nx * az),
                          c * az + s * (a0 * nz + nx * ay - ny * ax))
    r = math.hypot(ax, ay, az)  # hypot, not a sum of squares, which underflows at tiny angles
    theta = 2.0 * math.atan2(r, a0)
    if r < 1e-300:  # a subnormal r has too few digits to normalize by: rescale exactly first
        ax, ay, az = ax * 2.0 ** 1000, ay * 2.0 ** 1000, az * 2.0 ** 1000
        r = math.hypot(ax, ay, az)
    return rotation_unitary((ax / r, ay / r, az / r) if r else (0.0, 0.0, 1.0), theta)


def merge_adjacent(steps: PulseSequence) -> list[PulseStep]:
    """Fold a canonical schedule's adjacent same-line pulses to a fixpoint.

    Coaxial pulses add angles, antipodal-phase pulses subtract; a trivial
    result is deleted. Two pulse phases are on one line when their circular
    distance, folded into [0, pi], is within PHASE_EPS of 0 or of pi.
    Virtual-Z steps, and pulses that fold with nothing, come back as given:
    absorb_virtual_z sums frame shifts and canonicalizes pulses. Unitary is
    preserved up to global phase and the step count never increases.
    """
    out: list[PulseStep] = []
    for step in steps:
        while out and isinstance(step, XYPulse) and isinstance(out[-1], XYPulse):
            last = out[-1]
            d = mod_2pi(last.phase - step.phase)
            delta = min(d, 2.0 * math.pi - d)
            if delta < PHASE_EPS:
                step = canonical_xy(last.phase, last.angle + step.angle)
            elif abs(delta - math.pi) < PHASE_EPS:
                step = canonical_xy(last.phase, last.angle - step.angle)
            else:
                break
            out.pop()
        if step is not None:
            out.append(step)
    return out


def absorb_virtual_z(steps: PulseSequence) -> tuple[list[XYPulse], float]:
    """Push all virtual-Z shifts into later pulse phases.

    A frame shift by z before a pulse at phase phi is equivalent to the
    pulse at phase phi - z followed by the same shift; scanning in time
    order leaves only physical pulses plus one trailing frame phase.
    Every pulse is rebuilt through canonical_xy and a trivial one dropped,
    so this pass alone sums frame shifts and canonicalizes pulses.
    Returns (pulses, frame_phase in [0, 2*pi)). Absorption can make
    pulses coaxial and adjacent; `finish` folds them with merge_adjacent
    when its caller asks for merging.
    """
    z_acc = 0.0
    pulses: list[XYPulse] = []
    for step in steps:
        if isinstance(step, VirtualZ):
            z_acc += step.alpha
        else:
            shifted = canonical_xy(step.phase - z_acc, step.angle)
            if shifted is not None:
                pulses.append(shifted)
    return pulses, mod_2pi(z_acc)


def _costs(steps: Iterable[PulseStep]) -> tuple[float, int]:
    """(distance, pulse count) of `steps` from one walk over its physical pulse angles."""
    angles = [step.angle for step in steps if isinstance(step, XYPulse)]
    return math.fsum(angles), len(angles)


def distance(steps: Iterable[PulseStep]) -> float:
    """Total physical rotation distance, correctly rounded (math.fsum); virtual-Z steps are free."""
    return _costs(steps)[0]


def pulse_count(steps: Iterable[PulseStep]) -> int:
    """Number of physical pulses; virtual-Z steps are free."""
    return _costs(steps)[1]


class CompiledGate(NamedTuple("CompiledGate", [
    ("pulses", tuple[XYPulse, ...]), ("frame_phase", float), ("epsilon", float),
    ("distance", float), ("pulse_count", int), ("iterations", int),
])):
    """Physical schedule for one target gate plus its achieved metrics."""

    __slots__ = ()

    # A trailing `compile_time` is accepted and dropped, as compiles hold no clock. Kept only
    # because perfbench's evaluator test still passes one; goes with ROADMAP item 1.
    def __new__(cls, pulses, frame_phase, epsilon, distance, pulse_count, iterations, compile_time=0.0):
        return super().__new__(cls, pulses, frame_phase, epsilon, distance, pulse_count, iterations)

    def unitary(self) -> np.ndarray:
        """Evaluate pulses followed by the trailing frame shift."""
        return sequence_unitary([*self.pulses, VirtualZ(self.frame_phase)])


class CompileReport(NamedTuple):
    """Per-compilation diagnostics the gate itself does not carry."""

    iterations: int
    damped_steps: int  # always 0, as no compiler damps a step; perfbench's counters still read it
    pre_pass_distance: float
    pre_pass_pulse_count: int
    post_pass_pulse_count: int


def schedule_error(target, pulses: Sequence[XYPulse], frame_phase: float) -> float:
    """Gate error 1 - F of a finished schedule; roundoff below 0 reads 0, NaN stays NaN."""
    # a VirtualZ(0.0) step (c = 1, s = 0) would only flip the signs of zeros, which |vdot| cannot see;
    # a NaN frame is kept
    u = sequence_unitary([*pulses, VirtualZ(frame_phase)] if frame_phase else pulses)
    return max(1.0 - hs_fidelity(target, u), 0.0)


def finish(
    target,
    steps: PulseSequence,
    iterations: int,
    *,
    merge: bool,
) -> tuple[CompiledGate, CompileReport]:
    """Run the finishing passes on `steps`, evaluate the result and package it with its report.

    The passes are absorb_virtual_z, then merge_adjacent when `merge` is set.
    The report's pre-pass distance and pulse count come from one walk over
    `steps`, the gate's from the finished pulses.
    """
    pulses, frame_phase = absorb_virtual_z(steps)
    if merge:
        pulses = merge_adjacent(pulses)
    gate = CompiledGate(tuple(pulses), frame_phase, schedule_error(target, pulses, frame_phase),
                        distance(pulses), len(pulses), iterations)
    return gate, CompileReport(iterations, 0, *_costs(steps), len(pulses))
