"""Pulse-schedule intermediate representation.

A schedule is an ordered list of steps, index 0 applied first in time.
Two step kinds exist: physical XY-plane pulses (phase selects the axis,
angle the rotation) and virtual-Z frame shifts, which cost nothing on
hardware. Passes here are exact up to global phase:

  * merge_adjacent  -- folds adjacent same-line rotations together
  * absorb_virtual_z -- pushes every virtual-Z into the phases of later
    pulses, leaving physical pulses plus one trailing frame shift

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .su2 import TWO_PI, hs_fidelity, mod_2pi, mod_pm_pi, rz, xy_rotation

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


@dataclass(frozen=True)
class VirtualZ:
    """Zero-cost z-axis frame shift by `alpha` radians."""

    alpha: float


@dataclass(frozen=True)
class XYPulse:
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


def canonical_virtual_z(alpha: float) -> Optional[VirtualZ]:
    """Canonical form: alpha in (-pi, pi], nonzero; None if trivial."""
    a = mod_pm_pi(alpha)
    if abs(a) < ANGLE_EPS:
        return None
    return VirtualZ(a)


def canonical_step(step: PulseStep) -> Optional[PulseStep]:
    # already canonical: folding would give back the same floats (phase 0 still folds, so
    # that -0.0 becomes 0.0, and so does a negative shift, whose trip through 2 pi rounds)
    if isinstance(step, VirtualZ):
        return step if ANGLE_EPS <= step.alpha <= math.pi else canonical_virtual_z(step.alpha)
    if 0.0 < step.phase < TWO_PI and ANGLE_EPS <= step.angle <= math.pi:
        return step
    return canonical_xy(step.phase, step.angle)


def step_unitary(step: PulseStep) -> np.ndarray:
    if isinstance(step, VirtualZ):
        return rz(step.alpha)
    return xy_rotation(step.phase, step.angle)


def sequence_unitary(steps: PulseSequence) -> np.ndarray:
    """Semantic unitary of a schedule; later steps left-multiply."""
    if not steps:
        import numpy as np
        return np.eye(2, dtype=complex)
    u = step_unitary(steps[0])
    for step in steps[1:]:
        u = step_unitary(step).dot(u)  # the same product as @, with less call overhead
    return u


def merge_adjacent(steps: PulseSequence) -> list[PulseStep]:
    """Fold adjacent same-line rotations to a fixpoint.

    Coaxial pulses add angles, antipodal-phase pulses subtract, virtual-Z
    angles add; trivial results are deleted. Two pulse phases are on one
    line when their circular distance, folded into [0, pi], is within
    PHASE_EPS of 0 or of pi. Unitary is preserved up to global phase and
    the step count never increases.
    """
    out: list[PulseStep] = []
    for raw in steps:
        step = canonical_step(raw)
        while step is not None and out:
            last = out[-1]
            if type(last) is not type(step):
                break
            if isinstance(step, VirtualZ):
                step = canonical_virtual_z(last.alpha + step.alpha)
            else:
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
    Returns (pulses, frame_phase in [0, 2*pi)). Absorption can make
    pulses coaxial and adjacent; `finish` folds them with a second
    merge_adjacent when its caller asks for merging.
    """
    z_acc = 0.0
    pulses: list[XYPulse] = []
    for step in steps:
        if isinstance(step, VirtualZ):
            z_acc += step.alpha
        else:  # with nothing to absorb yet, canonical_step passes a canonical pulse unchanged
            shifted = (canonical_step(step) if z_acc == 0.0
                       else canonical_xy(step.phase - z_acc, step.angle))
            if shifted is not None:
                pulses.append(shifted)
    return pulses, mod_2pi(z_acc)


def distance(steps: Iterable[PulseStep]) -> float:
    """Total physical rotation distance; virtual-Z steps are free."""
    return sum((s.angle for s in steps if isinstance(s, XYPulse)), 0.0)


def pulse_count(steps: Iterable[PulseStep]) -> int:
    """Number of physical pulses; virtual-Z steps are free."""
    return sum(1 for s in steps if isinstance(s, XYPulse))


@dataclass(frozen=True)
class CompiledGate:
    """Physical schedule for one target gate plus its achieved metrics."""

    pulses: tuple[XYPulse, ...]
    frame_phase: float
    epsilon: float
    distance: float
    pulse_count: int
    iterations: int
    # Always 0.0: compiles hold no clock, and callers that report timing
    # measure the call. Kept only because perfbench's evaluator test still
    # builds a CompiledGate with a trailing time; goes with ROADMAP item 1.
    compile_time: float = 0.0

    def unitary(self) -> np.ndarray:
        """Evaluate pulses followed by the trailing frame shift."""
        return sequence_unitary([*self.pulses, VirtualZ(self.frame_phase)])


@dataclass(frozen=True)
class CompileReport:
    """Per-compilation diagnostics the gate itself does not carry."""

    iterations: int
    damped_steps: int
    pre_pass_distance: float
    pre_pass_pulse_count: int
    post_pass_pulse_count: int


def schedule_error(target, pulses: Sequence[XYPulse], frame_phase: float) -> float:
    """Gate error 1 - F of a finished schedule; roundoff below 0 reads 0, NaN stays NaN."""
    u = sequence_unitary([*pulses, VirtualZ(frame_phase)])
    return max(1.0 - hs_fidelity(target, u), 0.0)


def finish(
    target,
    steps: PulseSequence,
    iterations: int,
    damped_steps: int,
    *,
    merge: bool,
) -> tuple[CompiledGate, CompileReport]:
    """Run the finishing passes on `steps`, evaluate the result and package it with its report.

    With `merge` the passes are merge_adjacent, absorb_virtual_z, merge_adjacent;
    without it absorb_virtual_z alone.
    """
    pulses, frame_phase = absorb_virtual_z(merge_adjacent(steps) if merge else steps)
    if merge:
        pulses = merge_adjacent(pulses)
    epsilon = schedule_error(target, pulses, frame_phase)
    gate = CompiledGate(
        pulses=tuple(pulses),
        frame_phase=frame_phase,
        epsilon=epsilon,
        distance=distance(pulses),
        pulse_count=len(pulses),
        iterations=iterations,
    )
    report = CompileReport(
        iterations=iterations,
        damped_steps=damped_steps,
        pre_pass_distance=distance(steps),
        pre_pass_pulse_count=pulse_count(steps),
        post_pass_pulse_count=gate.pulse_count,
    )
    return gate, report
