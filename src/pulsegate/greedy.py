"""Greedy residual-angle compiler over a discrete set of allowed axes.

The loop state is A = U T^dag, the schedule so far times the inverse
target, held as the four real numbers (a0, a) of
A = e^{ig} (a0 I - i a.sigma). The gate error is |a|^2, summed from the
vector part rather than taken as 1 - F, so it does not cancel near
F = 1. Starting from the identity, the loop tries the coaxial residual
angle 2 atan2(|a|, |a0|) about the allowed axes, keeps the axis that
lowers |a|^2 the most, and repeats until |a|^2 drops to the requested
threshold. A step that lowers no error raises CompileError.

An XY axis at drive phase phi enters a step only through
n.a = |a_xy| cos(phi - psi), with psi = atan2(ay, ax), and the step's
error is concave in that product, so the best XY axis is always the grid
phase nearest to psi or to psi + pi. Each step therefore scores +/-z and
at most 4 XY phases, the two grid neighbours of each, whatever the size
of the set.

Descent bound (the paper's O(log 1/eps)): a step about an axis n with
a0 (n.a) <= 0 and k = |n.a|/|a| leaves the error ratio
(1 - k^2) + x (1 - k)^2, x = a0^2/(a0^2 + |a|^2) in [0, 1], so at most
2 - 2k. Among the scored axes every state has one with
k >= k_min = cos(pi/m)/sqrt(1 + cos^2(pi/m)), m = n_axes - 2. So for
n_axes >= 6 (k_min > 1/2) each step lowers the error by at least
rho = 2 - 2 k_min <= 0.845, and a compile from error e0 takes at most
ceil(ln(e0/eps)/ln(1/rho)) iterations (tests/test_greedy.py,
TestDescentBound). Hence the minimum of 6 axes: at 5, 2 - 2 k_min > 1.

Allowed axes are the +/- z lines plus n_axes - 2 >= 4 phases uniform on
the XY-plane, so +/-x and +/-y are always present when 4 | (n_axes - 2).
An axis is its index in set order. Z-line steps are recorded as free
virtual-Z shifts; `ir.finish` then absorbs the virtual-Zs into pulse
phases and merges adjacent rotations.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from . import ir
from .su2 import TWO_PI, entries, quaternion

# A later candidate axis replaces the best so far only when its error is
# lower by more than TIE_RTOL * (|a|^2 + s^2), s = sin(angle / 2): the
# squared size of the terms every candidate's error is summed from, and so
# the scale of its rounding. Rounding then cannot break an exact tie
# against the first axis in set order.
TIE_RTOL = 1e-12

# The largest set size with provably distinct XY phases: up to 2**51
# phases, 2 pi j stays below 2**54, so adjacent products differ by more
# than 4, and after the division by n_axes - 2 by more than one ulp of 2 pi.
MAX_AXES = 2**51 + 2

# The smallest eps_target whose schedules are known to meet it. Re-checked
# with a 50-digit vector-part evaluator over the 128 grid targets plus 256
# Haar-random unitaries at 6, 18 and 16386 axes: at 1e-24 the worst true
# error was 0.998x the target, at 1e-25 up to 2.5x and at 1e-26 up to 25x
# (rounding of the double-precision loop state), while the compile said OK.
EPS_FLOOR = 1e-24

State = tuple[float, float, float, float]


class InvalidConfigurationError(ValueError):
    """Compiler configuration violates its preconditions."""


class CompileError(RuntimeError):
    """Compilation failed; carries the best-so-far schedule and its error."""

    def __init__(self, message: str, steps: list[ir.PulseStep], error: float):
        super().__init__(message)
        self.steps = steps
        self.error = error


class AxisSet(NamedTuple):
    """Allowed axes in set order: +z, -z, then the n_axes - 2 XY phases ascending."""

    n_axes: int

    def phase(self, i: int) -> float:
        """Drive phase of XY axis i (i >= 2), radians."""
        return TWO_PI * (i - 2) / (self.n_axes - 2)


def allowed_axes(n_axes: int) -> AxisSet:
    """The axis set {+z, -z} plus n_axes - 2 uniform XY phases; O(1) time and memory."""
    try:  # an integer, numpy's included: 6.5 axes would give phases that are not uniform
        n_axes = operator.index(n_axes)
    except TypeError:
        raise InvalidConfigurationError(f"n_axes must be an integer, got {n_axes!r}") from None
    if n_axes < 6:
        import decimal  # str() refuses an int of over 4,300 digits; a Decimal writes any int
        raise InvalidConfigurationError(f"n_axes must be >= 6, got {decimal.Decimal(n_axes)}")
    if n_axes > MAX_AXES:
        raise InvalidConfigurationError(f"n_axes must be <= {MAX_AXES}")
    return AxisSet(n_axes)


class GreedyConfig(NamedTuple("GreedyConfig", [("eps_target", float)])):
    """Termination threshold for the greedy loop."""

    __slots__ = ()

    def __new__(cls, eps_target: float):
        if type(eps_target) is not float:  # any real number, numpy's included, is stored as a float
            import numbers  # only here, so that `import pulsegate` does not load it
            if not isinstance(eps_target, numbers.Real):
                raise InvalidConfigurationError(f"eps_target must be a real number, got {eps_target!r}")
            # |x| >= 1 is out of range, and 10**400 has no float: such an x reads as 1.0, refused below
            eps_target = float(eps_target) if abs(eps_target) < 1 else 1.0
        if not EPS_FLOOR <= eps_target < 1.0:
            raise InvalidConfigurationError(f"eps_target must be in [{EPS_FLOOR:g}, 1)")
        return super().__new__(cls, eps_target)


def best_axis_step(state: State, axes: AxisSet, step_angle: float) -> tuple[int, float, State]:
    """Best axis for one trial rotation by `step_angle`: (index, error, new state).

    `state` is (a0, ax, ay, az) of A = U T^dag. The rotation
    (c, s n), c = cos(t/2), s = sin(t/2), maps it to
    (c a0 - s n.a, c a + s a0 n + s n x a), whose error is the squared
    vector part. Each candidate is scored in closed form, without the
    terms of n that are zero:
      +/-z:          b = (c ax -/+ s ay, c ay +/- s ax, c az +/- s a0),
                     n.a = +/- az;
      XY phase phi:  n = (cos phi, sin phi, 0),
                     b = (c ax + s (a0 nx + ny az), c ay + s (a0 ny - nx az),
                          c az + s (nx ay - ny ax)),
                     n.a = nx ax + ny ay.
    The winner keeps its n.a, and its new scalar part is b0 = c a0 - s n.a.
    Only +/-z and the XY phase indices lo, lo + 1 around psi and hi,
    hi + 1 around psi + pi are scored (a non-finite state scores only
    +/-z). Reduced mod m and ordered so that lo <= hi, they are visited
    as (lo, lo + 1, hi, hi + 1), or as (0, lo, lo + 1, hi) when hi + 1
    wraps to 0, so each index first appears in ascending order; an index
    met again scores the same error, which cannot beat a best that never
    rose, so the scan is the set-order scan of the distinct indices.
    Here lo = floor(psi m / 2 pi), and that product is within a few ulps
    of its exact value: while those ulps stay below half a grid step (m
    up to about 2**50), the phase nearest to psi is lo or lo + 1, and
    beyond that a phase one step off scores within the tie margin of the
    nearest. A later candidate wins only when its error is lower by more
    than the TIE_RTOL margin, so ties break to the first axis in set
    order.
    """
    cos, sin = math.cos, math.sin
    a0, ax, ay, az = state
    c, s = cos(step_angle / 2.0), sin(step_angle / 2.0)
    cx, cy, cz = c * ax, c * ay, c * az
    margin = TIE_RTOL * (ax * ax + ay * ay + az * az + s * s)
    sx, sy, s0 = s * ax, s * ay, s * a0
    # +z (index 0) is the first candidate, then -z (index 1); `best` is the
    # winner's (n.a, bx, by, bz)
    bx, by, bz = cx - sy, cy + sx, cz + s0
    best_i, best_error, best = 0, bx * bx + by * by + bz * bz, (az, bx, by, bz)
    bx, by, bz = cx + sy, cy - sx, cz - s0
    error = bx * bx + by * by + bz * bz
    if error < best_error - margin:
        best_i, best_error, best = 1, error, (-az, bx, by, bz)
    psi = math.atan2(ay, ax)
    if math.isfinite(psi):
        m = axes.n_axes - 2
        lo = math.floor(psi * m / TWO_PI) % m
        hi = math.floor((psi + math.pi) * m / TWO_PI) % m
        if hi < lo:
            lo, hi = hi, lo
        # a repeat scores its first error again, which never beats best - margin: only first visits count
        for j in (lo, lo + 1, hi, hi + 1) if hi + 1 < m else (0, lo, (lo + 1) % m, hi):
            phi = TWO_PI * j / m  # axes.phase(2 + j), inline
            nx, ny = cos(phi), sin(phi)
            bx = cx + s * (a0 * nx + ny * az)
            by = cy + s * (a0 * ny - nx * az)
            bz = cz + s * (nx * ay - ny * ax)
            error = bx * bx + by * by + bz * bz
            if error < best_error - margin:
                best_i, best_error, best = 2 + j, error, (nx * ax + ny * ay, bx, by, bz)
    na, bx, by, bz = best
    return best_i, best_error, (c * a0 - s * na, bx, by, bz)


def greedy_compile(
    target,
    axes: AxisSet,
    config: GreedyConfig,
) -> tuple[ir.CompiledGate, ir.CompileReport]:
    """Compile the 2x2 unitary `target` (an array or nested rows) to error <= eps_target.

    Each step must strictly lower the error, or CompileError is raised,
    so the error falls through a finite set of doubles and the loop ends;
    by the descent bound above it ends within
    ceil(ln(e0/eps)/ln(1/rho)) steps, at most 329 at EPS_FLOOR. A
    non-finite target raises CompileError at its first step.
    `ir.finish` runs the finishing passes (absorb, then merge), which
    are exact, and the final gate is re-verified against the target.
    """
    t00, t01, t10, t11 = entries(target)
    state = quaternion(((t00.conjugate(), t10.conjugate()), (t01.conjugate(), t11.conjugate())))
    error = state[1] ** 2 + state[2] ** 2 + state[3] ** 2
    steps: list[ir.PulseStep] = []
    while not error <= config.eps_target:
        angle = 2.0 * math.atan2(math.sqrt(error), abs(state[0]))
        i, best, new_state = best_axis_step(state, axes, angle)
        if not best < error:
            raise CompileError("no axis lowers the error", steps, error)
        if i < 2:  # the +z or -z line: a free virtual-Z shift
            steps.append(ir.VirtualZ((1 - 2 * i) * angle))
        else:
            steps.append(ir.XYPulse(axes.phase(i), angle))
        state, error = new_state, best

    gate, report = ir.finish(target, steps, len(steps), merge=True)
    if not gate.epsilon <= config.eps_target + ir.ERROR_SLACK:
        raise CompileError(
            f"post-pass error {gate.epsilon} exceeds target {config.eps_target}",
            steps,
            error,
        )
    return gate, report
