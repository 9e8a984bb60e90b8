"""Greedy residual-angle compiler over a discrete set of allowed axes.

The loop, starting from the identity: read the current fidelity to the
target, convert it to the coaxial residual angle, try that rotation
about the allowed axes, keep the best strictly-improving candidate,
and repeat until the gate error drops below the requested threshold.
If no axis improves, the trial angle is halved (the residual-angle rule
assumes the ideal axis is available; damping guarantees termination).

Small axis sets are scored axis by axis. From WINDOW_MIN_AXES axes on,
only +/-z and the few XY phases next to the optimal drive phase psi and
to psi + pi are scored: the trial fidelity is convex in cos(phi - psi),
so the best XY phase is always one of those grid neighbours.

Allowed axes are the +/- z lines plus n_axes - 2 phases uniform on the
XY-plane, so +/-x and +/-y are always present when 4 | (n_axes - 2).
Z-line steps are recorded as free virtual-Z shifts; the finishing passes
merge adjacent rotations and absorb the virtual-Zs into pulse phases.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import ir
from .su2 import IDENTITY, TWO_PI, hs_fidelity, residual_angle, rotation_unitary

# Stall safeguards: iteration budget, trial-angle halving, damping floor (radians).
MAX_ITERS = 10_000
DAMPING_FACTOR = 0.5
MIN_ANGLE = 1e-12

# From this many axes on, best_axis_step scores a window around the optimal
# drive phase instead of the whole set (the measured cost crossover).
WINDOW_MIN_AXES = 1000


class InvalidConfigurationError(ValueError):
    """Compiler configuration violates its preconditions."""


class CompileError(RuntimeError):
    """Compilation failed; carries the best-so-far schedule for diagnostics."""

    def __init__(self, message: str, steps: list[ir.PulseStep], fidelity: float):
        super().__init__(message)
        self.steps = steps
        self.fidelity = fidelity


class MaxItersError(CompileError):
    """Iteration budget exhausted before reaching the target error."""


class NoProgressError(CompileError):
    """Damping floor reached with no fidelity-improving axis."""


@dataclass(frozen=True)
class AllowedAxis:
    """One allowed rotation axis: a z line (z_sign = +/-1) or an XY phase."""

    z_sign: int
    phase: float

    @property
    def is_z_line(self) -> bool:
        return self.z_sign != 0

    def unit_vector(self) -> tuple[float, float, float]:
        if self.z_sign != 0:
            return (0.0, 0.0, float(self.z_sign))
        return (math.cos(self.phase), math.sin(self.phase), 0.0)


@dataclass(frozen=True)
class AxisSet:
    """Deterministically ordered allowed axes: +z, -z, then XY phases ascending."""

    n_axes: int
    axes: tuple[AllowedAxis, ...]
    # unit-vector components, row-aligned with `axes`, for vectorized scoring
    nx: np.ndarray = field(repr=False, compare=False, default=None)
    ny: np.ndarray = field(repr=False, compare=False, default=None)
    nz: np.ndarray = field(repr=False, compare=False, default=None)


def allowed_axes(n_axes: int) -> AxisSet:
    """Build the axis set {+z, -z} plus n_axes - 2 uniform XY phases."""
    if n_axes < 4:
        raise InvalidConfigurationError(f"n_axes must be >= 4, got {n_axes}")
    axes = [AllowedAxis(+1, 0.0), AllowedAxis(-1, 0.0)]
    m = n_axes - 2
    axes.extend(AllowedAxis(0, 2.0 * math.pi * k / m) for k in range(m))
    vectors = np.array([a.unit_vector() for a in axes])
    return AxisSet(
        n_axes=n_axes,
        axes=tuple(axes),
        nx=vectors[:, 0],
        ny=vectors[:, 1],
        nz=vectors[:, 2],
    )


@dataclass(frozen=True)
class GreedyConfig:
    """Termination threshold for the greedy loop."""

    eps_target: float

    def __post_init__(self):
        if not 0.0 < self.eps_target < 1.0:
            raise InvalidConfigurationError("eps_target must be in (0, 1)")


def _window(n_axes: int, tx: complex, ty: complex) -> np.ndarray | None:
    """Set indices of +/-z and the XY phases next to psi and psi + pi, ascending.

    tx and ty share one complex factor k, so with k the larger of the two,
    atan2(Re(ty k*), Re(tx k*)) is the optimal drive phase psi mod pi.
    Phase indices lo-1 .. lo+2 bracket psi with one index of slack for
    rounding. None when psi is not finite (NaN input): the whole-set scan
    then gives the same answer as it would below WINDOW_MIN_AXES.
    """
    x, y = complex(tx), complex(ty)
    k = (x if abs(x) >= abs(y) else y).conjugate()
    psi = math.atan2((y * k).real, (x * k).real)
    if not math.isfinite(psi):
        return None
    m = n_axes - 2
    lo = math.floor(psi * m / TWO_PI)
    hi = math.floor((psi + math.pi) * m / TWO_PI)
    phases = sorted({j % m for j in (lo - 1, lo, lo + 1, lo + 2, hi - 1, hi, hi + 1, hi + 2)})
    return np.array([0, 1] + [2 + j for j in phases])


def best_axis_step(
    current: np.ndarray,
    target: np.ndarray,
    axes: AxisSet,
    step_angle: float,
) -> tuple[AllowedAxis, float]:
    """Best-fidelity axis for one trial rotation of `step_angle`.

    Scores hs_fidelity(target, R_a(step_angle) @ current) per axis via
    the trace expansion Tr(T^dag R U) = Tr(R U T^dag) = cos(t/2) Tr(A) -
    i sin(t/2) (nx Tr(sx A) + ny Tr(sy A) + nz Tr(sz A)) with
    A = U T^dag, which is exactly the brute-force product fidelity.
    Below WINDOW_MIN_AXES every axis is scored; from there on only +/-z
    and the grid neighbours of the optimal drive phase psi and of
    psi + pi (at most 10 axes), which always contain the best XY axis.
    Ties break to the first axis in the set's deterministic order.
    """
    a = current @ target.conj().T
    t0 = a[0, 0] + a[1, 1]
    tx = a[0, 1] + a[1, 0]
    ty = 1j * (a[0, 1] - a[1, 0])
    tz = a[0, 0] - a[1, 1]
    c = math.cos(step_angle / 2.0)
    s = math.sin(step_angle / 2.0)
    idx = _window(axes.n_axes, tx, ty) if axes.n_axes >= WINDOW_MIN_AXES else None
    if idx is None:
        nx, ny, nz = axes.nx, axes.ny, axes.nz
    else:
        nx, ny, nz = axes.nx[idx], axes.ny[idx], axes.nz[idx]
    traces = c * t0 - 1j * s * (nx * tx + ny * ty + nz * tz)
    fids = np.abs(traces) ** 2 / 4.0
    i = int(np.argmax(fids))
    best = float(fids[i])
    if idx is not None:
        i = int(idx[i])
    return axes.axes[i], best


def _record_step(axis: AllowedAxis, angle: float) -> ir.PulseStep:
    if axis.is_z_line:
        return ir.VirtualZ(axis.z_sign * angle)
    return ir.XYPulse(axis.phase, angle)


def greedy_compile(
    target: np.ndarray,
    axes: AxisSet,
    config: GreedyConfig,
) -> tuple[ir.CompiledGate, ir.CompileReport]:
    """Compile `target` into allowed-axis rotations to error <= eps_target.

    Accepted steps strictly increase fidelity, so the loop terminates on
    the error test on the common path; MAX_ITERS and the damping floor
    are safety nets. The finishing passes (merge, absorb, merge) are
    exact, and the final gate is re-verified against the target.
    """
    t_start = time.perf_counter()
    u = IDENTITY
    steps: list[ir.PulseStep] = []
    iterations = 0
    damped = 0
    fid = hs_fidelity(target, u)
    while 1.0 - fid > config.eps_target:
        if iterations >= MAX_ITERS:
            raise MaxItersError(f"no convergence within {MAX_ITERS} iterations", steps, fid)
        angle = residual_angle(fid)
        axis, best = best_axis_step(u, target, axes, angle)
        while best <= fid:
            angle *= DAMPING_FACTOR
            damped += 1
            if angle < MIN_ANGLE:
                raise NoProgressError(
                    "damping floor reached with no improving axis", steps, fid
                )
            axis, best = best_axis_step(u, target, axes, angle)
        steps.append(_record_step(axis, angle))
        u = rotation_unitary(axis.unit_vector(), angle) @ u
        fid = best
        iterations += 1

    pulses, frame_phase = ir.absorb_virtual_z(ir.merge_adjacent(steps))
    gate, report = ir.finish(
        target, steps, ir.merge_adjacent(pulses), frame_phase, iterations, damped, t_start
    )
    if not gate.epsilon <= config.eps_target + 1e-12:
        raise CompileError(
            f"post-pass error {gate.epsilon} exceeds target {config.eps_target}",
            steps,
            fid,
        )
    return gate, report
