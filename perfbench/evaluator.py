"""Independent schedule evaluator.

Rebuilds a schedule's 2x2 unitary from its pulse phases, pulse angles and
trailing frame phase with plain complex arithmetic, and measures its gate
error against a target. It imports nothing from the compiler, so a defect
in the compiler's own arithmetic cannot hide here.

Conventions (the compiler's documented ones):

    XY(phase, angle) = cos(angle/2) I - i sin(angle/2) (cos(phase) X + sin(phase) Y)
    Z(alpha)         = diag(exp(-i alpha/2), exp(+i alpha/2))

Pulses apply in list order (later pulses left-multiply); the frame shift
applies last.
"""

from __future__ import annotations

import cmath
import math

IDENTITY = ((1 + 0j, 0j), (0j, 1 + 0j))


def _matmul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def pulse_matrix(phase: float, angle: float):
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    return (
        (complex(c, 0.0), -1j * s * cmath.exp(-1j * phase)),
        (-1j * s * cmath.exp(1j * phase), complex(c, 0.0)),
    )


def schedule_unitary(pulses, frame_phase: float):
    """Unitary of `pulses` (an iterable of (phase, angle)) then Z(frame_phase)."""
    u = IDENTITY
    for phase, angle in pulses:
        u = _matmul(pulse_matrix(float(phase), float(angle)), u)
    z0 = cmath.exp(-0.5j * float(frame_phase))
    z1 = cmath.exp(0.5j * float(frame_phase))
    return ((z0 * u[0][0], z0 * u[0][1]), (z1 * u[1][0], z1 * u[1][1]))


def gate_error(target, u) -> float:
    """1 - |Tr(T^dag U)/2|^2, computed as the squared vector part of T^dag U.

    Writing T^dag U = e^{ig}(a0 I - i a.sigma), the error of a unitary pair
    is |a|^2; reading a off the entries avoids the cancellation in 1 - F.
    """
    t = ((target[0][0].conjugate(), target[1][0].conjugate()),
         (target[0][1].conjugate(), target[1][1].conjugate()))
    m = _matmul(t, u)
    return (
        abs(m[0][0] - m[1][1]) ** 2
        + abs(m[0][1] + m[1][0]) ** 2
        + abs(m[0][1] - m[1][0]) ** 2
    ) / 4.0


def schedule_error(target, pulses, frame_phase: float) -> float:
    """Gate error of a schedule against `target`; NaN when it cannot be evaluated."""
    try:
        return gate_error(target, schedule_unitary(pulses, frame_phase))
    except (TypeError, ValueError):  # non-numeric entries; cos/exp of an infinity
        return math.nan


# Rounding in a 2x2 product moves an error by ~1e-16; a declared epsilon
# that understates the evaluated error by more than this is false.
DECLARED_TOLERANCE = 1e-14


def within(error: float, eps_target: float) -> bool:
    """Strict acceptance test error <= eps_target. NaN never passes."""
    return error <= eps_target


def verdict(error: float, eps_target: float, declared: float) -> tuple[bool, bool]:
    """(failed, wrong) for a schedule with evaluated `error`.

    It failed when it misses eps_target. It is also wrong when the program
    claimed an epsilon that the evaluation contradicts: a miss it did not
    declare, beyond rounding, or an error that cannot be evaluated.
    """
    failed = not within(error, eps_target)
    return failed, failed and not error <= declared + DECLARED_TOLERANCE
