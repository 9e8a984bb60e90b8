"""2x2 unitary arithmetic.

Axis-angle rotations, Hilbert-Schmidt fidelity, the real quaternion of
a unitary and the ZXZ Euler decomposition. Everything here is a pure
function of a 2x2 complex matrix; global phase is never physically
meaningful and fidelity is blind to it. A matrix comes in as a numpy
array or as nested rows, both read by `entries`, and comes out as a numpy
array. numpy is imported inside the functions that build or compute with
arrays, so importing this module does not load it; the first such call does.

Convention fixed once for the whole package:

    Z_alpha = diag(exp(-i*alpha/2), exp(+i*alpha/2))   (SU(2) z-rotation)

Under this convention the XY-plane rotation with drive phase phi satisfies
XY(phi, theta) = Z_phi . X_theta . Z_{-phi} exactly (no residual phase).
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi


class InvalidAxisError(ValueError):
    """Rotation axis is not unit-norm."""


class InvalidUnitaryError(ValueError):
    """Input matrix is not unitary to the required tolerance."""


def mod_2pi(angle: float) -> float:
    """Fold an angle into [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # fmod roundoff at the boundary
        a -= TWO_PI
    return a + 0.0  # -0.0 (from fmod of -2 pi) becomes 0.0


def entries(u) -> tuple[complex, complex, complex, complex]:
    """(u00, u01, u10, u11) of a 2x2 as Python complex; an ndarray is read through tolist().

    Anything that does not unpack as two rows of two raises InvalidUnitaryError.
    """
    try:
        (u00, u01), (u10, u11) = u.tolist() if hasattr(u, "tolist") else u
    except (TypeError, ValueError) as exc:
        raise InvalidUnitaryError(f"input is not a 2x2 matrix: {exc}") from None
    return complex(u00), complex(u01), complex(u10), complex(u11)


def is_unitary(u) -> bool:
    """2x2 and unitary to within 1e-9 per entry of u^dag u - I; anything else is False."""
    try:
        a, b, c, d = entries(u)
        # an entry above 2 can never pass, and large ones would overflow the products
        if not max(map(abs, (a, b, c, d))) <= 2.0:  # abs itself overflows past 1.8e308
            return False
    except (TypeError, ValueError, OverflowError):
        return False
    # u^dag u - I, whose lower-left entry is the conjugate of the upper-right one
    rest = (a.conjugate() * a + c.conjugate() * c - 1.0, a.conjugate() * b + c.conjugate() * d,
            b.conjugate() * b + d.conjugate() * d - 1.0)
    return all(abs(x) <= 1e-9 for x in rest)


def rotation_unitary(axis, theta: float) -> np.ndarray:
    """SU(2) rotation by `theta` about the unit vector `axis`.

    cos(theta/2)*I - i*sin(theta/2)*(nx*sx + ny*sy + nz*sz)
    """
    nx, ny, nz = float(axis[0]), float(axis[1]), float(axis[2])
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if abs(norm - 1.0) > 1e-9:
        raise InvalidAxisError(f"axis norm {norm!r} deviates from 1 by more than 1e-9")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    import numpy as np
    return np.array(
        [c - 1j * s * nz, -1j * s * (nx - 1j * ny), -1j * s * (nx + 1j * ny), c + 1j * s * nz]
    ).reshape(2, 2)


def rz(alpha: float) -> np.ndarray:
    """Z-axis rotation, diag(e^{-i a/2}, e^{+i a/2})."""
    return rotation_unitary((0.0, 0.0, 1.0), alpha)


def rx(theta: float) -> np.ndarray:
    return rotation_unitary((1.0, 0.0, 0.0), theta)


def xy_rotation(phase: float, theta: float) -> np.ndarray:
    """Rotation about the XY-plane axis at angle `phase` from +x."""
    return rotation_unitary((math.cos(phase), math.sin(phase), 0.0), theta)


def hs_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(u^dag v)/2|^2 -- global-phase-invariant similarity in [0, 1]."""
    import numpy as np
    return float(abs(np.vdot(u, v)) ** 2 / 4.0)


def quaternion(u) -> tuple[float, float, float, float]:
    """(a0, ax, ay, az) with u = e^{ig} (a0 I - i (ax X + ay Y + az Z)).

    The four complex coefficients share the phase e^{ig}; it is read off
    the largest of them and removed, so all four come out real. q and -q
    describe the same gate, and either may be returned.
    """
    u00, u01, u10, u11 = entries(u)
    w = ((u00 + u11) / 2, 1j * (u01 + u10) / 2, (u10 - u01) / 2, 1j * (u00 - u11) / 2)
    big = max(w, key=abs)
    k = big.conjugate() / abs(big) if big else 1.0
    w0, wx, wy, wz = w
    return (w0 * k).real, (wx * k).real, (wy * k).real, (wz * k).real


class EulerZXZ(NamedTuple):
    """ZXZ Euler angles plus the global phase of the source matrix.

    theta in [0, pi]; phi, lam, gamma in [0, 2*pi).
    """

    theta: float
    phi: float
    lam: float
    gamma: float


def euler_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Canonical ZXZ matrix form with real non-negative top-left entry.

    [[cos(t/2), -e^{i lam} sin(t/2)], [e^{i phi} sin(t/2), e^{i(lam+phi)} cos(t/2)]]
    """
    import numpy as np
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (lam + phi)) * c],
        ]
    )


def euler_zxz(u) -> EulerZXZ:
    """Decompose a 2x2 unitary as e^{i gamma} * euler_matrix(theta, phi, lam).

    theta comes from |u00|; when theta is 0 or pi only one z-angle is
    determined, in which case lam is fixed to 0 and everything folds
    into phi.
    """
    if not is_unitary(u):
        raise InvalidUnitaryError("input is not unitary within 1e-9")
    a00, a01, a10, a11 = entries(u)
    theta = 2.0 * math.acos(min(max(abs(a00), 0.0), 1.0))
    if abs(a10) == 0.0:  # theta = 0: diagonal matrix
        gamma = cmath.phase(a00)
        phi = cmath.phase(a11) - gamma
        lam = 0.0
    elif abs(a00) == 0.0:  # theta = pi: anti-diagonal matrix
        gamma = cmath.phase(-a01)
        phi = cmath.phase(a10) - gamma
        lam = 0.0
    else:
        gamma = cmath.phase(a00)
        phi = cmath.phase(a10) - gamma
        lam = cmath.phase(-a01) - gamma
    return EulerZXZ(theta, mod_2pi(phi), mod_2pi(lam), mod_2pi(gamma))
