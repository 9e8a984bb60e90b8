"""EPS_FLOOR, checked by a 50-digit oracle built on the standard library.

`greedy.EPS_FLOOR` claims that a compile which says OK at eps down to
1e-24 has a true error of at most eps. Double precision cannot see that
far (1 - F cancels below about 1e-16), so this oracle recomputes the
error with `decimal` at 50 digits: each step is a quaternion, their
product S is formed exactly, and the error is the squared vector part of
A = S T^dag, (2|A01|^2 + 2|A10|^2 + |A00 - A11|^2) / 4.
"""

import math
from decimal import Context, Decimal, localcontext

import pytest

import pulsegate as pg
from pulsegate.greedy import EPS_FLOOR
from pulsegate.ir import CompiledGate, XYPulse


def cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """Taylor series of cos and sin, as in the `decimal` module's documented recipes."""
    sums = []
    for term, n in ((Decimal(1), 0), (x, 1)):
        total, last = term, None
        while total != last:
            term = -term * x * x / ((n + 1) * (n + 2))
            n += 2
            last, total = total, total + term
        sums.append(total)
    return sums[0], sums[1]


def true_error(target, gate) -> Decimal:
    """The gate error of `gate` against the complex 2x2 `target`, to 50 digits."""
    with localcontext(Context(prec=50)):
        s = (Decimal(1), Decimal(0), Decimal(0), Decimal(0))  # (w, x, y, z): w I - i (x X + y Y + z Z)
        steps = [(p.angle, p.phase) for p in gate.pulses] + [(gate.frame_phase, None)]
        for angle, phase in steps:
            c, sn = cos_sin(Decimal(angle) / 2)
            if phase is None:  # the trailing frame: a z rotation
                q = (c, Decimal(0), Decimal(0), sn)
            else:
                nx, ny = cos_sin(Decimal(phase))
                q = (c, sn * nx, sn * ny, Decimal(0))
            # later steps left-multiply: s = q s, the quaternion product for w I - i v.sigma
            (w1, x1, y1, z1), (w2, x2, y2, z2) = q, s
            s = (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2, w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                 w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2, w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)
        w, x, y, z = s
        # A = S T^dag, complex entries as (re, im) pairs; T's doubles convert exactly
        s_rows = (((w, -z), (-y, -x)), ((y, -x), (w, z)))
        t = [[complex(v) for v in row] for row in target]
        t_dag = [[(Decimal(t[j][i].real), -Decimal(t[j][i].imag)) for j in range(2)] for i in range(2)]

        def a(i, j):
            terms = [(s_rows[i][k], t_dag[k][j]) for k in range(2)]
            return (sum(p[0] * q[0] - p[1] * q[1] for p, q in terms),
                    sum(p[0] * q[1] + p[1] * q[0] for p, q in terms))

        (a00, a01), (a10, a11) = (a(0, 0), a(0, 1)), (a(1, 0), a(1, 1))
        return (2 * (a01[0] ** 2 + a01[1] ** 2) + 2 * (a10[0] ** 2 + a10[1] ** 2)
                + (a00[0] - a11[0]) ** 2 + (a00[1] - a11[1]) ** 2) / 4


def test_oracle_sees_an_overrotation_of_1e_13():
    # X_{t + d} against X_t: error sin^2(d / 2), about 2.5e-27, far below double's 1 - F
    theta, d = 1.2, 1e-13
    target = pg.sequence_unitary([XYPulse(0.0, theta)])
    gate = CompiledGate((XYPulse(0.0, theta + d),), 0.0, 0.0, 0.0, 1, 0)
    got = true_error(target, gate)
    assert float(got) == pytest.approx(math.sin((theta + d - theta) / 2) ** 2, rel=1e-9)


@pytest.mark.parametrize("n_axes", [6, 18, 16386])
def test_true_error_is_within_eps_down_to_the_floor(n_axes):
    # every 3rd grid target (3 is prime to the grid's 16 z angles): 43 targets x 3 eps
    dataset = pg.evaluation_dataset()[::3]
    axes = pg.allowed_axes(n_axes)
    worst = 0.0
    for eps in (1e-16, 1e-20, EPS_FLOOR):
        config = pg.GreedyConfig(eps_target=eps)
        for t in dataset:
            gate, _ = pg.greedy_compile(t.unitary, axes, config)
            ratio = float(true_error(t.unitary, gate)) / eps
            assert ratio <= 1.0, (t.theta, t.varphi, eps)
            worst = max(worst, ratio)
    assert worst > 0.5  # the schedules come close to eps: the check is not vacuous
