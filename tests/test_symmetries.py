"""Metamorphic tests: the compiler must respect the symmetries of its problem.

Z-rotation covariance: the axis set is invariant under a z rotation by one
grid step, delta = 2 pi / (n_axes - 2). Conjugating a target by Rz(k delta)
rotates every pulse axis by k delta and leaves the angles and the trailing
frame alone, so the schedule must come out the same with every phase
shifted by k delta. Exact ties go to the first axis in set order, which a
rotation does not preserve, so the targets are Haar draws, where ties have
measure zero.

Global phase: e^{i gamma} T is the same gate as T, so it must compile to
as many pulses and, up to rounding in the removal of the phase, to the same
distance.
"""

import cmath
import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsegate import GreedyConfig, allowed_axes, evaluation_dataset, greedy_compile
from pulsegate.su2 import TWO_PI, rz

SIZES = [6, 10, 18, 34, 16386]
EPS = [1e-4, 1e-8, 1e-12]


def haar_su2(seed: int) -> np.ndarray:
    """Haar-random SU(2) element: a uniform unit quaternion from four Gaussians."""
    gen = random.Random(seed)
    q = [gen.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in q))
    a, b = complex(q[0], q[1]) / norm, complex(q[2], q[3]) / norm
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_axes=st.sampled_from(SIZES),
    eps=st.sampled_from(EPS),
    k=st.integers(1, 2**20),
)
def test_z_rotation_shifts_every_phase(seed, n_axes, eps, k):
    axes, config = allowed_axes(n_axes), GreedyConfig(eps_target=eps)
    shift = TWO_PI * (k % (n_axes - 2)) / (n_axes - 2)
    target = haar_su2(seed)
    rotated = rz(shift) @ target @ rz(-shift)
    gate, _ = greedy_compile(target, axes, config)
    other, _ = greedy_compile(rotated, axes, config)
    assert other.iterations == gate.iterations
    assert other.pulse_count == gate.pulse_count
    assert abs(math.remainder(other.frame_phase - gate.frame_phase, TWO_PI)) <= 1e-9
    for p, q in zip(gate.pulses, other.pulses):
        assert abs(q.angle - p.angle) <= 1e-9
        assert abs(math.remainder(q.phase - p.phase - shift, TWO_PI)) <= 1e-9


GRID = evaluation_dataset()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    index=st.integers(0, len(GRID) - 1),
    n_axes=st.sampled_from([6, 18, 16386]),
    eps=st.sampled_from([1e-4, 1e-12, 1e-20]),
    gamma=st.floats(-10.0, 10.0),
)
def test_global_phase_changes_nothing_but_rounding(index, n_axes, eps, gamma):
    axes, config = allowed_axes(n_axes), GreedyConfig(eps_target=eps)
    target = GRID[index].unitary
    gate, _ = greedy_compile(target, axes, config)
    other, _ = greedy_compile(cmath.exp(1j * gamma) * target, axes, config)
    assert other.pulse_count == gate.pulse_count
    assert math.isclose(other.distance, gate.distance, rel_tol=0.0, abs_tol=1e-12)
