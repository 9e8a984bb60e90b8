import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsegate import (
    XYPulse,
    absorb_virtual_z,
    hs_fidelity,
    merge_adjacent,
    pulse_count,
    sequence_unitary,
)
from pulsegate.ir import (
    ANGLE_EPS,
    CompiledGate,
    VirtualZ,
    canonical_step,
    canonical_virtual_z,
    canonical_xy,
    distance,
    finish,
    schedule_error,
)
from pulsegate.su2 import mod_2pi, rotation_unitary, rx, rz, xy_rotation

from conftest import random_canonical_sequence


def phase_equal(u, v, tol=1e-12):
    return abs(hs_fidelity(u, v) - 1.0) < tol


class TestCanonicalization:
    def test_xy_angle_folds_to_half_turn(self):
        p = canonical_xy(0.3, 1.5 * math.pi)
        assert p.angle == pytest.approx(0.5 * math.pi)
        assert p.phase == pytest.approx(0.3 + math.pi)

    def test_folded_phase_is_phase_plus_pi_bit_for_bit(self):
        # phase + pi and phase - pi name one axis but round differently here; schedules
        # are pinned bit for bit, so the fold is too
        assert canonical_xy(3.4, 4.0) == XYPulse(0.25840734641020724, 2 * math.pi - 4.0)

    def test_xy_folding_preserves_unitary_up_to_phase(self, rng):
        for _ in range(200):
            phase, angle = rng.uniform(0, 2 * math.pi), rng.uniform(-10, 10)
            p = canonical_xy(phase, angle)
            u = xy_rotation(phase, angle)
            if p is None:
                assert phase_equal(u, np.eye(2))
            else:
                assert 0.0 < p.angle <= math.pi
                assert 0.0 <= p.phase < 2 * math.pi
                assert phase_equal(u, xy_rotation(p.phase, p.angle))

    def test_trivial_steps_drop(self):
        assert canonical_xy(1.0, 0.0) is None
        assert canonical_xy(1.0, 2 * math.pi) is None
        assert canonical_virtual_z(0.0) is None
        assert canonical_virtual_z(2 * math.pi) is None

    def test_canonical_pulse_passes_through(self, rng):
        # folding a canonical pulse gives back the same floats, so the pulse
        # itself is returned; phase -0.0 still folds to 0.0
        edges = [(math.nextafter(2 * math.pi, 0), math.pi), (5e-324, ANGLE_EPS), (3.0, 1.0)]
        draws = zip(rng.uniform(0, 2 * math.pi, 200), rng.uniform(ANGLE_EPS, math.pi, 200))
        for phase, angle in edges + [(float(p), float(a)) for p, a in draws]:
            pulse = XYPulse(phase, angle)
            assert canonical_step(pulse) is pulse
            folded = canonical_xy(phase, angle)
            assert (folded.phase.hex(), folded.angle.hex()) == (phase.hex(), angle.hex())
        assert math.copysign(1.0, canonical_step(XYPulse(-0.0, 1.0)).phase) == 1.0

    def test_full_turn_phase_folds_to_zero(self):
        assert canonical_step(XYPulse(2 * math.pi, 1.0)).phase == 0.0

    def test_angle_eps_is_kept(self):
        assert canonical_xy(0.3, ANGLE_EPS) is not None

    def test_virtual_z_range(self):
        z = canonical_virtual_z(1.5 * math.pi)
        assert z.alpha == pytest.approx(-0.5 * math.pi)


class TestSequenceUnitary:
    def test_empty_is_identity(self):
        assert np.allclose(sequence_unitary([]), np.eye(2))

    def test_empty_unitary_cannot_be_written(self):
        # each call returns a fresh identity, so writing to one cannot change the next
        u = sequence_unitary([])
        u *= 2
        assert np.array_equal(sequence_unitary([]), np.eye(2))

    def test_coaxial_pulses_add(self):
        u = sequence_unitary([XYPulse(0.0, math.pi / 2), XYPulse(0.0, math.pi / 2)])
        assert np.allclose(u, rx(math.pi), atol=1e-14)

    def test_virtual_z_is_z_rotation(self):
        assert np.allclose(sequence_unitary([VirtualZ(0.8)]), rz(0.8))

    def test_five_step_x_identity(self, rng):
        # Z_{-pi/2} X_{pi/2} Z_{pi-theta} X_{pi/2} Z_{-pi/2}  ==  X_theta (up to phase)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            seq = [
                VirtualZ(-math.pi / 2),
                XYPulse(0.0, math.pi / 2),
                VirtualZ(math.pi - theta),
                XYPulse(0.0, math.pi / 2),
                VirtualZ(-math.pi / 2),
            ]
            assert phase_equal(sequence_unitary(seq), rx(theta))


class TestMergeAdjacent:
    def test_equal_phase_pulses_merge(self):
        out = merge_adjacent([XYPulse(0.0, math.pi / 4), XYPulse(0.0, math.pi / 4)])
        assert out == [XYPulse(0.0, math.pi / 2)]
        # circular distance 2e-13 across 0/2 pi, not the raw difference 2 pi - 2e-13
        out = merge_adjacent([XYPulse(1e-13, 0.5), XYPulse(2 * math.pi - 1e-13, 0.25)])
        assert out == [XYPulse(1e-13, 0.75)]
        # in the other order the raw difference folds to 2 pi - 2e-13, which is 2e-13 around the circle
        out = merge_adjacent([XYPulse(2 * math.pi - 1e-13, 0.5), XYPulse(1e-13, 0.25)])
        assert out == [XYPulse(2 * math.pi - 1e-13, 0.75)]

    def test_virtual_z_merge(self):
        out = merge_adjacent([VirtualZ(0.3), VirtualZ(0.4)])
        assert len(out) == 1 and out[0].alpha == pytest.approx(0.7)

    def test_full_turn_cancels(self):
        assert merge_adjacent([XYPulse(0.3, 2 * math.pi)]) == []

    def test_different_lines_do_not_merge(self):
        # the second pair's circular phase distance is exactly PHASE_EPS, outside the strict bound
        pairs = ([XYPulse(0.0, math.pi / 2), VirtualZ(math.pi / 2)], [XYPulse(1e-12, 0.5), XYPulse(0.0, 0.3)])
        for seq in pairs:
            assert merge_adjacent(seq) == seq

    def test_antipodal_phases_subtract(self):
        # the last three pairs are antipodal across the 0/2 pi boundary
        pairs = [
            (0.0, math.pi),
            (1e-13, math.pi - 1e-13),
            (2 * math.pi - 1e-13, math.pi + 1e-13),
            (0.1, math.pi + 0.1),
        ]
        for phase_a, phase_b in pairs:
            seq = [XYPulse(phase_a, 1.0), XYPulse(phase_b, 0.4)]
            out = merge_adjacent(seq)
            assert len(out) == 1
            assert out[0].phase == phase_a and out[0].angle == pytest.approx(0.6)
            assert phase_equal(sequence_unitary(out), sequence_unitary(seq))

    def test_cascading_cancellation(self):
        seq = [VirtualZ(0.5), XYPulse(1.0, 0.7), XYPulse(1.0 + math.pi, 0.7), VirtualZ(-0.5)]
        assert merge_adjacent(seq) == []

    def test_random_sequences_preserved(self, rng):
        for _ in range(300):
            seq = random_canonical_sequence(rng)
            out = merge_adjacent(seq)
            assert len(out) <= len(seq)
            assert phase_equal(sequence_unitary(out), sequence_unitary(seq))
            assert distance(out) <= distance(seq) + 1e-12

    def test_idempotent(self, rng):
        for _ in range(100):
            seq = random_canonical_sequence(rng)
            once = merge_adjacent(seq)
            assert merge_adjacent(once) == once


class TestAbsorbVirtualZ:
    def test_lone_virtual_z(self):
        pulses, frame = absorb_virtual_z([VirtualZ(0.9)])
        assert pulses == [] and frame == pytest.approx(0.9)

    def test_lone_pulse_passes_through(self):
        pulses, frame = absorb_virtual_z([XYPulse(1.1, 0.6)])
        assert pulses == [XYPulse(1.1, 0.6)] and frame == 0.0

    def test_phase_shift_sign(self, rng):
        # the emitted phase is phi - alpha: pinned by direct matrix comparison
        for _ in range(1000):
            alpha = rng.uniform(-math.pi, math.pi)
            phi, theta = rng.uniform(0, 2 * math.pi), rng.uniform(0.1, math.pi)
            seq = [VirtualZ(alpha), XYPulse(phi, theta)]
            pulses, frame = absorb_virtual_z(seq)
            assert len(pulses) == 1
            expected = rz(alpha) @ xy_rotation(phi - alpha, theta)
            assert phase_equal(sequence_unitary(seq), expected)
            got = rz(frame) @ sequence_unitary(pulses)
            assert phase_equal(sequence_unitary(seq), got)

    def test_random_sequences_exact(self, rng):
        for _ in range(300):
            seq = random_canonical_sequence(rng)
            pulses, frame = absorb_virtual_z(seq)
            assert all(isinstance(p, XYPulse) for p in pulses)
            assert pulse_count(pulses) <= pulse_count(seq)
            got = rz(frame) @ sequence_unitary(pulses)
            assert phase_equal(got, sequence_unitary(seq))

    def test_idempotent_on_absorbed(self, rng):
        for _ in range(100):
            seq = random_canonical_sequence(rng)
            pulses, _ = absorb_virtual_z(seq)
            again, frame = absorb_virtual_z(pulses)
            assert again == pulses and frame == 0.0


class TestScheduleError:
    def test_matches_steps_with_trailing_virtual_z(self, rng):
        # the frame left-multiplies the pulses' product; frame 0 and no pulses included
        schedules = [absorb_virtual_z(random_canonical_sequence(rng)) for _ in range(100)]
        schedules += [([], 0.0), ([], 1.3), ([XYPulse(0.4, 1.1)], 0.0)]
        for pulses, frame in schedules:
            u = rz(frame) @ sequence_unitary(pulses)
            assert np.array_equal(sequence_unitary(pulses + [VirtualZ(frame)]), u)
            gate = CompiledGate(tuple(pulses), frame, 0.0, distance(pulses), len(pulses), 0)
            assert np.array_equal(gate.unitary(), u)
            target = sequence_unitary(random_canonical_sequence(rng))
            assert schedule_error(target, pulses, frame) == max(1.0 - hs_fidelity(target, u), 0.0)

    def test_exact_schedule_reads_zero(self):
        assert schedule_error(rx(0.7), [XYPulse(0.0, 0.7)], 0.0) == 0.0

    def test_nan_propagates(self):
        assert math.isnan(schedule_error(rx(0.7), [XYPulse(0.0, math.nan)], 0.0))
        assert math.isnan(schedule_error(rx(0.7), [XYPulse(0.0, 0.7)], math.nan))


class TestCostMetrics:
    def test_two_pulse_schedule_distance(self):
        seq = [
            VirtualZ(0.4),
            XYPulse(0.0, math.pi / 2),
            VirtualZ(1.0),
            XYPulse(0.0, math.pi / 2),
            VirtualZ(-0.2),
        ]
        assert distance(seq) == pytest.approx(math.pi)
        assert pulse_count(seq) == 2

    def test_empty(self):
        assert distance([]) == 0.0 and isinstance(distance([]), float)
        assert pulse_count([]) == 0

    def test_virtual_z_is_free(self):
        assert distance([VirtualZ(1.0)]) == 0.0
        assert pulse_count([VirtualZ(0.5), XYPulse(0.0, 1.0), VirtualZ(0.2), XYPulse(1.0, 0.5)]) == 2

    def test_distance_is_the_correctly_rounded_sum(self):
        # a left-to-right sum (the builtin sum() before Python 3.12) drops both 1e-16s
        angles = (1.0, 1e-16, 1e-16)
        got = distance([VirtualZ(0.5), *(XYPulse(0.0, a) for a in angles)])
        assert got == 1.0000000000000002 == math.fsum(angles)


# --------------------------------------------------------------------------
# The numpy calls and pass-throughs on the compile path, bit for bit against
# the forms they replaced: a flat array reshaped against the nested-row
# array, .dot against @, canonical_step's pass-through against folding, and
# absorb's pass-through against its shift rule. On a numpy release where
# .dot and @ round differently these fail by name, before any golden file does.

ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, ANGLE_EPS, 5e-324]),
    st.floats(-8.0, 8.0),
)
STEPS = st.one_of(st.builds(XYPulse, ANGLES, ANGLES), st.builds(VirtualZ, ANGLES))
SCHEDULES = st.lists(STEPS, min_size=1, max_size=8)
ZERO = st.sampled_from([0.0, -0.0])
AXES = st.one_of(
    st.builds(lambda phi, z: (math.cos(phi), math.sin(phi), z), ANGLES, ZERO),
    st.tuples(ZERO, ZERO, st.sampled_from([1.0, -1.0])),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    .filter(lambda v: math.hypot(*v) > 1e-3)
    .map(lambda v: tuple(x / math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) for x in v)),
)


def bits(a) -> list:
    """The float64 view of a complex array as raw bits: signed zeros count."""
    return np.ascontiguousarray(a).view(np.float64).view(np.uint64).tolist()


def nested_rotation(axis, theta):
    """rotation_unitary's documented formula, built as a nested-row array."""
    nx, ny, nz = (float(x) for x in axis)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c - 1j * s * nz, -1j * s * (nx - 1j * ny)], [-1j * s * (nx + 1j * ny), c + 1j * s * nz]]
    )


def absorb_by_shift_rule(steps):
    """absorb_virtual_z with every pulse rebuilt as canonical_xy(phase - z_acc, angle)."""
    z_acc, pulses = 0.0, []
    for step in steps:
        if isinstance(step, VirtualZ):
            z_acc += step.alpha
        elif (shifted := canonical_xy(step.phase - z_acc, step.angle)) is not None:
            pulses.append(shifted)
    return pulses, mod_2pi(z_acc)


def exact(steps) -> list:
    return [(s.alpha.hex(),) if isinstance(s, VirtualZ) else (s.phase.hex(), s.angle.hex())
            for s in steps]


class TestNumpyCallsBitForBit:
    @given(AXES, ANGLES)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_rotation_matches_nested_rows(self, axis, theta):
        got, want = rotation_unitary(axis, theta), nested_rotation(axis, theta)
        assert got.shape == (2, 2) and got.dtype == want.dtype
        assert bits(got) == bits(want)

    @given(SCHEDULES)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_sequence_matches_matmul_fold(self, steps):
        def step_unitary(step):
            return rz(step.alpha) if isinstance(step, VirtualZ) else xy_rotation(step.phase, step.angle)

        want = step_unitary(steps[0])
        for step in steps[1:]:
            want = step_unitary(step) @ want
        assert bits(sequence_unitary(steps)) == bits(want)

    @given(STEPS)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_canonical_step_matches_the_fold(self, step):
        # the pass-through of an already canonical step returns what folding would
        if isinstance(step, VirtualZ):
            want = canonical_virtual_z(step.alpha)
        else:
            want = canonical_xy(step.phase, step.angle)
        got = canonical_step(step)
        assert got == want and exact([got] if got else []) == exact([want] if want else [])

    @given(SCHEDULES)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_absorb_matches_shift_rule(self, steps):
        # raw steps, and the canonical ones the greedy hands over after merging
        for seq in (steps, merge_adjacent(steps)):
            pulses, frame = absorb_virtual_z(seq)
            want, want_frame = absorb_by_shift_rule(seq)
            assert pulses == want and exact(pulses) == exact(want)
            assert frame.hex() == want_frame.hex()


class TestFinishCounts:
    """finish's cost numbers against their definitions, on raw and on finished steps."""

    @given(st.one_of(st.lists(STEPS, max_size=10), st.lists(st.builds(VirtualZ, ANGLES), max_size=4)),
           st.booleans())
    @example([], True)
    @example([], False)
    @example([VirtualZ(-1.0), VirtualZ(4.0)], True)
    @example([XYPulse(0.3, -1.0), VirtualZ(0.5), XYPulse(7.0, 1.5), XYPulse(0.0, 0.0)], False)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_finish_counts_raw_steps_and_finished_pulses(self, steps, merge):
        gate, report = finish(np.eye(2), steps, 7, 3, merge=merge)
        raw_angles = [step.angle for step in steps if isinstance(step, XYPulse)]
        assert report.pre_pass_distance == math.fsum(raw_angles)
        assert report.pre_pass_pulse_count == len(raw_angles)
        assert gate.distance == math.fsum([pulse.angle for pulse in gate.pulses])
        assert gate.pulse_count == len(gate.pulses) == report.post_pass_pulse_count
        assert (gate.iterations, report.iterations, report.damped_steps) == (7, 7, 3)
