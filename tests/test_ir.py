import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsegate import (
    GreedyConfig,
    XYPulse,
    absorb_virtual_z,
    allowed_axes,
    evaluation_dataset,
    greedy_compile,
    hs_fidelity,
    merge_adjacent,
    pulse_count,
    sequence_unitary,
)
from pulsegate import ir
from pulsegate.cli import NAMED_GATES
from pulsegate.greedy import EPS_FLOOR
from pulsegate.ir import (
    ANGLE_EPS,
    PHASE_EPS,
    CompiledGate,
    VirtualZ,
    canonical_xy,
    distance,
    finish,
    schedule_error,
)
from pulsegate.su2 import mod_2pi, rotation_unitary, rx, rz, xy_rotation

from conftest import random_canonical_sequence
from test_grid_schedules import haar_targets


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

    def test_canonical_pulse_passes_through(self, rng):
        # folding a canonical pulse gives back the same floats; phase -0.0 folds to +0.0
        edges = [(math.nextafter(2 * math.pi, 0), math.pi), (5e-324, ANGLE_EPS), (0.0, 1.0), (3.0, 1.0)]
        draws = zip(rng.uniform(0, 2 * math.pi, 200), rng.uniform(ANGLE_EPS, math.pi, 200))
        for phase, angle in edges + [(float(p), float(a)) for p, a in draws]:
            folded = canonical_xy(phase, angle)
            assert (folded.phase.hex(), folded.angle.hex()) == (phase.hex(), angle.hex())
        assert canonical_xy(-0.0, 1.0).phase.hex() == (0.0).hex()

    def test_full_turn_phase_folds_to_zero(self):
        assert canonical_xy(2 * math.pi, 1.0).phase.hex() == (0.0).hex()

    def test_angle_eps_is_kept(self):
        assert canonical_xy(0.3, ANGLE_EPS) is not None


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
        # the merge returns frame shifts as given; absorb_virtual_z sums them
        seq = [VirtualZ(0.3), VirtualZ(0.4)]
        out = merge_adjacent(seq)
        assert len(out) == 2 and all(got is step for got, step in zip(out, seq))
        pulses, frame = absorb_virtual_z(seq)
        assert pulses == [] and frame == pytest.approx(0.7)

    def test_full_turn_cancels(self):
        # a pulse that folds with nothing comes back as given; absorb_virtual_z drops it
        pulse = XYPulse(0.3, 2 * math.pi)
        out = merge_adjacent([pulse])
        assert len(out) == 1 and out[0] is pulse
        assert absorb_virtual_z([pulse]) == ([], 0.0)

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
        # the pulses cancel, which leaves the frame shifts adjacent for absorb_virtual_z to sum
        seq = [VirtualZ(0.5), XYPulse(1.0, 0.7), XYPulse(1.0 + math.pi, 0.7), VirtualZ(-0.5)]
        out = merge_adjacent(seq)
        assert out == [VirtualZ(0.5), VirtualZ(-0.5)]
        assert absorb_virtual_z(out) == ([], 0.0)

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
# array, .dot against @, and absorb's pass-through against its shift rule.
# On a numpy release where .dot and @ round differently these fail by name,
# before any golden file does.

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

    @given(SCHEDULES)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_absorb_matches_shift_rule(self, steps):
        # raw steps, as the greedy hands them over, and the same steps merged
        for seq in (steps, merge_adjacent(steps)):
            pulses, frame = absorb_virtual_z(seq)
            want, want_frame = absorb_by_shift_rule(seq)
            assert pulses == want and exact(pulses) == exact(want)
            assert frame.hex() == want_frame.hex()


def canonicalizing_merge(steps) -> list:
    """merge_adjacent as it was when it canonicalized every pulse first; it is fed pulses only."""
    assert all(isinstance(raw, XYPulse) for raw in steps)
    out = []
    for raw in steps:
        if 0.0 < raw.phase < 2 * math.pi and ANGLE_EPS <= raw.angle <= math.pi:
            step = raw  # already canonical
        else:
            step = canonical_xy(raw.phase, raw.angle)
        while step is not None and out:
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


class TestMergeOfAbsorbedPulses:
    """On absorb_virtual_z's pulses the pulse-only merge gives the canonicalizing merge's bits."""

    def test_greedy_compiles_match_the_canonicalizing_merge(self, monkeypatch):
        raw, finish_ = [], ir.finish

        def spy(target, steps, *args, **kwargs):
            raw.append(list(steps))
            return finish_(target, steps, *args, **kwargs)

        monkeypatch.setattr(ir, "finish", spy)
        # a half turn whose absorbed pulses fold at 6 axes (one pulse and ~1.886 rad shorter)
        folding = rotation_unitary((math.cos(3 * math.pi / 14) / math.sqrt(2), 1 / math.sqrt(2),
                                    math.sin(3 * math.pi / 14) / math.sqrt(2)), math.pi)
        targets = [t.unitary for t in evaluation_dataset()] + haar_targets(32, seed=33) + [folding]
        for n_axes in (6, 18, 16386):
            axes = allowed_axes(n_axes)
            for eps in (1e-4, 1e-12, EPS_FLOOR):
                config = GreedyConfig(eps)
                for target in targets:
                    greedy_compile(target, axes, config)
        assert len(raw) == 9 * len(targets)
        phase_zero = folded = 0
        for steps in raw:
            pulses = absorb_virtual_z(steps)[0]
            got = merge_adjacent(pulses)
            assert exact(got) == exact(canonicalizing_merge(pulses))
            phase_zero += any(p.phase == 0.0 for p in pulses)
            folded += len(got) < len(pulses)
        assert phase_zero > 0 and folded > 0


def error_with_frame_factor(target, pulses) -> float:
    """schedule_error of a frame-0 schedule with the trailing rz(0.0) still multiplied in."""
    u = rz(0.0).dot(sequence_unitary(pulses))
    return max(1.0 - hs_fidelity(target, u), 0.0)


# hand-built schedules for gates whose entries hold exact zeros, one each (up to global phase)
HAND_BUILT = {
    "I": [XYPulse(0.0, math.pi), XYPulse(math.pi, math.pi)],
    "X": [XYPulse(0.0, math.pi)],
    "Y": [XYPulse(math.pi / 2, math.pi)],
    "Z": [XYPulse(0.0, math.pi), XYPulse(math.pi / 2, math.pi)],
    "H": [XYPulse(math.pi / 2, math.pi / 2), XYPulse(0.0, math.pi)],
}


class TestFrameZeroFactor:
    """schedule_error leaves rz(0.0) out of a frame-0 product, and reads the same bits."""

    @pytest.mark.parametrize("n_axes", [6, 18])
    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    def test_grid_compiles(self, n_axes, eps):
        axes, config = allowed_axes(n_axes), GreedyConfig(eps)
        with_pulses = 0
        for *_, target in evaluation_dataset():
            gate, _ = greedy_compile(target, axes, config)
            if gate.frame_phase != 0.0:
                continue
            with_pulses += bool(gate.pulses)
            want = error_with_frame_factor(target, gate.pulses).hex()
            assert schedule_error(target, gate.pulses, 0.0).hex() == want
            assert gate.epsilon.hex() == want
        assert with_pulses > 0

    @pytest.mark.parametrize("name", sorted(NAMED_GATES))
    def test_no_pulses(self, name):
        target = NAMED_GATES[name]
        assert schedule_error(target, [], 0.0).hex() == error_with_frame_factor(target, []).hex()

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_schedules(self, name):
        target, pulses = NAMED_GATES[name], HAND_BUILT[name]
        assert any(x.real == 0.0 or x.imag == 0.0 for row in target for x in row)
        want = error_with_frame_factor(target, pulses)
        assert want < 1e-15
        for t in (target, np.array(target)):
            assert schedule_error(t, pulses, 0.0).hex() == want.hex()


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
