import math

import numpy as np
import pytest

from pulsegate import (
    CompileError,
    GreedyConfig,
    XYPulse,
    allowed_axes,
    best_axis_step,
    compose,
    greedy_compile,
    hs_fidelity,
    residual_angle,
    rotation_unitary,
)
from pulsegate import greedy
from pulsegate.greedy import InvalidConfigurationError
from pulsegate.su2 import rx, rz, xy_rotation

from conftest import random_unitary


def brute_force_step(current, target, axes, step_angle):
    """Independent oracle: explicit product fidelity for every axis."""
    best_axis, best_fid = None, -1.0
    for axis in axes.axes:
        u = rotation_unitary(axis.unit_vector(), step_angle) @ current
        f = hs_fidelity(target, u)
        if f > best_fid:
            best_axis, best_fid = axis, f
    return best_axis, best_fid


class TestAllowedAxes:
    def test_six_axes(self):
        axes = allowed_axes(6)
        assert axes.n_axes == 6
        assert [a.z_sign for a in axes.axes[:2]] == [1, -1]
        phases = [a.phase for a in axes.axes[2:]]
        assert phases == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_ten_axes_spacing(self):
        axes = allowed_axes(10)
        phases = [a.phase for a in axes.axes[2:]]
        assert len(phases) == 8
        assert np.allclose(np.diff(phases), math.pi / 4)

    def test_too_few_axes_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            allowed_axes(3)

    def test_nesting(self):
        sets = {n: {(a.z_sign, a.phase) for a in allowed_axes(n).axes} for n in (6, 10, 18, 34)}
        assert sets[6] < sets[10] < sets[18] < sets[34]


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfigurationError):
            GreedyConfig(eps_target=0.0)


class TestBestAxisStep:
    def test_exact_target_on_xy_axis(self):
        axes = allowed_axes(6)
        axis, fid = best_axis_step(np.eye(2), rx(math.pi / 2), axes, math.pi / 2)
        assert not axis.is_z_line and axis.phase == 0.0
        assert fid == pytest.approx(1.0, abs=1e-14)

    def test_exact_target_on_z_axis(self):
        axes = allowed_axes(6)
        axis, fid = best_axis_step(np.eye(2), rz(0.7), axes, 0.7)
        assert axis.z_sign == 1
        assert fid == pytest.approx(1.0, abs=1e-14)

    def test_matches_brute_force(self, rng):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        axes = allowed_axes(18)
        angle = residual_angle(hs_fidelity(h, np.eye(2)))
        axis, fid = best_axis_step(np.eye(2), h, axes, angle)
        oracle_axis, oracle_fid = brute_force_step(np.eye(2), h, axes, angle)
        assert axis == oracle_axis
        assert fid == pytest.approx(oracle_fid, abs=1e-13)

    def test_matches_brute_force_random(self, rng):
        axes = allowed_axes(18)
        for _ in range(200):
            current = random_unitary(rng)
            target = random_unitary(rng)
            angle = rng.uniform(1e-3, math.pi)
            axis, fid = best_axis_step(current, target, axes, angle)
            oracle_axis, oracle_fid = brute_force_step(current, target, axes, angle)
            assert fid == pytest.approx(oracle_fid, abs=1e-12)
            assert axis == oracle_axis


class TestGreedyCompile:
    def test_identity_target_is_empty(self):
        gate, report = greedy_compile(np.eye(2), allowed_axes(6), GreedyConfig(1e-6))
        assert gate.pulses == ()
        assert gate.epsilon == 0.0
        assert gate.distance == 0.0
        assert gate.pulse_count == 0
        assert report.iterations == 0

    def test_single_pulse_for_allowed_xy_target(self):
        gate, _ = greedy_compile(rx(math.pi / 2), allowed_axes(18), GreedyConfig(1e-6))
        assert gate.pulses == (XYPulse(0.0, math.pi / 2),)
        assert gate.distance == pytest.approx(math.pi / 2)
        assert gate.distance < math.pi

    def test_targets_on_allowed_axes_need_at_most_one_pulse(self, rng):
        axes = allowed_axes(10)
        config = GreedyConfig(1e-8)
        for axis in axes.axes:
            theta = rng.uniform(0.1, math.pi)
            target = rotation_unitary(axis.unit_vector(), theta)
            gate, _ = greedy_compile(target, axes, config)
            assert gate.pulse_count == (0 if axis.is_z_line else 1)

    def test_random_zx_targets_meet_tolerance(self, rng):
        axes = allowed_axes(18)
        config = GreedyConfig(1e-4)
        for _ in range(50):
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            target = compose(rx(theta), rz(phi))
            gate, report = greedy_compile(target, axes, config)
            assert gate.epsilon <= 1e-4
            # independent re-evaluation of the emitted schedule
            u = np.eye(2, dtype=complex)
            for p in gate.pulses:
                u = xy_rotation(p.phase, p.angle) @ u
            u = rz(gate.frame_phase) @ u
            assert 1.0 - hs_fidelity(target, u) <= 1e-4 + 1e-12

    def test_soundness_random_unitaries(self, rng):
        axes = allowed_axes(18)
        config = GreedyConfig(1e-5)
        for _ in range(50):
            target = random_unitary(rng)
            gate, _ = greedy_compile(target, axes, config)
            assert hs_fidelity(target, gate.unitary()) >= 1.0 - 1e-5 - 1e-12

    def test_deterministic(self, rng):
        target = random_unitary(rng)
        axes = allowed_axes(18)
        config = GreedyConfig(1e-6)
        g1, r1 = greedy_compile(target, axes, config)
        g2, r2 = greedy_compile(target, axes, config)
        assert g1.pulses == g2.pulses
        assert g1.frame_phase == g2.frame_phase
        assert g1.epsilon == g2.epsilon
        assert r1.iterations == r2.iterations

    def test_fidelity_monotone(self, rng):
        # replay the loop with best_axis_step: accepted fidelities must
        # strictly increase until the threshold is crossed
        target = random_unitary(rng)
        axes = allowed_axes(6)
        config = GreedyConfig(1e-6)
        _, report = greedy_compile(target, axes, config)
        u = np.eye(2, dtype=complex)
        fid = hs_fidelity(target, u)
        fids = [fid]
        while 1.0 - fid > config.eps_target:
            angle = residual_angle(fid)
            axis, best = best_axis_step(u, target, axes, angle)
            while best <= fid:
                angle *= greedy.DAMPING_FACTOR
                assert angle >= greedy.MIN_ANGLE
                axis, best = best_axis_step(u, target, axes, angle)
            u = rotation_unitary(axis.unit_vector(), angle) @ u
            fid = best
            fids.append(fid)
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert len(fids) - 1 == report.iterations

    def test_report_pre_pass_metrics(self, rng):
        target = random_unitary(rng)
        gate, report = greedy_compile(target, allowed_axes(18), GreedyConfig(1e-6))
        assert report.pre_pass_distance >= gate.distance - 1e-12
        assert report.pre_pass_pulse_count >= report.post_pass_pulse_count
        assert report.post_pass_pulse_count == gate.pulse_count

    def test_nan_target_fails_loudly(self):
        target = np.full((2, 2), math.nan, dtype=complex)
        with pytest.raises(CompileError):
            greedy_compile(target, allowed_axes(6), GreedyConfig(1e-4))
