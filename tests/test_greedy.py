import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def scan_step(current, target, axes, step_angle):
    """Reference: the whole-set scan, scoring every axis with best_axis_step's expression."""
    a = current @ target.conj().T
    t0 = a[0, 0] + a[1, 1]
    tx = a[0, 1] + a[1, 0]
    ty = 1j * (a[0, 1] - a[1, 0])
    tz = a[0, 0] - a[1, 1]
    c = math.cos(step_angle / 2.0)
    s = math.sin(step_angle / 2.0)
    traces = c * t0 - 1j * s * (axes.nx * tx + axes.ny * ty + axes.nz * tz)
    fids = np.abs(traces) ** 2 / 4.0
    i = int(np.argmax(fids))
    return axes.axes[i], float(fids[i])


def product_fidelities(current, target, axes, step_angle, chunk=1 << 16):
    """Independent oracle: hs_fidelity(target, R_a @ current) for every axis.

    The same explicit product as brute_force_step, batched over the axes
    so that sets of a million axes stay affordable.
    """
    c, s = math.cos(step_angle / 2.0), math.sin(step_angle / 2.0)
    out = []
    for lo in range(0, axes.n_axes, chunk):
        nx, ny, nz = (v[lo:lo + chunk] for v in (axes.nx, axes.ny, axes.nz))
        r = np.empty((len(nx), 2, 2), dtype=complex)
        r[:, 0, 0] = c - 1j * s * nz
        r[:, 0, 1] = -1j * s * (nx - 1j * ny)
        r[:, 1, 0] = -1j * s * (nx + 1j * ny)
        r[:, 1, 1] = c + 1j * s * nz
        overlap = np.einsum("ij,kij->k", target.conj(), r @ current)
        out.append(np.abs(overlap) ** 2 / 4.0)
    return np.concatenate(out)


def su2_of(q, phase):
    """e^{i phase} (a I - i (b X + c Y + d Z)) for q = (a, b, c, d) normalised."""
    a, b, c, d = np.asarray(q) / math.sqrt(sum(x * x for x in q))
    return np.exp(1j * phase) * np.array([[a - 1j * d, -c - 1j * b], [c - 1j * b, a + 1j * d]])


quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: sum(x * x for x in q) > 1e-6
)
draws = st.tuples(
    quaternions, quaternions, st.floats(0.0, 2.0 * math.pi), st.floats(1e-6, math.pi)
)


@pytest.fixture(scope="module", params=[-1, 0, 1])
def crossover_axes(request):
    """Sets just below, at and just above the size where the window takes over."""
    return allowed_axes(greedy.WINDOW_MIN_AXES + request.param)


@pytest.fixture(scope="module")
def fine_axes():
    return allowed_axes(16386)


@pytest.fixture(scope="module")
def huge_axes():
    return allowed_axes(2**20 + 2)


class TestWindow:
    """Above WINDOW_MIN_AXES only +/-z and the neighbours of psi and psi + pi are scored."""

    def check_against_oracle(self, axes, draw):
        qu, qt, phase, angle = draw
        current, target = su2_of(qu, 0.0), su2_of(qt, phase)
        axis, fid = best_axis_step(current, target, axes, angle)
        fids = product_fidelities(current, target, axes, angle)
        top = int(np.argmax(fids))
        second = np.max(np.delete(fids, top))
        assert fid == pytest.approx(fids[top], abs=1e-14)
        if fids[top] - second > 1e-15:
            assert axis == axes.axes[top]
            assert (axis, fid) == scan_step(current, target, axes, angle)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_matches_oracle_at_crossover(self, crossover_axes, draw):
        self.check_against_oracle(crossover_axes, draw)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_matches_oracle_on_fine_grid(self, fine_axes, draw):
        self.check_against_oracle(fine_axes, draw)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_matches_oracle_on_million_axes(self, huge_axes, draw):
        self.check_against_oracle(huge_axes, draw)

    def test_matches_scan_on_random_draws(self, rng, fine_axes):
        for _ in range(300):
            current, target = random_unitary(rng), random_unitary(rng)
            angle = rng.uniform(1e-6, math.pi)
            assert best_axis_step(current, target, fine_axes, angle) == scan_step(
                current, target, fine_axes, angle
            )

    def test_pure_z_residual(self, fine_axes):
        # tx = ty = 0 exactly: psi is atan2(0, 0), and a z line wins
        current, target = rz(0.3), rz(1.0)
        for angle in (0.7, 2.0, math.pi):
            axis, fid = best_axis_step(current, target, fine_axes, angle)
            assert axis.is_z_line
            assert (axis, fid) == scan_step(current, target, fine_axes, angle)

    def test_no_residual_is_a_full_tie(self, fine_axes):
        # every axis scores cos^2(t/2): the first axis in set order wins
        target = random_unitary(np.random.default_rng(3))
        axis, fid = best_axis_step(target, target, fine_axes, 0.4)
        assert axis == fine_axes.axes[0]
        assert fid == scan_step(target, target, fine_axes, 0.4)[1]

    @pytest.mark.parametrize("k", [0, 1, 4096, 5000, 12288, 16383])
    def test_psi_on_a_grid_phase(self, fine_axes, k):
        phase = fine_axes.axes[2 + k].phase
        axis, fid = best_axis_step(np.eye(2), xy_rotation(phase, 0.9), fine_axes, 0.9)
        assert axis == fine_axes.axes[2 + k]
        assert fid == pytest.approx(1.0, abs=1e-14)
        assert (axis, fid) == scan_step(np.eye(2), xy_rotation(phase, 0.9), fine_axes, 0.9)

    def test_psi_midway_first_in_set_order_wins(self):
        # with m = 16386 phases, psi = pi/2 lies midway between phases 4096
        # and 4097; a real y rotation makes tx exactly 0, so the two score
        # the same bits and the first one in set order must win
        axes = allowed_axes(16388)
        first, second = axes.axes[2 + 4096], axes.axes[2 + 4097]
        assert (first.phase + second.phase) / 2 == pytest.approx(math.pi / 2, abs=1e-15)
        c, s = math.cos(0.45), math.sin(0.45)
        target = np.array([[c, -s], [s, c]], dtype=complex)
        axis, fid = best_axis_step(np.eye(2), target, axes, 0.9)
        assert axes.ny[2 + 4096] == axes.ny[2 + 4097]
        assert axis == first
        assert (axis, fid) == scan_step(np.eye(2), target, axes, 0.9)

    @pytest.mark.parametrize("shift", [-0.3, -0.7, 0.3])
    def test_window_wraps_across_phase_zero(self, fine_axes, shift):
        # psi just below or above phase 0, and psi + pi just below or above 2 pi
        step = 2.0 * math.pi / 16384
        for psi in (shift * step, math.pi + shift * step):
            target = xy_rotation(psi, 1.1)
            axis, fid = best_axis_step(np.eye(2), target, fine_axes, 1.1)
            assert abs(math.remainder(axis.phase - psi, 2.0 * math.pi)) <= step / 2
            assert (axis, fid) == scan_step(np.eye(2), target, fine_axes, 1.1)

    @pytest.mark.parametrize("phase", [2.5, -2.0, 4.0])
    def test_best_axis_on_the_psi_plus_pi_side(self, fine_axes, phase):
        # psi is read mod pi: in (-pi/2, pi/2] when |tx| >= |ty|, else in
        # (0, pi), so each of these residual axes lies at psi + pi
        target = xy_rotation(phase, 0.8)
        axis, fid = best_axis_step(np.eye(2), target, fine_axes, 0.8)
        assert abs(math.remainder(axis.phase - phase, 2.0 * math.pi)) <= math.pi / 16384
        assert (axis, fid) == scan_step(np.eye(2), target, fine_axes, 0.8)

    @pytest.mark.parametrize("which", ["current", "target"])
    def test_non_finite_input_matches_scan(self, fine_axes, which):
        nan = np.full((2, 2), math.nan, dtype=complex)
        current, target = (nan, np.eye(2)) if which == "current" else (np.eye(2), nan)
        axis, fid = best_axis_step(current, target, fine_axes, 0.5)
        assert axis == fine_axes.axes[0] == scan_step(current, target, fine_axes, 0.5)[0]
        assert math.isnan(fid)


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
