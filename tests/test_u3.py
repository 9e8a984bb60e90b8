import math

import numpy as np

from pulsegate import hs_fidelity, sequence_unitary, u3_compile
from pulsegate.ir import VirtualZ, XYPulse, pulse_count
from pulsegate.su2 import euler_matrix, euler_zxz, rx, rz
from pulsegate.u3 import u3_sequence

from conftest import random_unitary


class TestU3Sequence:
    def test_zero_z_angles(self, rng):
        # euler_matrix(theta, 0, 0) is the single-rotation special case
        for _ in range(20):
            theta = rng.uniform(0, math.pi)
            seq = u3_sequence(theta, 0.0, 0.0)
            m = euler_matrix(theta, 0.0, 0.0)
            assert abs(hs_fidelity(sequence_unitary(seq), m) - 1.0) < 1e-12

    def test_x_rotation_reachable_via_euler(self, rng):
        # the x-rotation itself round-trips through its own Euler angles
        for _ in range(20):
            theta = rng.uniform(0, math.pi)
            e = euler_zxz(rx(theta))
            seq = u3_sequence(e.theta, e.phi, e.lam)
            assert abs(hs_fidelity(sequence_unitary(seq), rx(theta)) - 1.0) < 1e-12

    def test_hadamard(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        seq = u3_sequence(math.pi / 2, 0.0, math.pi)
        assert abs(hs_fidelity(sequence_unitary(seq), h) - 1.0) < 1e-12

    def test_first_shift_is_lam_minus_pi_bit_for_bit(self):
        # Z_{lam - pi} and Z_{lam + pi} differ by a global phase but round differently
        # here; schedules are pinned bit for bit, so the shift is too
        assert u3_sequence(1.0, 0.5, 3.4)[0] == VirtualZ(0.2584073464102068)

    def test_identity_angles(self):
        seq = u3_sequence(0.0, 0.0, 0.0)
        assert abs(hs_fidelity(sequence_unitary(seq), np.eye(2)) - 1.0) < 1e-12

    def test_always_two_physical_pulses(self, rng):
        theta = rng.uniform(0, math.pi)
        phi, lam = rng.uniform(0, 2 * math.pi, 2)
        seq = u3_sequence(theta, phi, lam)
        assert pulse_count(seq) == 2
        assert all(p.angle == math.pi / 2 for p in seq if isinstance(p, XYPulse))

    def test_matches_euler_matrix(self, rng):
        for _ in range(100):
            theta = rng.uniform(0, math.pi)
            phi, lam = rng.uniform(0, 2 * math.pi, 2)
            m = euler_matrix(theta, phi, lam)
            assert abs(hs_fidelity(sequence_unitary(u3_sequence(theta, phi, lam)), m) - 1.0) < 1e-12


class TestU3Compile:
    def check(self, target):
        gate, report = u3_compile(target)
        assert gate.pulse_count == 2
        assert all(p.angle == math.pi / 2 for p in gate.pulses)
        assert gate.distance == math.pi
        assert gate.epsilon <= 1e-10
        assert report.pre_pass_distance == math.pi
        return gate

    def test_hadamard(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        self.check(h)

    def test_deterministic(self, rng):
        # a compile is a value: gate and report compare equal, field for field
        for target in [np.eye(2, dtype=complex), *(random_unitary(rng) for _ in range(20))]:
            assert u3_compile(target) == u3_compile(target)

    def test_identity_still_costs_two_pulses(self):
        self.check(np.eye(2, dtype=complex))

    def test_x_pi_does_not_collapse_to_one_pulse(self):
        # theta = pi zeroes the interior z rotation; the two pulses must
        # still not merge, the baseline cost is fixed by construction
        self.check(np.array([[0, -1j], [-1j, 0]], dtype=complex))

    def test_random_zx_targets(self, rng):
        for _ in range(100):
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            target = rz(phi) @ rx(theta)
            gate = self.check(target)
            assert hs_fidelity(target, gate.unitary()) >= 1.0 - 1e-10

    def test_random_unitaries(self, rng):
        for _ in range(1000):
            target = random_unitary(rng)
            gate = self.check(target)
            assert hs_fidelity(target, gate.unitary()) >= 1.0 - 1e-10

    def test_round_trip_through_euler(self, rng):
        target = random_unitary(rng)
        e = euler_zxz(target)
        seq = u3_sequence(e.theta, e.phi, e.lam)
        assert abs(hs_fidelity(sequence_unitary(seq), target) - 1.0) < 1e-12
