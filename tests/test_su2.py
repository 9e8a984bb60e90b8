import math

import numpy as np
import pytest

from pulsegate import GreedyConfig, allowed_axes, greedy_compile, u3_compile
from pulsegate.su2 import (
    EulerZXZ,
    InvalidAxisError,
    InvalidUnitaryError,
    euler_matrix,
    euler_zxz,
    hs_fidelity,
    is_unitary,
    rotation_unitary,
)
from pulsegate.su2 import mod_2pi, quaternion, rx, rz, xy_rotation

from conftest import random_axis, random_unitary

X_AXIS = (1.0, 0.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


class TestRotationUnitary:
    def test_zero_angle_is_identity(self, rng):
        u = rotation_unitary(random_axis(rng), 0.0)
        assert np.allclose(u, np.eye(2), atol=1e-15)

    def test_x_pi(self):
        u = rotation_unitary(X_AXIS, math.pi)
        assert np.allclose(u, np.array([[0, -1j], [-1j, 0]]), atol=1e-15)

    def test_z_half_pi(self):
        u = rotation_unitary(Z_AXIS, math.pi / 2)
        expect = np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)])
        assert np.allclose(u, expect, atol=1e-15)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(InvalidAxisError):
            rotation_unitary((1.0, 1.0, 0.0), 0.3)

    def test_random_rotations_are_special_unitary(self, rng):
        # one million samples, one scalar call each; unitarity and det
        # checked entrywise over the stacked outputs
        n = 1_000_000
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        angles = rng.uniform(-10, 10, n)
        u = np.empty((n, 2, 2), dtype=complex)
        for i in range(n):
            u[i] = rotation_unitary(axes[i], angles[i])
        a, b = u[:, 0, 0], u[:, 0, 1]
        c, d = u[:, 1, 0], u[:, 1, 1]
        worst_unitary = max(
            np.max(np.abs(np.abs(a) ** 2 + np.abs(c) ** 2 - 1.0)),
            np.max(np.abs(np.abs(b) ** 2 + np.abs(d) ** 2 - 1.0)),
            np.max(np.abs(a.conj() * b + c.conj() * d)),
        )
        worst_det = np.max(np.abs(a * d - b * c - 1.0))
        assert worst_unitary < 1e-12
        assert worst_det < 1e-12


class TestCompose:
    def test_coaxial_angles_add(self):
        assert np.allclose(rx(0.9) @ rx(0.4), rx(1.3), atol=1e-14)

    def test_full_turn_is_minus_identity(self):
        assert np.allclose(rx(math.pi) @ rx(math.pi), -np.eye(2), atol=1e-14)


class TestHsFidelity:
    def test_self_fidelity_is_one(self, rng):
        u = random_unitary(rng)
        assert hs_fidelity(u, u) == pytest.approx(1.0, abs=1e-14)

    def test_coaxial_closed_form(self, rng):
        for _ in range(100):
            t1, t2 = rng.uniform(0, 2 * math.pi, 2)
            f = hs_fidelity(rx(t1), rx(t2))
            assert f == pytest.approx(math.cos((t1 - t2) / 2) ** 2, abs=1e-12)

    def test_orthogonal_case(self):
        assert hs_fidelity(np.eye(2), rx(math.pi)) == pytest.approx(0.0, abs=1e-14)

    def test_global_phase_blind(self):
        assert hs_fidelity(np.eye(2), -np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_symmetry_and_invariances(self, rng):
        for _ in range(200):
            u, v, w = (random_unitary(rng) for _ in range(3))
            alpha = rng.uniform(0, 2 * math.pi)
            f = hs_fidelity(u, v)
            assert abs(hs_fidelity(v, u) - f) < 1e-12
            assert abs(hs_fidelity(np.exp(1j * alpha) * u, v) - f) < 1e-12
            assert abs(hs_fidelity(w @ u, w @ v) - f) < 1e-12


def from_quaternion(q):
    """a0 I - i (ax X + ay Y + az Z), built from the Pauli matrices."""
    a0, ax, ay, az = q
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    return a0 * np.eye(2) - 1j * sum(a * p for a, p in zip((ax, ay, az), paulis))


class TestQuaternion:
    def test_round_trip(self, rng):
        for _ in range(500):
            u = random_unitary(rng)
            q = quaternion(u)
            assert sum(x * x for x in q) == pytest.approx(1.0, abs=1e-14)
            assert abs(hs_fidelity(u, from_quaternion(q)) - 1.0) < 1e-14

    def test_global_phase_removed(self, rng):
        for _ in range(200):
            v = rotation_unitary(random_axis(rng), rng.uniform(0, 2 * math.pi))
            q = quaternion(v)
            for g in rng.uniform(0, 2 * math.pi, 4):
                p = quaternion(np.exp(1j * g) * v)
                sign = 1.0 if np.dot(p, q) >= 0 else -1.0
                assert np.allclose(p, sign * np.asarray(q), atol=1e-15)

    def test_axis_angle(self, rng):
        # R_n(t) = cos(t/2) I - i sin(t/2) n.sigma
        for _ in range(200):
            n, t = random_axis(rng), rng.uniform(0, 2 * math.pi)
            p = quaternion(rotation_unitary(n, t))
            q = (math.cos(t / 2), *(math.sin(t / 2) * n))
            sign = 1.0 if np.dot(p, q) >= 0 else -1.0
            assert np.allclose(p, sign * np.asarray(q), atol=1e-15)

    def test_vector_part_is_the_gate_error(self, rng):
        # |a|^2 of U T^dag is 1 - F, with no cancellation for a tiny residual
        target = random_unitary(rng)
        for theta in (0.3, 1e-3, 1e-9):
            u = rotation_unitary(random_axis(rng), theta) @ target
            _, *a = quaternion(u @ target.conj().T)
            assert sum(x * x for x in a) == pytest.approx(math.sin(theta / 2) ** 2, rel=1e-9)
            if theta > 1e-6:
                assert sum(x * x for x in a) == pytest.approx(1.0 - hs_fidelity(target, u), rel=1e-9)

    def test_non_finite_stays_non_finite(self):
        assert all(math.isnan(x) for x in quaternion(np.full((2, 2), math.nan)))


class TestEulerZXZ:
    def reconstruct(self, e: EulerZXZ) -> np.ndarray:
        return np.exp(1j * e.gamma) * euler_matrix(e.theta, e.phi, e.lam)

    def test_identity(self):
        e = euler_zxz(np.eye(2))
        assert (e.theta, e.phi, e.lam, e.gamma) == (0.0, 0.0, 0.0, 0.0)

    def test_pure_x_rotation(self, rng):
        theta = rng.uniform(0.1, math.pi - 0.1)
        e = euler_zxz(euler_matrix(theta, 0.0, 0.0))
        assert e.theta == pytest.approx(theta, abs=1e-12)
        assert e.phi == pytest.approx(0.0, abs=1e-12)
        assert e.lam == pytest.approx(0.0, abs=1e-12)
        assert e.gamma == pytest.approx(0.0, abs=1e-12)

    def test_hadamard(self):
        # substituting into the canonical matrix form and solving entrywise
        # gives (pi/2, 0, pi) with no global phase
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        e = euler_zxz(h)
        assert e.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert e.phi == pytest.approx(0.0, abs=1e-12)
        assert e.lam == pytest.approx(math.pi, abs=1e-12)
        assert e.gamma == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(self.reconstruct(e) - h)) < 1e-12

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            u = random_unitary(rng)
            e = euler_zxz(u)
            assert 0.0 <= e.theta <= math.pi
            for a in (e.phi, e.lam, e.gamma):
                assert 0.0 <= a < 2 * math.pi
            assert np.max(np.abs(self.reconstruct(e) - u)) < 1e-10

    def test_degenerate_theta_pi(self, rng):
        u = np.exp(1j * rng.uniform(0, 2 * math.pi)) * np.array(
            [[0, -1j], [-1j, 0]], dtype=complex
        )
        e = euler_zxz(u)
        assert e.theta == pytest.approx(math.pi, abs=1e-12)
        assert e.lam == 0.0
        assert np.max(np.abs(self.reconstruct(e) - u)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidUnitaryError):
            euler_zxz(np.array([[1, 0], [0, 2]], dtype=complex))


class TestIsUnitary:
    @pytest.mark.parametrize("scale, accepted", [(1 - 1e-6, True), (1 + 1e-6, False)])
    def test_tolerance_edge(self, scale, accepted):
        # diag(1, 1 + d): the (1, 1) entry of u^dag u - I is 2d + d^2, set just inside
        # or just outside 1e-9
        x = 1e-9 * scale
        u = np.diag([1.0, 1.0 + x / (math.sqrt(1.0 + x) + 1.0)]).astype(complex)
        assert is_unitary(u) is accepted
        assert is_unitary(tuple(map(tuple, u.tolist()))) is accepted

    def test_deviation_of_exactly_1e_9_is_accepted(self):
        # the upper-right entry of u^dag u - I is exactly 1e-9 and the diagonal is exactly 0:
        # "within 1e-9" includes the bound
        assert is_unitary(((1.0, 1e-9), (0.0, 1.0))) is True
        assert is_unitary(((1.0, math.nextafter(1e-9, 1.0)), (0.0, 1.0))) is False

    @pytest.mark.parametrize(
        "u", [np.diag([2.5, 0.4]), ((1e308 + 1e308j, 0), (0, 1))], ids=["2.5", "abs-overflows"]
    )
    def test_large_entry_rejected(self, u):
        assert is_unitary(u) is False

    @pytest.mark.parametrize(
        "u", [np.eye(3), [[1, 0], [0]], [1, 0, 0, 1], [[1, 0, 0], [0, 1, 0]]], ids=["3x3", "ragged", "1-D", "2x3"]
    )
    def test_not_2x2_is_rejected(self, u):
        # both compilers refuse it alike, through `entries`, the one 2x2 reader
        assert is_unitary(u) is False
        with pytest.raises(InvalidUnitaryError):
            euler_zxz(u)
        with pytest.raises(InvalidUnitaryError):
            u3_compile(u)
        with pytest.raises(InvalidUnitaryError, match="not a 2x2 matrix"):
            greedy_compile(u, allowed_axes(6), GreedyConfig(1e-2))


class TestModTwoPi:
    def test_full_turn_folds_to_positive_zero(self):
        # -0.0 would print as "-0" in schedule JSON
        assert math.copysign(1.0, mod_2pi(-2 * math.pi)) == 1.0

    def test_tiny_negative_folds_below_two_pi(self):
        assert 0.0 <= mod_2pi(-1e-300) < 2 * math.pi


class TestConventions:
    """Numeric pins for the package-wide z-rotation sign convention."""

    def test_xy_rotation_equals_z_conjugated_x(self, rng):
        for _ in range(100):
            phi, theta = rng.uniform(0, 2 * math.pi, 2)
            lhs = xy_rotation(phi, theta)
            rhs = rz(phi) @ rx(theta) @ rz(-phi)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_euler_matrix_as_zxz_product(self, rng):
        for _ in range(100):
            theta = rng.uniform(0, math.pi)
            phi, lam = rng.uniform(0, 2 * math.pi, 2)
            m = euler_matrix(theta, phi, lam)
            zxz = rz(phi + math.pi / 2) @ rx(theta) @ rz(lam - math.pi / 2)
            assert abs(hs_fidelity(m, zxz) - 1.0) < 1e-12
