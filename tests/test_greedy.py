import cmath
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsegate import (
    CompileError,
    GreedyConfig,
    XYPulse,
    allowed_axes,
    evaluation_dataset,
    greedy_compile,
    hs_fidelity,
    rotation_unitary,
    run_sweep,
    u3_compile,
)
from pulsegate import greedy, ir
from pulsegate.cli import NAMED_GATES
from pulsegate.greedy import (
    EPS_FLOOR,
    MAX_AXES,
    InvalidConfigurationError,
    best_axis_step,
)
from pulsegate.su2 import quaternion, rx, rz, xy_rotation

from conftest import random_unitary
from test_grid_schedules import haar_targets


def unit_vector(axes, i):
    """Axis i's unit vector from its definition: +z, -z, then the XY phases."""
    if i < 2:
        return (0.0, 0.0, 1.0 - 2 * i)
    return (math.cos(axes.phase(i)), math.sin(axes.phase(i)), 0.0)


def state_of(current, target):
    """The loop state of a schedule with unitary `current`: the quaternion of U T^dag."""
    return quaternion(current @ target.conj().T)


def brute_force_step(current, target, axes, step_angle):
    """Independent oracle: explicit product fidelity for every axis; (index, 1 - F)."""
    best_i, best_fid = None, -1.0
    for i in range(axes.n_axes):
        u = rotation_unitary(unit_vector(axes, i), step_angle) @ current
        f = hs_fidelity(target, u)
        if f > best_fid:
            best_i, best_fid = i, f
    return best_i, 1.0 - best_fid


def product_errors(current, target, axes, step_angle, indices=None, chunk=1 << 16):
    """Independent oracle: 1 - hs_fidelity(target, R_a @ current) for every axis a.

    The same explicit product as brute_force_step, batched over the axes
    (or over `indices` only) so that sets of a million axes stay
    affordable. Unit vectors are built from `phase(i)`.
    """
    if indices is None:
        indices = np.arange(axes.n_axes)
    c, s = math.cos(step_angle / 2.0), math.sin(step_angle / 2.0)
    out = []
    for lo in range(0, len(indices), chunk):
        i = np.asarray(indices[lo:lo + chunk])
        phi = axes.phase(np.maximum(i, 2))
        xy = i >= 2
        nx = np.where(xy, np.cos(phi), 0.0)
        ny = np.where(xy, np.sin(phi), 0.0)
        nz = np.where(xy, 0.0, 1.0 - 2.0 * i)
        r = np.empty((len(i), 2, 2), dtype=complex)
        r[:, 0, 0] = c - 1j * s * nz
        r[:, 0, 1] = -1j * s * (nx - 1j * ny)
        r[:, 1, 0] = -1j * s * (nx + 1j * ny)
        r[:, 1, 1] = c + 1j * s * nz
        overlap = np.einsum("ij,kij->k", target.conj(), r @ current)
        out.append(1.0 - np.abs(overlap) ** 2 / 4.0)
    return np.concatenate(out)


def assert_same_state(p, q, tol=1e-12):
    """Equal quaternions up to the overall sign, which is a global phase."""
    sign = 1.0 if sum(x * y for x, y in zip(p, q)) >= 0 else -1.0
    assert max(abs(x - sign * y) for x, y in zip(p, q)) <= tol, (p, q)


def vector_part_error(target, gate):
    """|a|^2 of T^dag U for the gate's schedule, from plain complex arithmetic.

    With T^dag U = e^{ig} (a0 I - i a.sigma), the entries give
    |a|^2 = (|m00 - m11|^2 + |m01 + m10|^2 + |m01 - m10|^2) / 4 without
    subtracting a fidelity from 1.
    """

    def mul(a, b):
        return (
            (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
        )

    u = ((1 + 0j, 0j), (0j, 1 + 0j))
    for p in gate.pulses:
        c, s, e = math.cos(p.angle / 2), math.sin(p.angle / 2), cmath.exp(1j * p.phase)
        u = mul(((c, -1j * s * e.conjugate()), (-1j * s * e, c)), u)
    z = cmath.exp(-0.5j * gate.frame_phase)
    u = ((z * u[0][0], z * u[0][1]), (z.conjugate() * u[1][0], z.conjugate() * u[1][1]))
    t = [[complex(x) for x in row] for row in target]
    m = mul(((t[0][0].conjugate(), t[1][0].conjugate()), (t[0][1].conjugate(), t[1][1].conjugate())), u)
    return (abs(m[0][0] - m[1][1]) ** 2 + abs(m[0][1] + m[1][0]) ** 2 + abs(m[0][1] - m[1][0]) ** 2) / 4


class TestAllowedAxes:
    def test_six_axes(self):
        axes = allowed_axes(6)
        assert axes.n_axes == 6
        assert [unit_vector(axes, i)[2] for i in range(2)] == [1, -1]
        phases = [axes.phase(i) for i in range(2, 6)]
        assert phases == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_ten_axes_spacing(self):
        axes = allowed_axes(10)
        phases = [axes.phase(i) for i in range(2, axes.n_axes)]
        assert len(phases) == 8
        assert np.allclose(np.diff(phases), math.pi / 4)

    def test_too_few_axes_rejected(self):
        # the two XY phases of a 4-axis set, 0 and pi, lie on one line, and at 5 axes a
        # step can lower nothing (TestDescentBound::test_five_axes_can_stall)
        for n in (3, 4, 5):
            with pytest.raises(InvalidConfigurationError, match=f"^n_axes must be >= 6, got {n}$"):
                allowed_axes(n)
        assert allowed_axes(6).n_axes == 6
        # a count of over 4,300 digits, which str() refuses to write, is echoed in full too
        with pytest.raises(InvalidConfigurationError) as info:
            allowed_axes(-(10**5000))
        assert str(info.value) == "n_axes must be >= 6, got -1" + "0" * 5000

    def test_count_must_be_an_integer(self):
        # a float count once built fractional "uniform" phases: 6.5 gave a first XY phase of 0.2963
        for bad in (6.5, 6.0, "6", None, math.nan):
            with pytest.raises(InvalidConfigurationError, match="integer"):
                allowed_axes(bad)
        axes = allowed_axes(np.int64(6))  # numpy's integers are read as Python ints
        assert axes == allowed_axes(6) and type(axes.n_axes) is int and type(axes.phase(3)) is float

    def test_nesting(self):
        sets = {}
        for n in (6, 10, 18, 34):
            axes = allowed_axes(n)
            sets[n] = {unit_vector(axes, i) for i in range(n)}
            assert len(sets[n]) == n
        assert sets[6] < sets[10] < sets[18] < sets[34]

    def test_million_axes_memory_bound(self):
        tracemalloc.start()
        try:
            allowed_axes(2**20 + 2)
            allowed_axes(10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_max_axes_bound(self):
        axes = allowed_axes(MAX_AXES)
        i, error, _ = best_axis_step(state_of(np.eye(2), xy_rotation(1.0, 0.5)), axes, 0.5)
        assert i >= 2 and error < 1e-24
        with pytest.raises(InvalidConfigurationError):
            allowed_axes(MAX_AXES + 1)
        with pytest.raises(InvalidConfigurationError):
            allowed_axes(10**400)

    def test_adjacent_phases_distinct_at_max_axes(self):
        axes = allowed_axes(MAX_AXES)
        m = MAX_AXES - 2
        rng = np.random.default_rng(5)
        starts = [0, 1, m // 4, m // 2 - 1, m // 2, m - 3, m - 2]
        starts += [int(j) for j in rng.integers(0, m - 1, 2000)]
        for j in starts:
            assert axes.phase(2 + j) < axes.phase(3 + j), j


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfigurationError):
            GreedyConfig(eps_target=0.0)
        with pytest.raises(InvalidConfigurationError):
            GreedyConfig(eps_target=EPS_FLOOR / 10)
        assert GreedyConfig(eps_target=EPS_FLOOR).eps_target == 1e-24

    def test_rejects_eps_one(self):
        with pytest.raises(InvalidConfigurationError):
            GreedyConfig(1.0)

    def test_eps_target_must_be_a_real_number(self):
        # a string used to raise a bare TypeError from the range check, and a numpy float was
        # stored as it came, so a sweep row printed eps_target=np.float64(0.01)
        for bad in ("1e-3", None, 1e-3 + 0j, [1e-3]):
            with pytest.raises(InvalidConfigurationError, match="real number"):
                GreedyConfig(bad)
        for real in (np.float64(1e-3), np.float32(0.25), Fraction(1, 1000), 1e-3):
            config = GreedyConfig(real)
            assert type(config.eps_target) is float and config.eps_target == float(real)
        with pytest.raises(InvalidConfigurationError, match="must be in"):
            GreedyConfig(np.float64(2.0))
        [row] = run_sweep([6], np.array([1e-2]))
        assert type(row.eps_target) is float and "np." not in repr(row)

    @pytest.mark.parametrize("huge", [10**400, -10**400, Fraction(10**400), Fraction(-10**401, 3)])
    def test_real_too_large_for_a_float_is_refused(self, huge):
        # float(10**400) raises OverflowError; the value is out of range whatever its float
        with pytest.raises(InvalidConfigurationError, match="must be in"):
            GreedyConfig(huge)
        with pytest.raises(InvalidConfigurationError, match="must be in"):
            run_sweep([6], [huge])


class TestBestAxisStep:
    def test_exact_target_on_xy_axis(self):
        axes = allowed_axes(6)
        i, error, _ = best_axis_step(state_of(np.eye(2), rx(math.pi / 2)), axes, math.pi / 2)
        assert i == 2 and axes.phase(i) == 0.0
        assert error == pytest.approx(0.0, abs=1e-28)

    def test_exact_target_on_z_axis(self):
        axes = allowed_axes(6)
        i, error, _ = best_axis_step(state_of(np.eye(2), rz(0.7)), axes, 0.7)
        assert i == 0
        assert error == pytest.approx(0.0, abs=1e-28)

    def test_matches_brute_force(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        axes = allowed_axes(18)
        a0, *a = state_of(np.eye(2), h)
        angle = 2.0 * math.atan2(math.sqrt(sum(x * x for x in a)), abs(a0))
        i, error, _ = best_axis_step((a0, *a), axes, angle)
        oracle_i, oracle_error = brute_force_step(np.eye(2), h, axes, angle)
        assert i == oracle_i
        assert error == pytest.approx(oracle_error, abs=1e-13)

    def test_matches_brute_force_random(self, rng):
        axes = allowed_axes(18)
        for _ in range(200):
            current = random_unitary(rng)
            target = random_unitary(rng)
            angle = rng.uniform(1e-3, math.pi)
            i, error, _ = best_axis_step(state_of(current, target), axes, angle)
            oracle_i, oracle_error = brute_force_step(current, target, axes, angle)
            assert error == pytest.approx(oracle_error, abs=1e-12)
            assert i == oracle_i

    def test_new_state_is_the_rotated_state(self, rng):
        for n_axes in (6, 18, 16386):
            axes = allowed_axes(n_axes)
            for _ in range(50):
                current, target = random_unitary(rng), random_unitary(rng)
                angle = rng.uniform(1e-3, math.pi)
                i, error, new = best_axis_step(state_of(current, target), axes, angle)
                rotated = rotation_unitary(unit_vector(axes, i), angle) @ current
                assert_same_state(new, state_of(rotated, target))
                assert error == new[1] ** 2 + new[2] ** 2 + new[3] ** 2

    def test_scan_order_matches_set_order_bit_for_bit(self):
        # the XY candidates are visited without a set, repeats included; at m = 3
        # every scan repeats an index, and lo = hi needs m <= 2, so n_axes 3, 4
        # and 5 are built as AxisSet directly, below allowed_axes' floor
        draw = random.Random(7)
        pi_below = math.nextafter(math.pi, 0.0)
        sizes = [3, 4, *range(5, 43), 16386, 2**40 + 2]
        for n_axes in sizes:
            axes, m = greedy.AxisSet(n_axes), n_axes - 2
            step = 2.0 * math.pi / m
            # psi at +/-pi, one ulp inside, on the last grid phase's interval (hi = m - 1),
            # on grid phases and midpoints, each with its neighbours a few ulps away
            centres = [math.pi, -math.pi, pi_below, -pi_below, math.pi - step / 2, math.pi - step,
                       0.0, step, -step, step / 2, -step / 2]
            centres += [draw.uniform(-math.pi, math.pi) for _ in range(8)]
            psis = []
            for centre in centres:
                p = q = centre
                psis.append(centre)
                for _ in range(2):
                    p, q = math.nextafter(p, math.inf), math.nextafter(q, -math.inf)
                    psis += [p, q]
            states = []
            for psi in psis:
                for a0, az in ((0.8, 0.05), (-0.6, -0.3), (0.0, 0.0)):
                    r = math.sqrt(1.0 - a0 * a0 - az * az)
                    states.append((a0, r * math.cos(psi), r * math.sin(psi), az))
            # atan2 reads exactly +/-pi only from a zero ay, signed
            states += [(0.5, -0.75, 0.0, 0.2), (0.5, -0.75, -0.0, 0.2)]
            states += [tuple(draw.uniform(-1.0, 1.0) for _ in range(4)) for _ in range(20)]
            for state in states:
                for angle in (math.pi, 0.3, 1e-7):
                    i, error, new = best_axis_step(state, axes, angle)
                    ref_i, ref_error, ref_new = set_order_step(state, axes, angle)
                    assert i == ref_i, (state, n_axes, angle)
                    assert error.hex() == ref_error.hex(), (state, n_axes, angle)
                    assert [x.hex() for x in new] == [x.hex() for x in ref_new], (state, n_axes, angle)


def set_order_step(state, axes, step_angle):
    """best_axis_step as it was written with its XY candidates in a sorted set: the bit-for-bit reference."""
    cos, sin = math.cos, math.sin
    a0, ax, ay, az = state
    c, s = cos(step_angle / 2.0), sin(step_angle / 2.0)
    cx, cy, cz = c * ax, c * ay, c * az
    margin = greedy.TIE_RTOL * (ax * ax + ay * ay + az * az + s * s)
    sx, sy, s0 = s * ax, s * ay, s * a0
    bx, by, bz = cx - sy, cy + sx, cz + s0
    best_i, best_error, best = 0, bx * bx + by * by + bz * bz, (az, bx, by, bz)
    bx, by, bz = cx + sy, cy - sx, cz - s0
    error = bx * bx + by * by + bz * bz
    if error < best_error - margin:
        best_i, best_error, best = 1, error, (-az, bx, by, bz)
    psi = math.atan2(ay, ax)
    if math.isfinite(psi):
        m = axes.n_axes - 2
        lo = math.floor(psi * m / greedy.TWO_PI)
        hi = math.floor((psi + math.pi) * m / greedy.TWO_PI)
        for j in sorted({lo % m, (lo + 1) % m, hi % m, (hi + 1) % m}):
            phi = greedy.TWO_PI * j / m
            nx, ny = cos(phi), sin(phi)
            bx = cx + s * (a0 * nx + ny * az)
            by = cy + s * (a0 * ny - nx * az)
            bz = cz + s * (nx * ay - ny * ax)
            error = bx * bx + by * by + bz * bz
            if error < best_error - margin:
                best_i, best_error, best = 2 + j, error, (nx * ax + ny * ay, bx, by, bz)
    na, bx, by, bz = best
    return best_i, best_error, (c * a0 - s * na, bx, by, bz)


def cross_product_step(state, axes, step_angle):
    """Reference step: every candidate through the generic (c a0 - s n.a, c a + s a0 n + s n x a).

    The same candidates, margin and set-order tie rule as best_axis_step,
    with each unit vector written out in full, zeros included.
    """
    a0, ax, ay, az = state
    c = math.cos(step_angle / 2.0)
    s = math.sin(step_angle / 2.0)
    m = axes.n_axes - 2
    psi = math.atan2(ay, ax)
    candidates = [0, 1]
    if math.isfinite(psi):
        lo = math.floor(psi * m / (2.0 * math.pi))
        hi = math.floor((psi + math.pi) * m / (2.0 * math.pi))
        candidates += [2 + j for j in sorted({lo % m, (lo + 1) % m, hi % m, (hi + 1) % m})]
    margin = greedy.TIE_RTOL * (ax * ax + ay * ay + az * az + s * s)
    best = None
    for i in candidates:
        nx, ny, nz = unit_vector(axes, i)
        bx = c * ax + s * (a0 * nx + ny * az - nz * ay)
        by = c * ay + s * (a0 * ny + nz * ax - nx * az)
        bz = c * az + s * (a0 * nz + nx * ay - ny * ax)
        error = bx * bx + by * by + bz * bz
        if best is None or error < best[1] - margin:
            b0 = c * a0 - s * (nx * ax + ny * ay + nz * az)
            best = (i, error, (b0, bx, by, bz))
    return best


SPECIAL_COMPONENTS = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324]
STEP_SIZES = [5, 6, 7, 10, 18, 34, 16386, 10**12, MAX_AXES]
STEP_ANGLES = [math.pi, 1e-7, 0.0]


class TestClosedFormStep:
    """best_axis_step's closed forms give the generic cross-product step's results exactly."""

    def test_matches_cross_product_step(self):
        # seeded finite states: each component is a special value (signed
        # zeros, units, the smallest magnitudes) or uniform in [-1, 1]
        draw = random.Random(2).random
        axes = {n: greedy.AxisSet(n) for n in STEP_SIZES}  # 5 axes is below allowed_axes' floor
        for _ in range(20_000):
            state = tuple(
                SPECIAL_COMPONENTS[int(len(SPECIAL_COMPONENTS) * draw())]
                if draw() < 0.4
                else 2.0 * draw() - 1.0
                for _ in range(4)
            )
            n_axes = STEP_SIZES[int(len(STEP_SIZES) * draw())]
            angle = STEP_ANGLES[int(len(STEP_ANGLES) * draw())] if draw() < 0.75 else math.pi * draw()
            i, error, new = best_axis_step(state, axes[n_axes], angle)
            ref_i, ref_error, ref_new = cross_product_step(state, axes[n_axes], angle)
            assert i == ref_i, (state, n_axes, angle)
            assert error.hex() == ref_error.hex(), (state, n_axes, angle)
            # equal under ==: a zero component may differ in sign only
            assert new == ref_new, (state, n_axes, angle)


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


def tie_margin(state, step_angle):
    """How much lower a later axis's error must be to replace an earlier one."""
    return greedy.TIE_RTOL * (state[1] ** 2 + state[2] ** 2 + state[3] ** 2 + math.sin(step_angle / 2) ** 2)


def check_choice(i, error, errors, margin):
    """The chosen axis's error is its oracle error, within the tie margin of the best.

    When one axis beats all others by more than twice the margin (plus
    1 - F rounding), it must be the one chosen.
    """
    top = int(np.argmin(errors))
    assert error == pytest.approx(errors[i], abs=1e-14)
    assert error <= errors[top] + margin + 1e-14
    if np.min(np.delete(errors, top)) - errors[top] > 1e-15 + 2 * margin:
        assert i == top


@pytest.fixture(scope="module", params=[6, 10, 18, 34])
def small_axes(request):
    return allowed_axes(request.param)


@pytest.fixture(scope="module", params=[-1, 0, 1])
def crossover_axes(request):
    """999, 1000 and 1001 axes: odd and even phase counts between the paper's sets and a fine grid."""
    return allowed_axes(1000 + request.param)


@pytest.fixture(scope="module")
def fine_axes():
    return allowed_axes(16386)


@pytest.fixture(scope="module")
def huge_axes():
    return allowed_axes(2**20 + 2)


class TestWindow:
    """Only +/-z and the neighbours of psi and psi + pi are scored, at every set size."""

    def check_against_oracle(self, axes, draw):
        qu, qt, phase, angle = draw
        current, target = su2_of(qu, 0.0), su2_of(qt, phase)
        state = state_of(current, target)
        i, error, new = best_axis_step(state, axes, angle)
        check_choice(i, error, product_errors(current, target, axes, angle), tie_margin(state, angle))
        rotated = rotation_unitary(unit_vector(axes, i), angle) @ current
        assert_same_state(new, state_of(rotated, target))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_matches_oracle_on_small_sets(self, small_axes, draw):
        self.check_against_oracle(small_axes, draw)

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

    @pytest.mark.parametrize("n_axes", [10**12, MAX_AXES])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_no_better_axis_near_psi_on_huge_sets(self, n_axes, draw):
        # too many axes to scan: the 256 phases around psi and around
        # psi + pi, and the z lines, must not beat the chosen axis
        axes = allowed_axes(n_axes)
        qu, qt, phase, angle = draw
        current, target = su2_of(qu, 0.0), su2_of(qt, phase)
        state = state_of(current, target)
        i, error, _ = best_axis_step(state, axes, angle)
        m = n_axes - 2
        psi = math.atan2(state[2], state[1])
        near = [0, 1]
        for centre in (psi, psi + math.pi):
            j = round(centre * m / (2 * math.pi))
            near += [2 + (j + k) % m for k in range(-128, 128)]
        errors = product_errors(current, target, axes, angle, indices=near)
        assert i in near
        check_choice(near.index(i), error, errors, tie_margin(state, angle))

    def test_matches_scan_on_random_draws(self, rng, fine_axes):
        # the scan is the oracle over the whole set
        for _ in range(300):
            current, target = random_unitary(rng), random_unitary(rng)
            angle = rng.uniform(1e-6, math.pi)
            state = state_of(current, target)
            i, error, _ = best_axis_step(state, fine_axes, angle)
            check_choice(i, error, product_errors(current, target, fine_axes, angle), tie_margin(state, angle))

    def test_pure_z_residual(self, fine_axes):
        # ax = ay = 0 exactly: psi is atan2(0, 0), and a z line wins
        current, target = rz(0.3), rz(1.0)
        for angle in (0.7, 2.0, math.pi):
            i, error, _ = best_axis_step(state_of(current, target), fine_axes, angle)
            assert i < 2
            assert error == pytest.approx(np.min(product_errors(current, target, fine_axes, angle)), abs=1e-14)

    def test_no_residual_is_a_full_tie(self, fine_axes):
        # every axis scores sin^2(t/2): the first axis in set order wins
        target = random_unitary(np.random.default_rng(3))
        i, error, _ = best_axis_step(state_of(target, target), fine_axes, 0.4)
        assert i == 0
        assert error == pytest.approx(math.sin(0.2) ** 2, rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 4096, 5000, 12288, 16383])
    def test_psi_on_a_grid_phase(self, fine_axes, k):
        phase = fine_axes.phase(2 + k)
        i, error, _ = best_axis_step(state_of(np.eye(2), xy_rotation(phase, 0.9)), fine_axes, 0.9)
        assert i == 2 + k
        assert error == pytest.approx(0.0, abs=1e-28)

    def test_psi_midway_first_in_set_order_wins(self):
        # with m = 16386 phases, psi = pi/2 lies midway between phases 4096
        # and 4097; a real y rotation makes ax exactly 0, so the two tie and
        # the first one in set order must win
        axes = allowed_axes(16388)
        first, second = 2 + 4096, 2 + 4097
        assert (axes.phase(first) + axes.phase(second)) / 2 == pytest.approx(math.pi / 2, abs=1e-15)
        assert math.sin(axes.phase(first)) == math.sin(axes.phase(second))
        c, s = math.cos(0.45), math.sin(0.45)
        target = np.array([[c, -s], [s, c]], dtype=complex)
        i, _, _ = best_axis_step(state_of(np.eye(2), target), axes, 0.9)
        assert i == first

    @pytest.mark.parametrize("shift", [-0.3, -0.7, 0.3])
    def test_window_wraps_across_phase_zero(self, fine_axes, shift):
        # psi just below or above phase 0, and psi + pi just below or above 2 pi
        step = 2.0 * math.pi / 16384
        for psi in (shift * step, math.pi + shift * step):
            target = xy_rotation(psi, 1.1)
            i, error, _ = best_axis_step(state_of(np.eye(2), target), fine_axes, 1.1)
            assert i >= 2
            assert abs(math.remainder(fine_axes.phase(i) - psi, 2.0 * math.pi)) <= step / 2
            assert error == pytest.approx(np.min(product_errors(np.eye(2), target, fine_axes, 1.1)), abs=1e-14)

    @pytest.mark.parametrize("phase", [2.5, -2.0, 4.0])
    def test_best_axis_on_the_psi_plus_pi_side(self, fine_axes, phase):
        # the state's sign is a free choice, so the residual axis may lie at
        # psi or at psi + pi; either way the nearest grid phase must win
        target = xy_rotation(phase, 0.8)
        i, _, _ = best_axis_step(state_of(np.eye(2), target), fine_axes, 0.8)
        assert i >= 2
        assert abs(math.remainder(fine_axes.phase(i) - phase, 2.0 * math.pi)) <= math.pi / 16384

    @pytest.mark.parametrize("n_axes", [5, 6, 10, 34, 16386, 16388, 10**12, MAX_AXES])
    def test_psi_within_ulps_of_a_phase_or_midpoint(self, n_axes):
        # lo = floor(psi m / 2 pi) lands on either side of a grid phase when
        # psi is within a few ulps of it, and the nearest phase must still be
        # lo or lo + 1; centres include phase 0 (the wrap at 0 and 2 pi), pi
        # and the midpoints next to them; 5 axes is below allowed_axes' floor
        axes = greedy.AxisSet(n_axes)
        m = n_axes - 2
        step = 2.0 * math.pi / m
        centres = [0.0, math.pi, step, -step, math.pi + step, step / 2, -step / 2, math.pi + step / 2]
        scan = m <= 16386
        for centre in centres:
            psis = [math.remainder(centre, 2.0 * math.pi)]
            for direction in (math.inf, -math.inf):
                p = psis[0]
                for _ in range(4):
                    p = math.nextafter(p, direction)
                    psis.append(p)
            for psi in psis:
                # the sign of a0 puts the best axis on the psi or the psi + pi side
                for a0, az in ((0.8, 0.05), (-0.6, -0.3)):
                    r = math.sqrt(1.0 - a0 * a0 - az * az)
                    state = (a0, r * math.cos(psi), r * math.sin(psi), az)
                    current = su2_of(state, 0.0)
                    for angle in (2.0 * math.atan2(math.sqrt(r * r + az * az), abs(a0)), 0.3):
                        i, error, _ = best_axis_step(state, axes, angle)
                        margin = tie_margin(state, angle)
                        if scan:
                            check_choice(i, error, product_errors(current, np.eye(2), axes, angle), margin)
                            continue
                        near = [0, 1]
                        for c in (psi, psi + math.pi):
                            j = round(c * m / (2 * math.pi))
                            near += [2 + (j + k) % m for k in range(-128, 128)]
                        assert i in near
                        errors = product_errors(current, np.eye(2), axes, angle, indices=near)
                        check_choice(near.index(i), error, errors, margin)

    @pytest.mark.parametrize("which", ["current", "target"])
    def test_non_finite_input_matches_scan(self, fine_axes, which):
        # a whole-set scan of NaN errors keeps its first axis; so does the window
        nan = np.full((2, 2), math.nan, dtype=complex)
        current, target = (nan, np.eye(2)) if which == "current" else (np.eye(2), nan)
        i, error, _ = best_axis_step(state_of(current, target), fine_axes, 0.5)
        assert i == 0
        assert math.isnan(error)


def replay(target, axes, eps):
    """The greedy loop's steps as (state, angle, chosen index), from best_axis_step alone."""
    state = state_of(np.eye(2), target)
    error = state[1] ** 2 + state[2] ** 2 + state[3] ** 2
    out = []
    while error > eps:
        angle = 2.0 * math.atan2(math.sqrt(error), abs(state[0]))
        i, best, new = best_axis_step(state, axes, angle)
        if not best < error:
            break  # a stall, where greedy_compile raises CompileError
        out.append((state, angle, i, error, best))
        state, error = new, best
    return out


class TestTieRule:
    """Exactly tied axes go to the first one in set order, whatever the rounding."""

    @pytest.mark.parametrize("n_axes", [10, 18])
    def test_grid_ties_go_to_the_first_axis(self, n_axes):
        # +/-x and +/-y are in these sets, and the grid targets meet exact ties
        axes = allowed_axes(n_axes)
        ties = 0
        for k, t in enumerate(evaluation_dataset()):
            u = np.eye(2, dtype=complex)
            for state, angle, i, _, _ in replay(t.unitary, axes, 1e-4):
                errors = product_errors(u, t.unitary, axes, angle)
                tied = np.flatnonzero(errors <= errors.min() + tie_margin(state, angle) + 1e-15)
                ties += len(tied) > 1
                assert i == tied[0], (k, i, tied)
                u = rotation_unitary(unit_vector(axes, i), angle) @ u
        assert ties >= 10


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
        for i in range(axes.n_axes):
            theta = rng.uniform(0.1, math.pi)
            target = rotation_unitary(unit_vector(axes, i), theta)
            gate, _ = greedy_compile(target, axes, config)
            assert gate.pulse_count == (0 if i < 2 else 1)

    def test_random_zx_targets_meet_tolerance(self, rng):
        axes = allowed_axes(18)
        config = GreedyConfig(1e-4)
        for _ in range(50):
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            target = rz(phi) @ rx(theta)
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
        # a compile is a value: gate and report compare equal, field for field
        target = random_unitary(rng)
        config = GreedyConfig(1e-6)
        for n_axes in (6, 18, 16386):
            axes = allowed_axes(n_axes)
            assert greedy_compile(target, axes, config) == greedy_compile(target, axes, config)

    def test_fidelity_monotone(self, rng):
        # replay the loop with best_axis_step: the error |a|^2 (1 - F) must
        # strictly decrease at every accepted step until the threshold, and the
        # reported iterations are the accepted steps
        target = random_unitary(rng)
        cases = [(6, 1e-6)] + [(n, eps) for n in (6, 18, 16386) for eps in (1e-4, 1e-12)]
        # an eps_target equal to the loop's error after its third step, bit for bit, is met there
        cases.append((6, replay(target, allowed_axes(6), 1e-6)[2][4]))
        for n_axes, eps in cases:
            axes = allowed_axes(n_axes)
            _, report = greedy_compile(target, axes, GreedyConfig(eps))
            steps = replay(target, axes, eps)
            errors = [steps[0][3]] + [best for *_, best in steps]
            assert all(b < a for a, b in zip(errors, errors[1:])), (n_axes, eps)
            assert errors[-1] <= eps < errors[-2], (n_axes, eps)
            assert len(steps) == report.iterations, (n_axes, eps)

    def test_report_pre_pass_metrics(self, rng):
        target = random_unitary(rng)
        gate, report = greedy_compile(target, allowed_axes(18), GreedyConfig(1e-6))
        assert report.pre_pass_distance >= gate.distance - 1e-12
        assert report.pre_pass_pulse_count >= report.post_pass_pulse_count
        assert report.post_pass_pulse_count == gate.pulse_count

    def test_nan_target_fails_loudly(self):
        # NaN, inf and 1e308 entries all make a NaN loop state, and no axis lowers a NaN
        # error: the compile raises at its first step
        for entry in (math.nan, math.inf, 1e308):
            target = np.full((2, 2), entry, dtype=complex)
            for n_axes in (6, 18, 16386):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(CompileError) as info:
                        greedy_compile(target, allowed_axes(n_axes), GreedyConfig(1e-4))
                where = (entry, n_axes)
                assert str(info.value) == "no axis lowers the error", where
                assert info.value.steps == [] and math.isnan(info.value.error), where

    def test_stalled_step_fails_without_a_retry(self, monkeypatch):
        # one trial per step: the first that lowers nothing raises, with no smaller trial angle
        angles = []

        def stalled(state, axes, angle):
            angles.append(angle)
            return 0, state[1] ** 2 + state[2] ** 2 + state[3] ** 2, state  # the error as it was

        monkeypatch.setattr(greedy, "best_axis_step", stalled)
        with pytest.raises(CompileError) as info:
            greedy_compile(rx(1.0), allowed_axes(6), GreedyConfig(1e-4))
        assert str(info.value) == "no axis lowers the error" and info.value.steps == []
        assert info.value.error == pytest.approx(math.sin(0.5) ** 2, rel=1e-15)
        assert angles == [pytest.approx(1.0, rel=1e-15)]

    def test_post_pass_miss_fails_loudly(self, monkeypatch):
        # the finished schedule is re-checked against eps_target + ERROR_SLACK; a miss
        # raises a plain CompileError with the loop's raw steps and the loop's own error
        eps, target, axes = 1e-6, rz(0.3) @ rx(1.1), allowed_axes(18)
        bests, raw = [], []
        step, finish = greedy.best_axis_step, ir.finish

        def record_step(*args):
            out = step(*args)
            bests.append(out[1])
            return out

        def record_finish(target, steps, *args, **kwargs):
            raw.append(list(steps))
            return finish(target, steps, *args, **kwargs)

        monkeypatch.setattr(greedy, "best_axis_step", record_step)
        monkeypatch.setattr(ir, "finish", record_finish)
        monkeypatch.setattr(ir, "schedule_error", lambda *args: eps + ir.ERROR_SLACK)
        gate, _ = greedy_compile(target, axes, GreedyConfig(eps))  # on the bound: accepted
        assert gate.epsilon == eps + ir.ERROR_SLACK
        bests.clear()
        raw.clear()
        miss = eps + 2 * ir.ERROR_SLACK
        monkeypatch.setattr(ir, "schedule_error", lambda *args: miss)
        with pytest.raises(CompileError) as info:
            greedy_compile(target, axes, GreedyConfig(eps))
        assert type(info.value) is CompileError
        assert str(info.value) == f"post-pass error {miss} exceeds target {eps}"
        [steps] = raw
        assert info.value.steps == steps and len(steps) > 1
        assert info.value.error == bests[-1] <= eps

    def test_huge_axis_count_compiles(self):
        gate, _ = greedy_compile(rx(1.0), allowed_axes(99_999_999_999), GreedyConfig(1e-10))
        assert gate.pulse_count == 1 and gate.epsilon <= 1e-10

    @pytest.mark.parametrize("rows", [lambda u: tuple(map(tuple, u)), list], ids=["tuples", "lists"])
    def test_any_indexable_2x2_compiles_alike(self, rows):
        # the grid and the named gates, as arrays and as nested rows of Python complex
        targets = [t.unitary for t in evaluation_dataset()]
        targets += [np.array(u) for u in NAMED_GATES.values()]
        configs = [(allowed_axes(n), GreedyConfig(eps)) for n in (6, 18, 16386) for eps in (1e-4, 1e-12)]
        for k, u in enumerate(targets):
            target = rows(u.tolist())
            assert u3_compile(target) == u3_compile(u), k
            for axes, config in configs:
                assert greedy_compile(target, axes, config) == greedy_compile(u, axes, config), k


class TestFinishingPasses:
    """What ir.finish does with the greedy loop's raw steps."""

    @pytest.mark.parametrize("eps, absorbed, final", [
        (1e-2, (4, 5.082027), (3, 3.196272)),
        (1e-8, (11, 5.191668), (10, 3.305913)),
    ])
    def test_merge_after_absorb_folds_pulses(self, monkeypatch, eps, absorbed, final):
        # absorbing the frame shifts leaves two pulses coaxial and adjacent; only the
        # merge after absorption folds them, so the gate is one pulse and ~1.886 rad shorter
        captured, absorb = [], ir.absorb_virtual_z

        def spy(steps):
            captured.append(absorb(steps))
            return captured[-1]

        monkeypatch.setattr(ir, "absorb_virtual_z", spy)
        axis = (math.cos(3 * math.pi / 14) / math.sqrt(2), 1 / math.sqrt(2),
                math.sin(3 * math.pi / 14) / math.sqrt(2))
        gate, _ = greedy_compile(rotation_unitary(axis, math.pi), allowed_axes(6), GreedyConfig(eps))
        [(pulses, _)] = captured
        assert (len(pulses), round(ir.distance(pulses), 6)) == absorbed
        assert (gate.pulse_count, round(gate.distance, 6)) == final

    def test_smaller_eps_extends_the_raw_steps(self, monkeypatch):
        # the loop picks each step without reading eps, so lowering eps only adds steps
        raw, finish = [], ir.finish

        def spy(target, steps, *args, **kwargs):
            raw.append(list(steps))
            return finish(target, steps, *args, **kwargs)

        monkeypatch.setattr(ir, "finish", spy)
        epsilons = [1e-1, 1e-2, 1e-4, 1e-8, 1e-12, 1e-16, 1e-20, 1e-24]
        for n_axes in (6, 18, 16386):
            axes = allowed_axes(n_axes)
            for k, t in enumerate(evaluation_dataset()[::4]):
                raw.clear()
                for eps in epsilons:
                    greedy_compile(t.unitary, axes, GreedyConfig(eps))
                assert len(raw) == len(epsilons)
                for coarse, fine in zip(raw, raw[1:]):
                    assert fine[:len(coarse)] == coarse, (n_axes, 4 * k)

    def test_absorb_then_merge_matches_merging_before_absorbing_too(self, monkeypatch):
        # a merge of the raw steps before absorbing them folds no greedy step: without it,
        # counts, angles, distance and report are the same bits, and only the rounding of
        # the frame shifts moves phases, frame and epsilon in their last bits
        raw, finish = [], ir.finish

        def spy(target, steps, *args, **kwargs):
            raw.append(list(steps))
            return finish(target, steps, *args, **kwargs)

        def turn(a, b):
            return abs(math.remainder(a - b, 2 * math.pi))

        monkeypatch.setattr(ir, "finish", spy)
        targets = [t.unitary for t in evaluation_dataset()] + haar_targets(48, seed=5)
        for n_axes in (6, 18, 16386):
            axes = allowed_axes(n_axes)
            for eps in (1e-2, 1e-8, 1e-16):
                for k, target in enumerate(targets):
                    raw.clear()
                    gate, report = greedy_compile(target, axes, GreedyConfig(eps))
                    [steps] = raw
                    pulses, frame = ir.absorb_virtual_z(ir.merge_adjacent(steps))
                    pulses = ir.merge_adjacent(pulses)
                    where = (n_axes, eps, k)
                    assert [p.angle.hex() for p in gate.pulses] == [p.angle.hex() for p in pulses], where
                    assert gate.distance.hex() == ir.distance(pulses).hex(), where
                    assert gate.iterations == len(steps), where
                    assert report == ir.CompileReport(len(steps), 0, ir.distance(steps),
                                                      ir.pulse_count(steps), len(pulses)), where
                    assert all(turn(p.phase, q.phase) <= 1e-14 for p, q in zip(gate.pulses, pulses)), where
                    assert turn(gate.frame_phase, frame) <= 1e-14, where
                    assert abs(gate.epsilon - ir.schedule_error(target, pulses, frame)) <= 1e-15, where


# Haar-random unit quaternions (Shoemake's construction from three uniform draws)
haar_quaternions = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    lambda u: (
        math.sqrt(1.0 - u[0]) * math.sin(2.0 * math.pi * u[1]),
        math.sqrt(1.0 - u[0]) * math.cos(2.0 * math.pi * u[1]),
        math.sqrt(u[0]) * math.sin(2.0 * math.pi * u[2]),
        math.sqrt(u[0]) * math.cos(2.0 * math.pi * u[2]),
    )
)


class TestDeepEps:
    """Errors far below 1 - F's rounding: every grid target meets eps by the vector part."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        q=haar_quaternions,
        phase=st.floats(0.0, 2.0 * math.pi),
        n_axes=st.one_of(st.integers(6, 64), st.sampled_from([16386, 10**12])),
        log_eps=st.floats(math.log10(EPS_FLOOR), math.log10(0.5), exclude_max=True),
    )
    def test_every_finite_unitary_compiles_or_raises(self, q, phase, n_axes, log_eps):
        target = su2_of(q, phase)
        eps = 10.0**log_eps
        try:
            gate, _ = greedy_compile(target, allowed_axes(n_axes), GreedyConfig(eps))
        except CompileError:
            return
        assert gate.epsilon <= eps + ir.ERROR_SLACK
        assert abs(vector_part_error(target, gate) - gate.epsilon) <= 1e-14

    @pytest.mark.parametrize("eps", [1e-16, 1e-20, 1e-24])
    @pytest.mark.parametrize("n_axes", [6, 18, 16386])
    def test_grid_targets_meet_deep_eps(self, n_axes, eps):
        axes = allowed_axes(n_axes)
        config = GreedyConfig(eps)
        for k, t in enumerate(evaluation_dataset()):
            gate, _ = greedy_compile(t.unitary, axes, config)
            assert vector_part_error(t.unitary, gate) <= eps, k


def k_min(n_axes: int) -> float:
    """The least |n.a|/|a| the best scored axis reaches over all directions of a."""
    c = math.cos(math.pi / (n_axes - 2))
    return c / math.sqrt(1.0 + c * c)


class TestDescentBound:
    """Every accepted step lowers the error by at least rho = 2 - 2 k_min, so iterations are O(log 1/eps)."""

    @pytest.mark.parametrize("n_axes", [5, 6, 7, 10, 18, 34])
    def test_k_min_matches_a_sphere_grid(self, n_axes):
        # the least, over a grid of directions u, of the largest n.u over +/-z and the XY phases
        theta, psi = np.meshgrid(np.linspace(0.0, math.pi, 401), np.linspace(0.0, 2 * math.pi, 401))
        u = (np.sin(theta) * np.cos(psi), np.sin(theta) * np.sin(psi), np.cos(theta))
        best = np.abs(u[2])
        for j in range(n_axes - 2):
            phi = 2 * math.pi * j / (n_axes - 2)
            best = np.maximum(best, math.cos(phi) * u[0] + math.sin(phi) * u[1])
        assert k_min(n_axes) - 1e-12 <= best.min() <= k_min(n_axes) + 1e-2

    def test_accepted_steps_descend_by_rho(self, monkeypatch):
        ratios, step = [], greedy.best_axis_step

        def spy(state, axes, angle):
            i, error, new_state = step(state, axes, angle)
            ratios.append(error / (state[1] ** 2 + state[2] ** 2 + state[3] ** 2))
            return i, error, new_state

        monkeypatch.setattr(greedy, "best_axis_step", spy)
        targets = [t.unitary for t in evaluation_dataset()] + haar_targets(32, seed=16)
        starts = [sum(x * x for x in quaternion(t)[1:]) for t in targets]
        for n_axes in (6, 7, 10, 18, 34, 16386, 2**40 + 2):
            axes, rho = allowed_axes(n_axes), 2.0 - 2.0 * k_min(n_axes)
            for eps in (1e-4, 1e-12, EPS_FLOOR):
                config = GreedyConfig(eps)
                for k, (target, e0) in enumerate(zip(targets, starts)):
                    ratios.clear()
                    gate, report = greedy_compile(target, axes, config)
                    where = (n_axes, eps, k)
                    assert report.damped_steps == 0, where
                    assert max(ratios, default=0.0) <= rho * (1 + 1e-9), where
                    bound = math.ceil(math.log(e0 / eps) / math.log(1 / rho)) if e0 > eps else 0
                    assert gate.iterations <= bound, where

    def test_five_axes_can_stall(self):
        # k_min(5) < 1/2, so the bound above does not hold there: after five steps no axis
        # lowers this target's error, and the compile raises with those steps and that error
        assert 2.0 - 2.0 * k_min(5) > 1.0
        target, axes = rz(2.4) @ rx(1.5), greedy.AxisSet(5)  # below allowed_axes' floor
        with pytest.raises(CompileError) as info:
            greedy_compile(target, axes, GreedyConfig(1e-4))
        assert type(info.value) is CompileError and str(info.value) == "no axis lowers the error"
        replayed = replay(target, axes, 1e-4)
        assert len(replayed) == 5 and replayed[-1][4] > 1e-4
        assert info.value.error == replayed[-1][4]
        for step, (_, angle, i, *_) in zip(info.value.steps, replayed, strict=True):
            assert step == (ir.VirtualZ((1 - 2 * i) * angle) if i < 2 else XYPulse(axes.phase(i), angle))
