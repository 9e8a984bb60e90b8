"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import reference  # noqa: E402
import stats  # noqa: E402
from evaluator import gate_error, schedule_error, schedule_unitary, verdict, within  # noqa: E402
from spans import Tracer, self_times, totals  # noqa: E402
from workloads import Outcome, digest, stratified_haar  # noqa: E402


# ---------------------------------------------------------------- self time


def test_self_time_subtracts_direct_children_only():
    #  0: [0, 100)
    #  ├─ 1: [10, 30)
    #  │   └─ 3: [12, 20)
    #  └─ 2: [50, 90)
    parent = [-1, 0, 0, 1]
    start = [0, 10, 50, 12]
    end = [100, 30, 90, 20]
    assert self_times(parent, start, end) == [40, 12, 40, 8]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children overlap each other and the second spills past the parent's end
    parent = [-1, 0, 0]
    start = [0, 10, 20]
    end = [50, 30, 60]
    assert self_times(parent, start, end) == [10, 20, 40]


def test_totals_aggregate_calls_self_and_inclusive_time_per_hook():
    tracer = Tracer()
    outer = tracer.wrap("m.outer", lambda f: f() + 1)
    inner = tracer.wrap("m.inner", lambda: 1)
    assert outer(inner) == 2 and outer(inner) == 2
    tot = totals(tracer)
    assert tot["m.outer"][0] == 2 and tot["m.inner"][0] == 2
    assert list(tracer.parent) == [-1, 0, -1, 2]
    # self time of the parent excludes its child's span
    assert tot["m.outer"][1] == tot["m.outer"][2] - tot["m.inner"][2]


# --------------------------------------------------------------- percentile


def test_percentile_needs_ten_samples_beyond_it():
    ordered = list(range(1, 1001))
    assert stats.percentile(ordered, 99) == 990  # 10 samples lie above rank 990
    with pytest.raises(ValueError):
        stats.percentile(ordered[:999], 99)
    assert stats.percentile(ordered[:20], 50) == 10
    with pytest.raises(ValueError):
        stats.percentile(ordered[:19], 50)


def test_reference_scale_uses_the_samples_around_each_chunk():
    ref = reference.REF_SECONDS
    # chunk k runs between samples k and k + 1; one wild sample is outvoted
    samples = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 50 * ref]
    assert reference.scales(samples) == [1.0, 2 / 3, 0.5, 0.5, 0.5]


# ---------------------------------------------------------------- evaluator


@pytest.fixture
def compiled():
    """A schedule from the compiler and its target, as plain Python values."""
    import numpy as np
    import pulsegate

    target = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    gate, _ = pulsegate.greedy_compile(
        target, pulsegate.allowed_axes(18), pulsegate.GreedyConfig(eps_target=1e-8)
    )
    pulses = [(p.phase, p.angle) for p in gate.pulses]
    t = tuple(tuple(complex(x) for x in row) for row in target)
    return t, pulses, gate.frame_phase


def test_evaluator_accepts_the_compiled_schedule(compiled):
    target, pulses, frame = compiled
    assert within(schedule_error(target, pulses, frame), 1e-8)


def test_evaluator_rejects_one_angle_perturbed_by_1e_3(compiled):
    target, pulses, frame = compiled
    phase, angle = pulses[0]
    bad = [(phase, angle + 1e-3)] + pulses[1:]
    err = schedule_error(target, bad, frame)
    assert err > 1e-8 and not within(err, 1e-8)
    assert verdict(err, 1e-8, declared=1e-9) == (True, True)  # an undeclared miss


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_evaluator_rejects_a_non_finite_angle(compiled, value):
    target, pulses, frame = compiled
    bad = [(pulses[0][0], value)] + pulses[1:]
    err = schedule_error(target, bad, frame)
    assert math.isnan(err)
    assert not within(err, 1e-8)
    assert not within(err, 1.0)
    assert verdict(err, 1e-8, declared=0.0) == (True, True)


def test_a_declared_miss_fails_without_being_wrong():
    # the compiler may return epsilon 1.0003e-12 for a 1e-12 target and say so
    assert verdict(1.00029e-12, 1e-12, declared=1.00031e-12) == (True, False)
    assert verdict(0.9e-12, 1e-12, declared=0.9e-12) == (False, False)


def test_evaluator_matches_the_compilers_convention():
    import numpy as np
    from pulsegate import ir

    rng = random.Random(7)
    for _ in range(50):
        pulses = [(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
                  for _ in range(rng.randint(0, 6))]
        frame = rng.uniform(0, 2 * math.pi)
        gate = ir.CompiledGate(tuple(ir.XYPulse(p, a) for p, a in pulses), frame,
                               0.0, 0.0, len(pulses), 0, 0.0)
        mine = np.array(schedule_unitary(pulses, frame))
        assert np.allclose(mine, gate.unitary(), atol=1e-14)


def test_gate_error_ignores_global_phase():
    rng = random.Random(3)
    (u,) = stratified_haar(rng, 1)
    g = complex(math.cos(1.1), math.sin(1.1))
    assert gate_error(u, tuple(tuple(g * x for x in row) for row in u)) < 1e-30


# ------------------------------------------------------------ hooks, inputs


def test_hooks_wrap_every_binding_and_restore_them():
    import pulsegate
    from pulsegate import cli, greedy, su2

    original = su2.rotation_unitary
    tracer = Tracer()
    tracer.install(["su2.rotation_unitary", "greedy.no_such_function"])
    try:
        wrapped = su2.rotation_unitary
        assert wrapped is not original
        assert greedy.rotation_unitary is wrapped
        assert cli.rotation_unitary is wrapped
        assert pulsegate.rotation_unitary is wrapped
        su2.rx(0.3)  # reached through the su2 module's own binding
    finally:
        tracer.uninstall()
    assert su2.rotation_unitary is original and greedy.rotation_unitary is original
    assert tracer.missing == {"greedy.no_such_function"}
    assert totals(tracer)["su2.rotation_unitary"][0] == 1


def test_stratified_haar_is_seeded_and_unitary():
    a = stratified_haar(random.Random(5), 64)
    assert a == stratified_haar(random.Random(5), 64)
    assert a != stratified_haar(random.Random(6), 64)
    for u in a:
        assert schedule_error(u, [], 0.0) <= 1.0
        col0 = abs(u[0][0]) ** 2 + abs(u[1][0]) ** 2
        dot = u[0][0].conjugate() * u[0][1] + u[1][0].conjugate() * u[1][1]
        assert abs(col0 - 1) < 1e-12 and abs(dot) < 1e-12


def test_digest_ignores_run_order_but_not_content():
    a = Outcome((1,), False, False, 0.0, 1.0, 1, 1, 0, "a")
    b = Outcome((2,), False, False, 0.0, 1.0, 1, 1, 0, "b")
    assert digest([a, b]) == digest([b, a])
    assert digest([a, b]) != digest([a, b._replace(record="c")])
