"""The library surface the perfbench harness and the acceptance suite read.

perfbench/ and tests/test_acceptance.py are fixed between benchmark
changes, so a simplification of the library must keep every name and
field they use; this pins them.
"""

import ast
import importlib
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pulsegate as pg
from pulsegate import bench, ir
from pulsegate.cli import gate_spec_from_json
from pulsegate.greedy import InvalidConfigurationError
from pulsegate.su2 import euler_zxz, rx, rz


def test_greedy_compile_surface():
    config = pg.GreedyConfig(eps_target=1e-4)
    gate, report = pg.greedy_compile(np.eye(2, dtype=complex)[::-1], pg.allowed_axes(18), config)
    for field in ("iterations", "damped_steps", "pre_pass_pulse_count", "post_pass_pulse_count"):
        assert isinstance(getattr(report, field), int)
    assert isinstance(gate.pulses, tuple)
    assert isinstance(gate.frame_phase, float)
    assert gate.epsilon <= config.eps_target
    assert gate.iterations == report.iterations


def test_package_names():
    assert issubclass(pg.CompileError, Exception)
    assert len(pg.evaluation_dataset()) == 128
    assert pg.allowed_axes(6).n_axes == 6
    assert bench.DEFAULT_AXES_LIST and bench.DEFAULT_EPS_LIST


ROOT_NAMES = {
    # perfbench's workloads and program set-up
    "CompileError",
    "GreedyConfig",
    "allowed_axes",
    "evaluation_dataset",
    "greedy_compile",
    # perfbench's hook test checks that the root binding is wrapped
    "rotation_unitary",
    # tests/test_acceptance.py
    "XYPulse",
    "absorb_virtual_z",
    "fit_log_model",
    "hs_fidelity",
    "merge_adjacent",
    "pulse_count",
    "run_sweep",
    "sequence_unitary",
    "u3_compile",
}


def test_root_exports_exactly_what_callers_import():
    assert set(pg.__all__) == ROOT_NAMES and len(pg.__all__) == len(ROOT_NAMES)
    for name in ROOT_NAMES:
        assert getattr(pg, name) is not None, name


def test_run_sweep_returns_rows():
    rows = bench.run_sweep([6], [1e-1])
    assert isinstance(rows, list) and len(rows) == 1
    assert rows[0].failures == 0


def python_numbers(value) -> list:
    """Every number in a result record (a tuple), its pulses included; fails on anything else."""
    if isinstance(value, tuple):
        return [x for item in value for x in python_numbers(item)]
    # exact types: numpy's float64 is a subclass of float
    assert type(value) in (float, int), (type(value), value)
    return [value]


def test_every_result_number_is_a_python_float_or_int():
    # no numpy scalar leaks out, clamped and NaN errors included, so repr shows plain numbers
    results = [*pg.greedy_compile(rx(0.7), pg.allowed_axes(18), pg.GreedyConfig(1e-8)),
               *pg.u3_compile(rz(0.3) @ rx(1.1)),
               *bench.run_sweep([6], [1e-2])]
    for result in results:
        assert python_numbers(result)
        assert "np." not in repr(result), repr(result)
    gate = results[0]
    for planted in (ir.CompiledGate(gate.pulses, gate.frame_phase, np.float64(gate.epsilon), *gate[3:]),
                    ir.CompiledGate((pg.XYPulse(np.float64(0.5), 1.0),), *gate[1:])):
        with pytest.raises(AssertionError):
            python_numbers(planted)
    exact = [pg.XYPulse(0.0, 0.05)]
    assert pg.hs_fidelity(rx(0.05), pg.sequence_unitary(exact)) > 1.0
    values = [pg.hs_fidelity(rx(0.05), rx(0.7)), pg.hs_fidelity(np.eye(2), np.eye(2)),
              pg.hs_fidelity(np.full((2, 2), np.nan), np.eye(2)),
              ir.schedule_error(rx(0.05), [pg.XYPulse(0.3, 0.05)], 0.2),
              ir.schedule_error(rx(0.05), exact, 0.0),  # 1 - F < 0, clamped to 0.0
              ir.schedule_error(rx(0.05), exact, np.nan)]
    assert [type(x) for x in values] == [float] * len(values)
    assert values[-2] == 0.0 and math.isnan(values[2]) and math.isnan(values[-1])


def test_result_records_are_immutable_and_print_their_fields():
    gate, report = pg.greedy_compile(rx(0.7), pg.allowed_axes(18), pg.GreedyConfig(1e-8))
    records = [gate, report, gate.pulses[0], ir.VirtualZ(0.5), pg.allowed_axes(6), pg.GreedyConfig(0.1),
               euler_zxz(rx(0.7)), *bench.run_sweep([6], [1e-1]), bench.evaluation_dataset()[1],
               pg.fit_log_model([1e-1, 1e-2, 1e-3], [1.0, 2.0, 3.5]), gate_spec_from_json({"gate": "H"})]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    # the range check holds however the threshold is passed
    for make in (lambda: pg.GreedyConfig(2.0), lambda: pg.GreedyConfig(eps_target=2.0)):
        with pytest.raises(InvalidConfigurationError):
            make()
    # a trailing compile time is accepted and dropped
    timed = ir.CompiledGate(*gate, 0.0)
    assert type(timed) is ir.CompiledGate and timed == gate and hash(timed) == hash(gate)
    assert "compile_time" not in repr(timed) and repr(timed) == repr(gate)
    assert repr(pg.XYPulse(0.5, 1.0)) == "XYPulse(phase=0.5, angle=1.0)"
    assert repr(pg.GreedyConfig(0.1)) == "GreedyConfig(eps_target=0.1)"
    # `pulsegate bench` prints one CSV column per field, in field order
    header = "n_axes,eps_target,eps_mean,dist_mean,pulses_mean,time_mean_s,failures"
    assert bench.SweepRow._fields == tuple(header.split(","))


# --------------------------------------------------------------------------
# Every function perfbench hooks is reached on its workload's path.
#
# perfbench's traced run prints a null per-layer metric for a hooked
# function that is gone, or that a workload's targets never reach, and a
# null makes the run's result line invalid. These tests catch that in
# tier-1: they read the hook sets from perfbench/workloads.py, wrap every
# binding of each hooked function by the tracer's rule and count the calls.
# They go with ROADMAP item 1's hook remap: once the hooks move, so do the
# sets these tests read.

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def declared_hook_sets() -> dict[str, frozenset]:
    """Module-level `*_HOOKS` sets and `<Class>.<attr>_hooks` sets of workloads.py.

    Read from its source, since importing it would put perfbench's own
    modules on sys.path; a set named in another set's expression is expanded.
    """
    found: dict[str, frozenset] = {}

    def names(expr) -> frozenset:
        out = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
            elif isinstance(node, ast.Name) and node.id in found:
                out |= found[node.id]
        return frozenset(out)

    def assigns(body, prefix=""):
        for node in body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if name.endswith("_HOOKS") or name.endswith("_hooks"):
                    found[prefix + name] = names(node.value)
            elif isinstance(node, ast.ClassDef):
                assigns(node.body, node.name + ".")

    assigns(ast.parse(WORKLOADS_PY.read_text()).body)
    return found


HOOKS = declared_hook_sets()


def count_calls(monkeypatch, hooks) -> Counter:
    """Count calls to each hooked function, rebinding it as perfbench's tracer does.

    The hook "module.function" names `pulsegate.<module>.<function>`; every
    binding of that function object in a loaded pulsegate module is
    replaced (perfbench/spans.py, `Tracer.install`), so a call counts
    whichever module makes it.
    """
    calls: Counter = Counter()

    def counted(hook, fn):
        def wrapper(*args, **kwargs):
            calls[hook] += 1
            return fn(*args, **kwargs)
        return wrapper

    for hook in hooks:
        importlib.import_module("pulsegate." + hook.partition(".")[0])
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "pulsegate" or name.startswith("pulsegate."))]
    for hook in sorted(hooks):
        module_name, _, attr = hook.partition(".")
        original = getattr(sys.modules["pulsegate." + module_name], attr, None)
        assert callable(original), f"{hook} is gone: perfbench reports it missing"
        wrapper = counted(hook, original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, name, wrapper)
    return calls


def test_hook_sets_are_read():
    assert "greedy.greedy_compile" in HOOKS["GREEDY_HOOKS"]
    assert "cli.main" in HOOKS["CLI_HOOKS"]
    assert HOOKS["GREEDY_HOOKS"] | HOOKS["CLI_HOOKS"] < HOOKS["CliRoundtrip.target_hooks"]
    assert "bench.evaluation_dataset" in HOOKS["PaperGrid.setup_hooks"]


def test_grid_compiles_reach_every_greedy_hook(monkeypatch):
    hooks = HOOKS["GREEDY_HOOKS"] | HOOKS["PaperGrid.setup_hooks"]
    calls = count_calls(monkeypatch, hooks)
    dataset = pg.evaluation_dataset()
    axes, config = pg.allowed_axes(6), pg.GreedyConfig(eps_target=1e-4)
    for target in dataset:
        pg.greedy_compile(target.unitary, axes, config)
    assert len(dataset) == 128
    assert sorted(h for h in hooks if not calls[h]) == []
    # the per-layer ir.*.calls metrics: absorb, then merge per compile
    assert (calls["ir.merge_adjacent"], calls["ir.absorb_virtual_z"]) == (128, 128)


def test_cli_roundtrip_reaches_every_hook(monkeypatch, tmp_path, capsys):
    from pulsegate import cli

    hooks = HOOKS["CliRoundtrip.target_hooks"]
    calls = count_calls(monkeypatch, hooks)
    target = "--euler=1.1,0.4,-2.3"
    assert cli.main(["compile", target]) == 0
    schedule = tmp_path / "schedule.json"
    schedule.write_text(capsys.readouterr().out)
    assert cli.main(["verify", "--schedule", str(schedule)]) == 0
    assert cli.main(["compile", target, "--baseline"]) == 0
    assert sorted(h for h in hooks if not calls[h]) == []
    # the greedy compile absorbs and merges once each, the baseline absorbs only
    assert (calls["ir.merge_adjacent"], calls["ir.absorb_virtual_z"]) == (1, 2)
