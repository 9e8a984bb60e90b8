"""The library surface the perfbench harness and the acceptance suite read.

perfbench/ and tests/test_acceptance.py are fixed between benchmark
changes, so a simplification of the library must keep every name and
field they use; this pins them.
"""

import numpy as np

import pulsegate as pg
from pulsegate import bench


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
