"""The library surface the perfbench harness reads.

perfbench/ is fixed between benchmark changes, so a simplification of
the library must keep every name and field it uses; this pins them.
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


def test_run_sweep_returns_rows():
    rows = bench.run_sweep([6], [1e-1], dataset=pg.evaluation_dataset()[:4])
    assert isinstance(rows, list) and len(rows) == 1
    assert rows[0].failures == 0
