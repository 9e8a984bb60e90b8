import gc
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pulsegate import bench, evaluation_dataset, fit_log_model, greedy_compile, hs_fidelity, run_sweep
from pulsegate.bench import InsufficientDataError
from pulsegate.greedy import CompileError
from pulsegate.su2 import rx, rz


class TestDataset:
    def test_size_and_grid(self):
        ds = evaluation_dataset()
        assert len(ds) == 128
        thetas = sorted({t.theta for t in ds})
        varphis = sorted({t.varphi for t in ds})
        assert len(thetas) == 8 and len(varphis) == 16
        assert thetas[0] == 0.0 and thetas[-1] == pytest.approx(math.pi)
        assert varphis[0] == 0.0 and varphis[-1] == pytest.approx(2 * math.pi * 15 / 16)

    def test_first_entry_is_identity(self):
        ds = evaluation_dataset()
        assert np.allclose(ds[0].unitary, np.eye(2))

    def test_theta_major_order_and_x_pi_entry(self):
        ds = evaluation_dataset()
        entry = ds[7 * 16]  # k = 7, j = 0
        assert entry.theta == pytest.approx(math.pi)
        assert entry.varphi == 0.0
        assert abs(hs_fidelity(entry.unitary, rx(math.pi)) - 1.0) < 1e-12

    def test_targets_are_z_after_x(self):
        ds = evaluation_dataset()
        t = ds[20]
        assert np.allclose(t.unitary, rz(t.varphi) @ rx(t.theta))


class TestRunSweep:
    def test_row_grid_and_bounds(self):
        rows = run_sweep([6, 18], [1e-2, 1e-3])
        assert [(r.n_axes, r.eps_target) for r in rows] == [
            (6, 1e-2), (6, 1e-3), (18, 1e-2), (18, 1e-3)
        ]
        for r in rows:
            assert r.failures == 0
            assert r.eps_mean <= r.eps_target
            assert r.dist_mean >= 0.0 and r.pulses_mean >= 0.0
            # compiles carry no time; run_sweep measures each call itself
            assert math.isfinite(r.time_mean_s) and r.time_mean_s > 0.0

    def test_deterministic_metrics(self):
        a = run_sweep([10], [1e-3])[0]
        b = run_sweep([10], [1e-3])[0]
        assert (a.eps_mean, a.dist_mean, a.pulses_mean, a.failures) == (
            b.eps_mean, b.dist_mean, b.pulses_mean, b.failures
        )

    def test_keep_gates(self):
        rows, gates = run_sweep([6], [1e-2], keep_gates=True)
        assert set(gates) == {(6, 1e-2)}
        assert len(gates[(6, 1e-2)]) == 128

    def test_means_are_correctly_rounded_sums(self):
        values = (1.0, 1e-16, 1e-16)
        assert bench._mean(values) == math.fsum(values) / 3 != 1.0 / 3
        assert math.isnan(bench._mean([]))
        rows, gates = run_sweep([6], [1e-2, 1e-8], keep_gates=True)
        for row in rows:
            cell = gates[(row.n_axes, row.eps_target)]
            assert row.failures == 0
            for gate in cell:
                assert gate.distance == math.fsum(p.angle for p in gate.pulses)
            assert row.eps_mean == math.fsum(g.epsilon for g in cell) / len(cell)
            assert row.dist_mean == math.fsum(g.distance for g in cell) / len(cell)
            assert row.pulses_mean == math.fsum(g.pulse_count for g in cell) / len(cell)

    def test_failed_compiles_are_counted_and_left_out(self, monkeypatch):
        # a fake clock: a success takes 1 s and a failure 1000 s, so a failure's
        # time in time_mean_s would show; at eps 1e-3 every compile fails
        fail = {3, 40, 127}
        clock = [0.0]
        index = itertools.count()

        def compile_or_fail(target, axes, config):
            k = next(index) % 128
            if config.eps_target == 1e-3 or k in fail:
                clock[0] += 1000.0
                raise CompileError("forced", [], 1.0)
            clock[0] += 1.0
            return greedy_compile(target, axes, config)

        monkeypatch.setattr(bench, "greedy_compile", compile_or_fail)
        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        (row, none_ok), gates = run_sweep([6], [1e-2, 1e-3], keep_gates=True)
        cell = gates[(6, 1e-2)]
        assert [k for k, gate in enumerate(cell) if gate is None] == sorted(fail)
        ok = [gate for gate in cell if gate is not None]
        assert row.failures == 3 and len(ok) == 125
        assert row.time_mean_s == 1.0
        assert row.eps_mean == math.fsum(g.epsilon for g in ok) / 125
        assert row.dist_mean == math.fsum(g.distance for g in ok) / 125
        assert row.pulses_mean == math.fsum(g.pulse_count for g in ok) / 125
        assert none_ok.failures == 128 and gates[(6, 1e-3)] == [None] * 128
        assert all(math.isnan(x) for x in (none_ok.eps_mean, none_ok.dist_mean,
                                            none_ok.pulses_mean, none_ok.time_mean_s))

    def test_garbage_collection_paused_while_timing(self, monkeypatch):
        # a full collection's pause must not land in a timed cell; the
        # caller's setting comes back afterwards, also after an error
        seen = []

        def compile_and_record(target, axes, config):
            seen.append(gc.isenabled())
            return greedy_compile(target, axes, config)

        monkeypatch.setattr(bench, "greedy_compile", compile_and_record)
        assert gc.isenabled()
        run_sweep([6], [1e-2])
        assert seen == [False] * 128 and gc.isenabled()
        gc.disable()
        try:
            run_sweep([6], [1e-2])
            assert not gc.isenabled()
        finally:
            gc.enable()
        monkeypatch.setattr(bench, "greedy_compile", None)
        with pytest.raises(TypeError):
            run_sweep([6], [1e-2])
        assert gc.isenabled()


class TestFitLogModel:
    def test_exact_line(self):
        fit = fit_log_model([1e-1, 1e-2, 1e-3], [2.0, 4.0, 6.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_constant_data(self):
        fit = fit_log_model([1e-1, 1e-2, 1e-3], [5.0, 5.0, 5.0])
        assert fit.slope == 0.0
        assert fit.intercept == 5.0
        assert fit.r2 == 1.0

    def test_residual_orthogonality(self, rng):
        eps = [10.0 ** (-k) for k in range(1, 7)]
        ys = [0.7 * k + rng.normal(0, 0.1) for k in range(1, 7)]
        fit = fit_log_model(eps, ys)
        x = np.log10(1.0 / np.asarray(eps))
        res = np.asarray(ys) - (fit.slope * x + fit.intercept)
        assert abs(np.sum(res)) < 1e-9
        assert abs(np.dot(res, x)) < 1e-9

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_log_model([1e-1, 1e-2], [1.0, 2.0])

    def test_rejects_eps_out_of_range(self):
        for bad in (1.0, 0.0):
            with pytest.raises(ValueError, match="must lie in"):
                fit_log_model([1e-1, bad, 1e-3], [1.0, 2.0, 3.0])
