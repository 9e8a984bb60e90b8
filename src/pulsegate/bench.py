"""Benchmark harness: evaluation dataset, parameter sweep and log-model fits.

The dataset is a deterministic grid of 128 targets, each a rotation
about x followed by a rotation about z. The sweep compiles the whole
dataset for every (n_axes, eps_target) pair and aggregates achieved
error, rotation distance, pulse count and wall-clock compile time.
Pulse count and runtime are expected to grow linearly in log10(1/eps),
which fit_log_model quantifies.
"""

from __future__ import annotations

import gc
import math
import time
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .greedy import CompileError, GreedyConfig, allowed_axes, greedy_compile
from .ir import CompiledGate
from .su2 import rx, rz

if TYPE_CHECKING:
    import numpy as np

DEFAULT_AXES_LIST = (6, 10, 18, 34)
DEFAULT_EPS_LIST = tuple(10.0 ** (-k) for k in range(1, 9))


class InsufficientDataError(ValueError):
    """Too few points for a least-squares fit."""


class EvalTarget(NamedTuple):
    """One benchmark target: X rotation by theta, then Z rotation by varphi."""

    theta: float
    varphi: float
    unitary: np.ndarray


class SweepRow(NamedTuple):
    """Aggregate metrics for one (n_axes, eps_target) cell."""

    n_axes: int
    eps_target: float
    eps_mean: float
    dist_mean: float
    pulses_mean: float
    time_mean_s: float
    failures: int


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r2: float


def evaluation_dataset() -> list[EvalTarget]:
    """The 128-gate grid: theta = k*pi/7 (k = 0..7), varphi = 2*pi*j/16 (j = 0..15).

    Targets apply the x rotation first and the z rotation second. Order
    is theta-major.
    """
    targets = []
    for k in range(8):
        theta = k * math.pi / 7.0
        for j in range(16):
            varphi = 2.0 * math.pi * j / 16.0
            targets.append(EvalTarget(theta, varphi, rz(varphi) @ rx(theta)))
    return targets


def run_sweep(
    axes_list: Sequence[int] = DEFAULT_AXES_LIST,
    eps_list: Sequence[float] = DEFAULT_EPS_LIST,
    keep_gates: bool = False,
) -> list[SweepRow] | tuple[list[SweepRow], dict]:
    """Compile the evaluation dataset for every (n_axes, eps_target) pair.

    Every axis count and eps_target is validated before the first
    compile. Failures (any CompileError) are counted per row and
    excluded from the means; time_mean_s averages the wall-clock time of
    each successful greedy_compile call, measured here with
    time.perf_counter and automatic garbage collection paused. With
    keep_gates=True also returns the per-gate CompiledGate lists keyed by
    (n_axes, eps_target), for verification.
    """
    dataset = evaluation_dataset()
    axis_sets = [allowed_axes(n) for n in axes_list]
    configs = [GreedyConfig(eps_target=eps) for eps in eps_list]
    rows: list[SweepRow] = []
    gates: dict[tuple[int, float], list[CompiledGate | None]] = {}
    # Automatic garbage collection is off while cells are timed, as in
    # timeit: a full collection walks the caller's whole heap, which takes
    # tens of ms in a large process such as a test session, and its pause
    # would be counted in whichever cell happened to be running.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for axes in axis_sets:
            n_axes = axes.n_axes
            for config in configs:
                cell: list[CompiledGate | None] = []
                times: list[float] = []
                for target in dataset:
                    t_start = time.perf_counter()
                    try:
                        gate, _ = greedy_compile(target.unitary, axes, config)
                    except CompileError:
                        gate = None
                    else:
                        times.append(time.perf_counter() - t_start)
                    cell.append(gate)
                ok = [gate for gate in cell if gate is not None]
                rows.append(
                    SweepRow(
                        n_axes=n_axes,
                        eps_target=config.eps_target,
                        eps_mean=_mean([gate.epsilon for gate in ok]),
                        dist_mean=_mean([gate.distance for gate in ok]),
                        pulses_mean=_mean([gate.pulse_count for gate in ok]),
                        time_mean_s=_mean(times),
                        failures=len(cell) - len(ok),
                    )
                )
                if keep_gates:
                    gates[(n_axes, config.eps_target)] = cell
    finally:
        if gc_was_enabled:
            gc.enable()
    if keep_gates:
        return rows, gates
    return rows


def _mean(values: Sequence[float]) -> float:
    """Mean of a correctly rounded sum (math.fsum); NaN if empty."""
    return math.fsum(values) / len(values) if values else math.nan


def fit_log_model(eps_targets: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Ordinary least squares of y = slope * log10(1/eps) + intercept.

    Raises ValueError for an eps outside (0, 1) or a non-finite y, such as the
    NaN mean of a sweep cell whose every compile failed.
    """
    if len(eps_targets) < 3 or len(ys) != len(eps_targets):
        raise InsufficientDataError("need at least 3 matched (eps, y) points")
    if any(not 0.0 < e < 1.0 for e in eps_targets):
        raise ValueError("eps_targets must lie in (0, 1)")
    if not all(map(math.isfinite, ys)):
        raise ValueError("ys must be finite")
    import numpy as np
    x = np.log10(1.0 / np.asarray(eps_targets, dtype=float))
    y = np.asarray(ys, dtype=float)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return FitResult(slope=0.0, intercept=float(y.mean()), r2=1.0)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    r2 = 1.0 - float(np.sum(residuals**2)) / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept), r2=r2)
