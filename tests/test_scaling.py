"""Deterministic scaling: greedy iterations grow linearly in log10(1/eps).

The paper's runtime claim, O(log(1/eps)), checked on work counts rather
than wall-clock time, so the verdict does not depend on machine load. It
sits next to acceptance criterion 5, which fits the timed sweep.
"""

import pytest

from pulsegate import fit_log_model, run_sweep
from pulsegate.bench import DEFAULT_AXES_LIST, DEFAULT_EPS_LIST  # 6/10/18/34 axes x 1e-1..1e-8

# The sweep's fits read r^2 0.9888 / 0.9980 / 0.9987 / 0.9977 and slopes
# 1.105 / 0.808 / 0.614 / 0.531 iterations per decade at 6 / 10 / 18 / 34 axes.
MIN_R2 = 0.98


@pytest.fixture(scope="module")
def cells():
    _, gates = run_sweep(DEFAULT_AXES_LIST, DEFAULT_EPS_LIST, keep_gates=True)
    return gates


@pytest.mark.parametrize("n_axes", DEFAULT_AXES_LIST)
def test_iterations_are_linear_in_log_inverse_eps(cells, n_axes):
    means = []
    for eps in DEFAULT_EPS_LIST:
        done = [g for g in cells[(n_axes, eps)] if g is not None]
        assert done, (n_axes, eps)
        means.append(sum(g.iterations for g in done) / len(done))
    fit = fit_log_model(DEFAULT_EPS_LIST, means)
    assert fit.slope > 0.0, (n_axes, fit)
    assert fit.r2 >= MIN_R2, (n_axes, fit)
