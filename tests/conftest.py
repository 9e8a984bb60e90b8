import math
import warnings

import numpy as np
import pytest

from pulsegate import ir, rotation_unitary

# When a @given test fails, hypothesis's pytest plugin imports this module to print
# a patch. With libcst installed, that import warns that mypy_extensions.TypedDict is
# deprecated, and under -W error the warning ends the run in INTERNALERROR, so no
# later test runs. Imported here once with that warning ignored, the module is cached
# for the plugin. Without libcst the import fails, and the plugin skips the patch too.
try:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_axis(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_su2(rng) -> np.ndarray:
    return rotation_unitary(random_axis(rng), rng.uniform(0.0, 2.0 * math.pi))


def random_unitary(rng) -> np.ndarray:
    """Random SU(2) element times a random global phase."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * random_su2(rng)


def random_canonical_sequence(rng, max_len: int = 20) -> list:
    """Random schedule of canonical virtual-Z and XY steps."""
    steps = []
    for _ in range(rng.integers(0, max_len + 1)):
        if rng.random() < 0.4:
            step = ir.canonical_virtual_z(rng.uniform(-math.pi, math.pi))
        else:
            step = ir.canonical_xy(
                rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
            )
        if step is not None:
            steps.append(step)
    return steps
