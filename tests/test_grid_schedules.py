"""Pin greedy schedules, one sha256 per (n_axes, eps) cell.

Two sets are pinned: the paper's sweep (`grid_schedules.txt`), and Haar
targets plus special gates at set sizes and epsilons beyond that sweep
(`beyond_grid_schedules.txt`). A speed-up must leave every schedule
bit-identical; when one does not, the diff of the data files names the
cells that moved.
"""

import cmath
import hashlib
import math
import random
import sys
from pathlib import Path

import numpy as np

from pulsegate import CompileError, GreedyConfig, allowed_axes, evaluation_dataset, greedy_compile
from pulsegate.bench import DEFAULT_AXES_LIST, DEFAULT_EPS_LIST
from pulsegate.greedy import EPS_FLOOR, MAX_AXES

DATA = Path(__file__).parent / "data"
PINNED = DATA / "grid_schedules.txt"
PINNED_BEYOND = DATA / "beyond_grid_schedules.txt"

BEYOND_AXES = (5, 7, 16386, 10**12, MAX_AXES)
BEYOND_EPS = (1e-4, 1e-12, 1e-20, EPS_FLOOR)


def haar_targets(count: int, seed: int) -> list[np.ndarray]:
    """Haar-random SU(2) elements (Shoemake's construction) times a random phase.

    Drawn from the standard library's Mersenne Twister, whose `random()`
    stream is reproducible across Python versions and platforms.
    """
    draw = random.Random(seed).random
    out = []
    for _ in range(count):
        u0, u1, u2, gamma = draw(), draw(), draw(), 2.0 * math.pi * draw()
        a = math.sqrt(1.0 - u0) * math.sin(2.0 * math.pi * u1)
        b = math.sqrt(1.0 - u0) * math.cos(2.0 * math.pi * u1)
        c = math.sqrt(u0) * math.sin(2.0 * math.pi * u2)
        d = math.sqrt(u0) * math.cos(2.0 * math.pi * u2)
        u = np.array([[a - 1j * d, -c - 1j * b], [c - 1j * b, a + 1j * d]])
        out.append(cmath.exp(1j * gamma) * u)
    return out


SPECIAL_TARGETS = [
    np.eye(2, dtype=complex),  # I
    np.array([[0, 1], [1, 0]], dtype=complex),  # X
    np.array([[0, -1j], [1j, 0]], dtype=complex),  # Y
    np.array([[1, 0], [0, -1]], dtype=complex),  # Z
    np.array([[1, 0], [0, 1j]], dtype=complex),  # S
    np.array([[0, 1], [-1, 0]], dtype=complex),  # iY
]


def cell_digest(targets, n_axes: int, eps: float, with_damping: bool = False) -> str:
    """sha256 over a cell's schedules: pulse phases and angles, frame phase, epsilon, iterations.

    `with_damping` adds each compile's count of damped (halved) trial angles.
    """
    axes, config = allowed_axes(n_axes), GreedyConfig(eps_target=eps)
    h = hashlib.sha256()
    for target in targets:
        try:
            gate, report = greedy_compile(target, axes, config)
        except CompileError:
            h.update(b"fail;")
            continue
        for p in gate.pulses:
            h.update(f"{p.phase.hex()} {p.angle.hex()},".encode())
        damped = f" {report.damped_steps}" if with_damping else ""
        h.update(f"{gate.frame_phase.hex()} {gate.epsilon.hex()} {gate.iterations}{damped};".encode())
    return h.hexdigest()


def grid_text() -> str:
    targets = [t.unitary for t in evaluation_dataset()]
    cells = [(n, eps) for n in DEFAULT_AXES_LIST for eps in DEFAULT_EPS_LIST]
    return "".join(f"{n} {eps:.0e} {cell_digest(targets, n, eps)}\n" for n, eps in cells)


def beyond_grid_text() -> str:
    targets = haar_targets(64, seed=11) + SPECIAL_TARGETS
    cells = [(n, eps) for n in BEYOND_AXES for eps in BEYOND_EPS]
    return "".join(
        f"{n} {eps:.0e} {cell_digest(targets, n, eps, with_damping=True)}\n" for n, eps in cells
    )


def test_grid_schedules_are_pinned():
    assert grid_text() == PINNED.read_text()


def test_beyond_grid_schedules_are_pinned():
    assert beyond_grid_text() == PINNED_BEYOND.read_text()


if __name__ == "__main__":
    # Rewrite both pinned files: PYTHONPATH=src python tests/test_grid_schedules.py
    PINNED.write_text(grid_text())
    PINNED_BEYOND.write_text(beyond_grid_text())
    sys.exit(0)
