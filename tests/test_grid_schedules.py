"""Pin the greedy schedules of the paper's sweep, one sha256 per (n_axes, eps) cell.

A speed-up must leave every schedule bit-identical; when one does not,
the diff of the data file names the cells that moved.
"""

import hashlib
import sys
from pathlib import Path

from pulsegate import CompileError, GreedyConfig, allowed_axes, evaluation_dataset, greedy_compile
from pulsegate.bench import DEFAULT_AXES_LIST, DEFAULT_EPS_LIST

PINNED = Path(__file__).parent / "data" / "grid_schedules.txt"


def cell_digest(n_axes: int, eps: float) -> str:
    """sha256 over the cell's 128 schedules: pulse phases and angles, frame phase, epsilon, iterations."""
    axes, config = allowed_axes(n_axes), GreedyConfig(eps_target=eps)
    h = hashlib.sha256()
    for target in evaluation_dataset():
        try:
            gate, _ = greedy_compile(target.unitary, axes, config)
        except CompileError:
            h.update(b"fail;")
            continue
        for p in gate.pulses:
            h.update(f"{p.phase.hex()} {p.angle.hex()},".encode())
        h.update(f"{gate.frame_phase.hex()} {gate.epsilon.hex()} {gate.iterations};".encode())
    return h.hexdigest()


def grid_text() -> str:
    cells = [(n, eps) for n in DEFAULT_AXES_LIST for eps in DEFAULT_EPS_LIST]
    return "".join(f"{n} {eps:.0e} {cell_digest(n, eps)}\n" for n, eps in cells)


def test_grid_schedules_are_pinned():
    assert grid_text() == PINNED.read_text()


if __name__ == "__main__":
    # Rewrite the pinned file: PYTHONPATH=src python tests/test_grid_schedules.py
    PINNED.write_text(grid_text())
    sys.exit(0)
