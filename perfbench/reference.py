"""Reference loop: a fixed piece of work that tracks the machine's speed.

On a shared machine the same code runs up to twice as slowly at some
times as at others, for minutes at a time, and neither process time nor
steal time shows it. The benchmark samples this loop between chunks of
targets and states every timing at reference speed:

    time at reference speed = measured time * REF_SECONDS / loop time nearby

The loop does what the compiler's hot path does (small complex numpy
arrays, 2x2 products, scalar math), so it slows down with it. It imports
nothing from the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_SECONDS = 1e-3  # the loop's time at reference speed
WINDOW = 2  # samples on each side of a chunk that set its speed


def loop() -> float:
    a = np.eye(2, dtype=complex)
    acc = 0.0
    for i in range(120):
        c = math.cos(i * 0.01)
        s = math.sin(i * 0.01)
        b = np.array([[c, -1j * s], [-1j * s, c]])
        a = b @ a
        acc += abs(np.vdot(a, b)) ** 2 / 4.0
    return acc


def sample() -> float:
    """Seconds one run of the loop takes now."""
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def scales(samples) -> list[float]:
    """REF_SECONDS over the local loop time, for each gap between samples.

    Chunk k runs between samples k and k + 1; its loop time is the median
    of the samples within WINDOW of that gap.
    """
    out = []
    for k in range(len(samples) - 1):
        near = samples[max(0, k + 1 - WINDOW): k + 1 + WINDOW]
        out.append(REF_SECONDS / statistics.median(near))
    return out
