"""Order statistics used to report timings."""

from __future__ import annotations

import math
from fractions import Fraction

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n sorted samples."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def percentile(sorted_samples, q: float) -> float:
    """Nearest-rank q-th percentile of already sorted samples.

    Raises ValueError when fewer than MIN_TAIL samples lie beyond it, since
    such a percentile says nothing about the tail it claims to describe.
    """
    n = len(sorted_samples)
    r = rank(n, q)
    if n - r < MIN_TAIL:
        raise ValueError(
            f"p{q} of {n} samples has {n - r} beyond it; need {MIN_TAIL}"
        )
    return sorted_samples[r - 1]

