"""Time one workload set-up in this fresh process and print the seconds.

    python3 perfbench/probe.py paper-grid

The clock covers importing pulsegate (and pulsegate.cli where the
workload uses it) plus the workload's program-side set-up; the
interpreter's own start-up is outside it. The reference loop's time in
the same process follows, so the caller can state the set-up time at
reference speed.
"""

import statistics
import sys
import time
from pathlib import Path

import program

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    program.setup(sys.argv[1])
    seconds = time.perf_counter() - t0

    import reference  # after the clock: it imports numpy

    loop_seconds = statistics.median(reference.sample() for _ in range(7))
    print(seconds, loop_seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
