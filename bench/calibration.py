"""Machine-speed calibration for timings taken on a shared, drifting host.

On a small shared machine the speed of the CPU seen by one process drifts
by tens of percent within a minute, far more than the differences the
benchmark has to resolve.  Before every request the benchmark times a
fixed kernel of its own (``kernel``: exact ``Fraction`` arithmetic, big
integer products, dict updates and JSON encoding, the same kinds of work
qpaths does) and scales the request's timings by

    REFERENCE_S / (median kernel time over the neighbouring requests)

so a timing reads as seconds on a machine where the kernel takes exactly
``REFERENCE_S``.  The kernel does not touch qpaths, so a change to the
program moves the scaled timings exactly as it moves the raw ones; the raw
timings are reported next to them.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

#: Kernel time that scaled timings are expressed at.
REFERENCE_S = 1e-3

#: Neighbouring calibrations (on each side) whose median scales a request.
WINDOW = 10


def kernel():
    q = Fraction(3, 5)
    value = sum((e + 1) * q**e for e in range(0, 60, 2))
    product = 1
    for k in range(1, 30):
        product *= 3**k + 1
    table: dict[int, int] = {}
    for i in range(1500):
        key = i * 7 % 1009
        table[key] = table.get(key, 0) + i
    return value, json.dumps([[k, str(v * product)] for k, v in list(table.items())[:100]])


def measure() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factors(samples: list[float]) -> list[float]:
    """Scale factor for each position: REFERENCE_S over the median of the
    samples within WINDOW positions of it."""
    return [
        REFERENCE_S / statistics.median(samples[max(0, i - WINDOW): i + WINDOW + 1])
        for i in range(len(samples))
    ]
