"""Statistics and environment helpers shared by every workload.

Pure functions over plain lists so the tests can pin the rules the
benchmark reports by: which tail percentile is reported and what a
span's self time is.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time

#: Percentiles the tail metric may report, lowest first.  A run reports
#: the highest one that still has at least :data:`MIN_BEYOND` samples
#: beyond it, so a tail figure always rests on ten or more requests.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples rank strictly above the ``pct`` point."""
    return n - math.ceil(n * pct / 100.0)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with >= 10 of ``n`` samples beyond it.

    The median is the floor: with fewer than 20 samples it is the only
    figure reported.
    """
    best = PERCENTILE_LADDER[0]
    for pct in PERCENTILE_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values: "list[float]", pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) rank last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]


def union_length(intervals: "list[tuple[float, float]]") -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: "list[tuple[float, float]]") -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap one another (batch-mates on other threads) or
    stick out of the parent; only the covered part inside the parent's
    interval is subtracted.
    """
    clipped = [(max(start, s), min(end, e)) for s, e in children]
    return (end - start) - union_length(clipped)


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a speed stamp for the host."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def environment() -> "dict[str, object]":
    """Host facts recorded beside every result, so runners compare."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_ms": round(calibration_ms(), 3),
    }
