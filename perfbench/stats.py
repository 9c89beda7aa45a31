"""Percentiles and span self time shared by the benchmark.

Everything here is pure arithmetic over numbers the benchmark recorded, so
the unit tests in ``perfbench/tests`` pin it without a server.
"""

from __future__ import annotations

import numpy as np

# A percentile is only trusted when at least this many samples lie beyond it.
MIN_BEYOND = 10
PERCENTILE_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule); 0.0 when empty."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def supported_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it, or ``None`` when even the median is not supported."""
    for q in PERCENTILE_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q
    return None


def describe(values) -> str:
    """One log line for a latency sample: count, median and the highest
    percentile the sample supports."""
    n = len(values)
    q = supported_percentile(n)
    tail = f"p{q:g}={percentile(values, q):.3f}" if q is not None else "no tail"
    return f"n={n} p50={percentile(values, 50):.3f} {tail}"


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of its interval its children cover.

    Children may nest, overlap each other (spans from other threads) or
    stick out of the parent; only their union inside ``[start, end]`` counts.
    """
    return (end - start) - union_length(children, start, end)
