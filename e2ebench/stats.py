"""Percentiles, spreads and span arithmetic shared by the benchmark.

Everything here is pure: no clocks, no I/O, so the rules the benchmark
reports by (the ten-beyond percentile rule, interval cover, self time)
are unit-tested in isolation (``e2ebench/tests``).
"""

import math

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(values, q):
    """The ``q``-th percentile (0..100) of ``values`` by nearest rank.

    Returns None when fewer than :data:`MIN_BEYOND` samples lie beyond
    the rank, so a tail figure never rests on a handful of requests.
    The median (q=50) of a non-empty sample is always supported once the
    sample holds 2 * MIN_BEYOND values.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def union_length(intervals):
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def covered(span, children):
    """Part of ``span = (start, end)`` that the child intervals cover."""
    start, end = span
    clipped = [(max(start, c_start), min(end, c_end))
               for c_start, c_end in children]
    return union_length([c for c in clipped if c[1] > c[0]])


def self_time(span, children):
    """Span duration minus the part of it its children cover."""
    start, end = span
    return max(0.0, (end - start) - covered(span, children))
