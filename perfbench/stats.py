"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math

# A percentile is only trusted when at least this many samples lie above it.
MIN_SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """q-th percentile (0 <= q <= 100) of a non-empty sample, interpolating
    linearly between the two nearest ranks, so that a percentile falling
    between two clusters of task times moves smoothly instead of jumping
    from one cluster to the other."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    if lo + 1 == len(ordered):
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples rank above the q-th percentile's position."""
    return n - 1 - math.floor((n - 1) * q / 100)


def supported(n: int, q: float) -> bool:
    """True when n samples leave at least MIN_SAMPLES_BEYOND above the q-th
    percentile, so that it is not just one of the slowest few samples."""
    return n > 0 and samples_beyond(n, q) >= MIN_SAMPLES_BEYOND
