"""Order statistics for timing samples."""

from __future__ import annotations

from statistics import quantiles

TAIL_BEYOND = 10
# below this many samples the order statistic with ten beyond it sits
# too close to the median to say anything about the tail
MIN_SAMPLES = 4 * TAIL_BEYOND


def tail(samples):
    """The highest percentile that still has TAIL_BEYOND samples above it.

    Returns (value, percentile), or None when there are fewer than
    MIN_SAMPLES samples.  The value is never below the median.
    """
    n = len(samples)
    if n < MIN_SAMPLES:
        return None
    ordered = sorted(samples)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def summary(values):
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(quantiles(values, n=4))
