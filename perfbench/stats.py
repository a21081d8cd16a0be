"""Order statistics for round times."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it


def median(samples) -> float:
    return float(statistics.median(samples))


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, sample count).  The percentile is the share of
    samples at or below the value.  With `beyond` or fewer samples no such
    percentile exists, and the fastest sample is returned as percentile 0.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return float(xs[0]), 0.0, n
    rank = n - beyond  # samples at or below the value
    return float(xs[rank - 1]), 100.0 * rank / n, n

