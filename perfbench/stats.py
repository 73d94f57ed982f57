"""Summary statistics for repeated measurements.

Quartiles follow Python's ``statistics.quantiles(values, n=4)`` (the
default "exclusive" method), so a run's own spread reads the same way an
outside comparison of runs computes it. Tail percentiles follow the
rule that a percentile is reported only when at least ten samples lie
beyond it.
"""

import math
import statistics

# Percentiles considered for the tail, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
# Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) of ``values``; a single value is all three."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cv(values):
    """Coefficient of variation (sample stdev / mean); 0 below two samples."""
    if len(values) < 2:
        return 0.0
    mean = statistics.fmean(values)
    if mean == 0:
        return 0.0
    return statistics.stdev(values) / abs(mean)


def supported_percentile(n, ladder=TAIL_LADDER):
    """Highest percentile in ``ladder`` with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it, or None when even the lowest has fewer."""
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def nearest_rank(values, p):
    """Nearest-rank percentile ``p`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    # The epsilon keeps float error (99.9 / 100 * 1000 = 999.0000000000001)
    # from moving the rank up by one.
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(values):
    """Median, quartiles, CV, sample count and the supported tail
    percentile of one metric's samples."""
    q1, med, q3 = quartiles(values)
    p = supported_percentile(len(values))
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "cv": cv(values),
        "tail": None if p is None else {"p": p, "value": nearest_rank(values, p)},
    }

