"""Small statistics the benchmark reports with: percentiles that refuse
thin tails, quartile spreads, and span self time."""

from __future__ import annotations

import statistics

import numpy as np


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """The ``q``-th percentile, refused unless at least ``min_beyond``
    samples lie beyond it (above for q >= 50, below otherwise): p95
    needs 200 samples, p99 needs 1000.  A tail read off fewer samples
    is one outlier's position, not a measurement."""
    n = len(samples)
    tail = (100.0 - q) if q >= 50 else q
    if n * tail / 100.0 < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has fewer than {min_beyond} beyond it")
    return float(np.percentile(samples, q))


def quartiles(values) -> tuple[float, float, float] | None:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the driver's definition of spread — or None below 3 values."""
    values = [float(v) for v in values if v is not None]
    if len(values) < 3:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float | None:
    """Interquartile distance as a share of the median."""
    qs = quartiles(values)
    if qs is None or qs[1] == 0:
        return None
    return (qs[2] - qs[0]) / abs(qs[1])


def self_time(span: tuple[float, float], children) -> float:
    """A span's duration minus the part of it its children cover.

    ``span`` and each child are ``(start, end)``.  Children are clipped
    to the span and overlapping children are counted once, so parallel
    sends to three peers do not subtract three times."""
    start, end = span
    clipped = sorted((max(start, s), min(end, e)) for s, e in children
                     if min(end, e) > max(start, s))
    covered = 0.0
    cursor = start
    for s, e in clipped:
        if e > cursor:
            covered += e - max(s, cursor)
            cursor = e
    return (end - start) - covered


def median(values) -> float:
    return float(statistics.median(values))
