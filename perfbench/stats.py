"""Latency summaries under the benchmark's percentile rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it, so a p95 needs 200 samples and a tail made of one or two slow
operations is never passed off as a percentile.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Raised when a percentile has fewer than :data:`MIN_BEYOND` samples beyond it."""


def _rank(count: int, percent: float) -> int:
    """Nearest-rank position (1-based) of the ``percent`` percentile of ``count`` samples."""
    return max(1, math.ceil(percent / 100.0 * count))


def min_samples(percent: float) -> int:
    """Smallest sample count for which the ``percent`` percentile may be reported."""
    count = 1
    while count - _rank(count, percent) < MIN_BEYOND:
        count += 1
    return count


def percentile(values, percent: float) -> float:
    """Nearest-rank ``percent`` percentile of ``values``.

    Raises
    ------
    InsufficientSamples
        If fewer than :data:`MIN_BEYOND` samples lie beyond the percentile.
    """
    ordered = sorted(values)
    rank = _rank(len(ordered), percent)
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{percent:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(percent)} samples)"
        )
    return ordered[rank - 1]


def latency_summary(seconds: list[float]) -> tuple[float, float]:
    """Return ``(p50, p95)`` in milliseconds for latencies given in seconds."""
    return statistics.median(seconds) * 1e3, percentile(seconds, 95) * 1e3
