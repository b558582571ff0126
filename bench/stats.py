"""Summary statistics the bench reports.

Timings are summarized as a median plus the highest percentile that
still has at least :data:`MIN_TAIL` samples beyond it; a percentile with
fewer samples behind it is noise and is not reported.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL = 10

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LEVELS = (0.999, 0.99, 0.95, 0.9)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated q-quantile (0..1) of *values*."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the q-quantile."""
    return int(n * (1.0 - q) + 1e-9)


def tail_percentile(
    values: Sequence[float], levels: Sequence[float] = TAIL_LEVELS
) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest level with >= MIN_TAIL samples beyond.

    ``None`` when even the lowest level lacks the samples.
    """
    for q in sorted(levels, reverse=True):
        if samples_beyond(len(values), q) >= MIN_TAIL:
            return q, percentile(values, q)
    return None


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile and count of *values*.

    Quartiles come from :func:`statistics.quantiles` (``n=4``), the same
    rule the acceptance spread uses; one value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return {"median": v, "q1": v, "q3": v, "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    summary = quartiles(values)
    if summary["median"] == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])
