"""Order statistics shared by the load generator and queue replay."""

from __future__ import annotations

from typing import Sequence

__all__ = ["percentile"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence.

    *q* is a fraction in [0, 1]; an empty sequence yields 0.0.
    """
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac
