"""Pair-count kernels shared by ranking metrics.

Knight's O(n log n) pair counts (sort by one key, merge-sort inversion
count on the other) feed both Kendall tau-b in :mod:`repro.eval.metrics`
and pairwise winner-prediction accuracy, which the queue replay in
:mod:`repro.sched.replay` reports as well.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ModelError

__all__ = ["pairwise_counts", "rank_counts", "validate_pair"]


def validate_pair(
    a: Sequence[float], b: Sequence[float], minimum: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Two equal-length, finite 1-D float arrays of >= *minimum* samples.

    Raises:
        ModelError: Otherwise.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ModelError("metric inputs must be one-dimensional")
    if x.shape != y.shape:
        raise ModelError(
            f"metric inputs differ in shape: {x.shape} vs {y.shape}"
        )
    if x.size < minimum:
        raise ModelError(f"metric needs at least {minimum} samples, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ModelError("metric inputs must be finite")
    return x, y


def _merge_count(values: List[float]) -> int:
    """Strict inversions (``values[i] > values[j]`` for ``i < j``).

    Iterative bottom-up merge sort; equal elements are kept stable and
    never counted, which is exactly the "discordant pair" count tau-b
    needs once the sequence is pre-sorted by the other variable.  Works
    on (and reorders) a Python list: element access there is several
    times cheaper than on a numpy array.
    """
    n = len(values)
    buffer = values[:]
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            if mid == hi:
                continue
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if values[i] <= values[j]:
                    buffer[k] = values[i]
                    i += 1
                else:
                    # values[i..mid) all exceed values[j]: each is an
                    # inversion against it.
                    buffer[k] = values[j]
                    inversions += mid - i
                    j += 1
                k += 1
            while i < mid:
                buffer[k] = values[i]
                i += 1
                k += 1
            while j < hi:
                buffer[k] = values[j]
                j += 1
                k += 1
            values[lo:hi] = buffer[lo:hi]
        width *= 2
    return inversions


def _tie_pairs(sorted_values: List[float]) -> int:
    """Pairs tied in a *sorted* array: ``sum g*(g-1)/2`` over tie groups."""
    total = 0
    run = 1
    for i in range(1, len(sorted_values)):
        if sorted_values[i] == sorted_values[i - 1]:
            run += 1
        else:
            total += run * (run - 1) // 2
            run = 1
    total += run * (run - 1) // 2
    return total


def rank_counts(x: np.ndarray, y: np.ndarray) -> Tuple[int, int, int, int, int]:
    """Knight's pair counts ``(tot, xtie, ytie, xytie, discordant)``.

    Sort by ``(x, y)``; discordant pairs are then the strict inversions
    of the sorted ``y`` sequence, and tie counts come from runs in the
    sorted arrays.  O(n log n), O(n) memory.
    """
    n = x.size
    order = np.lexsort((y, x))
    xs, ys = x[order].tolist(), y[order].tolist()

    tot = n * (n - 1) // 2
    xtie = _tie_pairs(xs)
    ytie = _tie_pairs(np.sort(y).tolist())
    # Joint ties: pairs tied on both variables.  xs groups are
    # contiguous and ys is sorted within each, so lexicographic
    # adjacency finds every joint tie group.
    xytie = 0
    run = 1
    for i in range(1, n):
        if xs[i] == xs[i - 1] and ys[i] == ys[i - 1]:
            run += 1
        else:
            xytie += run * (run - 1) // 2
            run = 1
    xytie += run * (run - 1) // 2
    return tot, xtie, ytie, xytie, _merge_count(ys)


def pairwise_counts(
    truth: Sequence[float], predicted: Sequence[float]
) -> Tuple[float, int]:
    """``(correct, comparable)`` pair counts for pooled accuracies.

    A pair is *comparable* when its true costs differ.  The prediction
    scores 1 when it orders the pair like the truth, 0.5 when it ties
    them (deciding by coin flip), 0 otherwise.  Both counts are
    invariant under any joint permutation of the candidates — a pair's
    contribution depends only on its two values.

    Uses the same O(n log n) counts as :func:`repro.eval.metrics.kendall_tau`: comparable
    pairs are ``tot - xtie``; of those, ``tot - xtie - ytie + xytie -
    discordant`` are concordant and ``ytie - xytie`` tied in the
    prediction only.
    """
    x, y = validate_pair(truth, predicted, minimum=1)
    tot, xtie, ytie, xytie, discordant = rank_counts(x, y)
    concordant = tot - xtie - ytie + xytie - discordant
    correct = float(concordant) + 0.5 * float(ytie - xytie)
    return correct, tot - xtie
