"""Ranking-quality metric kernels.

Three metrics complement the paper's mean relative error (Eq. 1):

*q-error*
    ``max(observed/predicted, predicted/observed)`` — the standard
    cardinality-estimation error ratio, applied to latencies.  Always
    >= 1, symmetric under over-/under-prediction, and multiplicative:
    a q-error of 2 means "off by 2x in either direction".

*Kendall tau-b*
    Rank correlation between true and predicted costs over one
    candidate set, tie-corrected.  Computed with Knight's O(n log n)
    algorithm (sort by one key, merge-sort inversion count on the
    other); +1 is a perfect ranking, -1 a perfectly inverted one, 0
    no rank information.

*pairwise winner-prediction accuracy*
    Over every pair of candidates whose *true* costs differ: did the
    prediction order them the same way?  Prediction ties score half a
    point (a tie-broken coin flip).  0.5 is chance; anything above
    means the model carries usable decision signal.

All kernels validate shapes and raise
:class:`~repro.errors.ModelError` on degenerate input, matching the
conventions of :mod:`repro.metrics.errors`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ModelError

__all__ = [
    "kendall_tau",
    "pairwise_accuracy",
    "pairwise_counts",
    "q_error_summary",
    "q_errors",
]


def _validate_pair(
    a: Sequence[float], b: Sequence[float], minimum: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
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


# ----------------------------------------------------------------------
# q-error.


def q_errors(
    observed: Sequence[float], predicted: Sequence[float]
) -> np.ndarray:
    """Per-sample q-errors ``max(obs/pred, pred/obs)``.

    Raises:
        ModelError: On shape mismatch, empty input, or a non-positive
            value on either side (the ratio is undefined there).
    """
    obs, pred = _validate_pair(observed, predicted)
    if np.any(obs <= 0) or np.any(pred <= 0):
        raise ModelError("q-error needs strictly positive values")
    return np.maximum(obs / pred, pred / obs)


def q_error_summary(
    observed: Sequence[float], predicted: Sequence[float]
) -> Dict[str, float]:
    """The q-error distribution reduced to ``p50`` / ``p90`` / ``max``."""
    q = q_errors(observed, predicted)
    return {
        "p50": float(np.percentile(q, 50)),
        "p90": float(np.percentile(q, 90)),
        "max": float(np.max(q)),
    }


# ----------------------------------------------------------------------
# Kendall tau-b (Knight's algorithm).


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


def _rank_counts(x: np.ndarray, y: np.ndarray) -> Tuple[int, int, int, int, int]:
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


def kendall_tau(truth: Sequence[float], predicted: Sequence[float]) -> float:
    """Kendall tau-b rank correlation between two cost vectors.

    Tie-corrected::

        tau_b = (concordant - discordant) /
                sqrt((tot - ties_x) * (tot - ties_y))

    computed in O(n log n) via Knight's method: sort by
    ``(truth, predicted)``, count discordant pairs as strict inversions
    of the predicted sequence, and correct for ties on either and both
    sides.  Returns 0.0 when either side is entirely tied (no rank
    information exists).

    Raises:
        ModelError: On shape mismatch or fewer than two samples.
    """
    x, y = _validate_pair(truth, predicted, minimum=2)
    tot, xtie, ytie, xytie, discordant = _rank_counts(x, y)
    numerator = tot - xtie - ytie + xytie - 2 * discordant
    denominator = float(np.sqrt(float(tot - xtie) * float(tot - ytie)))
    if denominator == 0.0:
        return 0.0
    return float(numerator / denominator)


# ----------------------------------------------------------------------
# Pairwise winner prediction.


def pairwise_counts(
    truth: Sequence[float], predicted: Sequence[float]
) -> Tuple[float, int]:
    """``(correct, comparable)`` pair counts for pooled accuracies.

    A pair is *comparable* when its true costs differ.  The prediction
    scores 1 when it orders the pair like the truth, 0.5 when it ties
    them (deciding by coin flip), 0 otherwise.  Both counts are
    invariant under any joint permutation of the candidates — a pair's
    contribution depends only on its two values.

    Uses the same O(n log n) counts as :func:`kendall_tau`: comparable
    pairs are ``tot - xtie``; of those, ``tot - xtie - ytie + xytie -
    discordant`` are concordant and ``ytie - xytie`` tied in the
    prediction only.
    """
    x, y = _validate_pair(truth, predicted, minimum=1)
    tot, xtie, ytie, xytie, discordant = _rank_counts(x, y)
    concordant = tot - xtie - ytie + xytie - discordant
    correct = float(concordant) + 0.5 * float(ytie - xytie)
    return correct, tot - xtie


def pairwise_accuracy(
    truth: Sequence[float], predicted: Sequence[float]
) -> float:
    """Fraction of comparable pairs the prediction orders correctly.

    Raises:
        ModelError: When no pair of true costs differs (accuracy is
            undefined — there is no decision to get right).
    """
    correct, comparable = pairwise_counts(truth, predicted)
    if comparable == 0:
        raise ModelError(
            "pairwise accuracy needs at least one pair of distinct "
            "true costs"
        )
    return correct / comparable
