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

from typing import Dict, Sequence

import numpy as np

from ..errors import ModelError
from ..metrics.ranking import pairwise_counts, rank_counts, validate_pair

__all__ = [
    "kendall_tau",
    "pairwise_accuracy",
    "pairwise_counts",
    "q_error_summary",
    "q_errors",
]


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
    obs, pred = validate_pair(observed, predicted)
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
    x, y = validate_pair(truth, predicted, minimum=2)
    tot, xtie, ytie, xytie, discordant = rank_counts(x, y)
    numerator = tot - xtie - ytie + xytie - 2 * discordant
    denominator = float(np.sqrt(float(tot - xtie) * float(tot - ytie)))
    if denominator == 0.0:
        return 0.0
    return float(numerator / denominator)


# ----------------------------------------------------------------------
# Pairwise winner prediction.


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
