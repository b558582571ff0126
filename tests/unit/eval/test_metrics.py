"""Property and edge-case tests for the ranking-metric kernels.

The load-bearing properties:

* ``kendall_tau`` agrees with a brute-force O(n^2) tau-b on arbitrary
  tied inputs — Knight's algorithm is an optimization, not a different
  statistic;
* ``pairwise_counts`` (computed from the same counts) agrees with a
  brute-force O(n^2) sign-matrix count;
* q-errors are >= 1 and symmetric under swapping observed/predicted;
* pairwise counts are invariant under any joint permutation of the
  candidates and award exactly half credit for prediction ties.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.eval.metrics import (
    kendall_tau,
    pairwise_accuracy,
    pairwise_counts,
    q_error_summary,
    q_errors,
)

# Small-integer values produce plenty of ties — the regime where tau-b
# and the pairwise tie credit actually differ from the naive formulas.
_TIED_VALUES = st.integers(min_value=0, max_value=5).map(float)
_POSITIVE = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def paired_vectors(draw, values=_TIED_VALUES, min_size=2, max_size=12):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(st.lists(values, min_size=n, max_size=n))
    ys = draw(st.lists(values, min_size=n, max_size=n))
    return xs, ys


def _brute_tau_b(x, y):
    """Tau-b straight from the definition, one pair at a time."""
    n = len(x)
    concordant = discordant = xtie = ytie = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = np.sign(x[i] - x[j])
            dy = np.sign(y[i] - y[j])
            if dx == 0:
                xtie += 1
            if dy == 0:
                ytie += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    total = n * (n - 1) // 2
    denominator = np.sqrt(float(total - xtie) * float(total - ytie))
    if denominator == 0.0:
        return 0.0
    return (concordant - discordant) / denominator


# ----------------------------------------------------------------------
# Kendall tau-b.


@given(paired_vectors())
def test_tau_matches_brute_force(pair):
    xs, ys = pair
    assert kendall_tau(xs, ys) == pytest.approx(
        _brute_tau_b(xs, ys), rel=1e-12, abs=1e-12
    )


@given(paired_vectors(values=_POSITIVE))
def test_tau_matches_brute_force_without_ties(pair):
    xs, ys = pair
    assert kendall_tau(xs, ys) == pytest.approx(
        _brute_tau_b(xs, ys), rel=1e-12, abs=1e-12
    )


@given(paired_vectors())
def test_tau_is_symmetric_and_bounded(pair):
    xs, ys = pair
    tau = kendall_tau(xs, ys)
    assert -1.0 <= tau <= 1.0 + 1e-12
    assert kendall_tau(ys, xs) == pytest.approx(tau, abs=1e-12)


@given(st.lists(_POSITIVE, min_size=2, max_size=12, unique=True))
def test_tau_perfect_on_identical_rankings(xs):
    assert kendall_tau(xs, xs) == pytest.approx(1.0)
    assert kendall_tau(xs, [-v for v in xs]) == pytest.approx(-1.0)


def test_tau_zero_when_one_side_constant():
    assert kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
    assert kendall_tau([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0


def test_tau_validates_inputs():
    with pytest.raises(ModelError):
        kendall_tau([1.0], [2.0])  # minimum two samples
    with pytest.raises(ModelError):
        kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ModelError):
        kendall_tau([1.0, np.nan], [1.0, 2.0])


# ----------------------------------------------------------------------
# q-error.


@given(paired_vectors(values=_POSITIVE, min_size=1))
def test_q_errors_at_least_one_and_swap_symmetric(pair):
    obs, pred = pair
    q = q_errors(obs, pred)
    assert np.all(q >= 1.0)
    np.testing.assert_array_equal(q, q_errors(pred, obs))


@given(st.lists(_POSITIVE, min_size=1, max_size=12))
def test_q_error_exact_on_perfect_prediction(values):
    q = q_errors(values, values)
    np.testing.assert_array_equal(q, np.ones(len(values)))


def test_q_error_summary_orders_percentiles():
    obs = [100.0, 200.0, 300.0, 400.0]
    pred = [110.0, 150.0, 300.0, 800.0]
    summary = q_error_summary(obs, pred)
    assert set(summary) == {"p50", "p90", "max"}
    assert 1.0 <= summary["p50"] <= summary["p90"] <= summary["max"]
    assert summary["max"] == pytest.approx(2.0)


def test_q_error_rejects_non_positive():
    with pytest.raises(ModelError):
        q_errors([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ModelError):
        q_errors([1.0, 1.0], [-2.0, 1.0])
    with pytest.raises(ModelError):
        q_errors([], [])


# ----------------------------------------------------------------------
# Pairwise winner prediction.


def _brute_force_pairwise_counts(xs, ys):
    """O(n^2) sign-matrix reference for :func:`pairwise_counts`."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    upper = np.triu(np.ones((x.size, x.size), dtype=bool), k=1)
    comparable = upper & (dx != 0)
    agree = comparable & (dx == dy)
    tied = comparable & (dy == 0)
    correct = float(np.count_nonzero(agree)) + 0.5 * float(
        np.count_nonzero(tied)
    )
    return correct, int(np.count_nonzero(comparable))


@given(paired_vectors(min_size=1, max_size=40))
def test_pairwise_counts_match_brute_force(pair):
    xs, ys = pair
    assert pairwise_counts(xs, ys) == _brute_force_pairwise_counts(xs, ys)


@given(paired_vectors(), st.randoms(use_true_random=False))
def test_pairwise_counts_permutation_invariant(pair, random):
    xs, ys = pair
    order = list(range(len(xs)))
    random.shuffle(order)
    baseline = pairwise_counts(xs, ys)
    shuffled = pairwise_counts(
        [xs[i] for i in order], [ys[i] for i in order]
    )
    assert shuffled == baseline


@given(paired_vectors())
def test_pairwise_counts_bounds(pair):
    xs, ys = pair
    correct, comparable = pairwise_counts(xs, ys)
    n = len(xs)
    assert 0 <= comparable <= n * (n - 1) // 2
    assert 0.0 <= correct <= comparable


def test_pairwise_accuracy_perfect_and_inverted():
    truth = [10.0, 20.0, 30.0]
    assert pairwise_accuracy(truth, [1.0, 2.0, 3.0]) == 1.0
    assert pairwise_accuracy(truth, [3.0, 2.0, 1.0]) == 0.0


def test_pairwise_tie_scores_half():
    # All predictions tied: every comparable pair is a coin flip.
    assert pairwise_accuracy([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.5


def test_pairwise_skips_true_ties():
    # Only the (1.0, 2.0) true pairs are comparable; both ordered right.
    correct, comparable = pairwise_counts([1.0, 1.0, 2.0], [3.0, 4.0, 9.0])
    assert comparable == 2
    assert correct == 2.0


def test_pairwise_accuracy_undefined_without_comparable_pairs():
    with pytest.raises(ModelError):
        pairwise_accuracy([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])
