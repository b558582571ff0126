"""Golden pins and jobs/reference-engine identity for the evaluation harness.

The canonical run: the full default scenario matrix (four families x
MPLs 2-3, window 4, three sets each) over the small template subset,
with both backends trained on an MPL 2-3 campaign, everything derived
from seed 7.  The pinned numbers were computed with the virtual-time
engine and committed.

Identity guarantees, mirroring the campaign's own:

* any ``--jobs`` value produces bit-identical documents (per-task
  seeding, no shared RNG stream);
* the reference loop (``tests/reference_engine.py``, patched in for
  every in-process executor run) agrees **exactly** on every discrete
  rank quantity — pair counts, pairwise accuracy, winner rate, and
  Kendall tau (a pure function of order statistics) — while continuous
  latency-derived numbers (q-error, MRE, simulated seconds) drift only
  by float reassociation, well inside 1e-9 relative.
"""

import pytest

from repro.core.training import collect_training_data
from repro.eval.backends import named_backends
from repro.eval.harness import run_matrix
from repro.engine.executor import ConcurrentExecutor
from repro.eval.scenarios import default_matrix
from repro.sampling.steady_state import SteadyStateConfig
from repro.workload.catalog import TemplateCatalog
from tests.conftest import SMALL_TEMPLATES
from tests.reference_engine import reference_run

#: Same pin tolerance as test_golden_numbers: absorbs cross-platform
#: float reassociation, trips on any model or harness change.
PIN = 1e-4

SEED = 7
STEADY = SteadyStateConfig(samples_per_stream=3)


def _pipeline(jobs=None):
    """Catalog, campaign, and backends."""
    catalog = TemplateCatalog().subset(SMALL_TEMPLATES)
    data = collect_training_data(
        catalog,
        mpls=(2, 3),
        lhs_runs_per_mpl=2,
        steady_config=STEADY,
        jobs=jobs,
    )
    return catalog, named_backends(data)


def _evaluate(pipeline, jobs=None):
    catalog, backends = pipeline
    return run_matrix(
        catalog,
        backends,
        matrix=default_matrix(),
        seed=SEED,
        steady=STEADY,
        jobs=jobs,
    )


@pytest.fixture(scope="module")
def pipeline():
    return _pipeline()


@pytest.fixture(scope="module")
def result(pipeline):
    return _evaluate(pipeline)


def test_matrix_shape(result):
    assert result.seed == SEED
    assert result.objective == "makespan"
    assert result.mixes == 65
    assert [r.backend for r in result.reports] == ["qs", "knn"]
    for report in result.reports:
        assert len(report.scenarios) == 8
        assert sum(s.sets for s in report.scenarios) == 24


def test_overall_metrics_are_pinned(result):
    golden = {
        "qs": {
            "pairwise_accuracy": 0.7986111111111112,
            "winner_rate": 0.625,
            "kendall_tau": 0.5972222222222222,
            "q_error": {
                "p50": 1.045443753958915,
                "p90": 1.1790881845301533,
                "max": 2.241364562552514,
            },
            "mre": 0.08643587780535189,
        },
        "knn": {
            "pairwise_accuracy": 0.7222222222222222,
            "winner_rate": 0.5416666666666666,
            "kendall_tau": 0.4444444444444444,
            "q_error": {
                "p50": 1.1710719634271824,
                "p90": 1.4677994267448113,
                "max": 2.0805898959114186,
            },
            "mre": 0.18956076578659264,
        },
    }
    assert result.sim_seconds == pytest.approx(255689.7871020099, rel=PIN)
    for backend, expected in golden.items():
        report = result.report_for(backend)
        assert report.pairwise_accuracy == pytest.approx(
            expected["pairwise_accuracy"], rel=PIN
        )
        assert report.winner_rate == pytest.approx(
            expected["winner_rate"], rel=PIN
        )
        assert report.kendall_tau == pytest.approx(
            expected["kendall_tau"], rel=PIN
        )
        for key, value in expected["q_error"].items():
            assert report.q_error[key] == pytest.approx(value, rel=PIN)
        assert report.mre == pytest.approx(expected["mre"], rel=PIN)


def test_ranking_floor_and_ordering(result):
    # The decision-quality claim behind the bench gate: both predictors
    # carry genuine rank signal (chance is 0.5), and the fitted QS path
    # beats leave-one-out KNN on every headline metric.
    qs = result.report_for("qs")
    knn = result.report_for("knn")
    for report in (qs, knn):
        assert report.pairwise_accuracy > 0.5
        assert report.kendall_tau > 0.0
    assert qs.pairwise_accuracy > knn.pairwise_accuracy
    assert qs.kendall_tau > knn.kendall_tau
    assert qs.mre < knn.mre


def test_jobs_do_not_change_results(pipeline, result):
    for jobs in (1, 2):
        assert _evaluate(pipeline, jobs=jobs).to_doc() == result.to_doc()


def test_reference_engine_agrees(result, monkeypatch):
    # In-process (jobs=1): every campaign and ground-truth run goes
    # through ConcurrentExecutor.run, so patching it swaps the loop.
    monkeypatch.setattr(ConcurrentExecutor, "run", reference_run)
    reference = _evaluate(_pipeline(jobs=1), jobs=1)
    assert reference.mixes == result.mixes
    assert reference.sim_seconds == pytest.approx(
        result.sim_seconds, rel=1e-9
    )
    for expected in result.reports:
        report = reference.report_for(expected.backend)
        # Rank statistics are pure functions of orderings and counts:
        # the reference engine reproduces them exactly.
        assert report.pairwise_accuracy == expected.pairwise_accuracy
        assert report.winner_rate == expected.winner_rate
        assert report.kendall_tau == expected.kendall_tau
        for mine, theirs in zip(report.scenarios, expected.scenarios):
            assert mine.pairs == theirs.pairs
            assert mine.predictions == theirs.predictions
            assert mine.pairwise_accuracy == theirs.pairwise_accuracy
            assert mine.winner_rate == theirs.winner_rate
            assert mine.kendall_tau == theirs.kendall_tau
            # Latency-derived numbers reassociate across engines.
            assert mine.mre == pytest.approx(theirs.mre, rel=1e-9)
            for key in ("p50", "p90", "max"):
                assert mine.q_error[key] == pytest.approx(
                    theirs.q_error[key], rel=1e-9
                )
