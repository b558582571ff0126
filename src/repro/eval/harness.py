"""Ground truth through the simulator; backends scored against it.

The harness answers one question per candidate set: *would the
scheduler have picked the true winner?*  Ground truth comes from the
same machinery as the training campaign — every candidate mix is an
independent steady-state simulation task keyed on
``(seed, "mix", mix, mpl)`` and dispatched through
:func:`~repro.core.campaign.parallel_map` — so results are bit-identical
for any ``jobs`` value, exactly as the campaign itself is.

Scoring reuses :class:`~repro.sched.policies.PredictivePolicy`
verbatim: predicted candidate costs come from :meth:`score` and the
predicted winner from :meth:`pick`, so the evaluation measures the
decision path the scheduler actually runs.

Nothing in a report depends on wall-clock time: documents contain only
simulated quantities and are safe to compare bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..apps.admission import PredictionBackend
from ..core.training import _CampaignContext, _execute_campaign_task
from ..core.campaign import parallel_map
from ..errors import ModelError
from ..metrics.errors import mean_relative_error
from ..obs.metrics import Registry
from ..sampling.steady_state import SteadyStateConfig
from ..sched.policies import PredictivePolicy
from ..workload.catalog import TemplateCatalog
from .metrics import kendall_tau, pairwise_counts, q_error_summary
from .scenarios import (
    CandidateSet,
    ScenarioSpec,
    default_matrix,
    generate_candidate_sets,
)

Mix = Tuple[int, ...]

__all__ = [
    "EvalReport",
    "GroundTruth",
    "MatrixResult",
    "ScenarioResult",
    "ground_truth_latencies",
    "run_matrix",
]


class _Instruments:
    """``eval_*`` metric families bound to one registry."""

    def __init__(self, registry: Registry):
        self.scenarios = registry.counter(
            "eval_scenarios_total",
            "Scenarios evaluated, by backend.",
            labels=("backend",),
        )
        self.sets = registry.counter(
            "eval_candidate_sets_total",
            "Candidate sets scored, by backend.",
            labels=("backend",),
        )
        self.truth_runs = registry.counter(
            "eval_ground_truth_runs_total",
            "Unique candidate mixes simulated for ground truth.",
        )
        self.sim_seconds = registry.gauge(
            "eval_ground_truth_sim_seconds",
            "Simulated steady-state seconds spent producing ground truth.",
        )
        self.accuracy = registry.gauge(
            "eval_pairwise_accuracy",
            "Pairwise winner-prediction accuracy, by backend and scenario.",
            labels=("backend", "scenario"),
        )
        self.tau = registry.gauge(
            "eval_kendall_tau",
            "Mean Kendall tau-b over candidate sets, by backend and scenario.",
            labels=("backend", "scenario"),
        )
        self.q90 = registry.gauge(
            "eval_q_error_p90",
            "90th-percentile q-error, by backend and scenario.",
            labels=("backend", "scenario"),
        )
        self.mre = registry.gauge(
            "eval_mre",
            "Mean relative error, by backend and scenario.",
            labels=("backend", "scenario"),
        )

    def record_scenario(self, backend: str, result: "ScenarioResult") -> None:
        self.scenarios.labels(backend).inc()
        self.sets.labels(backend).inc(result.sets)
        self.accuracy.labels(backend, result.name).set(result.pairwise_accuracy)
        self.tau.labels(backend, result.name).set(result.kendall_tau)
        self.q90.labels(backend, result.name).set(result.q_error["p90"])
        self.mre.labels(backend, result.name).set(result.mre)

    def record_overall(self, report: "EvalReport") -> None:
        self.accuracy.labels(report.backend, "_overall").set(
            report.pairwise_accuracy
        )
        self.tau.labels(report.backend, "_overall").set(report.kendall_tau)
        self.q90.labels(report.backend, "_overall").set(report.q_error["p90"])
        self.mre.labels(report.backend, "_overall").set(report.mre)


@dataclass(frozen=True)
class GroundTruth:
    """Observed per-member latencies of every evaluated mix.

    Attributes:
        latencies: ``mix -> {template -> mean steady-state latency}``.
        sim_seconds: Total simulated query-seconds behind the
            observations (sample latency x trimmed sample count),
            summed over every mix — the ground truth's simulated cost.
    """

    latencies: Mapping[Mix, Mapping[int, float]]
    sim_seconds: float

    def member_latency(self, mix: Mix, template: int) -> float:
        try:
            return self.latencies[mix][template]
        except KeyError:
            raise ModelError(
                f"no ground truth for template {template} in mix {mix}"
            ) from None

    def cost(self, mix: Mix, objective: str) -> float:
        """The mix's true cost under the scheduler's objective."""
        members = [self.member_latency(mix, t) for t in mix]
        if objective == "sum":
            return float(sum(members))
        return float(max(members))


def ground_truth_latencies(
    catalog: TemplateCatalog,
    mixes: Sequence[Mix],
    seed: int,
    steady: Optional[SteadyStateConfig] = None,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    metrics: Optional[Registry] = None,
) -> GroundTruth:
    """Simulate every mix in steady state and reduce to mean latencies.

    Mixes are deduplicated and sorted, each becoming an independent
    ``("mix", mix, mpl)`` task with its own
    :func:`~repro.core.campaign.task_rng` — the training campaign's
    exact execution path, inheriting its jobs-independence.
    """
    if not mixes:
        raise ModelError("need at least one mix for ground truth")
    steady = steady if steady is not None else SteadyStateConfig()
    if jobs is None:
        jobs = catalog.config.campaign.jobs
    if chunk_size is None:
        chunk_size = catalog.config.campaign.chunk_size
    unique = sorted(set(tuple(int(t) for t in mix) for mix in mixes))
    for mix in unique:
        if len(mix) < 2:
            raise ModelError(f"ground-truth mixes need MPL >= 2, got {mix}")
    tasks = [("mix", mix, len(mix)) for mix in unique]
    context = _CampaignContext(
        catalog=catalog, steady=steady, config_seed=int(seed)
    )
    results = parallel_map(
        _execute_campaign_task,
        context,
        tasks,
        jobs=jobs,
        chunk_size=chunk_size,
        metrics=metrics,
        task_label=lambda task: "eval-mix",
    )
    latencies: Dict[Mix, Dict[int, float]] = {}
    sim_seconds = 0.0
    for mix, observations in zip(unique, results):
        latencies[mix] = {
            obs.primary: obs.latency for obs in observations
        }
        sim_seconds += sum(
            obs.latency * obs.num_samples for obs in observations
        )
    return GroundTruth(latencies=latencies, sim_seconds=sim_seconds)


@dataclass(frozen=True)
class ScenarioResult:
    """One backend scored on one scenario's candidate sets.

    Attributes:
        name: Scenario label.
        family: Workload family.
        mpl: Decided mix size.
        sets: Candidate sets scored.
        pairs: Comparable candidate pairs pooled over the sets.
        pairwise_accuracy: Correct pair orderings over *pairs*.
        winner_rate: Sets whose predicted pick was the true winner.
        kendall_tau: Mean tau-b over the sets.
        q_error: ``p50`` / ``p90`` / ``max`` q-errors over every
            per-member prediction in the scenario.
        mre: Mean relative error over the same predictions.
        predictions: Per-member predictions behind *q_error* / *mre*.
    """

    name: str
    family: str
    mpl: int
    sets: int
    pairs: int
    pairwise_accuracy: float
    winner_rate: float
    kendall_tau: float
    q_error: Mapping[str, float]
    mre: float
    predictions: int

    def to_doc(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "family": self.family,
            "mpl": self.mpl,
            "sets": self.sets,
            "pairs": self.pairs,
            "pairwise_accuracy": self.pairwise_accuracy,
            "winner_rate": self.winner_rate,
            "kendall_tau": self.kendall_tau,
            "q_error": dict(self.q_error),
            "mre": self.mre,
            "predictions": self.predictions,
        }


@dataclass(frozen=True)
class EvalReport:
    """One backend scored on the whole matrix.

    Overall pairwise accuracy and winner rate pool raw counts over
    every candidate set (not a mean of per-scenario means, so sparse
    scenarios are not over-weighted); tau is the mean over all sets;
    q-error and MRE pool every per-member prediction.
    """

    backend: str
    seed: int
    objective: str
    scenarios: Tuple[ScenarioResult, ...]
    pairwise_accuracy: float
    winner_rate: float
    kendall_tau: float
    q_error: Mapping[str, float]
    mre: float

    def scenario(self, name: str) -> ScenarioResult:
        for result in self.scenarios:
            if result.name == name:
                return result
        raise ModelError(f"no scenario {name!r} in this report")

    def to_doc(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "seed": self.seed,
            "objective": self.objective,
            "pairwise_accuracy": self.pairwise_accuracy,
            "winner_rate": self.winner_rate,
            "kendall_tau": self.kendall_tau,
            "q_error": dict(self.q_error),
            "mre": self.mre,
            "scenarios": [s.to_doc() for s in self.scenarios],
        }

    def format_table(self) -> str:
        header = (
            f"{'scenario':<18} {'mpl':>3} {'sets':>4} {'pair-acc':>8} "
            f"{'winner':>6} {'tau':>6} {'q50':>6} {'q90':>6} "
            f"{'qmax':>7} {'mre':>6}"
        )
        rows = [header, "-" * len(header)]
        for s in self.scenarios:
            rows.append(
                f"{s.name:<18} {s.mpl:>3} {s.sets:>4} "
                f"{s.pairwise_accuracy:>8.3f} {s.winner_rate:>6.2f} "
                f"{s.kendall_tau:>6.3f} {s.q_error['p50']:>6.3f} "
                f"{s.q_error['p90']:>6.3f} {s.q_error['max']:>7.3f} "
                f"{s.mre:>6.3f}"
            )
        rows.append(
            f"{'overall':<18} {'-':>3} {sum(s.sets for s in self.scenarios):>4} "
            f"{self.pairwise_accuracy:>8.3f} {self.winner_rate:>6.2f} "
            f"{self.kendall_tau:>6.3f} {self.q_error['p50']:>6.3f} "
            f"{self.q_error['p90']:>6.3f} {self.q_error['max']:>7.3f} "
            f"{self.mre:>6.3f}"
        )
        return "\n".join(rows)


@dataclass(frozen=True)
class MatrixResult:
    """The full evaluation: ground truth plus one report per backend.

    Every field is simulated or derived — no wall-clock values — so
    two runs from the same seed produce identical documents.
    """

    seed: int
    objective: str
    mixes: int
    sim_seconds: float
    reports: Tuple[EvalReport, ...]

    def report_for(self, backend: str) -> EvalReport:
        for report in self.reports:
            if report.backend == backend:
                return report
        raise ModelError(f"no report for backend {backend!r}")

    def to_doc(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "objective": self.objective,
            "ground_truth": {
                "mixes": self.mixes,
                "sim_seconds": self.sim_seconds,
            },
            "reports": [r.to_doc() for r in self.reports],
        }


def _true_winner(costs: Sequence[float]) -> int:
    """First index of the minimum — the policy's own tie-break rule."""
    best = 0
    for i in range(1, len(costs)):
        if costs[i] < costs[best]:
            best = i
    return best


@dataclass
class _ScenarioScore:
    """Raw scoring material behind one :class:`ScenarioResult`."""

    result: ScenarioResult
    correct: float
    taus: List[float]
    observed: List[float]
    predicted: List[float]
    winners: int


def _score_scenario(
    spec: ScenarioSpec,
    sets: Sequence[CandidateSet],
    policy: PredictivePolicy,
    backend: PredictionBackend,
    truth: GroundTruth,
    objective: str,
) -> _ScenarioScore:
    correct = 0.0
    comparable = 0
    winners = 0
    taus: List[float] = []
    for candidate_set in sets:
        running = candidate_set.running
        mixes = candidate_set.mixes()
        true_costs = [truth.cost(mix, objective) for mix in mixes]
        predicted_costs = [
            policy.score(running, c) for c in candidate_set.candidates
        ]
        c, n = pairwise_counts(true_costs, predicted_costs)
        correct += c
        comparable += n
        taus.append(kendall_tau(true_costs, predicted_costs))
        picked = policy.pick(0.0, running, candidate_set.candidates)
        if picked == _true_winner(true_costs):
            winners += 1

    # Per-member prediction quality over the scenario's unique
    # (mix, member) pairs — the MRE/q-error view of the same decisions.
    pairs = sorted(
        {
            (mix, template)
            for candidate_set in sets
            for mix in candidate_set.mixes()
            for template in set(mix)
        }
    )
    observed = [truth.member_latency(mix, t) for mix, t in pairs]
    predicted = [backend.predict_known(t, mix) for mix, t in pairs]
    result = ScenarioResult(
        name=spec.name,
        family=spec.family,
        mpl=spec.mpl,
        sets=len(sets),
        pairs=comparable,
        pairwise_accuracy=correct / comparable if comparable else 0.0,
        winner_rate=winners / len(sets),
        kendall_tau=float(np.mean(taus)),
        q_error=q_error_summary(observed, predicted),
        mre=mean_relative_error(observed, predicted),
        predictions=len(pairs),
    )
    return _ScenarioScore(
        result=result,
        correct=correct,
        taus=taus,
        observed=observed,
        predicted=predicted,
        winners=winners,
    )


def run_matrix(
    catalog: TemplateCatalog,
    backends: Mapping[str, PredictionBackend],
    matrix: Optional[Sequence[ScenarioSpec]] = None,
    seed: int = 7,
    objective: str = "makespan",
    steady: Optional[SteadyStateConfig] = None,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    registry: Optional[Registry] = None,
) -> MatrixResult:
    """Evaluate every backend on the scenario matrix.

    Ground truth is simulated once (every unique candidate mix across
    the matrix) and shared by all backends, so a ``compare`` run costs
    one campaign regardless of how many predictors it ranks.

    Args:
        catalog: The simulated machine and template set; its config
            picks the engine and default ``jobs``.
        backends: Prediction backends by report label (see
            :func:`~repro.eval.backends.named_backends`).
        matrix: Scenario specs; defaults to
            :func:`~repro.eval.scenarios.default_matrix`.
        seed: Drives candidate-set generation *and* ground-truth
            simulation; the entire result reproduces from it.
        objective: ``"makespan"`` or ``"sum"`` — both the policy's
            scoring objective and the true-cost reduction.
        steady: Steady-state sampling parameters for ground truth.
        jobs: Ground-truth worker processes (results identical for any
            value).
        chunk_size: Tasks per worker submission.
        registry: Receives ``eval_*`` instruments; ``None`` records
            nothing.  Instrumentation never changes results.
    """
    if not backends:
        raise ModelError("need at least one backend to evaluate")
    if objective not in ("makespan", "sum"):
        raise ModelError("objective must be 'makespan' or 'sum'")
    specs = list(matrix) if matrix is not None else default_matrix()
    if not specs:
        raise ModelError("need at least one scenario")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate scenario names in the matrix: {names}")
    instruments = _Instruments(registry) if registry is not None else None

    template_ids = tuple(catalog.template_ids)
    sets_by_spec = [
        (spec, generate_candidate_sets(spec, template_ids, seed))
        for spec in specs
    ]
    all_mixes = [
        mix
        for _, sets in sets_by_spec
        for candidate_set in sets
        for mix in candidate_set.mixes()
    ]
    truth = ground_truth_latencies(
        catalog,
        all_mixes,
        seed=seed,
        steady=steady,
        jobs=jobs,
        chunk_size=chunk_size,
        metrics=registry,
    )
    if instruments is not None:
        instruments.truth_runs.inc(len(truth.latencies))
        instruments.sim_seconds.set(truth.sim_seconds)

    window = max(spec.window for spec in specs)
    reports: List[EvalReport] = []
    for name, backend in backends.items():
        policy = PredictivePolicy(backend, window=window, objective=objective)
        scenario_results: List[ScenarioResult] = []
        correct = 0.0
        comparable = 0
        winners = 0
        total_sets = 0
        taus: List[float] = []
        observed_all: List[float] = []
        predicted_all: List[float] = []
        for spec, sets in sets_by_spec:
            score = _score_scenario(
                spec, sets, policy, backend, truth, objective
            )
            result = score.result
            scenario_results.append(result)
            correct += score.correct
            comparable += result.pairs
            winners += score.winners
            total_sets += result.sets
            taus.extend(score.taus)
            observed_all.extend(score.observed)
            predicted_all.extend(score.predicted)
            if instruments is not None:
                instruments.record_scenario(name, result)
        report = EvalReport(
            backend=name,
            seed=seed,
            objective=objective,
            scenarios=tuple(scenario_results),
            pairwise_accuracy=correct / comparable if comparable else 0.0,
            winner_rate=winners / total_sets,
            kendall_tau=float(np.mean(taus)),
            q_error=q_error_summary(observed_all, predicted_all),
            mre=mean_relative_error(observed_all, predicted_all),
        )
        if instruments is not None:
            instruments.record_overall(report)
        reports.append(report)
    return MatrixResult(
        seed=seed,
        objective=objective,
        mixes=len(truth.latencies),
        sim_seconds=truth.sim_seconds,
        reports=tuple(reports),
    )
