"""Event-driven queue replay: arrivals × policy × the simulated engine.

The simulator couples an open-loop :class:`~repro.sched.traces.ArrivalTrace`
to the virtual-time :class:`~repro.engine.executor.ConcurrentExecutor`
through the timed-arrival stream extension: ``max_mpl`` *slot streams*
share one :class:`QueueDispatcher`, and each slot asks the dispatcher
for work whenever it is idle.  The dispatcher absorbs every arrival
whose time has come into a FIFO queue, consults the scheduling policy
for which queued query (if any) should occupy the free slot, and maps
the chosen template to an executable resource profile.  Queries the
policy defers wait in queue; the engine re-poses the question at the
next completion (deferral) or the next arrival (idle slot).

Latency therefore decomposes exactly as in a real admission queue:

* *queue wait* — arrival to dispatch (``stats.start_time - arrival``),
* *execution* — dispatch to completion under whatever contention the
  policy created (``stats.latency``),

and every replay is bit-reproducible from the trace seed: arrivals,
template draws, and the engine are all deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.admission import PredictionBackend
from ..engine.executor import ConcurrentExecutor, RunResult
from ..engine.profile import ResourceProfile
from ..errors import ModelError
from ..metrics.quantiles import percentile as _percentile
from ..metrics.ranking import pairwise_counts
from ..obs.metrics import Registry
from ..workload.catalog import TemplateCatalog
from .policies import SchedulerPolicy
from .traces import ArrivalTrace

__all__ = [
    "CompareReport",
    "QueryOutcome",
    "ReplayResult",
    "compare_policies",
    "replay_trace",
]

#: Histogram buckets for query-scale durations (isolated latencies run
#: 150-900 s; queue waits can exceed the longest query several times).
_SECONDS_BUCKETS = (
    30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, 3840.0, 7680.0,
)


@dataclass(frozen=True)
class QueryOutcome:
    """One replayed query, end to end.

    Attributes:
        template: Template id.
        arrival_time: When the trace injected it.
        start_time: When the policy dispatched it into the mix.
        end_time: When it completed.
        predicted_exec_seconds: The backend's decision-time prediction
            of this query's execution latency in the mix it joined
            (``None`` when the replay ran without a backend).
    """

    template: int
    arrival_time: float
    start_time: float
    end_time: float
    predicted_exec_seconds: Optional[float] = None

    @property
    def queue_seconds(self) -> float:
        """Time spent waiting for admission."""
        return self.start_time - self.arrival_time

    @property
    def exec_seconds(self) -> float:
        """Time spent executing (under contention)."""
        return self.end_time - self.start_time

    @property
    def total_seconds(self) -> float:
        """Client-observed latency: arrival to completion."""
        return self.end_time - self.arrival_time


class QueueDispatcher:
    """Shared queue + policy behind every slot stream of one replay.

    The engine guarantees a slot is polled only while idle, so a poll
    for a slot that holds a running entry means that query just
    completed.  All state is single-threaded — the engine is an event
    loop, not a thread pool.
    """

    def __init__(
        self,
        trace: ArrivalTrace,
        policy: SchedulerPolicy,
        catalog: TemplateCatalog,
        rng: Optional[np.random.Generator] = None,
        registry: Optional[Registry] = None,
        backend: Optional["PredictionBackend"] = None,
    ):
        self._arrivals = trace.arrivals
        self._policy = policy
        self._catalog = catalog
        self._rng = rng
        self._backend = backend
        self._next = 0  # first arrival not yet absorbed
        self._queue: List[Tuple[float, int]] = []  # (arrival_time, template)
        self._running: Dict[int, int] = {}  # slot -> template
        #: instance_id -> arrival_time, read back after the run.
        self.dispatched: Dict[int, float] = {}
        #: instance_id -> decision-time predicted execution latency.
        self.predicted: Dict[int, float] = {}
        self.deferrals = 0
        self.decisions = 0
        self.decision_seconds = 0.0
        self._depth_gauge = None
        self._admit_counter = None
        self._wait_hist = None
        if registry is not None:
            name = policy.name
            self._depth_gauge = registry.gauge(
                "sched_queue_depth",
                "Queries waiting for admission",
                labels=("policy",),
            ).labels(name)
            self._admit_counter = registry.counter(
                "sched_admissions_total",
                "Scheduling decisions by outcome",
                labels=("policy", "outcome"),
            )
            self._wait_hist = registry.histogram(
                "sched_queue_wait_seconds",
                "Arrival-to-dispatch wait",
                labels=("policy",),
                buckets=_SECONDS_BUCKETS,
            ).labels(name)

    def _absorb(self, now: float) -> None:
        arrivals = self._arrivals
        while self._next < len(arrivals) and arrivals[self._next].time <= now:
            entry = arrivals[self._next]
            self._queue.append((entry.time, entry.template))
            self._next += 1
        if self._depth_gauge is not None:
            self._depth_gauge.set(float(len(self._queue)))

    def poll(self, slot: int, now: float) -> Optional[ResourceProfile]:
        """The slot is idle: dispatch a queued query into it, or defer."""
        self._running.pop(slot, None)  # present => its query just finished
        self._absorb(now)
        if not self._queue:
            return None
        running = tuple(self._running.values())
        queued = tuple(template for _, template in self._queue)
        begin = time.perf_counter()
        choice = self._policy.pick(now, running, queued)
        self.decision_seconds += time.perf_counter() - begin
        self.decisions += 1
        if choice is None:
            self.deferrals += 1
            if self._admit_counter is not None:
                self._admit_counter.labels(self._policy.name, "deferred").inc()
            return None
        if not 0 <= choice < len(self._queue):
            raise ModelError(
                f"policy {self._policy.name!r} picked index {choice} "
                f"from a queue of {len(self._queue)}"
            )
        arrival_time, template = self._queue.pop(choice)
        profile = self._catalog.profile(template, self._rng)
        self._running[slot] = template
        self.dispatched[profile.instance_id] = arrival_time
        if self._backend is not None:
            # Predictions are pure (no RNG), so recording them cannot
            # perturb the replay itself.
            mix = (*running, template)
            self.predicted[profile.instance_id] = (
                self._backend.isolated_latency(template)
                if len(mix) == 1
                else self._backend.predict_known(template, mix)
            )
        if self._admit_counter is not None:
            self._admit_counter.labels(self._policy.name, "admitted").inc()
        if self._wait_hist is not None:
            self._wait_hist.observe(now - arrival_time)
        if self._depth_gauge is not None:
            self._depth_gauge.set(float(len(self._queue)))
        return profile

    def wake_after(self, now: float) -> Optional[float]:
        """When an idle slot should ask again (the stream-protocol answer).

        * Queue non-empty (the policy deferred): ``inf`` — only a
          completion changes the mix the policy objected to.
        * Arrivals remain: the next arrival's time.
        * Neither: ``None`` — the slot closes.
        """
        if self._queue:
            return math.inf
        if self._next < len(self._arrivals):
            return self._arrivals[self._next].time
        return None


class _SlotStream:
    """One execution slot: the engine-facing face of the dispatcher."""

    def __init__(self, slot: int, dispatcher: QueueDispatcher):
        self._slot = slot
        self._dispatcher = dispatcher
        self.name = f"slot-{slot:02d}"

    def next_profile(self, now: float, completed: int) -> Optional[ResourceProfile]:
        return self._dispatcher.poll(self._slot, now)

    def next_arrival(self, now: float) -> Optional[float]:
        return self._dispatcher.wake_after(now)


@dataclass(frozen=True)
class ReplayResult:
    """One trace replayed under one policy.

    Attributes:
        policy: Policy label.
        trace_kind: Arrival-process family replayed.
        seed: Trace seed (the whole result reproduces from it).
        max_mpl: Slot count (concurrency cap).
        outcomes: Every completed query, in completion order.
        makespan: Last completion time.
        deferrals: Decisions where the policy declined a free slot.
        decisions: Policy invocations.
        decision_seconds: Wall-clock time inside ``policy.pick``.
        sim_events: Engine scheduling events processed.
    """

    policy: str
    trace_kind: str
    seed: int
    max_mpl: int
    outcomes: Tuple[QueryOutcome, ...]
    makespan: float
    deferrals: int
    decisions: int
    decision_seconds: float
    sim_events: int

    def _sorted_totals(self) -> List[float]:
        return sorted(o.total_seconds for o in self.outcomes)

    def percentile(self, q: float) -> float:
        """q-quantile (0..1) of client-observed latency."""
        return _percentile(self._sorted_totals(), q)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def mean_queue_seconds(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.queue_seconds for o in self.outcomes) / len(self.outcomes)

    @property
    def pairwise_accuracy(self) -> Optional[float]:
        """Rank quality of the decision-time predictions.

        Over every pair of completed queries whose *realized* execution
        latencies differ: did the backend's decision-time predictions
        order them the same way?  ``None`` when the replay ran without
        a backend (no predictions to judge) or no pair of realized
        latencies differs.
        """
        if not self.outcomes:
            return None
        predictions = [o.predicted_exec_seconds for o in self.outcomes]
        if any(p is None for p in predictions):
            return None
        correct, comparable = pairwise_counts(
            [o.exec_seconds for o in self.outcomes], predictions
        )
        if comparable == 0:
            return None
        return correct / comparable

    def to_doc(self) -> Dict[str, object]:
        """JSON-ready summary (outcomes elided)."""
        return {
            "policy": self.policy,
            "trace_kind": self.trace_kind,
            "seed": self.seed,
            "max_mpl": self.max_mpl,
            "completed": len(self.outcomes),
            "makespan": self.makespan,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "mean_queue_seconds": self.mean_queue_seconds,
            "deferrals": self.deferrals,
            "decisions": self.decisions,
            "pairwise_accuracy": self.pairwise_accuracy,
        }


def replay_trace(
    trace: ArrivalTrace,
    policy: SchedulerPolicy,
    catalog: TemplateCatalog,
    max_mpl: int = 5,
    registry: Optional[Registry] = None,
    jitter: bool = False,
    backend: Optional[PredictionBackend] = None,
) -> ReplayResult:
    """Replay *trace* under *policy* on *catalog*'s simulated machine.

    Args:
        trace: The arrival stream (drives all randomness via its seed).
        policy: Scheduling policy consulted at every free slot.
        catalog: Maps template ids to executable profiles; its config
            defines the machine.
        max_mpl: Execution slots — the hard concurrency cap.
        registry: Optional metrics registry for queue-depth / admission
            / wait instrumentation.
        jitter: Draw per-instance parameter jitter (seeded from the
            trace seed).  Off by default so the predictor and the
            replayed queries see identical plans.
        backend: When given, every dispatch records the backend's
            prediction of the admitted query's execution latency in
            the mix it joined, and the result carries
            :attr:`ReplayResult.pairwise_accuracy` — predictions are
            pure, so the replay itself is unchanged.
    """
    if max_mpl < 1:
        raise ModelError("max_mpl must be >= 1")
    if not trace.arrivals:
        raise ModelError("trace has no arrivals")
    rng = np.random.default_rng(trace.seed) if jitter else None
    dispatcher = QueueDispatcher(
        trace, policy, catalog, rng=rng, registry=registry, backend=backend
    )
    slots = [_SlotStream(i, dispatcher) for i in range(max_mpl)]
    executor = ConcurrentExecutor(
        catalog.config, rng=np.random.default_rng(trace.seed)
    )
    result: RunResult = executor.run(slots)

    outcomes = []
    for item in result.completions:
        stats = item.stats
        arrival_time = dispatcher.dispatched.get(stats.instance_id)
        if arrival_time is None:  # pragma: no cover — bookkeeping bug
            raise ModelError(
                f"completion {stats.instance_id} was never dispatched"
            )
        outcomes.append(
            QueryOutcome(
                template=stats.template_id,
                arrival_time=arrival_time,
                start_time=stats.start_time,
                end_time=stats.end_time,
                predicted_exec_seconds=dispatcher.predicted.get(
                    stats.instance_id
                ),
            )
        )
    if len(outcomes) != len(trace.arrivals):
        raise ModelError(
            f"replay completed {len(outcomes)} of {len(trace.arrivals)} "
            "arrivals"
        )
    if registry is not None:
        latency_hist = registry.histogram(
            "sched_latency_seconds",
            "Client-observed latency (arrival to completion)",
            labels=("policy",),
            buckets=_SECONDS_BUCKETS,
        ).labels(policy.name)
        latency_hist.observe_many([o.total_seconds for o in outcomes])
    return ReplayResult(
        policy=policy.name,
        trace_kind=trace.kind,
        seed=trace.seed,
        max_mpl=max_mpl,
        outcomes=tuple(outcomes),
        makespan=max(o.end_time for o in outcomes),
        deferrals=dispatcher.deferrals,
        decisions=dispatcher.decisions,
        decision_seconds=dispatcher.decision_seconds,
        sim_events=result.events,
    )


@dataclass(frozen=True)
class CompareReport:
    """The same trace replayed under several policies.

    Attributes:
        trace_kind: Arrival-process family.
        seed: Trace seed.
        rate: Configured mean arrival rate.
        count: Arrivals replayed.
        results: One :class:`ReplayResult` per policy, in input order.
    """

    trace_kind: str
    seed: int
    rate: float
    count: int
    results: Tuple[ReplayResult, ...]

    def result_for(self, policy: str) -> ReplayResult:
        for result in self.results:
            if result.policy == policy:
                return result
        raise ModelError(f"no result for policy {policy!r}")

    def to_doc(self) -> Dict[str, object]:
        return {
            "trace_kind": self.trace_kind,
            "seed": self.seed,
            "rate": self.rate,
            "count": self.count,
            "results": [r.to_doc() for r in self.results],
        }

    def format_table(self) -> str:
        header = (
            f"{'policy':<11} {'done':>5} {'makespan':>10} {'p50':>8} "
            f"{'p95':>8} {'p99':>8} {'mean-wait':>10} {'defer':>6} "
            f"{'pair-acc':>8}"
        )
        rows = [header, "-" * len(header)]
        for r in self.results:
            accuracy = r.pairwise_accuracy
            rows.append(
                f"{r.policy:<11} {len(r.outcomes):>5} {r.makespan:>10.1f} "
                f"{r.p50:>8.1f} {r.p95:>8.1f} {r.p99:>8.1f} "
                f"{r.mean_queue_seconds:>10.1f} {r.deferrals:>6} "
                + (f"{accuracy:>8.3f}" if accuracy is not None else f"{'-':>8}")
            )
        return "\n".join(rows)


def compare_policies(
    trace: ArrivalTrace,
    policies: Sequence[SchedulerPolicy],
    catalog: TemplateCatalog,
    max_mpl: int = 5,
    registry: Optional[Registry] = None,
    backend: Optional[PredictionBackend] = None,
) -> CompareReport:
    """Replay one trace under every policy and collect the results.

    Policies replay sequentially on identical fresh machines (cold
    cache each) so the comparison isolates the scheduling decision.
    With a *backend*, every policy's result additionally reports the
    rank quality of the backend's decision-time predictions
    (:attr:`ReplayResult.pairwise_accuracy`).
    """
    if not policies:
        raise ModelError("need at least one policy")
    results = tuple(
        replay_trace(
            trace,
            policy,
            catalog,
            max_mpl=max_mpl,
            registry=registry,
            backend=backend,
        )
        for policy in policies
    )
    return CompareReport(
        trace_kind=trace.kind,
        seed=trace.seed,
        rate=trace.rate,
        count=len(trace.arrivals),
        results=results,
    )
