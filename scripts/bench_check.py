#!/usr/bin/env python
"""Benchmark regression gate: compare hot-path throughput to a baseline.

Measures the metrics that PRs most easily regress by accident — engine
events/sec at MPL 4 and 8 and the end-to-end serial campaign wall-clock
— and compares them to the committed ``BENCH_baseline.json``.  Any
metric more than 20% worse than baseline fails the check.

Workflow:

    make bench-check                      # gate against the baseline
    python scripts/bench_check.py --update  # re-measure and rewrite it

The baseline is machine-relative: after changing hardware (or after an
*intentional* performance change), rerun with ``--update`` and commit
the new file alongside the change that justified it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np

from repro.config import SystemConfig
from repro.core.training import collect_training_data
from repro.engine.executor import ConcurrentExecutor
from repro.engine.profile import ResourceProfile
from repro.obs.metrics import Registry
from repro.sampling.steady_state import SteadyStateConfig
from repro.workload.catalog import TemplateCatalog

BASELINE_PATH = REPO / "BENCH_baseline.json"
TOLERANCE = 0.20
SMALL_TEMPLATES = (26, 62, 71, 22, 65, 17)


@dataclass
class _ListStream:
    """A stream over pre-generated profiles (no plan compilation in the
    timed region — same isolation as benchmarks/test_engine_throughput)."""

    profiles: List[ResourceProfile]
    name: str

    def next_profile(self, now, completed):
        if completed < len(self.profiles):
            return self.profiles[completed]
        return None


def _engine_workload(catalog: TemplateCatalog, mpl: int):
    rng = np.random.default_rng(0)
    ids = list(catalog.template_ids)
    mix = [ids[i % len(ids)] for i in range(mpl)]
    return [[catalog.profile(t, rng) for _ in range(20)] for t in mix]


def _events_per_sec(per_stream, repeats: int = 15) -> float:
    """Virtual-time engine events/sec on pre-generated profiles."""
    # Individual runs are a few milliseconds, so scheduler noise swamps
    # any single timing; take the best of many (first run is warmup).
    config = SystemConfig()
    best = float("inf")
    events = 0
    for i in range(repeats + 1):
        executor = ConcurrentExecutor(config, rng=np.random.default_rng(1))
        streams = [
            _ListStream(profiles=ps, name=f"s{i}")
            for i, ps in enumerate(per_stream)
        ]
        start = time.perf_counter()
        result = executor.run(streams)
        elapsed = time.perf_counter() - start
        if i > 0:
            best = min(best, elapsed)
        events = result.events
    return events / best


def _campaign_seconds(repeats: int = 3) -> float:
    catalog = TemplateCatalog().subset(SMALL_TEMPLATES)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        collect_training_data(
            catalog,
            mpls=(2, 3),
            lhs_runs_per_mpl=2,
            steady_config=SteadyStateConfig(samples_per_stream=3),
            jobs=1,
        )
        best = min(best, time.perf_counter() - start)
    return best


def _sched_metrics() -> Dict[str, float]:
    """Scheduling hot-path numbers: decision rate, replay rate, and the
    wall-clock cost of one predictive decision."""
    from repro.apps.admission import ContenderBackend
    from repro.core.contender import Contender
    from repro.sched.policies import make_policy
    from repro.sched.replay import replay_trace
    from repro.sched.traces import TemplateDistribution, poisson_trace

    ids = (22, 26, 32, 62, 65, 71, 82)
    catalog = TemplateCatalog().subset(ids)
    backend = ContenderBackend(
        Contender(
            collect_training_data(
                catalog,
                mpls=(2, 3),
                lhs_runs_per_mpl=2,
                steady_config=SteadyStateConfig(samples_per_stream=3),
                jobs=1,
            )
        )
    )
    trace = poisson_trace(
        TemplateDistribution.uniform(ids), rate=1.0 / 120.0, count=40, seed=3
    )

    # Predictive decision throughput over representative queue states:
    # running mixes of 1-2 (the MPLs the campaign covers) and queues
    # deep enough to fill the policy's default window of 8 — decision
    # cost is a function of the scored window, so the gate measures a
    # full one.
    predictive = make_policy("predictive", backend, max_mpl=3)
    states = [
        ((26,), (65, 71, 82, 22, 32, 62, 26, 71)),
        ((65, 71), (26, 82, 32, 62, 22, 71, 65, 82)),
        ((82,), (22, 26, 62, 71, 32, 65, 82, 26)),
        ((22, 32), (65, 26, 82, 71, 62, 22, 32, 65)),
    ]
    best = float("inf")
    for i in range(6):
        start = time.perf_counter()
        for _ in range(25):
            for running, queue in states:
                predictive.pick(0.0, running, queue)
        elapsed = time.perf_counter() - start
        if i > 0:  # warmup round
            best = min(best, elapsed)
    decisions_per_sec = (25 * len(states)) / best

    # Replay throughput (FIFO isolates the simulator from the model) and
    # per-decision cost inside a real predictive replay.
    best_replay = float("inf")
    decision_seconds = float("inf")
    for i in range(4):
        start = time.perf_counter()
        replay_trace(trace, make_policy("fifo"), catalog, max_mpl=3)
        elapsed = time.perf_counter() - start
        result = replay_trace(trace, predictive, catalog, max_mpl=3)
        if i > 0:
            best_replay = min(best_replay, elapsed)
            decision_seconds = min(
                decision_seconds, result.decision_seconds / result.decisions
            )
    return {
        "decisions_per_sec": decisions_per_sec,
        "replay_queries_per_sec": len(trace) / best_replay,
        "decision_seconds": decision_seconds,
    }


def _eval_metrics() -> Dict[str, float]:
    """Evaluation-harness numbers: matrix scoring throughput and the
    ranking floor.  One campaign is shared across the timing rounds; a
    round covers candidate-set expansion, simulated ground truth, and
    both backends scored, so scenarios/sec is the end-to-end rate an
    ``repro eval compare`` run sees."""
    from repro.eval import default_matrix, named_backends, run_matrix

    ids = (22, 26, 32, 62, 65, 71, 82)
    catalog = TemplateCatalog().subset(ids)
    backends = named_backends(
        collect_training_data(
            catalog,
            mpls=(2,),
            lhs_runs_per_mpl=2,
            steady_config=SteadyStateConfig(samples_per_stream=3),
            jobs=1,
        )
    )
    matrix = default_matrix(mpls=(2,), window=3, sets=2)
    steady = SteadyStateConfig(samples_per_stream=3)
    best = float("inf")
    result = None
    for i in range(4):
        start = time.perf_counter()
        result = run_matrix(
            catalog, backends, matrix=matrix, seed=7, steady=steady, jobs=1
        )
        elapsed = time.perf_counter() - start
        if i > 0:  # warmup round
            best = min(best, elapsed)
    return {
        "scenarios_per_sec": len(matrix) / best,
        "pairwise_accuracy": result.report_for("qs").pairwise_accuracy,
    }


def measure() -> Dict[str, Dict[str, object]]:
    """All gated metrics.  ``higher_is_better`` decides the regression
    direction; throughput regresses downward, wall-clock upward."""
    catalog = TemplateCatalog()
    mpl4 = _engine_workload(catalog, 4)
    mpl8 = _engine_workload(catalog, 8)
    sched = _sched_metrics()
    evals = _eval_metrics()
    serving = _serving_throughput_metrics()
    metrics = {
        "engine_virtual_time_events_per_sec_mpl4": {
            "value": _events_per_sec(mpl4),
            "unit": "events/sec",
            "higher_is_better": True,
        },
        "engine_virtual_time_events_per_sec_mpl8": {
            "value": _events_per_sec(mpl8),
            "unit": "events/sec",
            "higher_is_better": True,
        },
        "campaign_small_serial_seconds": {
            "value": _campaign_seconds(),
            "unit": "seconds",
            "higher_is_better": False,
        },
        # An absolute gate, not a baseline-relative one: attaching a
        # metrics registry to the virtual-time engine may cost at most
        # 5% of event throughput, on any machine.
        "engine_instrumentation_overhead": {
            "value": _instrumentation_overhead(mpl8),
            "unit": "fraction",
            "higher_is_better": False,
            "max_value": 0.05,
        },
        # Same contract for the blame-attribution hook: recording phase
        # intervals for repro.explain on the virtual-time engine may
        # cost at most 5% of event throughput, on any machine — the
        # hook stays cheap enough to attach wherever a blame report
        # might be wanted afterwards.
        "explain_attribution_overhead": {
            "value": _attribution_overhead(mpl8),
            "unit": "fraction",
            "higher_is_better": False,
            "max_value": 0.05,
        },
        # Absolute gate on the lifecycle feedback loop: feeding one
        # residual into the drift monitor may cost at most 5% of one
        # prediction — an observe-per-predict serving workload must not
        # meaningfully slow the hot path.
        "serving_residual_ingestion_overhead": {
            "value": _residual_ingestion_overhead(),
            "unit": "fraction",
            "higher_is_better": False,
            "max_value": 0.05,
        },
        # The serving tier's reason to exist: the multi-worker front end
        # driven through predict-batch must beat the in-process asyncio
        # server's plain-predict ceiling by at least 10x.  The floor is
        # live — 10x whatever the ceiling measures on THIS machine in
        # the same run, both sides interleaved round-for-round — so the
        # gate holds on any hardware without a committed constant.
        "serving_predictions_per_sec": {
            "value": serving["predictions_per_sec"],
            "unit": "predictions/sec",
            "higher_is_better": True,
            "min_value": 10.0 * serving["ceiling_qps"],
        },
        # Interactive latency must not regress while batch throughput
        # scales: p99 of plain /v1/predict against the multi-worker
        # tier, under the same 4-connection load.
        "serving_predict_p99_ms": {
            "value": serving["p99_ms"],
            "unit": "ms",
            "higher_is_better": False,
            "max_value": 50.0,
        },
        # Prediction-driven scheduling hot paths: how fast the
        # predictive policy ranks a queue, and how fast the replay
        # simulator turns a trace into percentiles.
        "scheduler_decisions_per_sec": {
            "value": sched["decisions_per_sec"],
            "unit": "decisions/sec",
            "higher_is_better": True,
        },
        "sched_replay_queries_per_sec": {
            "value": sched["replay_queries_per_sec"],
            "unit": "queries/sec",
            "higher_is_better": True,
        },
        # Absolute gate, like the instrumentation overhead above: one
        # predictive admission decision (window 8, MPL <= 3) may cost at
        # most 50 ms of wall clock on any machine — the budget that
        # keeps the policy viable at real queue depths.
        "sched_decision_overhead": {
            "value": sched["decision_seconds"],
            "unit": "seconds/decision",
            "higher_is_better": False,
            "max_value": 0.05,
        },
        # Ranking-quality harness throughput: end-to-end scenario
        # scoring rate (candidate expansion + simulated ground truth +
        # two backends), gated against the committed baseline.
        "eval_scenarios_per_sec": {
            "value": evals["scenarios_per_sec"],
            "unit": "scenarios/sec",
            "higher_is_better": True,
        },
        # Absolute decision-quality floor, on any machine: the fitted
        # QS predictor must order candidate mixes better than a coin
        # flip on the seeded matrix, or predictions have stopped
        # carrying schedulable signal.
        "eval_pairwise_accuracy": {
            "value": evals["pairwise_accuracy"],
            "unit": "fraction",
            "higher_is_better": True,
            "min_value": 0.5,
        },
    }
    return metrics


def _instrumentation_overhead(per_stream, repeats: int = 20) -> float:
    # Measured interleaved, not as two separate best-of-N batches: on a
    # shared box the background load drifts on the scale of one batch,
    # which would charge (or credit) the difference to instrumentation.
    # Alternating run-for-run samples both variants under the same
    # conditions, and best-of-N still converges to each true floor.
    config = SystemConfig()
    best_plain = best_instr = float("inf")
    for i in range(repeats + 1):
        for instrumented in (False, True):
            executor = ConcurrentExecutor(
                config,
                rng=np.random.default_rng(1),
                metrics=Registry() if instrumented else None,
            )
            streams = [
                _ListStream(profiles=ps, name=f"s{j}")
                for j, ps in enumerate(per_stream)
            ]
            start = time.perf_counter()
            executor.run(streams)
            elapsed = time.perf_counter() - start
            if i == 0:  # warmup pair
                continue
            if instrumented:
                best_instr = min(best_instr, elapsed)
            else:
                best_plain = min(best_plain, elapsed)
    # An instrumented floor below the plain floor is jitter, not a
    # negative cost.
    return max(0.0, best_instr / best_plain - 1.0)


def _attribution_overhead(
    per_stream, repeats: int = 8, rounds: int = 8
) -> float:
    # Same interleaved scheme as _instrumentation_overhead — alternate
    # plain and recorder-attached runs pair-by-pair, best-of-N floors,
    # clamp jitter-negative ratios to zero — with two hardening twists,
    # because the hook's true cost (~1%) is far enough under the
    # ceiling that only measurement noise can fail the gate:
    #
    # * runs are timed on ``process_time``, not wall clock.  One engine
    #   run is ~10 ms, and on a shared box scheduler steal and
    #   frequency drift move wall time by double-digit percents on the
    #   scale of a batch — CPU time is immune to steal and much
    #   steadier round-to-round;
    # * the best-of-N pass runs several independent *rounds* and the
    #   lowest round ratio is reported.  Allocator layout and frequency
    #   state are sticky across a whole round, so a single pass can
    #   carry a bias that interleaving cannot cancel; noise only ever
    #   adds time, so the minimum over rounds converges to the true
    #   ratio, while a hook that genuinely cost more than the ceiling
    #   would fail every round and still fails the gate.
    #
    # The recorder is the blame attribution hook (repro.explain) on
    # the virtual-time engine.
    from repro.explain import ExplainRecorder

    config = SystemConfig()
    ratio = float("inf")
    for _ in range(rounds):
        best_plain = best_attr = float("inf")
        for i in range(repeats + 1):
            for attributing in (False, True):
                executor = ConcurrentExecutor(
                    config,
                    rng=np.random.default_rng(1),
                    recorder=ExplainRecorder() if attributing else None,
                )
                streams = [
                    _ListStream(profiles=ps, name=f"s{j}")
                    for j, ps in enumerate(per_stream)
                ]
                start = time.process_time()
                executor.run(streams)
                elapsed = time.process_time() - start
                if i == 0:  # warmup pair
                    continue
                if attributing:
                    best_attr = min(best_attr, elapsed)
                else:
                    best_plain = min(best_plain, elapsed)
        ratio = min(ratio, max(0.0, best_attr / best_plain - 1.0))
    return ratio


def _residual_ingestion_overhead(
    http_batch: int = 200, http_repeats: int = 4, ingest_calls: int = 5000
) -> float:
    # Amortized cost of one ResidualMonitor.ingest (the work /v1/observe
    # adds on top of plain request handling, metrics registry attached
    # as in serving) relative to the floor of one served /v1/predict
    # request.  The denominator is the *request* cost, not a bare
    # Contender.predict_known call: the monitor rides on the serving
    # path, where HTTP handling and instruments dominate, and that is
    # the path the <= 5% ceiling protects.
    import tempfile

    from repro.config import LifecycleConfig, ServingConfig
    from repro.core.contender import Contender
    from repro.lifecycle.monitor import ResidualMonitor
    from repro.serving.client import PredictionClient
    from repro.serving.registry import save_artifact
    from repro.serving.server import PredictionServer

    catalog = TemplateCatalog().subset(SMALL_TEMPLATES[:4])
    model = Contender(
        collect_training_data(
            catalog,
            mpls=(2,),
            lhs_runs_per_mpl=1,
            steady_config=SteadyStateConfig(samples_per_stream=2),
            jobs=1,
        )
    )
    ids = sorted(catalog.template_ids)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_artifact(model, path)
        server = PredictionServer.from_artifact(
            path, config=ServingConfig(port=0), lifecycle=LifecycleConfig()
        )
        with server:
            client = PredictionClient("127.0.0.1", server.port)
            for _ in range(30):  # warmup: sockets, caches, JIT-warm dicts
                client.predict(ids[0], (ids[0], ids[1]))
            best_request = float("inf")
            for _ in range(http_repeats):
                start = time.perf_counter()
                for _ in range(http_batch):
                    client.predict(ids[0], (ids[0], ids[1]))
                best_request = min(
                    best_request, (time.perf_counter() - start) / http_batch
                )

    monitor = ResidualMonitor(LifecycleConfig(), metrics=Registry())
    # Stationary residuals: the steady no-drift regime is the hot path.
    best_ingest = float("inf")
    for i in range(4):
        start = time.perf_counter()
        for j in range(ingest_calls):
            r = 0.01 if j % 2 else -0.01
            monitor.ingest(ids[0], predicted=1.0 - r, observed=1.0)
        elapsed = (time.perf_counter() - start) / ingest_calls
        if i > 0:  # first batch is warmup
            best_ingest = min(best_ingest, elapsed)
    return best_ingest / best_request


def _serving_throughput_metrics(
    rounds: int = 4, requests: int = 2000, batch: int = 64
) -> Dict[str, float]:
    """Multi-worker serving tier throughput vs the in-process ceiling.

    Starts both front ends over the same artifact and alternates
    measurement rounds between them, so machine-load drift lands on both
    sides of the ratio.  The ceiling is the in-process server (one
    asyncio loop, the same HTTP transport) driven with plain
    ``/v1/predict`` round trips; the tier number is the multi-worker
    server driven through ``/v1/predict-batch``, where coalesced
    requests evaluate with one vectorized model pass.  The p99 is taken from
    plain predicts against the multi-worker tier (interactive latency
    must not regress while batch throughput scales).
    """
    import tempfile

    from repro.config import ServingConfig
    from repro.core.contender import Contender
    from repro.serving.client import LoadGenerator, mix_pool_workload
    from repro.serving.frontend import MultiWorkerServer, multiworker_supported
    from repro.serving.registry import save_artifact
    from repro.serving.server import PredictionServer

    catalog = TemplateCatalog().subset(SMALL_TEMPLATES[:4])
    model = Contender(
        collect_training_data(
            catalog,
            mpls=(2,),
            lhs_runs_per_mpl=1,
            steady_config=SteadyStateConfig(samples_per_stream=2),
            jobs=1,
        )
    )
    ids = sorted(catalog.template_ids)
    workload = mix_pool_workload(
        ids, requests=requests, pool_size=32, mpl=2, seed=0
    )

    supported, reason = multiworker_supported()
    workers = 2 if supported else 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_artifact(model, path)
        single = PredictionServer.from_artifact(
            path, config=ServingConfig(port=0)
        ).start()
        tier = (
            MultiWorkerServer(
                path, ServingConfig(port=0, worker_processes=workers)
            ).start()
            if supported
            else None
        )
        tier_host, tier_port = (
            (tier.host, tier.port) if tier else (single.host, single.port)
        )
        try:
            best_ceiling = best_tier = best_ratio = 0.0
            best_p99 = float("inf")
            for i in range(rounds + 1):
                ceiling = LoadGenerator(
                    single.host, single.port, submitters=4
                ).run(workload)
                batched = LoadGenerator(
                    tier_host, tier_port, submitters=4, batch_size=batch
                ).run(workload)
                plain = LoadGenerator(
                    tier_host, tier_port, submitters=4
                ).run(workload)
                if i == 0:  # warmup round: sockets, caches, workers
                    continue
                best_ceiling = max(best_ceiling, ceiling.qps)
                best_tier = max(best_tier, batched.qps)
                best_ratio = max(best_ratio, batched.qps / ceiling.qps)
                best_p99 = min(best_p99, plain.p99_ms)
        finally:
            single.shutdown()
            if tier is not None:
                tier.shutdown()
    return {
        "ceiling_qps": best_ceiling,
        "predictions_per_sec": best_tier,
        "speedup": best_ratio,
        "p99_ms": best_p99,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="re-measure and rewrite BENCH_baseline.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE,
        help="allowed fractional regression (default 0.20)",
    )
    args = parser.parse_args()

    print("measuring hot-path benchmarks (best-of-N)...")
    metrics = measure()

    if args.update:
        BASELINE_PATH.write_text(
            json.dumps({"metrics": metrics}, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update first")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())["metrics"]

    failures = []
    width = max(len(name) for name in metrics)
    for name, current in metrics.items():
        if "max_value" in current:
            # Absolute gate: the committed ceiling applies on every
            # machine, with or without a baseline entry.
            value, ceiling = current["value"], current["max_value"]
            regressed = value > ceiling
            verdict = "FAIL" if regressed else "ok"
            print(
                f"{name:<{width}}  {value:>12.4f} "
                f"{current['unit']:<10} (ceiling {ceiling})  {verdict}"
            )
            if regressed:
                failures.append(name)
            continue
        if "min_value" in current:
            # Absolute floor — the mirror of max_value, used for
            # speedup ratios that must hold on any machine.
            value, floor = current["value"], current["min_value"]
            regressed = value < floor
            verdict = "FAIL" if regressed else "ok"
            print(
                f"{name:<{width}}  {value:>12.4f} "
                f"{current['unit']:<10} (floor {floor})  {verdict}"
            )
            if regressed:
                failures.append(name)
            continue
        base = baseline.get(name)
        if base is None:
            print(f"{name:<{width}}  (no baseline entry — skipped)")
            continue
        new, old = current["value"], base["value"]
        if current["higher_is_better"]:
            change = new / old - 1.0  # negative = regression
            regressed = change < -args.tolerance
        else:
            change = old / new - 1.0  # negative = slower than baseline
            regressed = change < -args.tolerance
        verdict = "FAIL" if regressed else "ok"
        print(
            f"{name:<{width}}  {old:>12.1f} -> {new:>12.1f} "
            f"{current['unit']:<10} ({change:+.1%})  {verdict}"
        )
        if regressed:
            failures.append(name)

    if failures:
        print(
            f"\nREGRESSION: {len(failures)} metric(s) more than "
            f"{args.tolerance:.0%} worse than baseline: {', '.join(failures)}"
        )
        print(
            "If the slowdown is intentional, rerun with --update and "
            "commit the new baseline."
        )
        return 1
    print(f"\nall metrics within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
