"""Metric names, units and directions — the one list BENCHMARK.json mirrors."""

from __future__ import annotations

from typing import Tuple

#: ``(name, unit, better)`` of every end-to-end metric, printed by every
#: workload with ``--trace 0``.  Definitions per workload: README.md.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("p50_ms", "ms", "lower"),
    ("rate_per_s", "1/s", "higher"),
)

#: ``(name, unit, better)`` of every per-layer metric, printed by every
#: workload with ``--trace 1``; a layer a workload never enters reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workload.profile.calls", "count", "lower"),
    ("workload.profile.self_s", "s", "lower"),
    ("engine.run.calls", "count", "lower"),
    ("engine.run.self_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("sampling.steady_state.self_s", "s", "lower"),
    ("core.training.self_s", "s", "lower"),
    ("core.contender.fit_s", "s", "lower"),
    ("core.contender.model_pass_us", "us", "lower"),
    ("core.contender.keys_per_pass", "count", "higher"),
    ("core.contender.predict_candidates_us", "us", "lower"),
    ("serving.protocol.parse_us", "us", "lower"),
    ("serving.protocol.serialize_us", "us", "lower"),
    ("serving.batching.wait_us", "us", "lower"),
    ("serving.batching.keys_per_batch", "count", "higher"),
    ("serving.cache.hit_ratio", "ratio", "higher"),
    ("serving.cache.evictions_per_req", "count", "lower"),
    ("serving.cache.get_us", "us", "lower"),
    ("serving.app.self_us", "us", "lower"),
    ("serving.transport_us", "us", "lower"),
    ("lifecycle.ingest_us", "us", "lower"),
    ("sched.policies.pick_self_us", "us", "lower"),
    ("sched.replay.self_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
