"""Executor observability: metric correctness and the off-by-default path."""

import pytest

from repro.config import (
    HardwareSpec,
    ObservabilityConfig,
    SimulationConfig,
    SystemConfig,
)
from repro.engine.executor import ConcurrentExecutor, SingleShotStream
from repro.engine.profile import Phase, ResourceProfile
from repro.obs.metrics import Registry
from repro.units import MB
from tests.reference_engine import ReferenceExecutor


def _config(**sim_kwargs):
    defaults = dict(restart_cost=0.0)
    defaults.update(sim_kwargs)
    return SystemConfig(
        hardware=HardwareSpec(seq_bandwidth=MB(100), random_iops=100.0),
        simulation=SimulationConfig(**defaults),
    )


def _seq_profile(nbytes, template_id=1, label="scan"):
    return ResourceProfile(
        template_id=template_id,
        phases=(Phase(label=label, seq_bytes=nbytes),),
    )


def _run(executor, profiles):
    streams = [
        SingleShotStream(p, name=f"s{i}") for i, p in enumerate(profiles)
    ]
    return executor.run(streams)


def test_metrics_default_off():
    ex = ConcurrentExecutor(_config())
    _run(ex, [_seq_profile(MB(10))])
    assert ex.metrics is None


def test_config_flag_creates_a_private_registry():
    config = SystemConfig(
        hardware=HardwareSpec(seq_bandwidth=MB(100), random_iops=100.0),
        simulation=SimulationConfig(restart_cost=0.0),
        observability=ObservabilityConfig(engine_metrics=True),
    )
    ex = ConcurrentExecutor(config)
    assert isinstance(ex.metrics, Registry)


def test_run_totals_match_run_result():
    reg = Registry()
    ex = ConcurrentExecutor(_config(), metrics=reg)
    result = _run(ex, [_seq_profile(MB(100)), _seq_profile(MB(50))])

    assert reg.get("engine_runs_total").value == 1
    assert reg.get("engine_events_total").value == result.events
    assert reg.get("engine_completions_total").value == 2
    assert reg.get("engine_simulated_seconds_total").value == pytest.approx(
        result.elapsed
    )
    seq_read = sum(c.stats.seq_bytes_read for c in result.completions)
    assert reg.get("engine_service_total").labels("seq").value == pytest.approx(
        seq_read
    )


def test_totals_accumulate_across_runs():
    reg = Registry()
    ex = ConcurrentExecutor(_config(), metrics=reg)
    _run(ex, [_seq_profile(MB(10))])
    _run(ex, [_seq_profile(MB(10))])
    assert reg.get("engine_runs_total").value == 2
    assert reg.get("engine_completions_total").value == 2


def test_virtual_time_reports_integral_and_heap_peaks():
    reg = Registry()
    ex = ConcurrentExecutor(_config(engine="virtual_time"), metrics=reg)
    _run(ex, [_seq_profile(MB(100)), _seq_profile(MB(100))])

    # Two concurrent scans: the seq heap held both at once.
    assert reg.get("engine_vt_heap_peak_entries").labels("seq").value == 2
    # The cumulative-service integral is bytes of sequential service
    # delivered per contender; both scans finish, so it ends at the
    # per-stream total.
    assert reg.get("engine_vt_service_integral").labels(
        "seq"
    ).value == pytest.approx(MB(100))
    # Per-phase timing is the tracer's job, not a metric family.
    assert reg.get("engine_phase_drain_seconds") is None


def test_reference_engine_records_run_totals_only():
    reg = Registry()
    ex = ReferenceExecutor(_config(), metrics=reg)
    _run(ex, [_seq_profile(MB(100))])
    assert reg.get("engine_runs_total").value == 1
    assert reg.get("engine_completions_total").value == 1
    # The reference loop does not populate virtual-time internals.
    assert reg.get("engine_vt_service_integral").children() == []


def test_shared_registry_across_executors_merges():
    reg = Registry()
    for _ in range(3):
        ex = ConcurrentExecutor(_config(), metrics=reg)
        _run(ex, [_seq_profile(MB(10))])
    assert reg.get("engine_runs_total").value == 3
