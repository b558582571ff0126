"""Micro-benchmarks of the library's hot paths.

Unlike the experiment benches (which regenerate the paper's results
once), these measure the cost of the primitives a deployment would call
repeatedly: simulating a mix, computing a CQI, fitting a QS model,
producing a prediction, and drawing an LHS design.
"""

import numpy as np
import pytest

from repro.core.cqi import CQICalculator
from repro.core.qs import fit_qs_model
from repro.sampling.lhs import latin_hypercube
from repro.sampling.steady_state import SteadyStateConfig, run_steady_state
from repro.workload.catalog import TemplateCatalog


@pytest.fixture(scope="module")
def catalog():
    return TemplateCatalog()


@pytest.fixture(scope="module")
def trained(ctx):
    data = ctx.training_data()
    calc = CQICalculator(
        profiles=data.profiles, scan_seconds=data.scan_seconds
    )
    return data, calc


def test_perf_steady_state_mix(benchmark, catalog):
    """Simulate one steady-state MPL-2 mix end to end."""
    cfg = SteadyStateConfig(samples_per_stream=5)
    rng = np.random.default_rng(0)
    result = benchmark(
        run_steady_state, catalog, (26, 71), cfg, rng
    )
    assert result.mean_latency(26) > 0


def test_perf_isolated_run(benchmark, catalog):
    """One cold-cache isolated execution."""
    stats = benchmark(catalog.run_isolated, 26)
    assert stats.latency > 0


def test_perf_cqi_computation(benchmark, trained):
    """One CQI evaluation at MPL 5 (the predict-time hot path)."""
    data, calc = trained
    mix = (26, 71, 22, 65, 17)
    value = benchmark(calc.intensity, 26, mix)
    assert 0.0 <= value <= 1.0


def test_perf_qs_fit(benchmark, trained):
    """Fitting one template's QS reference model from its samples."""
    data, calc = trained
    model = benchmark(fit_qs_model, data, calc, 26, 2)
    assert model.num_samples > 2


def test_perf_prediction(benchmark, ctx):
    """One known-template latency prediction (models cached)."""
    contender = ctx.contender()
    contender.predict_known(26, (26, 65))  # warm the caches
    latency = benchmark(contender.predict_known, 26, (26, 65))
    assert latency > 0


def test_perf_lhs_design(benchmark, catalog):
    """Drawing one MPL-5 LHS design over the full workload."""
    rng = np.random.default_rng(1)
    design = benchmark(
        latin_hypercube, list(catalog.template_ids), 5, rng
    )
    assert len(design) == 25


def test_perf_plan_compile(benchmark, catalog):
    """Compiling one template's plan to a resource profile."""
    profile = benchmark(catalog.profile, 2)
    assert profile.phases


# ---------------------------------------------------------------------------
# Event-loop throughput of the virtual-time engine.  Profiles are
# pre-generated so the timings isolate the engine itself
# (no plan compilation or parameter jitter inside the timed region).

from dataclasses import dataclass
from typing import List

from repro.config import SystemConfig
from repro.engine.executor import ConcurrentExecutor
from repro.engine.profile import ResourceProfile


@dataclass
class _ListStream:
    profiles: List[ResourceProfile]
    name: str

    def next_profile(self, now, completed):
        if completed < len(self.profiles):
            return self.profiles[completed]
        return None


@pytest.fixture(scope="module")
def engine_workloads(catalog):
    """Pre-generated per-stream profile lists at MPL 4 and MPL 8."""
    workloads = {}
    for mpl in (4, 8):
        rng = np.random.default_rng(0)
        ids = list(catalog.template_ids)
        mix = [ids[i % len(ids)] for i in range(mpl)]
        workloads[mpl] = [
            [catalog.profile(t, rng) for _ in range(20)] for t in mix
        ]
    return workloads


def _run_engine_workload(per_stream, metrics=None):
    config = SystemConfig()
    executor = ConcurrentExecutor(
        config, rng=np.random.default_rng(1), metrics=metrics
    )
    streams = [
        _ListStream(profiles=ps, name=f"s{i}")
        for i, ps in enumerate(per_stream)
    ]
    return executor.run(streams)


def test_perf_engine_events_mpl4(benchmark, engine_workloads):
    """Virtual-time engine event throughput at MPL 4."""
    result = benchmark(_run_engine_workload, engine_workloads[4])
    assert result.completions
    benchmark.extra_info["events"] = result.events
    benchmark.extra_info["events_per_sec"] = (
        result.events / benchmark.stats.stats.min
    )


def test_perf_engine_events_mpl8(benchmark, engine_workloads):
    """Virtual-time engine event throughput at MPL 8."""
    result = benchmark(_run_engine_workload, engine_workloads[8])
    assert result.completions
    benchmark.extra_info["events"] = result.events
    benchmark.extra_info["events_per_sec"] = (
        result.events / benchmark.stats.stats.min
    )


def test_perf_engine_events_mpl8_instrumented(benchmark, engine_workloads):
    """MPL-8 throughput with the metrics registry attached.

    Same workload as ``test_perf_engine_events_mpl8``; the gap between
    the two is the observability overhead, gated to <= 5 % by
    ``scripts/bench_check.py`` (``make bench-check``).
    """
    from repro.obs.metrics import Registry

    def run():
        return _run_engine_workload(engine_workloads[8], metrics=Registry())

    result = benchmark(run)
    assert result.completions
    benchmark.extra_info["events"] = result.events
    benchmark.extra_info["events_per_sec"] = (
        result.events / benchmark.stats.stats.min
    )
