"""One registry, three layers: engine + campaign + serving on one page.

The acceptance path for the observability layer: run the simulator, run
a (tiny) sampling campaign, and serve predictions, all reporting into a
single shared :class:`Registry` — then scrape the server's ``/metrics``
and find every layer's families in one Prometheus exposition.
"""

import pytest

from repro.config import (
    HardwareSpec,
    ServingConfig,
    SimulationConfig,
    SystemConfig,
)
from repro.core.training import collect_training_data
from repro.engine.executor import ConcurrentExecutor, SingleShotStream
from repro.engine.profile import Phase, ResourceProfile
from repro.obs.export import render_json
from repro.obs.metrics import Registry
from repro.obs.tracing import TraceRecorder
from repro.sampling.steady_state import SteadyStateConfig
from repro.serving import PredictionClient, PredictionServer, save_artifact
from repro.units import MB
from repro.workload.catalog import TemplateCatalog


@pytest.fixture(scope="module")
def scrape(small_contender, tmp_path_factory):
    registry = Registry()
    tracer = TraceRecorder(seed=42)

    # Layer 1: the discrete-event executor.
    engine_config = SystemConfig(
        hardware=HardwareSpec(seq_bandwidth=MB(100), random_iops=100.0),
        simulation=SimulationConfig(restart_cost=0.0),
    )
    executor = ConcurrentExecutor(engine_config, metrics=registry)
    executor.run([SingleShotStream(
        ResourceProfile(
            template_id=1, phases=(Phase(label="scan", seq_bytes=MB(10)),)
        ),
        name="s0",
    )])

    # Layer 2: a tiny sampling campaign.
    collect_training_data(
        TemplateCatalog().subset((26, 71)),
        mpls=(2,),
        lhs_runs_per_mpl=1,
        steady_config=SteadyStateConfig(samples_per_stream=2),
        metrics=registry,
        tracer=tracer,
    )

    # Layer 3: the prediction server, scraped over HTTP.
    path = tmp_path_factory.mktemp("obs-e2e") / "model.json"
    save_artifact(small_contender, path)
    config = ServingConfig(port=0, workers=1, batch_window=0.0)
    with PredictionServer.from_artifact(
        path, config=config, metrics=registry
    ) as srv:
        with PredictionClient(srv.host, srv.port) as cli:
            cli.predict(26, (26, 65))
            cli.health()
            text = cli.metrics_text()
    return registry, tracer, text


def test_all_three_layers_share_one_exposition(scrape):
    _, _, text = scrape
    for family in (
        "engine_runs_total",
        "engine_events_total",
        "engine_vt_service_integral",
        "campaign_tasks_total",
        "campaign_task_seconds_bucket",
        "campaign_workers",
        "serving_requests_total",
        "serving_request_seconds_bucket",
        "serving_cache_misses",
    ):
        assert family in text, f"{family} missing from /metrics"
    # Spot-check real numbers made it through the wire.
    assert "engine_runs_total " in text
    assert 'serving_requests_total{endpoint="predict"} 1' in text


def test_layers_did_not_clobber_each_other(scrape):
    registry, _, _ = scrape
    # Engine ran once directly; the campaign runs its own executors with
    # campaign-level (not engine-level) instrumentation, so the direct
    # run is still the only one counted.
    assert registry.get("engine_runs_total").value == 1
    assert registry.get("campaign_tasks_total").total() > 0
    assert registry.get("serving_requests_total").total() >= 3


def test_json_mirror_covers_the_same_families(scrape):
    registry, _, _ = scrape
    doc = render_json(registry)
    assert {"engine_runs_total", "campaign_tasks_total",
            "serving_requests_total"} <= set(doc)


def test_campaign_trace_rides_alongside(scrape):
    _, tracer, _ = scrape
    assert tracer.find("campaign.collect")
    assert tracer.find("campaign.execute")
