"""The load generator, workload builder, and remote admission backend."""

import pytest

from repro.config import ServingConfig
from repro.errors import ModelError, ServingError
from repro.metrics import percentile
from repro.serving import (
    LoadGenerator,
    PredictionClient,
    PredictionServer,
    RemotePredictionBackend,
    mix_pool_workload,
    save_artifact,
)

TEMPLATES = (22, 26, 62, 65, 71)


@pytest.fixture(scope="module")
def server(small_contender, tmp_path_factory):
    path = tmp_path_factory.mktemp("load") / "model.json"
    save_artifact(small_contender, path)
    config = ServingConfig(port=0, workers=2, batch_window=0.0)
    with PredictionServer.from_artifact(path, config=config) as srv:
        yield srv


def test_mix_pool_workload_draws_repeated_mixes():
    workload = mix_pool_workload(TEMPLATES, requests=50, pool_size=4, mpl=2)
    assert len(workload) == 50
    distinct = {(r.primary, r.mix) for r in workload}
    assert len(distinct) <= 4
    for request in workload:
        assert request.primary in request.mix
        assert len(request.mix) == 2
    # Deterministic per seed.
    assert workload == mix_pool_workload(
        TEMPLATES, requests=50, pool_size=4, mpl=2
    )


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(template_ids=(), requests=1), "at least one template"),
        (dict(template_ids=TEMPLATES, requests=0), "requests"),
        (dict(template_ids=TEMPLATES, requests=1, pool_size=0), "pool_size"),
        (dict(template_ids=TEMPLATES, requests=1, mpl=0), "mpl"),
    ],
)
def test_mix_pool_workload_validation(kwargs, message):
    with pytest.raises(ServingError, match=message):
        mix_pool_workload(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(submitters=0), "submitters"),
        (dict(processes=0), "processes"),
        (dict(batch_size=0), "batch_size"),
    ],
)
def test_load_generator_validation(kwargs, message):
    with pytest.raises(ServingError, match=message):
        LoadGenerator("127.0.0.1", 1, **kwargs)


def test_load_generator_single_process_run(server):
    workload = mix_pool_workload(TEMPLATES, requests=40, pool_size=4)
    generator = LoadGenerator(
        server.host, server.port, submitters=4, timeout=30.0
    )
    report = generator.run(workload)
    assert report.requests == 40
    assert report.errors == 0
    assert report.qps > 0
    assert report.p50_ms <= report.p99_ms <= report.max_ms
    assert report.processes == 1
    assert report.submitters == 4
    table = report.format_table()
    assert "throughput" in table and "p99 latency" in table


def test_load_generator_batch_mode(server):
    workload = mix_pool_workload(TEMPLATES, requests=24, pool_size=4)
    generator = LoadGenerator(
        server.host, server.port, submitters=2, timeout=30.0, batch_size=8
    )
    report = generator.run(workload)
    assert report.requests == 24
    assert report.errors == 0


def test_load_generator_counts_errors_against_dead_port(server):
    workload = mix_pool_workload(TEMPLATES, requests=4, pool_size=2)
    # A port nothing listens on: every request errors, none hang.
    generator = LoadGenerator("127.0.0.1", 1, submitters=2, timeout=0.5)
    report = generator.run(workload)
    assert report.errors == 4
    assert report.requests == 4
    assert report.qps == 0


def test_load_generator_rejects_empty_workload(server):
    generator = LoadGenerator(server.host, server.port)
    with pytest.raises(ServingError, match="empty"):
        generator.run([])


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == pytest.approx(2.5)
    assert percentile([], 0.5) == 0.0


def test_remote_admission_backend(server):
    with PredictionClient(server.host, server.port) as client:
        backend = RemotePredictionBackend(client)
        assert backend.predict_known(26, (26, 65)) > 0
        latencies = backend.predict_mix((26, 65))
        assert len(latencies) == 2
        assert backend.isolated_latency(26) > 0
        # The isolated map is fetched once and cached.
        assert backend.isolated_latency(26) == backend.isolated_latency(26)
        with pytest.raises(ModelError, match="does not know"):
            backend.isolated_latency(987654)
