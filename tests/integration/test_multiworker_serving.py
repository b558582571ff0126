"""End-to-end tests of the pre-fork multi-worker front end.

The heart of the file is the reload hammer: multi-process clients fire
predictions while the artifact is flipped between two models, and every
response must satisfy the version-consistency invariant — the latency it
carries is exactly what the model named by its ``model_version`` would
predict.  A worker racing a reload may answer from either generation,
but never with model A's latency stamped with model B's version.
"""

import json
import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from repro.config import LifecycleConfig, ServingConfig
from repro.core.contender import Contender
from repro.errors import ServingError
from repro.serving import (
    MultiWorkerServer,
    PredictionClient,
    load_artifact,
    multiworker_supported,
    save_artifact,
)
from repro.serving.protocol import PredictRequest
from repro.serving.shm import ControlBlock

pytestmark = pytest.mark.skipif(
    not multiworker_supported()[0],
    reason=f"multi-worker serving unavailable: {multiworker_supported()[1]}",
)

_CONFIG = ServingConfig(port=0, worker_processes=2)


@pytest.fixture(scope="module")
def artifact_a(small_contender, tmp_path_factory):
    path = tmp_path_factory.mktemp("mw") / "model_a.json"
    save_artifact(small_contender, path)
    return path


@pytest.fixture(scope="module")
def contender_b(small_catalog):
    """A second, genuinely different model over a template subset."""
    from repro.core.training import collect_training_data
    from repro.sampling.steady_state import SteadyStateConfig

    subset = small_catalog.subset(tuple(small_catalog.template_ids)[:4])
    data = collect_training_data(
        subset,
        mpls=(2,),
        lhs_runs_per_mpl=1,
        steady_config=SteadyStateConfig(samples_per_stream=4),
    )
    return Contender(data)


def test_health_reports_worker_liveness(artifact_a):
    with MultiWorkerServer(artifact_a, _CONFIG) as server:
        with PredictionClient(server.host, server.port) as client:
            health = client.health()
            assert health.status == "ok"
            assert health.workers is not None
            assert health.workers["count"] == 2
            assert health.workers["alive"] == 2
            pids = {w["pid"] for w in health.workers["workers"]}
            assert len(pids) == 2 and os.getpid() not in pids


def test_workers_stamp_a_heartbeat_before_reporting_ready(
    artifact_a, monkeypatch
):
    """No worker slot reads as dead (pid 0) once start() has returned."""
    stamp = ControlBlock.heartbeat

    def slow_heartbeat(self, *args, **kwargs):
        time.sleep(0.3)
        return stamp(self, *args, **kwargs)

    # The workers fork, so they inherit the patched method.
    monkeypatch.setattr(ControlBlock, "heartbeat", slow_heartbeat)
    with MultiWorkerServer(artifact_a, _CONFIG) as server:
        statuses = server.control.worker_statuses()
        assert len(statuses) == 2
        assert all(status.pid > 0 for status in statuses)


def test_predictions_bit_identical_across_worker_counts(artifact_a):
    """--workers 1 and --workers N serve byte-identical predictions."""
    model = load_artifact(artifact_a)
    ids = model.contender.template_ids
    pairs = [(a, (a, b)) for a in ids for b in ids[:3]]

    def collect(workers: int):
        config = replace(_CONFIG, worker_processes=workers)
        with MultiWorkerServer(artifact_a, config) as server:
            with PredictionClient(server.host, server.port) as client:
                return [
                    client.predict(primary, mix).latency
                    for primary, mix in pairs
                ]

    single = collect(1)
    multi = collect(2)
    assert single == multi  # exact float equality, not approx
    expected = [
        model.contender.predict_known(primary, mix) for primary, mix in pairs
    ]
    assert single == expected


def test_batch_and_errors_through_the_async_path(artifact_a):
    model = load_artifact(artifact_a)
    ids = model.contender.template_ids
    with MultiWorkerServer(artifact_a, _CONFIG) as server:
        with PredictionClient(server.host, server.port) as client:
            items = [
                PredictRequest(primary=a, mix=(a, b))
                for a in ids[:4]
                for b in ids[:4]
            ]
            response = client.predict_batch(items)
            assert len(response.items) == len(items)
            for item, got in zip(items, response.items):
                assert got.latency == model.contender.predict_known(
                    item.primary, item.mix
                )
            # The same batch again answers from the cache.
            again = client.predict_batch(items)
            assert all(item.cached for item in again.items)

            from repro.errors import ModelError

            with pytest.raises(ModelError):
                client.predict(999_999, (999_999, ids[0]))


def test_shutdown_unlinks_all_segments(artifact_a):
    from multiprocessing import shared_memory

    from repro.serving.shm import _untrack

    server = MultiWorkerServer(artifact_a, _CONFIG)
    server.start()
    names = [seg.name for _gen, seg in server._segments]
    names.append(server.control.name)
    server.shutdown()
    for name in names:
        with pytest.raises(FileNotFoundError):
            probe = shared_memory.SharedMemory(name=name)
            _untrack(probe)
            probe.close()


def test_observe_fans_in_to_worker_zero(artifact_a):
    model = load_artifact(artifact_a)
    ids = model.contender.template_ids
    lifecycle = LifecycleConfig(enabled=True)
    with MultiWorkerServer(artifact_a, _CONFIG, lifecycle=lifecycle) as server:
        with PredictionClient(server.host, server.port) as client:
            predicted = model.contender.predict_known(ids[0], (ids[0], ids[1]))
            # Hit every worker's socket at least once: SO_REUSEPORT
            # balances by connection, so issue observes over several
            # fresh connections.
            for _ in range(8):
                with PredictionClient(server.host, server.port) as burst:
                    burst.observe(ids[0], (ids[0], ids[1]), predicted * 1.01)
            deadline = time.monotonic() + 10.0
            monitored = 0
            while time.monotonic() < deadline and not monitored:
                # Fresh connections so the stats probes land on both
                # workers; only worker 0's monitor holds the residuals.
                for _ in range(6):
                    with PredictionClient(server.host, server.port) as probe:
                        doc = probe.stats()
                    templates = (doc.get("lifecycle") or {}).get(
                        "templates", []
                    )
                    monitored = max(monitored, len(templates))
                time.sleep(0.2)
            assert monitored >= 1  # the fan-in delivered to one monitor


# ----------------------------------------------------------------------
# The reload hammer.


def _hammer_client(host, port, pairs, version_latency, duration, out):
    """Fire predictions for *duration* seconds; report any inconsistency.

    *version_latency* maps model_version -> {pair: expected_latency}.
    Each response must match its claimed version's expectation exactly.
    """
    import itertools

    violations = []
    checked = 0
    with PredictionClient(host, port, timeout=10.0) as client:
        deadline = time.monotonic() + duration
        for primary, mix in itertools.cycle(pairs):
            if time.monotonic() >= deadline:
                break
            try:
                response = client.predict(primary, mix)
            except ServingError:
                continue  # mid-flip timeout; consistency is what matters
            checked += 1
            expected = version_latency.get(response.model_version)
            if expected is None:
                violations.append(
                    (primary, mix, response.model_version, "unknown version")
                )
            elif response.latency != expected[(primary, mix)]:
                violations.append(
                    (
                        primary,
                        mix,
                        response.model_version,
                        response.latency,
                        expected[(primary, mix)],
                    )
                )
    out.put((checked, violations))


def test_reload_hammer_never_mixes_versions(
    artifact_a, small_contender, contender_b, tmp_path
):
    """Multi-process clients + artifact flips: every response's latency
    must come from the model its ``model_version`` names."""
    path = tmp_path / "hammer.json"
    save_artifact(small_contender, path)
    info_a = load_artifact(path).info

    path_b = tmp_path / "model_b.json"
    save_artifact(contender_b, path_b)
    info_b = load_artifact(path_b).info
    assert info_a.fingerprint != info_b.fingerprint

    # Pairs valid under BOTH models (model B covers a template subset).
    shared_ids = [
        t
        for t in contender_b.template_ids
        if t in small_contender.template_ids
    ]
    assert len(shared_ids) >= 2
    pairs = [(a, (a, b)) for a in shared_ids for b in shared_ids]
    version_latency = {
        info_a.version: {
            pair: small_contender.predict_known(*pair) for pair in pairs
        },
        info_b.version: {
            pair: contender_b.predict_known(*pair) for pair in pairs
        },
    }
    doc_a = json.loads(path.read_text())
    doc_b = json.loads(path_b.read_text())

    config = replace(_CONFIG, worker_processes=2)
    duration = 4.0
    with MultiWorkerServer(path, config) as server:
        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        clients = [
            ctx.Process(
                target=_hammer_client,
                args=(
                    server.host,
                    server.port,
                    pairs,
                    version_latency,
                    duration,
                    out,
                ),
                daemon=True,
            )
            for _ in range(3)
        ]
        for p in clients:
            p.start()

        # Flip the artifact back and forth while the hammer runs.
        flips = 0
        with PredictionClient(server.host, server.port) as admin:
            deadline = time.monotonic() + duration - 0.5
            current = "a"
            while time.monotonic() < deadline:
                nxt = doc_b if current == "a" else doc_a
                current = "b" if current == "a" else "a"
                path.write_text(json.dumps(nxt))
                result = admin.reload()
                assert result["reloaded"] is True
                flips += 1
                time.sleep(0.15)

        results = [out.get(timeout=30.0) for _ in clients]
        for p in clients:
            p.join(timeout=10.0)

    assert flips >= 2, "hammer must actually exercise reload"
    total_checked = sum(checked for checked, _ in results)
    all_violations = [v for _, violations in results for v in violations]
    assert total_checked > 0
    assert all_violations == [], (
        f"{len(all_violations)}/{total_checked} responses mixed model "
        f"versions: {all_violations[:5]}"
    )
