"""In-process coverage of the pre-fork front end's building blocks.

The end-to-end multi-worker behavior is pinned by the integration tier;
these tests drive the worker-side pieces — the shared-memory provider,
the asyncio HTTP plumbing, and the worker main loop — inside this
process, plus the parent's packing/publishing lifecycle.
"""

import asyncio
import json
import os
import queue
import signal
import socket
import sys
import threading
import time

import pytest

from repro.config import LifecycleConfig, ServingConfig
from repro.core.contender import Contender
from repro.errors import ServingError
from repro.serving import (
    ModelRegistry,
    PredictionClient,
    RegistryModelProvider,
    ServingApp,
    save_artifact,
)
from repro.serving.app import AppResponse
from repro.serving.frontend import (
    MultiWorkerServer,
    SharedModelProvider,
    _new_listen_socket,
    _render,
    _respond_predict,
    _respond_predict_batch,
    _reuseport_available,
    _serve_connection,
    _worker_async,
    multiworker_supported,
)
from repro.serving.registry import load_artifact
from repro.serving.shm import ControlBlock, pack_model

MIX = (26, 65)

#: Drift latches within a handful of samples (worker-0 drain tests).
FAST = LifecycleConfig(
    reference_window=4, test_window=2, min_samples=4, residual_window=8
)


@pytest.fixture(scope="module")
def artifact_path(small_contender, tmp_path_factory):
    path = tmp_path_factory.mktemp("frontend") / "model.json"
    save_artifact(small_contender, path)
    return path


@pytest.fixture(scope="module")
def variant_bytes(small_training_data, tmp_path_factory):
    """A second artifact (bytes) with a different fingerprint."""
    smaller = Contender(
        small_training_data.restricted_to(
            [t for t in small_training_data.template_ids if t != 22]
        )
    )
    path = tmp_path_factory.mktemp("frontend-variant") / "variant.json"
    save_artifact(smaller, path)
    return path.read_bytes()


@pytest.fixture()
def published(artifact_path):
    """A control block with generation 1 of the artifact published."""
    model = load_artifact(artifact_path)
    control = ControlBlock.create(2)
    segments = []

    def publish(generation):
        packed, segment = pack_model(model, generation=generation)
        segments.append(segment)
        control.publish(
            generation=generation,
            segment=packed.name,
            fingerprint=packed.fingerprint,
            version=packed.version,
        )
        return packed

    publish(1)
    yield control, publish, model
    control.close()
    control.unlink()
    for segment in segments:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


# -- platform probes and HTTP rendering --------------------------------


def test_multiworker_supported_on_this_platform():
    supported, reason = multiworker_supported()
    assert supported is True
    assert reason == ""


def test_multiworker_unsupported_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    supported, reason = multiworker_supported()
    assert supported is False
    assert "fork" in reason


def test_multiworker_unsupported_without_fork_context(monkeypatch):
    import multiprocessing

    def no_fork(method=None):
        raise ValueError("fork unavailable")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    supported, reason = multiworker_supported()
    assert supported is False
    assert "fork start method" in reason


def test_new_listen_socket_binds_and_listens():
    sock = _new_listen_socket("127.0.0.1", 0, reuseport=_reuseport_available())
    try:
        assert sock.getsockname()[1] > 0
    finally:
        sock.close()


def test_new_listen_socket_closes_on_bind_failure():
    with pytest.raises(OSError):
        _new_listen_socket("203.0.113.1", 1, reuseport=False)


def test_render_formats_status_line_and_connection():
    response = AppResponse.from_doc(200, {"ok": True})
    raw = _render(response, keep_alive=True)
    assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"Connection: keep-alive\r\n" in raw
    closed = _render(AppResponse.from_doc(418, {}), keep_alive=False)
    assert closed.startswith(b"HTTP/1.1 418 Error\r\n")
    assert b"Connection: close\r\n" in closed


# -- SharedModelProvider ----------------------------------------------


def test_shared_provider_requires_a_published_generation(artifact_path):
    control = ControlBlock.create(1)
    try:
        with pytest.raises(ServingError, match="no model generation"):
            SharedModelProvider(control, artifact_path)
    finally:
        control.close()
        control.unlink()


def test_shared_provider_snapshot_and_generation_flip(
    published, artifact_path
):
    control, publish, model = published
    provider = SharedModelProvider(control, artifact_path)
    try:
        swaps = []
        provider.set_swap_listener(lambda: swaps.append(1))
        assert provider.model_name == "default"
        snap = provider.snapshot()
        assert snap.generation == 1
        assert snap.fingerprint == model.info.fingerprint
        assert snap.contender.predict_known(26, MIX) > 0

        publish(2)
        flipped = provider.snapshot()
        assert flipped.generation == 2
        assert swaps == [1]
        # Generation 3 reaps generation 1 from the graveyard.
        publish(3)
        assert provider.snapshot().generation == 3
        assert provider.snapshot().generation == 3  # no-flip fast path
    finally:
        provider.close()


def test_shared_provider_reload_is_noop_for_same_fingerprint(
    published, artifact_path
):
    control, _publish, _model = published
    provider = SharedModelProvider(control, artifact_path)
    try:
        outcome = provider.reload()
        assert outcome["reloaded"] is False
        assert outcome["model_version"]
    finally:
        provider.close()


def test_shared_provider_reload_requires_queue_wiring(
    published, artifact_path, variant_bytes, tmp_path
):
    control, _publish, _model = published
    changed = tmp_path / "changed.json"
    changed.write_bytes(variant_bytes)
    provider = SharedModelProvider(control, changed)
    try:
        with pytest.raises(ServingError, match="not wired"):
            provider.reload()
    finally:
        provider.close()


def test_shared_provider_reload_times_out_without_publisher(
    published, artifact_path, variant_bytes, tmp_path
):
    control, _publish, _model = published
    changed = tmp_path / "changed.json"
    changed.write_bytes(variant_bytes)
    requests = queue.Queue()
    provider = SharedModelProvider(
        control, changed, reload_queue=requests, reload_timeout=0.2
    )
    try:
        with pytest.raises(ServingError, match="timed out"):
            provider.reload()
        assert requests.get_nowait()[0] == "reload"
    finally:
        provider.close()


def test_shared_provider_reload_adopts_published_flip(
    published, artifact_path, variant_bytes, tmp_path
):
    control, _publish, _model = published
    changed = tmp_path / "changed.json"
    changed.write_bytes(variant_bytes)
    requests = queue.Queue()
    provider = SharedModelProvider(
        control, changed, reload_queue=requests, reload_timeout=10.0
    )
    segments = []

    def publisher():
        requests.get(timeout=5.0)
        model = load_artifact(changed)
        packed, segment = pack_model(model, generation=2)
        segments.append(segment)
        control.publish(
            generation=2,
            segment=packed.name,
            fingerprint=packed.fingerprint,
            version=packed.version,
        )

    thread = threading.Thread(target=publisher)
    thread.start()
    try:
        outcome = provider.reload()
        assert outcome["reloaded"] is True
        assert provider.snapshot().generation == 2
    finally:
        thread.join()
        provider.close()
        for segment in segments:
            segment.close()
            segment.unlink()


# -- the asyncio hot paths --------------------------------------------


@pytest.fixture(scope="module")
def app(artifact_path):
    registry = ModelRegistry()
    registry.register("default", artifact_path)
    provider = RegistryModelProvider(registry, "default")
    app = ServingApp(
        provider, config=ServingConfig(workers=1, batch_window=0.0)
    )
    yield app
    app.close()


def _body(doc):
    return json.dumps(doc).encode()


def test_respond_predict_success_and_error(app):
    async def drive():
        good = await _respond_predict(
            app, _body({"primary": 26, "mix": list(MIX)})
        )
        bad = await _respond_predict(app, b"{nope")
        unknown = await _respond_predict(
            app, _body({"primary": 987654, "mix": [987654, 26]})
        )
        return good, bad, unknown

    good, bad, unknown = asyncio.run(drive())
    assert good.status == 200
    assert json.loads(good.body)["latency"] > 0
    assert bad.status == 400
    assert unknown.status == 422


def test_respond_predict_batch_mixes_hits_and_misses(app):
    items = [
        {"primary": 26, "mix": list(MIX)},
        {"primary": 65, "mix": list(MIX)},
        {"primary": 26, "mix": list(MIX)},
    ]

    async def drive():
        first = await _respond_predict_batch(app, _body({"items": items}))
        malformed = await _respond_predict_batch(app, _body({"items": []}))
        return first, malformed

    first, malformed = asyncio.run(drive())
    assert first.status == 200
    answers = json.loads(first.body)["items"]
    assert len(answers) == 3
    assert answers[0]["latency"] == answers[2]["latency"]
    assert malformed.status == 400


def test_respond_predict_batch_awaits_misses_across_batch_threads(
    artifact_path,
):
    """One await covers misses finishing on different batch threads.

    Each miss runs in its own slowed batch (``max_batch=1``) on one of
    four threads, with a short switch interval; a lost countdown update
    would leave the request waiting until its 504.
    """
    registry = ModelRegistry()
    entry = registry.register("default", artifact_path)
    contender = entry.contender

    class SlowContender:
        def __getattr__(self, name):
            return getattr(contender, name)

        def predict_known_many(self, pairs):
            time.sleep(0.001)  # finish after the request awaits
            return contender.predict_known_many(pairs)

    object.__setattr__(entry.model, "contender", SlowContender())
    app = ServingApp(
        RegistryModelProvider(registry, "default"),
        config=ServingConfig(
            workers=4, batch_window=0.0, max_batch=1, request_timeout=10.0
        ),
    )
    ids = registry.entry("default").contender.template_ids
    items = [{"primary": a, "mix": [a, b]} for a in ids for b in ids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            app.cache.clear()
            response = asyncio.run(
                _respond_predict_batch(app, _body({"items": items}))
            )
            assert response.status == 200
            answers = json.loads(response.body)["items"]
            assert len(answers) == len(items)
            assert not any(answer["cached"] for answer in answers)
    finally:
        sys.setswitchinterval(interval)
        app.close()


def _http(sock_reader_writer, raw):
    reader, writer = sock_reader_writer
    writer.write(raw)


async def _read_response(reader):
    status_line = await reader.readline()
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def test_serve_connection_keep_alive_and_routing(app):
    async def drive():
        server = await asyncio.start_server(
            lambda r, w: _serve_connection(app, r, w),
            host="127.0.0.1",
            port=0,
        )
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = _body({"primary": 26, "mix": list(MIX)})
            request = (
                b"POST /v1/predict HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            writer.write(request)
            status1, headers1, body1 = await _read_response(reader)

            # Keep-alive: a second request on the same connection, this
            # one a cold endpoint served via the executor.
            writer.write(b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
            status2, headers2, body2 = await _read_response(reader)
            writer.close()
            await writer.wait_closed()

            # A fresh connection with a malformed request line.
            reader3, writer3 = await asyncio.open_connection("127.0.0.1", port)
            writer3.write(b"NONSENSE\r\n\r\n")
            status3, _headers3, body3 = await _read_response(reader3)
            writer3.close()
            await writer3.wait_closed()

            # Batch endpoint through the wire.
            reader4, writer4 = await asyncio.open_connection("127.0.0.1", port)
            batch = _body({"items": [{"primary": 26, "mix": list(MIX)}]})
            writer4.write(
                b"POST /v1/predict-batch HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(batch), batch)
            )
            status4, _headers4, body4 = await _read_response(reader4)
            writer4.close()
            await writer4.wait_closed()
            return (
                (status1, headers1, body1),
                (status2, headers2, body2),
                (status3, body3),
                (status4, body4),
            )
        finally:
            server.close()
            await server.wait_closed()

    first, second, malformed, batch = asyncio.run(drive())
    assert first[0] == 200
    assert first[1]["connection"] == "keep-alive"
    assert json.loads(first[2])["latency"] > 0
    assert second[0] == 200
    assert second[1]["connection"] == "close"
    assert json.loads(second[2])["status"] == "ok"
    assert malformed[0] == 400
    assert json.loads(malformed[1])["type"] == "protocol"
    assert batch[0] == 200
    assert json.loads(batch[1])["items"]


# -- the worker main loop ---------------------------------------------


def _drive_worker(port, actions, delay=0.1):
    """Run *actions* against a live worker, then SIGTERM this process."""
    outcome = {}

    def drive():
        try:
            with PredictionClient("127.0.0.1", port, timeout=10.0) as cli:
                actions(cli, outcome)
        except Exception as exc:  # pragma: no cover - surfaced by assert
            outcome["error"] = exc
        finally:
            time.sleep(delay)
            os.kill(os.getpid(), signal.SIGTERM)

    thread = threading.Thread(target=drive)
    return thread, outcome


def test_worker_async_serves_and_drains_observations(
    published, artifact_path
):
    control, _publish, _model = published
    listen = _new_listen_socket("127.0.0.1", 0, reuseport=False)
    port = listen.getsockname()[1]
    config = ServingConfig(
        host="127.0.0.1", port=port, workers=1, batch_window=0.0
    )
    observe_queues = [queue.Queue(), queue.Queue()]
    ready = queue.Queue()

    def actions(cli, outcome):
        ready.get(timeout=15.0)
        outcome["predict"] = cli.predict(26, MIX)
        outcome["health"] = cli.health()
        # Worker 0 drains every fan-in queue into its own monitor.
        observe_queues[1].put((26, 1.0, 1.2, MIX))
        time.sleep(0.4)
        outcome["stats"] = cli.stats()

    thread, outcome = _drive_worker(port, actions)
    thread.start()
    asyncio.run(
        _worker_async(
            0,
            control.name,
            artifact_path,
            config,
            FAST,
            observe_queues,
            queue.Queue(),
            listen,
            ready,
        )
    )
    thread.join()
    assert "error" not in outcome, outcome.get("error")
    assert outcome["predict"].latency > 0
    assert outcome["health"].status == "ok"
    lifecycle = outcome["stats"]["lifecycle"]
    assert [t["template_id"] for t in lifecycle["templates"]] == [26]
    # The heartbeat stamped this worker's slot in the control block.
    workers = control.workers_doc()["workers"]
    assert any(w["alive"] for w in workers if w["index"] == 0)


def test_worker_async_nonzero_index_enqueues_observations(
    published, artifact_path
):
    control, _publish, _model = published
    # The reuseport path: reserve a port, let the worker bind its own.
    reserve = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    reserve.bind(("127.0.0.1", 0))
    port = reserve.getsockname()[1]
    config = ServingConfig(
        host="127.0.0.1", port=port, workers=1, batch_window=0.0
    )
    observe_queues = [queue.Queue(), queue.Queue()]
    ready = queue.Queue()

    def actions(cli, outcome):
        ready.get(timeout=15.0)
        outcome["observe"] = cli.observe(26, MIX, observed_latency=30.0)

    thread, outcome = _drive_worker(port, actions)
    thread.start()
    try:
        asyncio.run(
            _worker_async(
                1,
                control.name,
                artifact_path,
                config,
                FAST,
                observe_queues,
                queue.Queue(),
                None,
                ready,
            )
        )
    finally:
        reserve.close()
    thread.join()
    assert "error" not in outcome, outcome.get("error")
    # Fan-in: the verdict is asynchronous, the residual is enqueued for
    # worker 0 with the mix attached.
    assert outcome["observe"].verdict is None
    primary, _predicted, observed, mix = observe_queues[1].get_nowait()
    assert (primary, observed, mix) == (26, 30.0, MIX)


# -- the parent process -----------------------------------------------


def test_multiworker_server_refuses_unsupported_platform(
    artifact_path, monkeypatch
):
    import repro.serving.frontend as frontend

    monkeypatch.setattr(
        frontend, "multiworker_supported", lambda: (False, "no fork")
    )
    with pytest.raises(ServingError, match="no fork"):
        MultiWorkerServer(artifact_path)


def test_multiworker_server_packs_and_publishes_before_start(artifact_path):
    config = ServingConfig(port=0, worker_processes=2)
    server = MultiWorkerServer(artifact_path, config)
    try:
        assert server.port > 0
        assert server.worker_count == 2
        state = server.control.read()
        assert state.generation == 1
        assert state.segment
        # Unchanged artifact: no new generation.
        assert server.publish_reload() is False
    finally:
        server.shutdown()
    server.shutdown()  # idempotent


def test_multiworker_publish_reload_flips_generation(
    artifact_path, variant_bytes, tmp_path
):
    path = tmp_path / "model.json"
    path.write_bytes((artifact_path).read_bytes())
    server = MultiWorkerServer(path, ServingConfig(port=0, worker_processes=1))
    try:
        first = server.control.read()
        path.write_bytes(variant_bytes)
        assert server.publish_reload() is True
        flipped = server.control.read()
        assert flipped.generation == first.generation + 1
        assert flipped.fingerprint != first.fingerprint
        # A third publish trims the segment list to two generations.
        path.write_bytes((artifact_path).read_bytes())
        assert server.publish_reload() is True
        assert len(server._segments) == 2
    finally:
        server.shutdown()


def test_multiworker_end_to_end_single_worker(artifact_path):
    config = ServingConfig(port=0, worker_processes=1, batch_window=0.0)
    with MultiWorkerServer(artifact_path, config) as server:
        with PredictionClient(server.host, server.port, timeout=15.0) as cli:
            response = cli.predict(26, MIX)
            assert response.latency > 0
            health = cli.health()
            assert health.status == "ok"
            assert health.workers is not None
            # The worker-side reload answers no-op via the shared path.
            assert cli.reload()["reloaded"] is False


def test_multiworker_start_twice_is_an_error(artifact_path):
    config = ServingConfig(port=0, worker_processes=1)
    with MultiWorkerServer(artifact_path, config) as server:
        with pytest.raises(ServingError, match="already started"):
            server.start()
