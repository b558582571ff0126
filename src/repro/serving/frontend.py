"""The HTTP transport and its pre-fork multi-worker mode.

:class:`MultiWorkerServer` forks N worker processes that accept on a
shared port and serve the same :class:`~repro.serving.app.ServingApp`
core, through the same connection handler, as the in-process server:

* **Sockets** — each worker opens its own listening socket with
  ``SO_REUSEPORT`` (the kernel load-balances connections across the
  group; the parent holds a bound, non-listening reservation socket so
  ``port=0`` resolves once).  Platforms without ``SO_REUSEPORT`` fall
  back to one listener created by the parent and inherited through
  ``fork``, where the workers share an accept queue instead.
* **Model** — the parent packs the artifact into a shared-memory
  segment (:func:`~repro.serving.shm.pack_model`) and publishes its name
  through the seqlock control block; workers map it read-only via
  :class:`SharedModelProvider`, so N workers serve one copy of the
  numpy payload.  ``POST /v1/reload`` re-reads the artifact in the
  receiving worker, and — when the fingerprint differs from the
  published one — asks the parent (over a queue) to pack and publish a
  new generation; the worker answers once the flip is visible.  The
  parent unlinks generation ``n-2`` on each publish, keeping at most two
  generations alive for stragglers mid-batch.
* **Consistency** — a worker polls the published generation at every
  model snapshot (once per batch / direct operation); on a flip it
  attaches the new segment and bumps its local cache generation, which
  drops resident entries and fences in-flight writes.  Cache keys stay
  fingerprint-scoped.  The invariant the reload e2e test hammers —
  *every response's prediction comes from the model named by its
  ``model_version``* — holds because all per-request reads come from one
  :class:`~repro.serving.app.ModelSnapshot`.
* **Inside a worker** — an asyncio event loop parses HTTP/1.1
  keep-alive requests with no per-connection thread; the hot endpoints
  (``predict``, ``predict-batch``) await batcher futures on the loop,
  everything else delegates to the app's synchronous handler on a small
  executor.  Coalesced batches evaluate with one vectorized model pass
  (see :meth:`ServingApp._compute_batch`).
* **Observability** — ``POST /v1/observe`` residuals funnel to a single
  lifecycle monitor: every worker enqueues onto its own
  ``multiprocessing.Queue`` and worker 0 drains all queues into its
  :class:`~repro.lifecycle.monitor.ResidualMonitor` (fan-in responses
  report ``verdict: null`` — ingestion is asynchronous).  Workers stamp
  per-slot heartbeats into the control block, surfaced by
  ``/v1/health`` and ``repro stats`` on every worker.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import multiprocessing
import os
import queue as queue_mod
import signal
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import LifecycleConfig, ServingConfig
from ..errors import ProtocolError, ServingError
from .app import AppResponse, ModelSnapshot, ServingApp
from .protocol import (
    BatchPredictRequest,
    PredictRequest,
    PredictResponse,
    decode_json,
    parse_content_length,
)
from .registry import load_artifact
from .shm import AttachedModel, ControlBlock, attach_model, pack_model

__all__ = [
    "MultiWorkerServer",
    "SharedModelProvider",
    "multiworker_supported",
]

#: Seconds between worker heartbeat stamps.
_HEARTBEAT_INTERVAL = 1.0
#: Seconds between worker-0 drains of the observe fan-in queues.
_OBSERVE_DRAIN_INTERVAL = 0.1
#: Most header lines one request may carry (``http.server``'s cap).
_MAX_HEADERS = 100

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    414: "URI Too Long",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def multiworker_supported() -> Tuple[bool, str]:
    """Whether this platform can run the pre-fork front end.

    Returns ``(supported, reason)``; *reason* explains a ``False`` (the
    CLI prints it before falling back to the in-process server).
    """
    if not hasattr(os, "fork"):
        return False, "platform has no fork()"
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False, "multiprocessing lacks the fork start method"
    return True, ""


def _reuseport_available() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


def _new_listen_socket(host: str, port: int, reuseport: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(128)
    except BaseException:
        sock.close()
        raise
    return sock


# ----------------------------------------------------------------------
# Worker-side model provider.


class SharedModelProvider:
    """A :class:`~repro.serving.app.ModelProvider` over shared memory.

    Every :meth:`snapshot` compares the control block's published
    generation with the locally attached one; on a flip it attaches the
    new segment, notifies the swap listener (the app's cache-generation
    fence), and only then serves the new model — so a batch that
    snapshotted before the flip keeps computing against the old mapping
    and its cache writes are fenced, while the next batch runs the new
    model under the new fingerprint.

    Displaced attachments are kept until they are two generations stale
    before closing: another thread may still be mid-batch on one.
    """

    def __init__(
        self,
        control: ControlBlock,
        artifact_path: Path,
        reload_queue: Optional[Any] = None,
        reload_timeout: float = 10.0,
    ):
        self._control = control
        self._artifact_path = Path(artifact_path)
        self._reload_queue = reload_queue
        self._reload_timeout = reload_timeout
        self._lock = threading.Lock()
        self._listener = None
        self._graveyard: List[AttachedModel] = []
        self._attached = self._attach_current()

    def _attach_current(self) -> AttachedModel:
        while True:
            state = self._control.read()
            if not state.segment:
                raise ServingError("no model generation published yet")
            try:
                return attach_model(state.segment)
            except ServingError:
                # The segment was superseded between read and attach;
                # re-read — the parent keeps the latest two alive.
                time.sleep(0.001)

    def set_swap_listener(self, listener) -> None:
        self._listener = listener

    @property
    def model_name(self) -> str:
        return "default"

    def snapshot(self) -> ModelSnapshot:
        published = self._control.generation()
        attached = self._attached
        if published != attached.generation:
            with self._lock:
                if self._attached.generation != published:
                    fresh = self._attach_current()
                    if fresh.generation != self._attached.generation:
                        self._graveyard.append(self._attached)
                        self._attached = fresh
                        if self._listener is not None:
                            self._listener()
                        self._reap(fresh.generation)
                    else:
                        fresh.close()
            attached = self._attached
        info = attached.model.info
        return ModelSnapshot(
            contender=attached.model.contender,
            version=info.version,
            fingerprint=info.fingerprint,
            generation=attached.generation,
        )

    def _reap(self, current_generation: int) -> None:
        keep: List[AttachedModel] = []
        for old in self._graveyard:
            if old.generation <= current_generation - 2:
                old.close()
            else:
                keep.append(old)
        self._graveyard = keep

    def reload(self) -> Dict[str, Any]:
        """Serve ``POST /v1/reload`` from inside a worker.

        The worker re-reads the artifact itself to decide whether
        anything changed (same fingerprint → no-op, no parent round
        trip), then asks the parent to pack and publish the new
        generation and waits for the flip to become visible.
        """
        state = self._control.read()
        model = load_artifact(self._artifact_path)
        if model.info.fingerprint == state.fingerprint:
            return {"reloaded": False, "model_version": state.version}
        if self._reload_queue is None:
            raise ServingError("reload publishing is not wired")
        self._reload_queue.put(("reload", os.getpid()))
        deadline = time.monotonic() + self._reload_timeout
        while time.monotonic() < deadline:
            state = self._control.read()
            if state.fingerprint == model.info.fingerprint:
                self.snapshot()  # adopt the new generation eagerly
                return {"reloaded": True, "model_version": state.version}
            time.sleep(0.01)
        raise ServingError(
            f"reload timed out after {self._reload_timeout}s"
        )

    def close(self) -> None:
        with self._lock:
            for old in self._graveyard:
                old.close()
            self._graveyard = []
            self._attached.close()


# ----------------------------------------------------------------------
# Worker process: asyncio HTTP front end over the ServingApp core.


def _render(response: AppResponse, keep_alive: bool) -> bytes:
    reason = _STATUS_TEXT.get(response.status, "Error")
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + response.body


def _settle(waiter: asyncio.Future, timeout: Optional[float]) -> None:
    """Resolve *waiter*, or fail it as timed out (504) after *timeout*."""
    if waiter.done():
        return
    if timeout is None:
        waiter.set_result(None)
    else:
        waiter.set_exception(
            ServingError(f"prediction timed out after {timeout}s")
        )


async def _await_all(
    app: ServingApp, futures: Sequence[concurrent.futures.Future]
) -> None:
    """Wait for every batcher future with one await and no Task.

    The last future to finish resolves one loop future, which a timer
    fails after ``request_timeout``; each ``future.result()`` is then
    ready to read.
    """
    loop = asyncio.get_running_loop()
    waiter = loop.create_future()
    remaining = [len(futures)]
    lock = threading.Lock()

    def finished(_future: concurrent.futures.Future) -> None:
        with lock:
            remaining[0] -= 1
            if remaining[0]:
                return
        if not loop.is_closed():  # closed: the request was abandoned
            loop.call_soon_threadsafe(_settle, waiter, None)

    for future in futures:
        future.add_done_callback(finished)
    timeout = app.config.request_timeout
    timer = loop.call_later(timeout, _settle, waiter, timeout)
    try:
        await waiter
    finally:
        timer.cancel()


async def _respond_predict(app: ServingApp, body: bytes) -> AppResponse:
    """The async hot path for ``POST /v1/predict``."""
    started = app.begin_request()
    error_type: Optional[str] = None
    try:
        request = PredictRequest.from_doc(decode_json(body))
        app.count("predict")
        future = app.submit_predict(request)
        await _await_all(app, (future,))
        latency, cached, version = future.result()
        response = AppResponse.from_doc(
            200,
            PredictResponse(
                latency=latency, cached=cached, model_version=version
            ).to_doc(),
        )
    except Exception as exc:  # noqa: BLE001 — keep the worker alive
        status, doc, error_type = app.map_error(exc)
        response = AppResponse.from_doc(status, doc)
    finally:
        app.finish_request("predict", started, error_type)
    return response


async def _respond_predict_batch(app: ServingApp, body: bytes) -> AppResponse:
    """The async hot path for ``POST /v1/predict-batch``.

    Cache hits answer inline from the fingerprint-scoped cache; all
    misses are submitted before the one await, so they coalesce into
    (at most a few) vectorized model batches.
    """
    started = app.begin_request()
    error_type: Optional[str] = None
    try:
        request = BatchPredictRequest.from_doc(decode_json(body))
        app.count("predict_batch")
        responses, pending = app.batch_fast_path(request)
        if pending:
            await _await_all(app, [future for _, future in pending])
        for i, future in pending:
            latency, cached, version = future.result()
            responses[i] = PredictResponse(
                latency=latency, cached=cached, model_version=version
            )
        doc = {"items": [r.to_doc() for r in responses]}
        response = AppResponse.from_doc(200, doc)
    except Exception as exc:  # noqa: BLE001 — keep the worker alive
        status, doc, error_type = app.map_error(exc)
        response = AppResponse.from_doc(status, doc)
    finally:
        app.finish_request("predict_batch", started, error_type)
    return response


async def _reject(
    writer: asyncio.StreamWriter, message: str, status: int = 400
) -> None:
    """Answer an unparseable request; the caller closes."""
    response = AppResponse.from_doc(
        status, {"error": message, "type": "protocol"}
    )
    writer.write(_render(response, keep_alive=False))
    await writer.drain()


async def _serve_connection(
    app: ServingApp, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    loop = asyncio.get_running_loop()
    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # longer than the reader's limit
                await _reject(writer, "request line too long", 414)
                break
            if not line or line in (b"\r\n", b"\n"):
                break
            try:
                method, path, _version = (
                    line.decode("latin-1").rstrip("\r\n").split(" ", 2)
                )
            except ValueError:
                await _reject(writer, "malformed request line")
                break
            headers: Dict[str, str] = {}
            try:
                for _ in range(_MAX_HEADERS + 1):
                    header = await reader.readline()
                    if not header or header in (b"\r\n", b"\n"):
                        break
                    name, _, value = header.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                else:
                    raise ValueError(f"more than {_MAX_HEADERS} lines")
            except ValueError as exc:  # or one longer than the limit
                await _reject(writer, f"header fields too large: {exc}", 431)
                break
            try:
                length = parse_content_length(headers.get("content-length"))
            except ProtocolError as exc:
                # The body's extent is unknown: answer, then close.
                await _reject(writer, str(exc))
                break
            body = await reader.readexactly(length) if length else b""
            keep_alive = headers.get("connection", "").lower() != "close"

            stripped = path.rstrip("/")
            if method == "POST" and stripped == "/v1/predict":
                response = await _respond_predict(app, body)
            elif method == "POST" and stripped == "/v1/predict-batch":
                response = await _respond_predict_batch(app, body)
            else:
                # Cold endpoints reuse the synchronous handler off-loop:
                # identical routing, instrumentation, and error mapping.
                response = await loop.run_in_executor(
                    None, app.handle, method, path, body
                )
            writer.write(_render(response, keep_alive))
            await writer.drain()
            if not keep_alive:
                break
    except (
        asyncio.IncompleteReadError,
        ConnectionResetError,
        BrokenPipeError,
        TimeoutError,
    ):
        pass  # client hung up; nothing to answer
    except asyncio.CancelledError:
        # The loop is shutting down with this connection open.  End the
        # task normally: Python 3.11's start_server done-callback calls
        # task.exception() on a cancelled task and logs a traceback.
        pass
    finally:
        writer.close()


async def _worker_async(
    index: int,
    control_name: str,
    artifact_path: Path,
    config: ServingConfig,
    lifecycle: Optional[LifecycleConfig],
    observe_queues: List[Any],
    reload_queue: Any,
    listen_sock: Optional[socket.socket],
    ready_queue: Any,
) -> None:
    control = ControlBlock.attach(control_name)
    provider = SharedModelProvider(
        control,
        artifact_path,
        reload_queue=reload_queue,
        reload_timeout=config.request_timeout,
    )
    lifecycle_cfg = lifecycle if lifecycle is not None else LifecycleConfig()
    observe_sink = None
    if index != 0 and lifecycle_cfg.enabled:
        my_queue = observe_queues[index]

        def observe_sink(
            primary: int, predicted: float, observed: float, mix
        ):
            # Fan-in: enqueue for worker 0's monitor; the verdict is not
            # known synchronously, so the response reports null.
            my_queue.put((primary, predicted, observed, tuple(mix)))
            return None

    app = ServingApp(
        provider,
        config=config,
        lifecycle=lifecycle,
        observe_sink=observe_sink,
        worker_info=control.workers_doc,
    )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass

    if listen_sock is None:
        sock = _new_listen_socket(config.host, config.port, reuseport=True)
    else:
        sock = listen_sock
        sock.setblocking(False)
    server = await asyncio.start_server(
        lambda r, w: _serve_connection(app, r, w), sock=sock
    )

    async def heartbeat() -> None:
        while True:
            counters = app.counter_snapshot()
            control.heartbeat(
                index,
                requests=sum(counters.values()),
                predictions=(
                    counters.get("predict", 0)
                    + counters.get("predict_batch", 0)
                ),
            )
            await asyncio.sleep(_HEARTBEAT_INTERVAL)

    async def drain_observations() -> None:
        while True:
            for q in observe_queues:
                while True:
                    try:
                        primary, predicted, observed, mix = q.get_nowait()
                    except queue_mod.Empty:
                        break
                    except (EOFError, OSError):
                        return
                    try:
                        app.ingest_observation(
                            primary, predicted, observed, mix=mix
                        )
                    except Exception:  # noqa: BLE001 — never kill the drain
                        pass
            await asyncio.sleep(_OBSERVE_DRAIN_INTERVAL)

    tasks = [asyncio.ensure_future(heartbeat())]
    if index == 0 and lifecycle_cfg.enabled:
        tasks.append(asyncio.ensure_future(drain_observations()))

    # Stamp the slot before reporting ready: a /v1/health answered in
    # between must not count this worker as dead (pid 0).
    control.heartbeat(index, requests=0, predictions=0)
    ready_queue.put(("ready", index, os.getpid()))
    try:
        await stop.wait()
    finally:
        for task in tasks:
            task.cancel()
        server.close()
        await server.wait_closed()
        app.close()
        provider.close()
        control.close()


def _worker_entry(
    index: int,
    control_name: str,
    artifact_path: Path,
    config: ServingConfig,
    lifecycle: Optional[LifecycleConfig],
    observe_queues: List[Any],
    reload_queue: Any,
    listen_sock: Optional[socket.socket],
    ready_queue: Any,
) -> None:
    try:
        asyncio.run(
            _worker_async(
                index,
                control_name,
                artifact_path,
                config,
                lifecycle,
                observe_queues,
                reload_queue,
                listen_sock,
                ready_queue,
            )
        )
    except KeyboardInterrupt:
        pass


# ----------------------------------------------------------------------
# The parent process.


class MultiWorkerServer:
    """N pre-fork asyncio workers serving one shared-memory model.

    Args:
        artifact_path: The model artifact to serve.
        config: Serving knobs; ``config.worker_processes`` sets N.
        lifecycle: Lifecycle knobs for worker 0's residual monitor.
        verify: Refit-verify the artifact before serving.

    Use as a context manager, or pair :meth:`start` with
    :meth:`shutdown`::

        config = ServingConfig(port=0, worker_processes=4)
        with MultiWorkerServer("model.json", config) as server:
            client = PredictionClient("127.0.0.1", server.port)
    """

    def __init__(
        self,
        artifact_path,
        config: Optional[ServingConfig] = None,
        lifecycle: Optional[LifecycleConfig] = None,
        verify: bool = False,
    ):
        supported, reason = multiworker_supported()
        if not supported:
            raise ServingError(f"multi-worker serving unavailable: {reason}")
        self._artifact_path = Path(artifact_path)
        self._config = config if config is not None else ServingConfig()
        self._lifecycle = lifecycle
        self._workers = self._config.worker_processes
        self._ctx = multiprocessing.get_context("fork")
        self._reuseport = _reuseport_available()

        # Load + pack generation 1 before forking anything: a broken
        # artifact fails fast in the parent.
        model = load_artifact(self._artifact_path, verify=verify)
        self._control = ControlBlock.create(self._workers)
        self._segments: List[Tuple[int, Any]] = []  # (generation, handle)
        packed, segment = pack_model(model, generation=1)
        self._segments.append((1, segment))
        self._control.publish(
            generation=1,
            segment=packed.name,
            fingerprint=packed.fingerprint,
            version=packed.version,
        )
        self._published_fingerprint = packed.fingerprint

        # Port resolution: bind once in the parent so port=0 resolves to
        # one pick every worker shares.  With SO_REUSEPORT the parent's
        # socket never listens (TCP lookup only considers listeners), it
        # just reserves the port; without it, the parent's socket IS the
        # listener and workers inherit it through fork.
        if self._reuseport:
            self._reserve_sock = self._reserved_socket()
        else:
            self._reserve_sock = _new_listen_socket(
                self._config.host, self._config.port, reuseport=False
            )
        self._port = self._reserve_sock.getsockname()[1]

        self._observe_queues = [self._ctx.Queue() for _ in range(self._workers)]
        self._reload_queue = self._ctx.Queue()
        self._ready_queue = self._ctx.Queue()
        self._processes: List[Any] = []
        self._publish_lock = threading.Lock()
        self._reload_thread: Optional[threading.Thread] = None
        self._stop_reload = threading.Event()
        self._started = False
        self._stopped = False

    def _reserved_socket(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self._config.host, self._config.port))
        except BaseException:
            sock.close()
            raise
        return sock

    # -- lifecycle -------------------------------------------------------

    @property
    def host(self) -> str:
        return self._config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the parent's pick)."""
        return self._port

    @property
    def worker_count(self) -> int:
        return self._workers

    @property
    def control(self) -> ControlBlock:
        return self._control

    def start(self, ready_timeout: float = 30.0) -> "MultiWorkerServer":
        """Fork the workers and wait until every one is accepting."""
        if self._started:
            raise ServingError("server already started")
        self._started = True
        worker_config = self._config
        if self._config.port == 0:
            # Workers bind the resolved port, not another ephemeral one.
            worker_config = replace(self._config, port=self._port)
        listen_sock = None if self._reuseport else self._reserve_sock
        for index in range(self._workers):
            process = self._ctx.Process(
                target=_worker_entry,
                args=(
                    index,
                    self._control.name,
                    self._artifact_path,
                    worker_config,
                    self._lifecycle,
                    self._observe_queues,
                    self._reload_queue,
                    listen_sock,
                    self._ready_queue,
                ),
                daemon=True,
                name=f"serve-worker-{index}",
            )
            process.start()
            self._processes.append(process)
        ready = set()
        deadline = time.monotonic() + ready_timeout
        while len(ready) < self._workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.shutdown()
                raise ServingError(
                    f"workers not ready after {ready_timeout}s "
                    f"({len(ready)}/{self._workers})"
                )
            try:
                _tag, index, _pid = self._ready_queue.get(timeout=remaining)
            except queue_mod.Empty:
                continue
            ready.add(index)
        self._reload_thread = threading.Thread(
            target=self._reload_loop, name="reload-publisher", daemon=True
        )
        self._reload_thread.start()
        return self

    def serve_forever(self) -> None:
        """Start (if needed) and block until interrupted.

        A SIGTERM delivered to the parent alone (``docker stop``,
        systemd) must still tear down the worker processes and unlink
        the shared-memory segments, so route it through the same
        ``finally: shutdown()`` path as Ctrl-C.
        """
        if not self._started:
            self.start()

        def _terminate(_signum, _frame):
            raise KeyboardInterrupt

        previous = None
        if threading.current_thread() is threading.main_thread():
            previous = signal.signal(signal.SIGTERM, _terminate)
        try:
            for process in self._processes:
                process.join()
        except KeyboardInterrupt:
            pass
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
            self.shutdown()

    def __enter__(self) -> "MultiWorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- hot reload publishing -------------------------------------------

    def _reload_loop(self) -> None:
        while not self._stop_reload.is_set():
            try:
                self._reload_queue.get(timeout=0.2)
            except queue_mod.Empty:
                continue
            except (EOFError, OSError):
                return
            try:
                self.publish_reload()
            except Exception:  # noqa: BLE001 — a bad artifact must not
                pass  # kill the publisher; the worker's wait times out

    def publish_reload(self) -> bool:
        """Re-read the artifact; publish a new generation if it changed."""
        with self._publish_lock:
            model = load_artifact(self._artifact_path)
            if model.info.fingerprint == self._published_fingerprint:
                return False
            generation = self._segments[-1][0] + 1
            packed, segment = pack_model(model, generation=generation)
            self._segments.append((generation, segment))
            previous = self._control.read().segment
            self._control.publish(
                generation=generation,
                segment=packed.name,
                fingerprint=packed.fingerprint,
                version=packed.version,
                previous_segment=previous,
            )
            self._published_fingerprint = packed.fingerprint
            # Keep the current and previous generations alive for
            # stragglers mid-batch; unlink everything older.
            while len(self._segments) > 2:
                _gen, old = self._segments.pop(0)
                old.close()
                old.unlink()
            return True

    # -- teardown --------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the workers and release every shared-memory segment."""
        if self._stopped:
            return
        self._stopped = True
        self._stop_reload.set()
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        if self._reload_thread is not None:
            self._reload_thread.join(timeout=2.0)
        try:
            self._reserve_sock.close()
        except OSError:
            pass
        for q in (*self._observe_queues, self._reload_queue, self._ready_queue):
            q.close()
            q.join_thread()
        for _gen, segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments = []
        self._control.close()
        self._control.unlink()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            if not getattr(self, "_stopped", True):
                self.shutdown()
        except Exception:  # noqa: BLE001
            pass
