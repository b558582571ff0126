"""The prediction server — a long-lived Contender behind HTTP.

Architecture (all stdlib):

* a :class:`~http.server.ThreadingHTTPServer` front end — one thread per
  connection parses requests and blocks on a future;
* a :class:`~repro.serving.app.ServingApp` core owning the
  :class:`~repro.serving.batching.RequestBatcher` (coalesces concurrent
  ``predict`` requests, answers repeats from the
  :class:`~repro.serving.cache.PredictionCache`, and runs **one**
  vectorized model evaluation per unique batch);
* a :class:`~repro.serving.registry.ModelRegistry` holding the active
  artifact, hot-reloadable through ``POST /v1/reload``.

This module is the *single-process* transport; the pre-fork multi-worker
front end lives in :mod:`repro.serving.frontend` and drives the same
:class:`~repro.serving.app.ServingApp` core over shared-memory model
artifacts.  Request semantics — reload consistency, fingerprint-scoped
cache keys, the failure mapping (400 protocol / 422 model / 504 timeout
/ 404 unknown), and the ``/metrics`` exposition — are owned by the app
and therefore identical across transports.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Optional

from ..config import LifecycleConfig, ServingConfig
from ..errors import ProtocolError, ServingError
from ..obs.metrics import Registry
from .app import AppResponse, RegistryModelProvider, ServingApp
from .protocol import parse_content_length
from .registry import ModelRegistry

__all__ = ["DEFAULT_MODEL_NAME", "PredictionServer"]

#: Registry key of the model a single-artifact server serves.
DEFAULT_MODEL_NAME = "default"


class PredictionServer:
    """Serve a registered Contender model over HTTP (one process).

    Args:
        registry: Registry holding at least *model_name*.
        config: Serving knobs; defaults mirror ``ServingConfig()``.
        model_name: Which registered model answers requests.
        metrics: Metric registry to report into.  ``None`` creates a
            private one when ``config.metrics_enabled`` (the default);
            pass a shared registry to merge serving metrics with other
            layers' on a single ``/metrics`` page.

    Use as a context manager, or pair :meth:`start` with
    :meth:`shutdown`::

        with PredictionServer.from_artifact("model.json") as server:
            client = PredictionClient("127.0.0.1", server.port)
            client.predict(26, (26, 65))
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[ServingConfig] = None,
        model_name: str = DEFAULT_MODEL_NAME,
        metrics: Optional[Registry] = None,
        lifecycle: Optional[LifecycleConfig] = None,
    ):
        self._registry = registry
        self._config = config if config is not None else ServingConfig()
        self._model_name = model_name
        self._app = ServingApp(
            RegistryModelProvider(registry, model_name),
            config=self._config,
            metrics=metrics,
            lifecycle=lifecycle,
        )
        self._serve_thread: Optional[threading.Thread] = None
        self._shutdown_lock = threading.Lock()
        self._stopped = False

        app = self._app  # captured by the handler class below

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Small request/response pairs ping-pong on one keep-alive
            # connection; Nagle + delayed ACK would add ~40 ms per round
            # trip.
            disable_nagle_algorithm = True

            def log_message(self, fmt: str, *args: Any) -> None:
                pass  # request logging would swamp load tests

            def _serve(self) -> None:
                try:
                    length = parse_content_length(
                        self.headers.get("Content-Length")
                    )
                except ProtocolError as exc:
                    # The body's extent is unknown: answer, then close.
                    status, doc, _ = app.map_error(exc)
                    _respond(self, AppResponse.from_doc(status, doc), close=True)
                    return
                body = self.rfile.read(length) if length else b""
                response = app.handle(self.command, self.path, body)
                _respond(self, response)

            def do_GET(self) -> None:  # noqa: N802 — http.server API
                self._serve()

            def do_POST(self) -> None:  # noqa: N802 — http.server API
                self._serve()

        self._httpd = ThreadingHTTPServer(
            (self._config.host, self._config.port), Handler
        )
        self._httpd.daemon_threads = True

    # ------------------------------------------------------------------
    # Construction helpers and lifecycle.

    @staticmethod
    def from_artifact(
        path,
        config: Optional[ServingConfig] = None,
        verify: bool = False,
        metrics: Optional[Registry] = None,
        lifecycle: Optional[LifecycleConfig] = None,
    ) -> "PredictionServer":
        """A server over a fresh registry loaded from one artifact."""
        registry = ModelRegistry()
        registry.register(DEFAULT_MODEL_NAME, Path(path), verify=verify)
        return PredictionServer(
            registry, config=config, metrics=metrics, lifecycle=lifecycle
        )

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS's pick)."""
        return self._httpd.server_address[1]

    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    @property
    def app(self) -> ServingApp:
        """The transport-agnostic serving core."""
        return self._app

    @property
    def metrics(self) -> Optional[Registry]:
        """The metric registry, or ``None`` when metrics are disabled."""
        return self._app.metrics

    @property
    def monitor(self):
        """The lifecycle residual monitor, or ``None`` when disabled."""
        return self._app.monitor

    def start(self) -> "PredictionServer":
        """Serve on a background thread; returns immediately."""
        if self._serve_thread is not None:
            raise ServingError("server already started")
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="prediction-server",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`/SIGINT."""
        try:
            self._httpd.serve_forever()
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop accepting connections and drain the worker pool."""
        with self._shutdown_lock:
            if self._stopped:
                return
            self._stopped = True
        self._httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._httpd.server_close()
        self._app.close()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Compatibility shims: the app owns the serving state; tests and
    # tooling that reached into the server keep working.

    @property
    def _cache(self):
        return self._app.cache

    @property
    def _batcher(self):
        return self._app.batcher

    @property
    def _monitor(self):
        return self._app.monitor

    def _predict(self, request):
        return self._app._predict(request)

    def _predict_batch(self, request):
        return self._app._predict_batch(request)


def _respond(
    handler: BaseHTTPRequestHandler, response: AppResponse, close: bool = False
) -> None:
    try:
        handler.send_response(response.status)
        handler.send_header("Content-Type", response.content_type)
        handler.send_header("Content-Length", str(len(response.body)))
        if close:
            handler.send_header("Connection", "close")
        handler.end_headers()
        handler.wfile.write(response.body)
    except (BrokenPipeError, ConnectionResetError):
        pass  # client hung up first; nothing to answer
