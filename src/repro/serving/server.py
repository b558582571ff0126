"""The prediction server — a long-lived Contender behind HTTP.

Architecture (all stdlib):

* one asyncio event loop running the HTTP/1.1 connection handler of the
  multi-worker tier (:func:`repro.serving.frontend._serve_connection`);
* a :class:`~repro.serving.app.ServingApp` core owning the
  :class:`~repro.serving.batching.RequestBatcher` (coalesces concurrent
  ``predict`` requests, answers repeats from the
  :class:`~repro.serving.cache.PredictionCache`, and runs **one**
  vectorized model evaluation per unique batch);
* a :class:`~repro.serving.registry.ModelRegistry` holding the active
  artifact, hot-reloadable through ``POST /v1/reload``.

This is the *in-process* mode of the one HTTP transport; the pre-fork
front end (:mod:`repro.serving.frontend`) runs the same handler in N
processes over shared-memory model artifacts.  Request semantics —
reload consistency, fingerprint-scoped cache keys, the failure mapping
(400 protocol / 422 model / 504 timeout / 404 unknown), and the
``/metrics`` exposition — are therefore identical in both modes.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path
from typing import Optional

from ..config import LifecycleConfig, ServingConfig
from ..errors import ServingError
from ..obs.metrics import Registry
from .app import RegistryModelProvider, ServingApp
from .frontend import _new_listen_socket, _serve_connection
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

    The constructor binds and listens, so :attr:`port` is known (and
    early connections wait in the backlog) before serving starts.  Use
    as a context manager, or pair :meth:`start` with :meth:`shutdown`::

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
        self._app = ServingApp(
            RegistryModelProvider(registry, model_name),
            config=self._config,
            metrics=metrics,
            lifecycle=lifecycle,
        )
        self._sock = _new_listen_socket(
            self._config.host, self._config.port, reuseport=False
        )
        self._address = self._sock.getsockname()[:2]
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

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
        return self._address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS's pick)."""
        return self._address[1]

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

    async def _serve(self) -> None:
        """Accept and serve connections until the stop event is set."""
        stop = asyncio.Event()
        with self._lock:
            if self._stopped:
                return
            self._loop, self._stop = asyncio.get_running_loop(), stop
        self._sock.setblocking(False)
        server = await asyncio.start_server(
            lambda r, w: _serve_connection(self._app, r, w), sock=self._sock
        )
        try:
            await stop.wait()
        finally:
            server.close()
            await server.wait_closed()

    def start(self) -> "PredictionServer":
        """Serve on a background thread; returns immediately."""
        if self._thread is not None:
            raise ServingError("server already started")
        self._thread = threading.Thread(
            target=asyncio.run,
            args=(self._serve(),),
            name="prediction-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`/SIGINT."""
        try:
            asyncio.run(self._serve())
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop accepting connections and drain the batch workers."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            loop, stop = self._loop, self._stop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._sock.close()
        self._app.close()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
