"""The transport-agnostic serving core.

:class:`ServingApp` is everything the prediction service does between a
parsed HTTP request and a response document — the batched/cached predict
path, admission, lifecycle observation, health/stats/reload, metrics,
error mapping — with **no** socket code.  One HTTP transport drives
it, the asyncio connection handler of :mod:`repro.serving.frontend`: the
hot endpoints (``predict``, ``predict-batch``) await batcher futures
without blocking the event loop, and every other endpoint runs
:meth:`ServingApp.handle` on an executor thread.  The transport runs
in-process (:mod:`repro.serving.server`) or in N pre-fork worker
processes, each owning one app over a shared-memory model.

The app reads its model through a :class:`ModelProvider` — a snapshot
interface that hides whether the model lives in a local
:class:`~repro.serving.registry.ModelRegistry` or in shared memory
published by a parent process.  Every batch and every direct operation
takes exactly **one** snapshot and reads the predictor, version, and
fingerprint from it, so a hot reload landing mid-request can never pair
one model's latency with another model's version.  Cache keys carry the
artifact fingerprint and writes carry the cache generation snapshotted
with the model, preserving the registry fence semantics verbatim across
transports and processes.

Coalesced predict batches evaluate with one vectorized
:meth:`~repro.core.contender.Contender.predict_known_many` call per
unique batch — not one scalar ``predict_known`` per key — falling back
to per-key scalar calls only when the batch contains an invalid key (so
one bad request still cannot poison its batchmates).
"""

from __future__ import annotations

import concurrent.futures
import json
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..apps.admission import AdmissionController
from ..config import LifecycleConfig, ServingConfig
from ..core.contender import Contender
from ..errors import ProtocolError, ReproError, ServingError
from ..obs.export import CONTENT_TYPE_LATEST, render_prometheus
from ..obs.metrics import Registry
from .batching import RequestBatcher
from .cache import PredictionCache, mix_signature
from .protocol import (
    AdmitRequest,
    AdmitResponse,
    BatchPredictRequest,
    ExplainRequest,
    ExplainResponse,
    HealthResponse,
    ObserveRequest,
    ObserveResponse,
    PredictNewRequest,
    PredictRequest,
    PredictResponse,
    decode_json,
)
from .registry import ModelRegistry, RegistryEntry

__all__ = [
    "AppResponse",
    "ModelProvider",
    "ModelSnapshot",
    "RegistryModelProvider",
    "ServingApp",
]

CONTENT_TYPE_JSON = "application/json"


@dataclass(frozen=True)
class ModelSnapshot:
    """One coherent read of the serving model.

    Attributes:
        contender: The predictor.
        version: Human-facing version tag of the artifact.
        fingerprint: Content hash scoping cache keys.
        generation: Load count of the model (1 = first load).
    """

    contender: Contender
    version: str
    fingerprint: str
    generation: int


class ModelProvider(Protocol):
    """Where a :class:`ServingApp` reads its model from.

    Implementations must make :meth:`snapshot` cheap (the hot path calls
    it once per batch) and internally consistent: all four snapshot
    fields describe the same model even while a reload is landing.
    A provider that observes a model flip must call the listener
    registered via :meth:`set_swap_listener` *before* returning the new
    snapshot, so the app's cache generation fences in-flight writes.
    """

    def snapshot(self) -> ModelSnapshot: ...

    def reload(self) -> Dict[str, Any]:
        """Serve a ``POST /v1/reload``: pick up a changed artifact."""
        ...

    def set_swap_listener(self, listener: Callable[[], None]) -> None: ...


class RegistryModelProvider:
    """A provider over a local in-process :class:`ModelRegistry`."""

    def __init__(self, registry: ModelRegistry, model_name: str):
        self._registry = registry
        self._model_name = model_name
        self._listener: Optional[Callable[[], None]] = None
        registry.entry(model_name)  # fail fast on an unknown model
        registry.subscribe(self._on_swap)

    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    @property
    def model_name(self) -> str:
        return self._model_name

    def set_swap_listener(self, listener: Callable[[], None]) -> None:
        self._listener = listener

    def _on_swap(self, entry: RegistryEntry) -> None:
        if entry.name != self._model_name:
            return
        if self._listener is not None:
            self._listener()

    def snapshot(self) -> ModelSnapshot:
        entry = self._registry.entry(self._model_name)
        return ModelSnapshot(
            contender=entry.contender,
            version=entry.version,
            fingerprint=entry.model.info.fingerprint,
            generation=entry.generation,
        )

    def reload(self) -> Dict[str, Any]:
        updated = self._registry.maybe_reload(self._model_name)
        version = (
            updated.version
            if updated is not None
            else self._registry.entry(self._model_name).version
        )
        return {"reloaded": updated is not None, "model_version": version}


#: ``json.dumps`` output, but raising ValueError on NaN and infinities.
_STRICT_JSON = json.JSONEncoder(allow_nan=False)


class AppResponse:
    """One finished response: status, content type, encoded body."""

    __slots__ = ("status", "content_type", "body")

    def __init__(self, status: int, content_type: str, body: bytes):
        self.status = status
        self.content_type = content_type
        self.body = body

    @staticmethod
    def from_doc(status: int, doc: Mapping[str, Any]) -> "AppResponse":
        """Encode *doc* as strict JSON.

        A non-finite float (``NaN``/``Infinity`` are not JSON) turns the
        response into a 500 internal error instead of a malformed body.
        """
        try:
            body = _STRICT_JSON.encode(doc)
        except ValueError as exc:
            status = 500
            body = _STRICT_JSON.encode(
                {"error": f"response is not valid JSON: {exc}", "type": "internal"}
            )
        return AppResponse(status, CONTENT_TYPE_JSON, body.encode("utf-8"))


class _ServingInstruments:
    """Server metric families bound to one registry.

    Pull-style gauges read the cache/batcher counter snapshots at
    collection time, so the numbers on ``/metrics`` always agree with
    ``/v1/stats`` instead of being a second, drifting count.
    """

    def __init__(self, registry: Registry, app: "ServingApp"):
        self.requests = registry.counter(
            "serving_requests_total",
            "HTTP requests handled, by endpoint.",
            labels=("endpoint",),
        )
        self.request_seconds = registry.histogram(
            "serving_request_seconds",
            "Server-side request latency in seconds, by endpoint.",
            labels=("endpoint",),
        )
        self.errors = registry.counter(
            "serving_errors_total",
            "Requests that answered an error, by error type.",
            labels=("type",),
        )
        self.in_flight = registry.gauge(
            "serving_requests_in_flight",
            "Requests currently being handled.",
        )
        self.batch_size = registry.histogram(
            "serving_batch_size",
            "Requests absorbed per executed prediction batch.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        self.coalesced = registry.counter(
            "serving_batch_coalesced_total",
            "Requests answered by another request's computation.",
        )
        self.reloads = registry.counter(
            "serving_model_reloads_total",
            "Model swaps observed (hot reloads, promotions, rollbacks).",
        )
        registry.gauge_function(
            "serving_uptime_seconds",
            "Seconds since the server started.",
            lambda: time.monotonic() - app._started,
        )
        registry.gauge_function(
            "serving_model_generation",
            "Load count of the active model (1 = first load).",
            lambda: app._provider.snapshot().generation,
        )
        cache = app._cache
        for attr, help_text in (
            ("hits", "Prediction-cache lookups answered from the cache."),
            ("misses", "Prediction-cache lookups that fell through."),
            ("evictions", "Prediction-cache entries dropped by the LRU bound."),
            ("expirations", "Prediction-cache entries dropped by TTL."),
            ("stale_drops", "Prediction-cache writes fenced by a model flip."),
            ("size", "Prediction-cache entries currently resident."),
            ("generation", "Prediction-cache invalidation epoch."),
        ):
            registry.gauge_function(
                f"serving_cache_{attr}",
                help_text,
                lambda attr=attr: getattr(cache.stats(), attr),
            )
        batcher = app._batcher
        for attr, help_text in (
            ("requests", "Keys submitted to the batcher."),
            ("batches", "Batches executed."),
            ("unique_keys", "Keys actually computed after in-batch dedup."),
            ("largest_batch", "Most requests absorbed by one batch."),
        ):
            registry.gauge_function(
                f"serving_batcher_{attr}",
                help_text,
                lambda attr=attr: getattr(batcher.stats(), attr),
            )


#: ``observe_sink(primary, predicted, observed, mix)`` → ``(verdict_doc,
#: drifted)`` when ingested locally, or ``None`` when queued for
#: asynchronous ingestion elsewhere (the multi-worker fan-in).  The mix
#: rides along so the drift monitor can remember which mixes produced
#: the residuals and hand them to root-cause attribution.
ObserveSink = Callable[
    [int, float, float, Tuple[int, ...]],
    Optional[Tuple[Optional[Dict[str, Any]], bool]],
]


class ServingApp:
    """The serving logic behind every transport.

    Args:
        provider: Where the model comes from.
        config: Serving knobs; defaults mirror ``ServingConfig()``.
        metrics: Metric registry to report into.  ``None`` creates a
            private one when ``config.metrics_enabled`` (the default);
            pass a shared registry to merge serving metrics with other
            layers' on a single ``/metrics`` page.
        lifecycle: Lifecycle knobs for the local residual monitor.
        observe_sink: Overrides where ``/v1/observe`` residuals go; the
            default ingests into this app's own monitor.  Multi-worker
            serving points non-zero workers at a queue drained by
            worker 0.
        worker_info: Optional callable returning a worker-liveness
            document merged into health and stats responses.
    """

    def __init__(
        self,
        provider: ModelProvider,
        config: Optional[ServingConfig] = None,
        metrics: Optional[Registry] = None,
        lifecycle: Optional[LifecycleConfig] = None,
        observe_sink: Optional[ObserveSink] = None,
        worker_info: Optional[Callable[[], Dict[str, Any]]] = None,
    ):
        self._provider = provider
        self._config = config if config is not None else ServingConfig()
        self._cache = PredictionCache(
            max_entries=self._config.cache_entries,
            ttl_seconds=self._config.cache_ttl,
        )
        # Every model flip the provider observes — hot reload, lifecycle
        # promotion, rollback, a new shared-memory generation — bumps
        # the cache generation, dropping resident entries and fencing
        # in-flight batch writes.
        provider.set_swap_listener(self._on_model_swap)
        self._instr: Optional[_ServingInstruments] = None
        self._batcher = RequestBatcher(
            self._compute_batch,
            workers=self._config.workers,
            batch_window=self._config.batch_window,
            max_batch=self._config.max_batch,
            on_batch=self._on_batch,
        )
        if metrics is None and self._config.metrics_enabled:
            metrics = Registry()
        self._metrics = metrics
        if self._metrics is not None:
            self._instr = _ServingInstruments(self._metrics, self)
        self._lifecycle_config = (
            lifecycle if lifecycle is not None else LifecycleConfig()
        )
        self._monitor = None
        if self._lifecycle_config.enabled:
            # Deferred import: repro.lifecycle imports serving.registry,
            # so a top-level import here would be circular.
            from ..lifecycle.monitor import ResidualMonitor

            self._monitor = ResidualMonitor(
                self._lifecycle_config, self._metrics
            )
            # Drifted templates get a blame-attribution root-cause
            # section in /v1/stats; the analyzer (and its catalog) is
            # only built if drift actually latches with observed mixes.
            self._monitor.set_root_cause_analyzer(self._root_cause_analyze)
        self._observe_sink = observe_sink
        self._worker_info = worker_info
        self._counters: Dict[str, int] = {}
        self._counter_lock = threading.Lock()
        # The /v1/explain simulation backend: a TemplateCatalog plus the
        # explain_* instruments, built on first use (catalog construction
        # is too heavy for server startup and most deployments never
        # call the endpoint).
        self._explain_lock = threading.Lock()
        self._explain_backend: Optional[Tuple[Any, Any]] = None
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Wiring accessors.

    @property
    def config(self) -> ServingConfig:
        return self._config

    @property
    def provider(self) -> ModelProvider:
        return self._provider

    @property
    def cache(self) -> PredictionCache:
        return self._cache

    @property
    def batcher(self) -> RequestBatcher:
        return self._batcher

    @property
    def metrics(self) -> Optional[Registry]:
        """The metric registry, or ``None`` when metrics are disabled."""
        return self._metrics

    @property
    def monitor(self):
        """The lifecycle residual monitor, or ``None`` when disabled."""
        return self._monitor

    def close(self) -> None:
        """Drain the batch workers and fail leftover requests."""
        self._batcher.close()

    # ------------------------------------------------------------------
    # The batched prediction path.

    def _on_model_swap(self) -> None:
        """Provider listener: invalidate the cache on any model flip."""
        self._cache.bump_generation()
        if self._instr is not None:
            self._instr.reloads.inc()

    def _on_batch(self, batch_size: int, unique_keys: int) -> None:
        instr = self._instr
        if instr is not None:
            instr.batch_size.observe(batch_size)
            instr.coalesced.inc(batch_size - unique_keys)

    def _compute_batch(
        self, keys: Sequence[Hashable]
    ) -> Mapping[Hashable, Any]:
        """Resolve unique predict keys via the cache, then the model.

        Values are ``(latency, cached, model_version)`` triples; per-key
        model failures become exception values so one bad request cannot
        poison its batchmates.

        The model is snapshotted once for the whole batch — predictor,
        version, and fingerprint all come from the same model even when
        a reload lands mid-batch.  Cache keys carry the fingerprint
        (entries written by this batch are unreachable under any other
        model) and writes carry the cache generation snapshotted
        alongside the model, so a flip that lands mid-batch fences this
        batch's inserts instead of letting them outlive it.

        All cache misses evaluate in **one** vectorized
        ``predict_known_many`` call; the scalar per-key loop only runs
        when that call rejects the batch (some key is invalid), to
        isolate the failure to its own request.
        """
        snap = self._provider.snapshot()
        generation = self._cache.generation
        results: Dict[Hashable, Any] = {}
        misses: List[Hashable] = []
        for key in keys:
            hit = self._cache.get((snap.fingerprint, *key))
            if hit is not None:
                results[key] = (hit, True, snap.version)
            else:
                misses.append(key)
        if not misses:
            return results
        latencies: Optional[List[float]] = None
        try:
            latencies = snap.contender.predict_known_many(
                [(key[1], key[2]) for key in misses]
            )
        except ReproError:
            pass  # fall through to the isolating scalar loop
        if latencies is not None:
            for key, latency in zip(misses, latencies):
                self._cache.put(
                    (snap.fingerprint, *key), latency, generation=generation
                )
                results[key] = (latency, False, snap.version)
            return results
        for key in misses:
            try:
                latency = snap.contender.predict_known(key[1], key[2])
            except ReproError as exc:
                results[key] = exc
                continue
            self._cache.put(
                (snap.fingerprint, *key), latency, generation=generation
            )
            results[key] = (latency, False, snap.version)
        return results

    @staticmethod
    def predict_key(request: PredictRequest) -> Tuple[str, int, Tuple[int, ...]]:
        return ("known", request.primary, mix_signature(request.mix))

    def submit_predict(self, request: PredictRequest) -> concurrent.futures.Future:
        """Enqueue one predict key; the future resolves to its triple."""
        return self._batcher.submit(self.predict_key(request))

    def _await(self, future: concurrent.futures.Future) -> PredictResponse:
        try:
            latency, cached, version = future.result(
                timeout=self._config.request_timeout
            )
        except concurrent.futures.TimeoutError:
            raise ServingError(
                f"prediction timed out after {self._config.request_timeout}s"
            ) from None
        return PredictResponse(
            latency=latency, cached=cached, model_version=version
        )

    def _predict(self, request: PredictRequest) -> PredictResponse:
        return self._await(self.submit_predict(request))

    def batch_fast_path(
        self, request: BatchPredictRequest
    ) -> Tuple[List[Optional[PredictResponse]], List[Tuple[int, concurrent.futures.Future]]]:
        """Resolve a predict batch: cache hits now, misses as futures.

        One model snapshot covers the whole request; hits answer
        directly from the fingerprint-scoped cache (no batcher round
        trip), misses are all submitted before the first is awaited so
        they coalesce into (at most a few) vectorized model batches.
        """
        snap = self._provider.snapshot()
        responses: List[Optional[PredictResponse]] = [None] * len(request.items)
        pending: List[Tuple[int, concurrent.futures.Future]] = []
        for i, item in enumerate(request.items):
            key = self.predict_key(item)
            hit = self._cache.get((snap.fingerprint, *key))
            if hit is not None:
                responses[i] = PredictResponse(
                    latency=hit, cached=True, model_version=snap.version
                )
            else:
                pending.append((i, self._batcher.submit(key)))
        return responses, pending

    # ------------------------------------------------------------------
    # Direct (unbatched) operations.

    def _predict_new(self, request: PredictNewRequest) -> PredictResponse:
        snap = self._provider.snapshot()
        latency = snap.contender.predict_new(
            request.profile, request.mix, spoiler_mode=request.spoiler_mode
        )
        return PredictResponse(
            latency=latency, cached=False, model_version=snap.version
        )

    def _admit(self, request: AdmitRequest) -> AdmitResponse:
        snap = self._provider.snapshot()
        controller = AdmissionController(
            snap.contender,
            sla_factor=(
                request.sla_factor
                if request.sla_factor is not None
                else self._config.sla_factor
            ),
            max_mpl=(
                request.max_mpl
                if request.max_mpl is not None
                else self._config.max_mpl
            ),
        )
        decision = controller.check(request.running, request.candidate)
        return AdmitResponse(
            admitted=decision.admitted,
            candidate=decision.candidate,
            mix_after=decision.mix_after,
            worst_ratio=decision.worst_ratio,
            limiting_template=decision.limiting_template,
            model_version=snap.version,
        )

    def _explain_parts(self) -> Tuple[Any, Any, Any]:
        """``(catalog, instruments, analyzer)`` for explain, lazily."""
        with self._explain_lock:
            if self._explain_backend is None:
                # Deferred import: repro.explain pulls in the sampling
                # and workload layers, which the serving hot path never
                # needs.
                from ..explain.rootcause import RootCauseAnalyzer
                from ..explain.simulate import ExplainInstruments
                from ..workload.catalog import TemplateCatalog

                catalog = TemplateCatalog()
                instruments = (
                    ExplainInstruments(self._metrics)
                    if self._metrics is not None
                    else None
                )
                analyzer = RootCauseAnalyzer(
                    catalog, instruments=instruments
                )
                self._explain_backend = (catalog, instruments, analyzer)
            return self._explain_backend

    def _root_cause_analyze(
        self, template_id: int, mixes: Sequence[Tuple[int, ...]]
    ) -> Dict[str, Any]:
        """Monitor hook: blame analysis for one drifted template."""
        _, _, analyzer = self._explain_parts()
        return analyzer.analyze(template_id, mixes)

    def _explain(self, request: ExplainRequest) -> ExplainResponse:
        """Serve a blame decomposition for one mix.

        The report is computed by simulating the mix with the blame
        recorder attached and cached under the artifact fingerprint with
        the same generation fence as predictions: a model flip landing
        mid-simulation drops this write instead of letting a stale
        explanation outlive the reload.
        """
        from ..explain.simulate import explain_mix

        snap = self._provider.snapshot()
        generation = self._cache.generation
        catalog, instruments, _ = self._explain_parts()
        top_k = (
            request.top_k
            if request.top_k is not None
            else catalog.config.explain.top_k
        )
        key = (snap.fingerprint, "explain", mix_signature(request.mix))
        report_doc = self._cache.get(key)
        cached = report_doc is not None
        if report_doc is None:
            report = explain_mix(
                catalog, request.mix, instruments=instruments
            )
            report_doc = report.to_doc()
            self._cache.put(key, report_doc, generation=generation)
        top = {
            int(entry["template_id"]): tuple(
                sorted(
                    (int(co) for co in entry["rows"]),
                    key=lambda co: (
                        -sum(entry["rows"][str(co)].values()),
                        co,
                    ),
                )[:top_k]
            )
            for entry in report_doc["templates"]
        }
        return ExplainResponse(
            report=report_doc,
            top=top,
            cached=cached,
            model_version=snap.version,
        )

    def ingest_observation(
        self,
        primary: int,
        predicted: float,
        observed: float,
        mix: Optional[Tuple[int, ...]] = None,
    ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """Feed one residual to the local monitor; ``(verdict, drifted)``."""
        if self._monitor is None:
            raise ServingError("lifecycle monitoring is disabled")
        verdict = self._monitor.ingest(primary, predicted, observed, mix=mix)
        drifted = primary in self._monitor.drifted_templates()
        return (verdict.to_doc() if verdict is not None else None, drifted)

    def _observe(self, request: ObserveRequest) -> ObserveResponse:
        """Ingest a ground-truth latency into the drift monitor.

        The server derives its own prediction for the observed key
        through the ordinary batched/cached path, so the residual always
        compares against what the *serving* model would have answered.
        """
        if self._observe_sink is None and self._monitor is None:
            raise ServingError("lifecycle monitoring is disabled")
        prediction = self._predict(
            PredictRequest(primary=request.primary, mix=request.mix)
        )
        if self._observe_sink is not None:
            outcome = self._observe_sink(
                request.primary,
                prediction.latency,
                request.observed_latency,
                request.mix,
            )
        else:
            outcome = self.ingest_observation(
                request.primary,
                prediction.latency,
                request.observed_latency,
                mix=request.mix,
            )
        verdict, drifted = outcome if outcome is not None else (None, False)
        residual = (
            request.observed_latency - prediction.latency
        ) / request.observed_latency
        return ObserveResponse(
            predicted=prediction.latency,
            residual=residual,
            drifted=drifted,
            verdict=verdict,
            model_version=prediction.model_version,
        )

    def _health(self) -> HealthResponse:
        snap = self._provider.snapshot()
        contender = snap.contender
        return HealthResponse(
            status="ok",
            model_version=snap.version,
            template_ids=tuple(contender.template_ids),
            uptime_seconds=time.monotonic() - self._started,
            requests_served=sum(self.counter_snapshot().values()),
            isolated_latencies={
                t: contender.data.profile(t).isolated_latency
                for t in contender.template_ids
            },
            workers=(
                self._worker_info() if self._worker_info is not None else None
            ),
        )

    def _stats(self) -> Dict[str, Any]:
        snap = self._provider.snapshot()
        counters = self.counter_snapshot()
        doc = {
            "model_name": getattr(self._provider, "model_name", "default"),
            "model_version": snap.version,
            "model_generation": snap.generation,
            "uptime_seconds": time.monotonic() - self._started,
            "requests": counters,
            "requests_served": sum(counters.values()),
            "cache": self._cache.stats().as_dict(),
            "batching": self._batcher.stats().as_dict(),
            "metrics_enabled": self._metrics is not None,
        }
        if self._monitor is not None:
            doc["lifecycle"] = self._monitor.snapshot()
        if self._worker_info is not None:
            doc["workers"] = self._worker_info()
        return doc

    def _reload(self) -> Dict[str, Any]:
        # Cache invalidation happens in _on_model_swap (the provider
        # notifies on the swap), so promotions that bypass this endpoint
        # invalidate exactly the same way.
        return self._provider.reload()

    # ------------------------------------------------------------------
    # Request plumbing shared by the transports.

    def counter_snapshot(self) -> Dict[str, int]:
        """Per-endpoint request counts (the worker heartbeat's source)."""
        with self._counter_lock:
            return dict(self._counters)

    def count(self, op: str) -> None:
        with self._counter_lock:
            self._counters[op] = self._counters.get(op, 0) + 1

    def begin_request(self) -> float:
        if self._instr is not None:
            self._instr.in_flight.inc()
        return time.perf_counter()

    def finish_request(
        self, op: str, started: float, error_type: Optional[str]
    ) -> None:
        """Update instruments for one finished request.

        Transports call this BEFORE writing the response bytes: a client
        that has received its response must find the request already
        counted if it scrapes ``/metrics`` next.
        """
        instr = self._instr
        if instr is None:
            return
        instr.in_flight.dec()
        instr.requests.labels(op).inc()
        instr.request_seconds.labels(op).observe(time.perf_counter() - started)
        if error_type is not None:
            instr.errors.labels(error_type).inc()

    @staticmethod
    def map_error(exc: BaseException) -> Tuple[int, Dict[str, Any], str]:
        """``(status, body_doc, error_type)`` for a failed request."""
        if isinstance(exc, ProtocolError):
            return 400, {"error": str(exc), "type": "protocol"}, "protocol"
        if isinstance(exc, ServingError):
            status = 504 if "timed out" in str(exc) else 503
            return status, {"error": str(exc), "type": "serving"}, "serving"
        if isinstance(exc, ReproError):
            return 422, {"error": str(exc), "type": "model"}, "model"
        return 500, {"error": str(exc), "type": "internal"}, "internal"

    def handle(self, verb: str, path: str, body: bytes) -> AppResponse:
        """Serve one non-predict request end to end, blocking."""
        started = self.begin_request()
        op = ["unknown"]
        error_type: Optional[str] = None
        response: Optional[AppResponse] = None
        try:
            try:
                response = self._dispatch(verb, path, body, op)
            except Exception as exc:  # noqa: BLE001 — keep the server alive
                status, doc, error_type = self.map_error(exc)
                response = AppResponse.from_doc(status, doc)
            else:
                if response is None:
                    error_type = "not_found"
                    response = AppResponse.from_doc(
                        404, {"error": "unknown endpoint", "type": "protocol"}
                    )
        finally:
            self.finish_request(op[0], started, error_type)
        return response

    def metrics_payload(self) -> Optional[AppResponse]:
        if self._metrics is None:
            return None
        if self._monitor is not None:
            # Per-template lifecycle gauges are publish-on-read.
            self._monitor.publish()
        return AppResponse(
            200,
            CONTENT_TYPE_LATEST,
            render_prometheus(self._metrics).encode("utf-8"),
        )

    def _dispatch(
        self, verb: str, path: str, body: bytes, op: list
    ) -> Optional[AppResponse]:
        """Execute one request; *op* receives the endpoint label."""
        path = path.rstrip("/")
        route = (verb, path)
        if route == ("GET", "/metrics"):
            payload = self.metrics_payload()
            if payload is not None:
                op[0] = "metrics"
                return payload
            return None
        if route == ("GET", "/v1/health"):
            op[0] = "health"
            self.count("health")
            return AppResponse.from_doc(200, self._health().to_doc())
        if route == ("GET", "/v1/stats"):
            op[0] = "stats"
            self.count("stats")
            return AppResponse.from_doc(200, self._stats())
        if route == ("POST", "/v1/reload"):
            op[0] = "reload"
            self.count("reload")
            return AppResponse.from_doc(200, self._reload())
        if verb != "POST" or path not in (
            "/v1/predict-new",
            "/v1/admit",
            "/v1/observe",
            "/v1/explain",
        ):
            return None
        doc = decode_json(body)
        if path == "/v1/predict-new":
            op[0] = "predict_new"
            self.count("predict_new")
            return AppResponse.from_doc(
                200, self._predict_new(PredictNewRequest.from_doc(doc)).to_doc()
            )
        if path == "/v1/observe":
            op[0] = "observe"
            self.count("observe")
            return AppResponse.from_doc(
                200, self._observe(ObserveRequest.from_doc(doc)).to_doc()
            )
        if path == "/v1/explain":
            op[0] = "explain"
            self.count("explain")
            return AppResponse.from_doc(
                200, self._explain(ExplainRequest.from_doc(doc)).to_doc()
            )
        op[0] = "admit"
        self.count("admit")
        return AppResponse.from_doc(
            200, self._admit(AdmitRequest.from_doc(doc)).to_doc()
        )
