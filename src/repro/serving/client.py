"""Client side of the prediction service: RPC wrapper and load generator.

:class:`PredictionClient` is a thin, blocking JSON-over-HTTP client for
one server (``http.client`` only).  It is thread-safe: each calling
thread gets its own persistent keep-alive connection
(``threading.local`` storage), so one client instance can be shared
across a thread pool with no locking on the request path.

:class:`RemotePredictionBackend` adapts a client to the
:class:`~repro.apps.admission.PredictionBackend` interface so the same
:class:`~repro.apps.admission.AdmissionController` policy code runs
against an in-process Contender or a remote server unchanged.

:class:`LoadGenerator` drives a server with N concurrent submitters over
a fixed workload and reports client-observed p50/p99 latency and QPS.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.contender import SpoilerMode
from ..core.training import TemplateProfile
from ..errors import ModelError, ProtocolError, ServingError
from ..metrics.quantiles import percentile
from .protocol import (
    AdmitRequest,
    AdmitResponse,
    BatchPredictRequest,
    BatchPredictResponse,
    ExplainRequest,
    ExplainResponse,
    HealthResponse,
    ObserveRequest,
    ObserveResponse,
    PredictNewRequest,
    PredictRequest,
    PredictResponse,
)

__all__ = [
    "LoadGenerator",
    "LoadReport",
    "PredictionClient",
    "RemotePredictionBackend",
    "mix_pool_workload",
]

#: Exception class per server-reported error type.
_ERROR_TYPES = {
    "protocol": ProtocolError,
    "model": ModelError,
    "serving": ServingError,
}


class PredictionClient:
    """Blocking, thread-safe client for one prediction server.

    Each calling thread keeps its own persistent keep-alive connection
    in thread-local storage, so concurrent threads never serialize on a
    shared socket (or interleave each other's responses).

    Args:
        host: Server host.
        port: Server port.
        timeout: Socket timeout per request, seconds.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._local = threading.local()
        self._conns: List[http.client.HTTPConnection] = []
        self._conns_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Transport.

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
            conn.connect()
            # Mirror the server: without TCP_NODELAY each keep-alive
            # round trip stalls on Nagle + delayed ACK (~40 ms).
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    def _drop_connection(self) -> None:
        """Discard this thread's connection (dropped keep-alive)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            with self._conns_lock:
                try:
                    self._conns.remove(conn)
                except ValueError:
                    pass
            conn.close()

    def close(self) -> None:
        """Close every connection this client opened, on any thread.

        Threads still holding a thread-local reference reconnect
        transparently on their next request.
        """
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()
        self._local.conn = None

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _raw_request(
        self, verb: str, path: str, doc: Optional[dict] = None
    ) -> Tuple[int, bytes]:
        """One HTTP round trip; returns ``(status, body)`` unparsed."""
        body = json.dumps(doc).encode("utf-8") if doc is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (1, 2):
            try:
                conn = self._connection()
                conn.request(verb, path, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                # A dropped keep-alive connection is retried once on a
                # fresh socket; a dead server surfaces on the retry.
                self._drop_connection()
                if attempt == 2:
                    raise ServingError(
                        f"request to {self._host}:{self._port}{path} failed: {exc}"
                    ) from exc
        return response.status, payload

    def _request(self, verb: str, path: str, doc: Optional[dict] = None) -> dict:
        status, payload = self._raw_request(verb, path, doc)
        try:
            answer = json.loads(payload.decode("utf-8"))
        except ValueError as exc:
            raise ProtocolError(
                f"server returned invalid JSON for {path}: {exc}"
            ) from exc
        if status != 200:
            error_cls = _ERROR_TYPES.get(answer.get("type"), ServingError)
            raise error_cls(answer.get("error", f"HTTP {status}"))
        return answer

    # ------------------------------------------------------------------
    # Operations.

    def predict(self, primary: int, mix: Sequence[int]) -> PredictResponse:
        """Served latency of known template *primary* in *mix*."""
        request = PredictRequest(primary=primary, mix=tuple(mix))
        return PredictResponse.from_doc(
            self._request("POST", "/v1/predict", request.to_doc())
        )

    def predict_batch(
        self, items: Sequence[PredictRequest]
    ) -> BatchPredictResponse:
        """Many known-template predictions in one round trip.

        The server submits every item to its batcher before gathering,
        so the whole list coalesces into one batched model evaluation.
        """
        request = BatchPredictRequest(items=tuple(items))
        return BatchPredictResponse.from_doc(
            self._request("POST", "/v1/predict-batch", request.to_doc())
        )

    def predict_new(
        self,
        profile: TemplateProfile,
        mix: Sequence[int],
        spoiler_mode: SpoilerMode = SpoilerMode.KNN,
    ) -> PredictResponse:
        """Served latency of a never-sampled template (Fig. 5 pipeline)."""
        request = PredictNewRequest(
            profile=profile, mix=tuple(mix), spoiler_mode=spoiler_mode
        )
        return PredictResponse.from_doc(
            self._request("POST", "/v1/predict-new", request.to_doc())
        )

    def admit(
        self,
        running: Sequence[int],
        candidate: int,
        sla_factor: Optional[float] = None,
        max_mpl: Optional[int] = None,
    ) -> AdmitResponse:
        """Served admission decision for *candidate* joining *running*."""
        request = AdmitRequest(
            running=tuple(running),
            candidate=candidate,
            sla_factor=sla_factor,
            max_mpl=max_mpl,
        )
        return AdmitResponse.from_doc(
            self._request("POST", "/v1/admit", request.to_doc())
        )

    def observe(
        self, primary: int, mix: Sequence[int], observed_latency: float
    ) -> ObserveResponse:
        """Report a measured latency; feeds the server's drift monitor."""
        request = ObserveRequest(
            primary=primary,
            mix=tuple(mix),
            observed_latency=observed_latency,
        )
        return ObserveResponse.from_doc(
            self._request("POST", "/v1/observe", request.to_doc())
        )

    def explain(
        self, mix: Sequence[int], top_k: Optional[int] = None
    ) -> ExplainResponse:
        """Served blame decomposition: who slows whom down in *mix*."""
        request = ExplainRequest(mix=tuple(mix), top_k=top_k)
        return ExplainResponse.from_doc(
            self._request("POST", "/v1/explain", request.to_doc())
        )

    def health(self) -> HealthResponse:
        return HealthResponse.from_doc(self._request("GET", "/v1/health"))

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def metrics_text(self) -> str:
        """The server's ``/metrics`` page (Prometheus text format).

        Raises :class:`~repro.errors.ServingError` when the server runs
        with metrics disabled (the endpoint answers 404).
        """
        status, payload = self._raw_request("GET", "/metrics")
        if status != 200:
            raise ServingError(
                f"/metrics answered HTTP {status} — is the server running "
                "with metrics_enabled?"
            )
        return payload.decode("utf-8")

    def reload(self) -> dict:
        return self._request("POST", "/v1/reload")


class RemotePredictionBackend:
    """Admission-control backend answered by a remote server.

    Satisfies :class:`~repro.apps.admission.PredictionBackend`, so
    ``AdmissionController(RemotePredictionBackend(client))`` runs the
    identical policy the embedded controller runs.

    Isolated latencies ship once in the health response and are cached
    here; predictions go over the wire per mix.
    """

    def __init__(self, client: PredictionClient):
        self._client = client
        self._isolated: Optional[Dict[int, float]] = None
        self._lock = threading.Lock()

    def _isolated_map(self) -> Dict[int, float]:
        with self._lock:
            if self._isolated is None:
                self._isolated = dict(self._client.health().isolated_latencies)
            return self._isolated

    def predict_known(self, primary: int, mix: Sequence[int]) -> float:
        return self._client.predict(primary, mix).latency

    def predict_mix(self, mix: Sequence[int]) -> List[float]:
        """Every member's predicted latency — one RPC for the whole mix."""
        mix = tuple(mix)
        items = [PredictRequest(primary=primary, mix=mix) for primary in mix]
        response = self._client.predict_batch(items)
        return [item.latency for item in response.items]

    def isolated_latency(self, primary: int) -> float:
        try:
            return self._isolated_map()[primary]
        except KeyError:
            raise ModelError(
                f"server does not know template {primary}"
            ) from None


# ----------------------------------------------------------------------
# Load generation.


def mix_pool_workload(
    template_ids: Sequence[int],
    requests: int,
    pool_size: int = 16,
    mpl: int = 2,
    seed: int = 0,
) -> List[PredictRequest]:
    """A repeated-mix request stream, the serving steady state.

    Draws *pool_size* distinct mixes of size *mpl* from the workload,
    then samples *requests* predictions from that pool — so the stream
    repeats mixes heavily, exactly the pattern the prediction cache and
    batcher are built for.
    """
    if not template_ids:
        raise ServingError("need at least one template id")
    if requests < 1:
        raise ServingError("requests must be >= 1")
    if pool_size < 1:
        raise ServingError("pool_size must be >= 1")
    if mpl < 1:
        raise ServingError("mpl must be >= 1")
    rng = np.random.default_rng(seed)
    ids = list(template_ids)
    pool: List[PredictRequest] = []
    seen = set()
    attempts = 0
    while len(pool) < pool_size and attempts < pool_size * 20:
        attempts += 1
        mix = tuple(sorted(int(t) for t in rng.choice(ids, size=mpl)))
        primary = int(rng.choice(mix))
        if (primary, mix) in seen:
            continue
        seen.add((primary, mix))
        pool.append(PredictRequest(primary=primary, mix=mix))
    picks = rng.integers(0, len(pool), size=requests)
    return [pool[i] for i in picks]


@dataclass(frozen=True)
class LoadReport:
    """Client-observed results of one load-test run.

    Attributes:
        requests: Requests attempted.
        errors: Requests that raised.
        duration_seconds: Wall time from first submit to last response.
        qps: Successful requests per second.
        p50_ms: Median round-trip latency, milliseconds.
        p90_ms: 90th-percentile latency.
        p99_ms: 99th-percentile latency.
        mean_ms: Mean latency.
        max_ms: Worst latency.
        submitters: Concurrent client threads used (all processes).
        processes: Client processes the threads were spread across.
    """

    requests: int
    errors: int
    duration_seconds: float
    qps: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    submitters: int
    processes: int = 1

    def format_table(self) -> str:
        rows = [
            ("processes", f"{self.processes}"),
            ("submitters", f"{self.submitters}"),
            ("requests", f"{self.requests}"),
            ("errors", f"{self.errors}"),
            ("duration", f"{self.duration_seconds:.3f} s"),
            ("throughput", f"{self.qps:,.0f} req/s"),
            ("p50 latency", f"{self.p50_ms:.2f} ms"),
            ("p90 latency", f"{self.p90_ms:.2f} ms"),
            ("p99 latency", f"{self.p99_ms:.2f} ms"),
            ("mean latency", f"{self.mean_ms:.2f} ms"),
            ("max latency", f"{self.max_ms:.2f} ms"),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def _run_submitters(
    host: str,
    port: int,
    submitters: int,
    timeout: float,
    batch_size: int,
    workload: Sequence[PredictRequest],
) -> Tuple[List[float], int, int]:
    """Drive *workload* with N threads over one shared thread-safe client.

    Returns ``(latencies_seconds, issued, errors)`` where *issued*
    counts individual predictions (a failed batch counts every item in
    it as an error).  In batch mode each item in a round trip records
    the round trip's latency — they all completed at that moment.
    """
    shards: List[List[PredictRequest]] = [
        list(workload[i::submitters])
        for i in range(min(submitters, len(workload)))
    ]
    latencies: List[List[float]] = [[] for _ in shards]
    errors = [0] * len(shards)
    barrier = threading.Barrier(len(shards) + 1)
    client = PredictionClient(host, port, timeout=timeout)

    def submit(index: int, shard: List[PredictRequest]) -> None:
        barrier.wait()
        if batch_size > 1:
            for at in range(0, len(shard), batch_size):
                chunk = shard[at : at + batch_size]
                begin = time.monotonic()
                try:
                    client.predict_batch(chunk)
                except Exception:  # noqa: BLE001 — counted, not fatal
                    errors[index] += len(chunk)
                    continue
                elapsed = time.monotonic() - begin
                latencies[index].extend([elapsed] * len(chunk))
        else:
            for request in shard:
                begin = time.monotonic()
                try:
                    client.predict(request.primary, request.mix)
                except Exception:  # noqa: BLE001 — counted, not fatal
                    errors[index] += 1
                    continue
                latencies[index].append(time.monotonic() - begin)

    threads = [
        threading.Thread(
            target=submit, args=(i, shard), name=f"load-submitter-{i}"
        )
        for i, shard in enumerate(shards)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    for t in threads:
        t.join()
    client.close()
    return (
        [lat for shard in latencies for lat in shard],
        len(workload),
        sum(errors),
    )


def _load_process_entry(
    host: str,
    port: int,
    submitters: int,
    timeout: float,
    batch_size: int,
    workload: List[PredictRequest],
    ready,
    go,
    results,
) -> None:
    """One load-generator process: sync on *go*, then report to *results*."""
    ready.put(os.getpid())
    go.wait()
    try:
        latencies, issued, errors = _run_submitters(
            host, port, submitters, timeout, batch_size, workload
        )
    except Exception:  # noqa: BLE001 — report, don't hang the parent
        results.put(([], len(workload), len(workload)))
        return
    results.put((latencies, issued, errors))


class LoadGenerator:
    """Drive a prediction server with concurrent submitters.

    Args:
        host: Server host.
        port: Server port.
        submitters: Concurrent client connections **per process** (each
            is one thread holding one persistent keep-alive connection).
        timeout: Per-request socket timeout, seconds.
        processes: Client processes to spread the submitters across.
            More than one sidesteps the client-side GIL when a single
            process can't saturate a multi-worker server.
        batch_size: When > 1, issue ``predict-batch`` round trips of
            this many items instead of one ``predict`` per request.
    """

    def __init__(
        self,
        host: str,
        port: int,
        submitters: int = 8,
        timeout: float = 10.0,
        processes: int = 1,
        batch_size: int = 1,
    ):
        if submitters < 1:
            raise ServingError("submitters must be >= 1")
        if processes < 1:
            raise ServingError("processes must be >= 1")
        if batch_size < 1:
            raise ServingError("batch_size must be >= 1")
        self._host = host
        self._port = port
        self._submitters = submitters
        self._timeout = timeout
        self._processes = processes
        self._batch_size = batch_size

    def run(self, workload: Sequence[PredictRequest]) -> LoadReport:
        """Issue *workload* across the submitters; block until done.

        Requests are dealt round-robin so every submitter sees the
        repeated-mix distribution.  Latencies are measured per request
        on the submitting thread; with multiple processes the shards run
        in child processes released by a shared start event, and the raw
        latencies are merged before the percentiles are computed.
        """
        if not workload:
            raise ServingError("workload is empty")
        if self._processes == 1:
            started = time.monotonic()
            latencies, issued, errors = _run_submitters(
                self._host,
                self._port,
                self._submitters,
                self._timeout,
                self._batch_size,
                workload,
            )
            duration = max(time.monotonic() - started, 1e-9)
            return self._report(
                latencies,
                issued,
                errors,
                duration,
                processes=1,
                submitters=min(self._submitters, len(workload)),
            )

        import multiprocessing

        ctx = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else None
        )
        shards = [
            list(workload[i :: self._processes])
            for i in range(min(self._processes, len(workload)))
        ]
        ready, results = ctx.Queue(), ctx.Queue()
        go = ctx.Event()
        procs = [
            ctx.Process(
                target=_load_process_entry,
                args=(
                    self._host,
                    self._port,
                    self._submitters,
                    self._timeout,
                    self._batch_size,
                    shard,
                    ready,
                    go,
                    results,
                ),
                daemon=True,
                name=f"load-process-{i}",
            )
            for i, shard in enumerate(shards)
        ]
        for p in procs:
            p.start()
        for _ in procs:
            ready.get(timeout=30.0)
        go.set()
        started = time.monotonic()
        latencies: List[float] = []
        issued = errors = 0
        for _ in procs:
            shard_lat, shard_issued, shard_errors = results.get(
                timeout=max(self._timeout * len(workload), 60.0)
            )
            latencies.extend(shard_lat)
            issued += shard_issued
            errors += shard_errors
        duration = max(time.monotonic() - started, 1e-9)
        for p in procs:
            p.join(timeout=5.0)
        return self._report(
            latencies,
            issued,
            errors,
            duration,
            processes=len(procs),
            submitters=sum(
                min(self._submitters, len(shard)) for shard in shards
            ),
        )

    def _report(
        self,
        latencies: List[float],
        issued: int,
        errors: int,
        duration: float,
        processes: int,
        submitters: int,
    ) -> LoadReport:
        observed = sorted(latencies)
        return LoadReport(
            requests=issued,
            errors=errors,
            duration_seconds=duration,
            qps=len(observed) / duration,
            p50_ms=percentile(observed, 0.50) * 1e3,
            p90_ms=percentile(observed, 0.90) * 1e3,
            p99_ms=percentile(observed, 0.99) * 1e3,
            mean_ms=(statistics.fmean(observed) * 1e3) if observed else 0.0,
            max_ms=(observed[-1] * 1e3) if observed else 0.0,
            submitters=submitters,
            processes=processes,
        )
