"""Wire protocol of the prediction service.

Requests and responses are JSON bodies over HTTP/1.1; this module owns
the typed view of both sides so the server and the client (and the
tests) share one schema.  Parsing is strict — unknown operations, wrong
types, and missing fields raise :class:`~repro.errors.ProtocolError`,
which the server maps to a 400 instead of a traceback.

Endpoints:

========================  ====  =========================================
path                      verb  body
========================  ====  =========================================
``/v1/predict``           POST  :class:`PredictRequest`
``/v1/predict-batch``     POST  :class:`BatchPredictRequest`
``/v1/predict-new``       POST  :class:`PredictNewRequest`
``/v1/admit``             POST  :class:`AdmitRequest`
``/v1/observe``           POST  :class:`ObserveRequest`
``/v1/explain``           POST  :class:`ExplainRequest`
``/v1/health``            GET   — (returns :class:`HealthResponse`)
``/v1/stats``             GET   — (cache/batch/request + lifecycle state)
``/v1/reload``            POST  — (hot-reload the registry artifact)
========================  ====  =========================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.contender import SpoilerMode
from ..core.training import TemplateProfile
from ..errors import ProtocolError

__all__ = [
    "AdmitRequest",
    "AdmitResponse",
    "BatchPredictRequest",
    "BatchPredictResponse",
    "ExplainRequest",
    "ExplainResponse",
    "HealthResponse",
    "ObserveRequest",
    "ObserveResponse",
    "PredictNewRequest",
    "PredictRequest",
    "PredictResponse",
    "decode_admit_worst_ratio",
    "decode_json",
    "parse_content_length",
    "profile_from_doc",
    "profile_to_doc",
]


def decode_json(body: bytes) -> Dict[str, Any]:
    """Parse a request body into a JSON object or raise ProtocolError."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("request body must be a JSON object")
    return doc


def parse_content_length(value: Optional[str]) -> int:
    """Body length declared by a ``Content-Length`` header value.

    A missing or empty header means no body.  Anything but a plain
    non-negative decimal raises :class:`ProtocolError` (a 400): the
    transports must not hand ``int()`` failures or negative lengths to
    their body readers.
    """
    if not value:
        return 0
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        raise ProtocolError(f"invalid Content-Length header: {value!r}")
    return int(value)


def _require(doc: Mapping[str, Any], key: str) -> Any:
    try:
        return doc[key]
    except KeyError:
        raise ProtocolError(f"missing required field {key!r}") from None


def _as_mix(value: Any, key: str) -> Tuple[int, ...]:
    if (
        not isinstance(value, (list, tuple))
        or any(isinstance(t, bool) or not isinstance(t, int) for t in value)
    ):
        raise ProtocolError(f"{key!r} must be a list of template ids")
    return tuple(value)


def _as_template(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{key!r} must be a template id")
    return value


# ----------------------------------------------------------------------
# TemplateProfile interchange (predict-new carries the new template's
# isolated statistics inline — the single constant-time sample).


def profile_to_doc(profile: TemplateProfile) -> Dict[str, Any]:
    """JSON form of a :class:`TemplateProfile`."""
    return {
        "template_id": profile.template_id,
        "isolated_latency": profile.isolated_latency,
        "io_fraction": profile.io_fraction,
        "working_set_bytes": profile.working_set_bytes,
        "records_accessed": profile.records_accessed,
        "plan_steps": profile.plan_steps,
        "fact_scans": sorted(profile.fact_scans),
    }


def profile_from_doc(doc: Mapping[str, Any]) -> TemplateProfile:
    """Parse a :class:`TemplateProfile` from its JSON form."""
    if not isinstance(doc, Mapping):
        raise ProtocolError("'profile' must be a JSON object")
    try:
        return TemplateProfile(
            template_id=_as_template(_require(doc, "template_id"), "template_id"),
            isolated_latency=float(_require(doc, "isolated_latency")),
            io_fraction=float(_require(doc, "io_fraction")),
            working_set_bytes=float(_require(doc, "working_set_bytes")),
            records_accessed=float(_require(doc, "records_accessed")),
            plan_steps=int(_require(doc, "plan_steps")),
            fact_scans=frozenset(_require(doc, "fact_scans")),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed profile: {exc}") from exc


# ----------------------------------------------------------------------
# Requests.


@dataclass(frozen=True)
class PredictRequest:
    """Predict a known template's latency in a mix.

    Attributes:
        primary: Template whose latency is wanted.
        mix: The full concurrent mix, primary's slot included.
    """

    primary: int
    mix: Tuple[int, ...]

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "PredictRequest":
        req = PredictRequest(
            primary=_as_template(_require(doc, "primary"), "primary"),
            mix=_as_mix(_require(doc, "mix"), "mix"),
        )
        if req.primary not in req.mix:
            raise ProtocolError(
                f"primary {req.primary} must occupy a slot in the mix"
            )
        return req

    def to_doc(self) -> Dict[str, Any]:
        return {"primary": self.primary, "mix": list(self.mix)}


@dataclass(frozen=True)
class BatchPredictRequest:
    """Predict several (primary, mix) keys in one round trip.

    The whole batch lands in the server's request batcher together, so
    it executes as one model batch with in-batch dedup — the wire-level
    face of the coalescing the server already does for concurrent
    clients.  Admission control uses it to price every member of a
    simulated mix with a single RPC.
    """

    items: Tuple[PredictRequest, ...]

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "BatchPredictRequest":
        items = _require(doc, "items")
        if not isinstance(items, (list, tuple)) or not items:
            raise ProtocolError("'items' must be a non-empty list")
        parsed = []
        for entry in items:
            if not isinstance(entry, Mapping):
                raise ProtocolError("every batch item must be a JSON object")
            parsed.append(PredictRequest.from_doc(entry))
        return BatchPredictRequest(items=tuple(parsed))

    def to_doc(self) -> Dict[str, Any]:
        return {"items": [item.to_doc() for item in self.items]}


@dataclass(frozen=True)
class PredictNewRequest:
    """Predict an ad-hoc template's latency (the Fig. 5 pipeline).

    Attributes:
        profile: Isolated statistics of the never-sampled template.
        mix: The concurrent mix; the new template's id fills its slot.
        spoiler_mode: ``knn`` or ``io_time`` (measured curves cannot
            travel over the wire).
    """

    profile: TemplateProfile
    mix: Tuple[int, ...]
    spoiler_mode: SpoilerMode = SpoilerMode.KNN

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "PredictNewRequest":
        mode_value = doc.get("spoiler_mode", SpoilerMode.KNN.value)
        try:
            mode = SpoilerMode(mode_value)
        except ValueError:
            raise ProtocolError(
                f"unknown spoiler_mode {mode_value!r}"
            ) from None
        if mode is SpoilerMode.MEASURED:
            raise ProtocolError(
                "spoiler_mode 'measured' is not servable remotely; "
                "use 'knn' or 'io_time'"
            )
        return PredictNewRequest(
            profile=profile_from_doc(_require(doc, "profile")),
            mix=_as_mix(_require(doc, "mix"), "mix"),
            spoiler_mode=mode,
        )

    def to_doc(self) -> Dict[str, Any]:
        return {
            "profile": profile_to_doc(self.profile),
            "mix": list(self.mix),
            "spoiler_mode": self.spoiler_mode.value,
        }


@dataclass(frozen=True)
class AdmitRequest:
    """Should *candidate* join the *running* mix?

    Attributes:
        running: Currently executing templates (may be empty).
        candidate: Template asking for admission.
        sla_factor: SLA multiple override; server default when None.
        max_mpl: Concurrency-cap override; server default when None.
    """

    running: Tuple[int, ...]
    candidate: int
    sla_factor: Optional[float] = None
    max_mpl: Optional[int] = None

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "AdmitRequest":
        sla = doc.get("sla_factor")
        cap = doc.get("max_mpl")
        try:
            sla = float(sla) if sla is not None else None
            cap = int(cap) if cap is not None else None
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed admission overrides: {exc}") from exc
        return AdmitRequest(
            running=_as_mix(doc.get("running", []), "running"),
            candidate=_as_template(_require(doc, "candidate"), "candidate"),
            sla_factor=sla,
            max_mpl=cap,
        )

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "running": list(self.running),
            "candidate": self.candidate,
        }
        if self.sla_factor is not None:
            doc["sla_factor"] = self.sla_factor
        if self.max_mpl is not None:
            doc["max_mpl"] = self.max_mpl
        return doc


@dataclass(frozen=True)
class ObserveRequest:
    """Report a ground-truth latency for a served prediction.

    The lifecycle loop's input: the client tells the server what a
    template *actually* took inside a mix, the server re-derives its own
    prediction for the same key (through the ordinary cached path) and
    feeds the residual to the drift monitor.

    Attributes:
        primary: Template whose latency was observed.
        mix: The full concurrent mix, primary's slot included.
        observed_latency: Measured steady-state latency, seconds (> 0).
    """

    primary: int
    mix: Tuple[int, ...]
    observed_latency: float

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "ObserveRequest":
        try:
            observed = float(_require(doc, "observed_latency"))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"'observed_latency' must be a number: {exc}"
            ) from exc
        req = ObserveRequest(
            primary=_as_template(_require(doc, "primary"), "primary"),
            mix=_as_mix(_require(doc, "mix"), "mix"),
            observed_latency=observed,
        )
        if req.primary not in req.mix:
            raise ProtocolError(
                f"primary {req.primary} must occupy a slot in the mix"
            )
        if not req.observed_latency > 0:
            raise ProtocolError("'observed_latency' must be positive")
        return req

    def to_doc(self) -> Dict[str, Any]:
        return {
            "primary": self.primary,
            "mix": list(self.mix),
            "observed_latency": self.observed_latency,
        }


@dataclass(frozen=True)
class ExplainRequest:
    """Decompose each mix member's predicted slowdown into blame.

    The server simulates the mix with the blame recorder attached and
    returns a per-(co-runner template, resource) matrix for every
    primary of the mix — the *why* behind a ``/v1/predict`` number.

    Attributes:
        mix: The full concurrent mix to explain.
        top_k: Truncate each primary's ranked co-runner list in the
            response summary; server default when None.
    """

    mix: Tuple[int, ...]
    top_k: Optional[int] = None

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "ExplainRequest":
        top_k = doc.get("top_k")
        if top_k is not None:
            if isinstance(top_k, bool) or not isinstance(top_k, int):
                raise ProtocolError("'top_k' must be an integer")
            if top_k < 1:
                raise ProtocolError("'top_k' must be >= 1")
        req = ExplainRequest(
            mix=_as_mix(_require(doc, "mix"), "mix"),
            top_k=top_k,
        )
        if not req.mix:
            raise ProtocolError("'mix' must not be empty")
        return req

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"mix": list(self.mix)}
        if self.top_k is not None:
            doc["top_k"] = self.top_k
        return doc


# ----------------------------------------------------------------------
# Responses.


@dataclass(frozen=True)
class PredictResponse:
    """A served latency prediction.

    Attributes:
        latency: Predicted steady-state latency, seconds.
        cached: Whether the prediction came from the cache.
        model_version: Version tag of the artifact that answered.
    """

    latency: float
    cached: bool = False
    model_version: str = ""

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "PredictResponse":
        try:
            return PredictResponse(
                latency=float(_require(doc, "latency")),
                cached=bool(doc.get("cached", False)),
                model_version=str(doc.get("model_version", "")),
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed predict response: {exc}") from exc

    def to_doc(self) -> Dict[str, Any]:
        return {
            "latency": self.latency,
            "cached": self.cached,
            "model_version": self.model_version,
        }


@dataclass(frozen=True)
class BatchPredictResponse:
    """Predictions for a :class:`BatchPredictRequest`, in request order."""

    items: Tuple[PredictResponse, ...]

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "BatchPredictResponse":
        items = _require(doc, "items")
        if not isinstance(items, (list, tuple)):
            raise ProtocolError("'items' must be a list")
        parsed = []
        for entry in items:
            if not isinstance(entry, Mapping):
                raise ProtocolError("every batch item must be a JSON object")
            parsed.append(PredictResponse.from_doc(entry))
        return BatchPredictResponse(items=tuple(parsed))

    def to_doc(self) -> Dict[str, Any]:
        return {"items": [item.to_doc() for item in self.items]}


@dataclass(frozen=True)
class AdmitResponse:
    """A served admission decision (mirrors ``AdmissionDecision``)."""

    admitted: bool
    candidate: int
    mix_after: Tuple[int, ...]
    worst_ratio: float
    limiting_template: int
    model_version: str = ""

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "AdmitResponse":
        try:
            return AdmitResponse(
                admitted=bool(_require(doc, "admitted")),
                candidate=int(_require(doc, "candidate")),
                mix_after=tuple(_require(doc, "mix_after")),
                worst_ratio=decode_admit_worst_ratio(_require(doc, "worst_ratio")),
                limiting_template=int(_require(doc, "limiting_template")),
                model_version=str(doc.get("model_version", "")),
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed admit response: {exc}") from exc

    def to_doc(self) -> Dict[str, Any]:
        return {
            "admitted": self.admitted,
            "candidate": self.candidate,
            "mix_after": list(self.mix_after),
            # Infinity is not valid JSON; the hard-MPL rejection encodes
            # its unbounded ratio as null and decodes back to inf.
            "worst_ratio": (
                self.worst_ratio if self.worst_ratio != float("inf") else None
            ),
            "limiting_template": self.limiting_template,
            "model_version": self.model_version,
        }


@dataclass(frozen=True)
class ObserveResponse:
    """The monitor's view of one ingested observation.

    Attributes:
        predicted: The serving model's prediction for the observed key.
        residual: Signed relative residual
            ``(observed - predicted) / observed``.
        drifted: Whether this template is now flagged as drifted.
        verdict: The drift verdict this observation fired, if any
            (a :class:`repro.lifecycle.DriftVerdict` document).
        model_version: Version tag of the artifact that predicted.
    """

    predicted: float
    residual: float
    drifted: bool
    verdict: Optional[Dict[str, Any]] = None
    model_version: str = ""

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "ObserveResponse":
        verdict = doc.get("verdict")
        if verdict is not None and not isinstance(verdict, Mapping):
            raise ProtocolError("'verdict' must be an object or null")
        try:
            return ObserveResponse(
                predicted=float(_require(doc, "predicted")),
                residual=float(_require(doc, "residual")),
                drifted=bool(_require(doc, "drifted")),
                verdict=dict(verdict) if verdict is not None else None,
                model_version=str(doc.get("model_version", "")),
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed observe response: {exc}") from exc

    def to_doc(self) -> Dict[str, Any]:
        return {
            "predicted": self.predicted,
            "residual": self.residual,
            "drifted": self.drifted,
            "verdict": self.verdict,
            "model_version": self.model_version,
        }


@dataclass(frozen=True)
class ExplainResponse:
    """A served blame decomposition for one mix.

    Attributes:
        report: The :class:`repro.explain.BlameReport` document — per
            primary template: mean latency/baseline/slowdown and the
            per-(co-runner template, resource) blame rows.
        top: Per primary template (stringified id, JSON objects cannot
            key on ints), the ``top_k`` co-runner template ids ranked by
            net attributed seconds.
        cached: Whether the report came from the prediction cache.
        model_version: Version tag of the active artifact (the report
            explains the simulator the artifact was trained from).
    """

    report: Dict[str, Any]
    top: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    cached: bool = False
    model_version: str = ""

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "ExplainResponse":
        report = _require(doc, "report")
        if not isinstance(report, Mapping):
            raise ProtocolError("'report' must be a JSON object")
        top = doc.get("top", {})
        if not isinstance(top, Mapping):
            raise ProtocolError("'top' must be a JSON object")
        try:
            return ExplainResponse(
                report=dict(report),
                top={
                    int(template): tuple(int(c) for c in ranked)
                    for template, ranked in top.items()
                },
                cached=bool(doc.get("cached", False)),
                model_version=str(doc.get("model_version", "")),
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed explain response: {exc}") from exc

    def to_doc(self) -> Dict[str, Any]:
        return {
            "report": self.report,
            "top": {
                str(template): list(ranked)
                for template, ranked in self.top.items()
            },
            "cached": self.cached,
            "model_version": self.model_version,
        }


@dataclass(frozen=True)
class HealthResponse:
    """Liveness plus the identity of the serving model.

    Attributes:
        status: ``"ok"`` while the server accepts requests.
        model_version: Version tag of the active artifact.
        template_ids: Templates the model can predict as knowns.
        uptime_seconds: Seconds since the server started.
        requests_served: Total requests answered (all endpoints).
        isolated_latencies: ``l_min`` per template — lets remote
            admission clients reason about SLAs without a second RPC.
        workers: Worker-process liveness (multi-worker serving only):
            worker count, alive count, and per-worker pid/heartbeat/
            request counters.  ``None`` under the in-process server.
    """

    status: str
    model_version: str
    template_ids: Tuple[int, ...]
    uptime_seconds: float
    requests_served: int
    isolated_latencies: Dict[int, float] = field(default_factory=dict)
    workers: Optional[Dict[str, Any]] = None

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "HealthResponse":
        workers = doc.get("workers")
        if workers is not None and not isinstance(workers, Mapping):
            raise ProtocolError("'workers' must be an object or null")
        try:
            return HealthResponse(
                status=str(_require(doc, "status")),
                model_version=str(_require(doc, "model_version")),
                template_ids=tuple(_require(doc, "template_ids")),
                uptime_seconds=float(_require(doc, "uptime_seconds")),
                requests_served=int(_require(doc, "requests_served")),
                isolated_latencies={
                    int(t): float(v)
                    for t, v in doc.get("isolated_latencies", {}).items()
                },
                workers=dict(workers) if workers is not None else None,
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed health response: {exc}") from exc

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "status": self.status,
            "model_version": self.model_version,
            "template_ids": list(self.template_ids),
            "uptime_seconds": self.uptime_seconds,
            "requests_served": self.requests_served,
            "isolated_latencies": {
                str(t): v for t, v in self.isolated_latencies.items()
            },
        }
        if self.workers is not None:
            doc["workers"] = self.workers
        return doc


def decode_admit_worst_ratio(value: Any) -> float:
    """Inverse of the AdmitResponse null-for-infinity encoding."""
    return float("inf") if value is None else float(value)
