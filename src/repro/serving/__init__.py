"""The online prediction service.

Turns a trained :class:`~repro.core.contender.Contender` into a
long-lived component that admission control and scheduling can query per
query arrival (the paper's Sec. 1 motivation; constant-time new-template
prediction is what makes this affordable, Sec. 5.5):

* :mod:`repro.serving.registry` — versioned JSON model artifacts with
  schema checks, plus an in-memory registry with hot reload;
* :mod:`repro.serving.app` — the transport-agnostic serving core
  (routing, caching, batching, instrumentation, error mapping) behind
  every endpoint (``predict``, ``predict-batch``, ``predict-new``,
  ``admit``, ``observe``, ``explain``, ``health``, ``stats``,
  ``reload``);
* :mod:`repro.serving.frontend` — the one HTTP transport, an asyncio
  HTTP/1.1 connection handler, and its pre-fork multi-worker mode: N
  processes accepting on a shared ``SO_REUSEPORT`` port, mapping one
  shared-memory model (:mod:`repro.serving.shm`) read-only, with
  seqlock-published hot-reload generations and residual fan-in to a
  single lifecycle monitor;
* :mod:`repro.serving.server` — the in-process mode of that transport:
  one event loop over a local model registry;
* :mod:`repro.serving.batching` / :mod:`repro.serving.cache` — request
  coalescing and LRU+TTL prediction memoization for repeated mixes;
* :mod:`repro.serving.client` — the RPC client, a remote admission
  backend, and a multi-threaded load generator reporting p50/p99/QPS.
"""

from .app import AppResponse, ModelSnapshot, RegistryModelProvider, ServingApp
from .batching import BatchStats, RequestBatcher
from .cache import CacheStats, PredictionCache, mix_signature
from .frontend import MultiWorkerServer, SharedModelProvider, multiworker_supported
from .client import (
    LoadGenerator,
    LoadReport,
    PredictionClient,
    RemotePredictionBackend,
    mix_pool_workload,
)
from .protocol import (
    AdmitRequest,
    AdmitResponse,
    ExplainRequest,
    ExplainResponse,
    HealthResponse,
    ObserveRequest,
    ObserveResponse,
    PredictNewRequest,
    PredictRequest,
    PredictResponse,
)
from .registry import (
    ARTIFACT_FORMAT,
    SCHEMA_VERSION,
    ArtifactInfo,
    LoadedModel,
    ModelRegistry,
    RegistryEntry,
    build_artifact,
    load_artifact,
    model_from_doc,
    save_artifact,
)
from .server import DEFAULT_MODEL_NAME, PredictionServer
from .shm import AttachedModel, ControlBlock, PackedModel, attach_model, pack_model

__all__ = [
    "ARTIFACT_FORMAT",
    "AdmitRequest",
    "AdmitResponse",
    "AppResponse",
    "ArtifactInfo",
    "AttachedModel",
    "BatchStats",
    "CacheStats",
    "ControlBlock",
    "DEFAULT_MODEL_NAME",
    "ExplainRequest",
    "ExplainResponse",
    "HealthResponse",
    "LoadGenerator",
    "LoadReport",
    "LoadedModel",
    "ModelRegistry",
    "ModelSnapshot",
    "MultiWorkerServer",
    "ObserveRequest",
    "ObserveResponse",
    "PackedModel",
    "PredictNewRequest",
    "PredictRequest",
    "PredictResponse",
    "PredictionCache",
    "PredictionClient",
    "PredictionServer",
    "RegistryEntry",
    "RegistryModelProvider",
    "RemotePredictionBackend",
    "RequestBatcher",
    "SCHEMA_VERSION",
    "ServingApp",
    "SharedModelProvider",
    "attach_model",
    "build_artifact",
    "load_artifact",
    "mix_pool_workload",
    "mix_signature",
    "model_from_doc",
    "multiworker_supported",
    "pack_model",
    "save_artifact",
]
