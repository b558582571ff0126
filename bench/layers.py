"""Which functions the traced run wraps, and the layer each belongs to.

Wrappers go on class attributes, so every instance sees them.  A few
functions are imported by name into other modules; those get a wrapper
in each importing module as well (``run_batch`` and
``run_steady_state`` in ``core.training``, ``decode_json`` in
``serving.app`` and ``serving.frontend``).  Callers that bound the
original before :func:`install` ran keep calling it, so the bench calls
every entry point through its module attribute.
"""

from __future__ import annotations

import importlib
from typing import Any, Tuple

from bench.spans import ThreadRecorders, wrap

#: ``(module, attribute path, layer)``; the span name is the attribute
#: path.  ``serving.batching`` is not here: its wait is an interval
#: from submit to the future resolving (see :func:`_wrap_submit`).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workload.catalog", "TemplateCatalog.profile", "workload"),
    ("repro.engine.executor", "ConcurrentExecutor.run", "engine"),
    ("repro.engine.batched", "run_batch", "engine"),
    ("repro.core.training", "run_batch", "engine"),
    ("repro.sampling.steady_state", "run_steady_state", "sampling"),
    ("repro.core.training", "run_steady_state", "sampling"),
    ("repro.core.training", "collect_training_data", "core.training"),
    ("repro.core.contender", "Contender.reference_models", "core.contender"),
    ("repro.core.contender", "Contender.predict_known", "core.contender"),
    ("repro.core.contender", "Contender.predict_known_many", "core.contender"),
    ("repro.core.contender", "Contender.predict_candidates", "core.contender"),
    ("repro.serving.app", "decode_json", "serving.protocol"),
    ("repro.serving.frontend", "decode_json", "serving.protocol"),
    ("repro.serving.protocol", "PredictRequest.from_doc", "serving.protocol"),
    ("repro.serving.protocol", "BatchPredictRequest.from_doc", "serving.protocol"),
    ("repro.serving.protocol", "ObserveRequest.from_doc", "serving.protocol"),
    ("repro.serving.app", "AppResponse.from_doc", "serving.protocol"),
    ("repro.serving.cache", "PredictionCache.get", "serving.cache"),
    ("repro.serving.app", "ServingApp.handle", "serving.app"),
    ("repro.lifecycle.monitor", "ResidualMonitor.ingest", "lifecycle"),
    ("repro.sched.policies", "PredictivePolicy.pick", "sched.policies"),
    ("repro.sched.replay", "replay_trace", "sched.replay"),
    ("repro.sched.replay", "QueueDispatcher.poll", "sched.replay"),
)

#: Span names whose parse/serialize role the per-layer metrics split.
PARSE_SPANS = (
    "decode_json",
    "PredictRequest.from_doc",
    "BatchPredictRequest.from_doc",
    "ObserveRequest.from_doc",
)
SERIALIZE_SPANS = ("AppResponse.from_doc",)


def _events(span, args, result) -> None:
    """Tag engine spans with the scheduling events they processed."""
    runs = result if isinstance(result, list) else [result]
    span.set_attribute("events", sum(run.events for run in runs))


def _keys(span, args, result) -> None:
    """Tag a model pass with the number of keys it answered."""
    span.set_attribute("keys", len(args[1]))


_ANNOTATE = {
    "ConcurrentExecutor.run": _events,
    "run_batch": _events,
    "Contender.predict_known_many": _keys,
}


def _wrap_submit(recorders: ThreadRecorders) -> None:
    """Time batcher waits from submit until the future resolves."""
    from repro.serving.batching import RequestBatcher

    original = RequestBatcher.submit

    def submit(self, key):
        span = recorders.open_detached("RequestBatcher.wait", "serving.batching")
        future = original(self, key)
        future.add_done_callback(lambda _: recorders.close_detached(span))
        return future

    RequestBatcher.submit = submit


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any, bool]:
    """``(owner, attribute, function, is_staticmethod)`` for a target."""
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, staticmethod):
        return owner, attr, raw.__func__, True
    return owner, attr, raw, False


def install(recorders: ThreadRecorders) -> None:
    """Wrap every target and the batcher's submit."""
    for module_name, path, layer in TARGETS:
        owner, attr, fn, static = _resolve(module_name, path)
        traced = wrap(fn, path, layer, recorders, _ANNOTATE.get(path))
        setattr(owner, attr, staticmethod(traced) if static else traced)
    _wrap_submit(recorders)
