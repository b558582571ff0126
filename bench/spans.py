"""Span recording from outside the program, and per-layer self time.

The traced run wraps public functions of each layer (see
:mod:`layers`) so every call records a :class:`repro.obs.tracing.Span`
tagged with its layer and thread.  Nothing inside ``src/`` changes.

Each thread gets its own :class:`~repro.obs.tracing.TraceRecorder`,
because a recorder keeps one span stack for every thread that uses it.
Intervals that begin on one thread and end on another (a batcher
submit resolved by a worker) are recorded as *detached* spans, which
never touch a recorder's stack.

Self time follows the rule in the bench README: at every instant a
thread's time belongs to the innermost open span, i.e. the one that
started last.  A layer's self time is the sum over its spans, so a span
nested in a span of the same layer adds nothing, and the layers of one
thread add back up to the union of its spans.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.tracing import Span, TraceRecorder, span_id

#: Clock shared with the load generator: CLOCK_MONOTONIC is
#: system-wide, so server spans and client timestamps compare directly.
CLOCK = time.monotonic


class ThreadRecorders:
    """One recorder per thread, plus detached cross-thread intervals."""

    def __init__(self, clock: Callable[[], float] = CLOCK):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._recorders: List[Tuple[int, str, TraceRecorder]] = []
        self._detached: List[Span] = []

    def recorder(self) -> TraceRecorder:
        """This thread's recorder (created on first use)."""
        rec = getattr(self._local, "recorder", None)
        if rec is None:
            thread = threading.current_thread()
            rec = TraceRecorder(seed=thread.ident or 0, clock=self._clock)
            self._local.recorder = rec
            with self._lock:
                self._recorders.append((thread.ident or 0, thread.name, rec))
        return rec

    def open_detached(self, name: str, layer: str) -> Span:
        """Start an interval that another thread may close."""
        thread = threading.current_thread()
        with self._lock:
            span = Span(
                name=name,
                span_id=span_id(thread.ident or 0, name, ("detached", len(self._detached))),
                parent_id=None,
                start=self._clock(),
                attributes={
                    "layer": layer,
                    "thread": thread.ident or 0,
                    "thread_name": thread.name,
                },
            )
            self._detached.append(span)
        return span

    def close_detached(self, span: Span) -> None:
        span.end = self._clock()

    def docs(self) -> List[Dict[str, Any]]:
        """Every closed span as a ``Span.to_doc()`` dict, thread-tagged."""
        out: List[Dict[str, Any]] = []
        with self._lock:
            recorders = list(self._recorders)
            detached = list(self._detached)
        for ident, thread_name, rec in recorders:
            for doc in rec.to_docs():
                doc["attributes"].setdefault("thread", ident)
                doc["attributes"].setdefault("thread_name", thread_name)
                out.append(doc)
        out.extend(span.to_doc() for span in detached)
        return [doc for doc in out if doc["end"] is not None]


def wrap(
    fn: Callable,
    name: str,
    layer: str,
    recorders: ThreadRecorders,
    annotate: Optional[Callable[[Span, tuple, Any], None]] = None,
) -> Callable:
    """*fn* with a span around every call; *annotate* tags the span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = recorders.recorder()
        span = rec.start_span(name, layer=layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end_span(span)
        if annotate is not None:
            annotate(span, args, result)
        return result

    return traced


# ----------------------------------------------------------------------
# Analysis.


class LayerTimes:
    """Self time per layer and per span name, plus inclusive totals."""

    def __init__(self) -> None:
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.name_self: Dict[str, float] = defaultdict(float)
        self.name_calls: Dict[str, int] = defaultdict(int)
        self.name_total: Dict[str, float] = defaultdict(float)

    def total_self(self) -> float:
        return sum(self.layer_self.values())


def _thread_self(spans: List[Mapping[str, Any]], out: LayerTimes) -> None:
    """Sweep one thread's spans, giving each instant to the latest start."""
    events: List[Tuple[float, int, int]] = []  # (time, kind, index); end first
    for i, doc in enumerate(spans):
        events.append((doc["start"], 1, i))
        events.append((doc["end"], 0, i))
    events.sort()
    active: List[Tuple[float, int]] = []  # (start, index), sorted
    last = None
    for at, kind, i in events:
        if active and last is not None and at > last:
            top = spans[active[-1][1]]
            out.layer_self[top["attributes"]["layer"]] += at - last
            out.name_self[top["name"]] += at - last
        last = at
        entry = (spans[i]["start"], i)
        if kind == 1:
            bisect.insort(active, entry)
        else:
            active.pop(bisect.bisect_left(active, entry))


def layer_times(
    docs: Iterable[Mapping[str, Any]],
    keep: Callable[[Mapping[str, Any]], bool] = lambda doc: True,
) -> LayerTimes:
    """Self and inclusive times of the span docs *keep* selects."""
    out = LayerTimes()
    by_thread: Dict[Any, List[Mapping[str, Any]]] = defaultdict(list)
    for doc in docs:
        if doc["end"] is None or not keep(doc):
            continue
        by_thread[doc["attributes"]["thread"]].append(doc)
        out.name_calls[doc["name"]] += 1
        out.name_total[doc["name"]] += doc["end"] - doc["start"]
    for spans in by_thread.values():
        _thread_self(spans, out)
    return out
