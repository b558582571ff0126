"""Parallel execution layer for the sampling campaign.

The paper's training campaign is embarrassingly parallel: every isolated
profile, every spoiler run, and every steady-state mix is an independent
simulation.  Two things make fanning them out safe:

* **Order-independent seeding** — every task derives its RNG from a
  stable key ``(kind, template-or-mix, mpl, config_seed)`` via
  :func:`task_seed`, so a task's result depends only on *what* it is,
  never on *when* it runs or which worker runs it.  ``jobs=1`` and
  ``jobs=N`` are bit-identical.
* **A generic process-pool map** — :func:`parallel_map` ships the shared
  context (catalog + campaign parameters) to each worker exactly once
  via the pool initializer and then streams index-tagged chunks of
  tasks, so the per-task pickling cost is just the task tuple itself.

``jobs=1`` (the default) never touches :mod:`concurrent.futures` at all;
``jobs=0`` means "one worker per core".
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, List, Optional, Sequence, TypeVar

import numpy as np

from ..errors import SamplingError
from ..obs.metrics import Registry

T = TypeVar("T")
R = TypeVar("R")

#: Target chunks per worker: small enough to amortize task pickling,
#: large enough that stragglers don't serialize the tail of the campaign.
CHUNKS_PER_WORKER = 4

__all__ = [
    "CHUNKS_PER_WORKER",
    "parallel_map",
    "resolve_jobs",
    "task_rng",
    "task_seed",
]


# ----------------------------------------------------------------------
# Order-independent seeding.


def task_seed(config_seed: int, kind: str, key: Any = None, mpl: int = 0) -> int:
    """A stable 128-bit seed for one campaign task.

    The seed is a hash of ``(config_seed, kind, key, mpl)`` — no shared
    RNG state is consumed, so the task's randomness is independent of
    every other task and of iteration order.  ``key`` must have a stable
    ``repr`` across processes (ints, strings, and tuples thereof do;
    anything hash-randomized does not).

    Args:
        config_seed: The campaign's base seed (provenance).
        kind: Task family, e.g. ``"mix"``, ``"spoiler"``, ``"lhs"``.
        key: Task identity within the family (template id or mix tuple).
        mpl: Multiprogramming level, where applicable.

    Returns:
        An integer suitable for :class:`numpy.random.SeedSequence`.
    """
    material = repr((int(config_seed), str(kind), key, int(mpl))).encode()
    digest = hashlib.blake2b(material, digest_size=16).digest()
    return int.from_bytes(digest, "big")


def task_rng(
    config_seed: int, kind: str, key: Any = None, mpl: int = 0
) -> np.random.Generator:
    """A fresh generator keyed on the task identity (see :func:`task_seed`)."""
    return np.random.default_rng(
        np.random.SeedSequence(task_seed(config_seed, kind, key=key, mpl=mpl))
    )


# ----------------------------------------------------------------------
# Process-pool fan-out.


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` knob: ``None``/1 serial, 0 = all cores."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise SamplingError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


#: Per-worker shared state installed by the pool initializer.
_WORKER_STATE: Optional[tuple] = None


def _worker_init(payload: bytes) -> None:
    global _WORKER_STATE
    _WORKER_STATE = pickle.loads(payload)


def _run_chunk(index: int, items: Sequence[Any]) -> tuple:
    """Execute one chunk in a worker.

    Returns ``(index, results, pid, durations)``.  Worker processes
    cannot share the parent's metric registry, so per-task wall times
    ride back with the results and the parent merges them; *durations*
    is ``None`` when the campaign runs unobserved (timing calls cost a
    syscall each, so they are opt-in).
    """
    fn, context, timed = _WORKER_STATE  # type: ignore[misc]
    if not timed:
        return index, [fn(context, item) for item in items], os.getpid(), None
    results = []
    durations = []
    for item in items:
        started = time.perf_counter()
        results.append(fn(context, item))
        durations.append(time.perf_counter() - started)
    return index, results, os.getpid(), durations


class _PoolInstruments:
    """Campaign-level metric families bound to one registry."""

    def __init__(self, registry: Registry):
        self.tasks = registry.counter(
            "campaign_tasks_total",
            "Campaign tasks executed, by task kind.",
            labels=("kind",),
        )
        self.task_seconds = registry.histogram(
            "campaign_task_seconds",
            "Wall-clock seconds per campaign task, by task kind.",
            labels=("kind",),
        )
        self.chunks = registry.counter(
            "campaign_chunks_total", "Task chunks dispatched to the pool."
        )
        self.queue_depth = registry.gauge(
            "campaign_chunk_queue_depth",
            "Chunks submitted to the pool and not yet completed.",
        )
        self.workers = registry.gauge(
            "campaign_workers", "Worker processes used by the last campaign."
        )
        self.worker_tasks = registry.counter(
            "campaign_worker_tasks_total",
            "Tasks completed per worker process.",
            labels=("pid",),
        )

    def record_chunk(
        self,
        pid: int,
        labels: Sequence[str],
        durations: Optional[Sequence[float]],
        outstanding: int,
    ) -> None:
        self.chunks.inc()
        self.queue_depth.set(outstanding)
        self.worker_tasks.labels(pid).inc(len(labels))
        for i, label in enumerate(labels):
            self.tasks.labels(label).inc()
            if durations is not None:
                self.task_seconds.labels(label).observe(durations[i])


def parallel_map(
    fn: Callable[[Any, T], R],
    context: Any,
    items: Sequence[T],
    jobs: Optional[int] = 1,
    chunk_size: int = 0,
    metrics: Optional[Registry] = None,
    task_label: Optional[Callable[[T], str]] = None,
) -> List[R]:
    """``[fn(context, item) for item in items]``, optionally over processes.

    Args:
        fn: A module-level (picklable) function of ``(context, item)``.
        context: Shared state shipped to each worker once (e.g. the
            template catalog); must be picklable when ``jobs > 1``.
        items: Task descriptions; each must be picklable when ``jobs > 1``.
        jobs: Worker processes — ``None``/1 run in-process (no pool, no
            pickling), 0 uses every core.
        chunk_size: Tasks per submission; 0 picks a size that gives each
            worker about :data:`CHUNKS_PER_WORKER` chunks.  Explicit
            sizes are capped at ``ceil(len(items) / jobs)`` so a large
            setting cannot starve workers (an oversized chunk would
            serialize the whole campaign onto one process).
        metrics: Registry to record ``campaign_*`` metrics into (task
            counts and wall times by kind, chunk queue depth, per-worker
            throughput).  ``None`` (the default) records nothing and
            skips the per-task clock reads entirely.
        task_label: Maps an item to its metric ``kind`` label; only
            called in the parent process, so closures are fine.  Items
            label as ``"task"`` when omitted.

    Returns:
        Results in the order of *items*, regardless of completion order.

    Raises:
        SamplingError: If ``jobs`` is negative or the context cannot be
            pickled for worker processes.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    instr = _PoolInstruments(metrics) if metrics is not None else None
    label_of = task_label if task_label is not None else (lambda item: "task")

    if jobs <= 1 or len(items) <= 1:
        if instr is None:
            return [fn(context, item) for item in items]
        instr.workers.set(1)
        pid = os.getpid()
        out: List[R] = []
        for item in items:
            started = time.perf_counter()
            out.append(fn(context, item))
            elapsed = time.perf_counter() - started
            label = label_of(item)
            instr.tasks.labels(label).inc()
            instr.task_seconds.labels(label).observe(elapsed)
            instr.worker_tasks.labels(pid).inc()
        return out
    jobs = min(jobs, len(items))

    if chunk_size <= 0:
        chunk_size = max(1, math.ceil(len(items) / (jobs * CHUNKS_PER_WORKER)))
    else:
        # Cap explicit sizes so every worker gets at least one chunk;
        # results are unaffected (tasks are order- and chunk-independent
        # by construction), only load balance is.
        chunk_size = min(chunk_size, max(1, math.ceil(len(items) / jobs)))
    chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]

    try:
        payload = pickle.dumps(
            (fn, context, instr is not None),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except Exception as exc:
        raise SamplingError(
            f"campaign context is not picklable for jobs={jobs}: {exc}"
        ) from exc

    if instr is not None:
        instr.workers.set(jobs)
        instr.queue_depth.set(len(chunks))
    outstanding = len(chunks)
    per_chunk: List[Optional[List[R]]] = [None] * len(chunks)
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_worker_init, initargs=(payload,)
    ) as pool:
        futures = [
            pool.submit(_run_chunk, index, chunk)
            for index, chunk in enumerate(chunks)
        ]
        for future in as_completed(futures):
            index, results, pid, durations = future.result()
            per_chunk[index] = results
            outstanding -= 1
            if instr is not None:
                instr.record_chunk(
                    pid,
                    [label_of(item) for item in chunks[index]],
                    durations,
                    outstanding,
                )
    return [result for chunk in per_chunk for result in chunk]  # type: ignore[union-attr]
