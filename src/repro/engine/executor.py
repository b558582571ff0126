"""Event-driven concurrent query executor.

This is the substrate that stands in for PostgreSQL in the paper's
testbed.  It executes any number of query *streams* under processor
sharing:

* The disk is time-sliced across streams (:mod:`repro.engine.disk`);
  concurrent sequential scans of the same table coalesce into one stream
  whose progress credits every member (synchronized scans).
* RAM is a ledger (:mod:`repro.engine.memory`); blocking operators whose
  working set exceeds the available memory spill, converting the deficit
  into private sequential I/O.
* Dimension tables become buffer-resident after their first full scan
  (:mod:`repro.engine.buffers`).
* Random I/O service time gains a multiplicative variance factor under
  contention, reproducing the seek-time noise the paper reports for
  index-scan templates (Sec. 6.2).

The loop is classic processor-sharing simulation: rates only change when
the active set changes, so we jump from completion event to completion
event instead of ticking a clock.  It uses cumulative-service
scheduling: each resource class (sequential bytes, random ops, CPU)
carries a cumulative service integral that advances by ``rate * dt`` per
interval.  A component's remaining work becomes a *static drain
deadline* in that cumulative space, computed once at phase entry;
next-event selection is a min over three deadline heaps and an event
touches only the components that actually drained, so per-event cost is
O(log n) in the active set.

``SimulationConfig.engine`` picks this scalar loop (``'virtual_time'``,
the default) or the lockstep numpy mirror in :mod:`repro.engine.batched`
(``'batched'``).  The test suite keeps the original full-rescan loop as
an executable specification (``tests/reference_engine.py``); the
differential tests hold both shipped engines to it within
floating-point reassociation tolerance — see docs/PERFORMANCE.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from ..config import SystemConfig
from ..errors import SimulationError
from ..obs.metrics import Registry
from . import disk
from .buffers import BufferCache
from .memory import MemoryLedger
from .profile import Phase, ResourceProfile
from .stats import QueryStats
from .trace import IntervalSample, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..explain.recorder import ExplainRecorder

#: Remaining-work threshold below which a component counts as drained.
_DONE = 1e-7

#: Relative slack added to the drain test in cumulative-service space.
#: The cumulative integrals grow without bound (bytes served since the
#: run started), so an absolute test against ``_DONE`` alone would fall
#: below one ulp once the integral passes ~1e9; the relative term keeps
#: the test meaningful at any magnitude while staying far smaller than
#: any real demand.
_REL_DONE = 1e-13


class Stream(Protocol):
    """A source of queries; the executor pulls the next one on completion.

    Streams may additionally implement the *timed-arrival* extension
    used by open-loop replay (:mod:`repro.sched.replay`): a method
    ``next_arrival(now) -> Optional[float]`` consulted whenever
    :meth:`next_profile` returns ``None``.  Its answer decides what a
    ``None`` means:

    * no ``next_arrival`` method, or it returns ``None`` — the stream is
      exhausted and closes (the historical behaviour);
    * a finite time ``t`` — the stream stays open and is re-polled once
      simulated time reaches ``t`` (an arrival that has not happened
      yet);
    * ``math.inf`` — the stream stays open and is re-polled after the
      next foreground completion (work is queued but the scheduling
      policy deferred it; a completion is the only event that can
      change its mind).

    Streams without the extension pay nothing: the wake machinery only
    activates when a pull actually defers.
    """

    name: str

    def next_profile(self, now: float, completed: int) -> Optional[ResourceProfile]:
        """Return the next query to run, or ``None`` when the stream is done.

        Args:
            now: Current simulated time.
            completed: Number of queries this stream has already finished.
        """
        ...


@dataclass
class SingleShotStream:
    """A stream that runs exactly one profile."""

    profile: ResourceProfile
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"single-{self.profile.instance_id}"

    def next_profile(self, now: float, completed: int) -> Optional[ResourceProfile]:
        return self.profile if completed == 0 else None


@dataclass
class _Running:
    """Book-keeping for one in-flight query.

    ``phase`` and ``seq_key`` are caches maintained by the executor:
    the current :class:`Phase` is materialized once per phase entry (the
    event loop reads it many times per event), and the disk stream key
    is computed once when the phase's sequential component starts.

    ``rem_*`` hold the phase's *initial* demands (the virtual-time
    engine never decrements them; remaining work is ``deadline -
    integral``).  The ``vt_*`` fields are the virtual-time bookkeeping:

    * ``vt_seq_deadline`` / ``vt_rand_deadline`` / ``vt_cpu_deadline``:
      drain deadlines in cumulative-service space.  Random deadlines are
      normalized by the phase's variance factor so one shared integral
      serves every query.
    * ``vt_pending`` / ``vt_io_pending``: undrained components of the
      current phase (all / I/O only); the phase ends at 0 pending, and
      ``io_seconds`` closes when the I/O count hits 0.
    * ``vt_share_entry``: the scan group's shared-service counter at
      join time (see the group ledger in ``_run_virtual_time``).
    """

    profile: ResourceProfile
    stream_idx: Optional[int]  # None for background work
    stats: QueryStats
    phase_idx: int = 0
    rem_seq: float = 0.0
    rem_rand: float = 0.0
    rem_cpu: float = 0.0
    rand_factor: float = 1.0
    seq_private: bool = False
    phase: Optional[Phase] = None
    seq_key: Optional[disk.StreamKey] = None
    vt_seq_deadline: float = -math.inf
    vt_rand_deadline: float = -math.inf
    vt_cpu_deadline: float = -math.inf
    vt_pending: int = 0
    vt_io_pending: int = 0
    vt_io_start: float = 0.0
    vt_share_entry: float = 0.0
    vt_shared: bool = False
    vt_last_phase: int = 0  # len(profile.phases) - 1, cached at start


@dataclass
class QueryResult:
    """One completed query: its stats plus the stream it came from."""

    stream_name: str
    stats: QueryStats


@dataclass
class RunResult:
    """Outcome of one executor run.

    Attributes:
        completions: Every finished foreground query, in completion order.
        elapsed: Simulated time at which the last foreground query ended.
        events: Number of scheduling events processed.  Comparable within
            one engine only: the engines agree on physics, not on how
            many loop iterations the same run takes.
    """

    completions: List[QueryResult]
    elapsed: float
    events: int

    def by_stream(self) -> Mapping[str, List[QueryStats]]:
        """Completed queries grouped by stream name, in order."""
        out: Dict[str, List[QueryStats]] = {}
        for item in self.completions:
            out.setdefault(item.stream_name, []).append(item.stats)
        return out

    def latencies(self) -> List[float]:
        """Latency of every completion, in completion order."""
        return [item.stats.latency for item in self.completions]

    def summary(self) -> str:
        """One-paragraph diagnostic rendering of the run."""
        if not self.completions:
            return f"no completions in {self.elapsed:.1f}s ({self.events} events)"
        lats = self.latencies()
        spilled = sum(c.stats.spill_bytes for c in self.completions)
        lines = [
            f"{len(self.completions)} queries in {self.elapsed:.1f}s "
            f"({self.events} events)",
            f"latency min/mean/max: {min(lats):.1f}/"
            f"{sum(lats) / len(lats):.1f}/{max(lats):.1f}s",
        ]
        if spilled > 0:
            lines.append(f"spill traffic: {spilled / 1024**2:.0f} MiB")
        return "\n".join(lines)


class _EngineInstruments:
    """The executor's metric families, bound once per registry.

    Engine-agnostic run totals are recorded from the :class:`RunResult`
    after the event loop finishes; the virtual-time loop additionally
    reports its cumulative service integrals and deadline-heap peaks.
    Per-phase timing is not a metric: a :class:`~repro.engine.trace.
    Tracer` sees every interval's per-query phase labels.
    """

    def __init__(self, registry: Registry):
        self.runs = registry.counter(
            "engine_runs_total", "Executor runs completed"
        )
        self.events = registry.counter(
            "engine_events_total", "Scheduling events processed"
        )
        self.completions = registry.counter(
            "engine_completions_total", "Foreground queries completed"
        )
        self.simulated_seconds = registry.counter(
            "engine_simulated_seconds_total", "Simulated time elapsed"
        )
        self.service = registry.counter(
            "engine_service_total",
            "Service delivered to completed queries, by resource "
            "(seq: bytes, rand: ops, cpu/io: seconds)",
            labels=("resource",),
        )
        self.spill_bytes = registry.counter(
            "engine_spill_bytes_total",
            "Extra sequential I/O generated by memory spills",
        )
        self.cache_served_bytes = registry.counter(
            "engine_cache_served_bytes_total",
            "Scan bytes answered by the dimension buffer cache",
        )
        self.integral = registry.gauge(
            "engine_vt_service_integral",
            "Cumulative-service integral at the end of the last "
            "virtual-time run, by resource class",
            labels=("resource",),
        )
        self.heap_peak = registry.gauge(
            "engine_vt_heap_peak_entries",
            "Largest deadline-heap population observed, by resource",
            labels=("resource",),
        )

    def record_run(self, result: "RunResult") -> None:
        """Fold one finished run into the engine-agnostic totals."""
        self.runs.inc()
        self.events.inc(result.events)
        self.completions.inc(len(result.completions))
        self.simulated_seconds.inc(result.elapsed)
        seq = rand = cpu = io = spill = cached = 0.0
        for item in result.completions:
            stats = item.stats
            seq += stats.seq_bytes_read
            rand += stats.rand_ops_done
            cpu += stats.cpu_seconds
            io += stats.io_seconds
            spill += stats.spill_bytes
            cached += stats.cache_served_bytes
        self.service.labels("seq").inc(seq)
        self.service.labels("rand").inc(rand)
        self.service.labels("cpu").inc(cpu)
        self.service.labels("io").inc(io)
        self.spill_bytes.inc(spill)
        self.cache_served_bytes.inc(cached)


class ConcurrentExecutor:
    """Runs query streams to completion under resource contention.

    One executor instance represents one experiment on one (simulated)
    machine: the buffer cache starts cold and warms across the run, and
    pinned memory (the spoiler) persists for the whole run.
    """

    #: Fraction of RAM available for caching dimension tables.
    DIMENSION_CACHE_FRACTION = 0.30

    def __init__(
        self,
        config: SystemConfig,
        rng: Optional[np.random.Generator] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Registry] = None,
        recorder: Optional["ExplainRecorder"] = None,
    ):
        self._config = config
        self._hw = config.hardware
        self._sim = config.simulation
        self._rng = rng if rng is not None else np.random.default_rng(self._sim.seed)
        self._tracer = tracer
        self._recorder = recorder
        if metrics is None and config.observability.engine_metrics:
            metrics = Registry()
        self._metrics = metrics
        # Instrument families are resolved once; the hot loop sees either
        # a bound object or None (zero extra bytecodes per event when
        # disabled — the default).
        self._instr = _EngineInstruments(metrics) if metrics is not None else None

    @property
    def metrics(self) -> Optional[Registry]:
        """The registry this executor reports into (None when disabled)."""
        return self._metrics

    def run(
        self,
        streams: Sequence[Stream],
        background: Sequence[ResourceProfile] = (),
        pinned_bytes: float = 0.0,
    ) -> RunResult:
        """Execute *streams* (plus background work) until all are drained.

        Args:
            streams: Foreground query sources.  The run ends when every
                stream has returned ``None`` and its last query finished.
            background: Profiles that run forever by cycling their phases
                (spoiler readers); they contend but never complete.
            pinned_bytes: RAM pinned for the duration (spoiler pinning).

        Returns:
            Per-query statistics in completion order.

        Raises:
            SimulationError: If the event budget is exceeded or no
                progress can be made.
        """
        if not streams and not background:
            raise SimulationError("nothing to run")
        if self._sim.engine == "batched" and self._batched_ok():
            # Batch of one; bit-identical to the virtual-time loop.
            # run_batch records into the registry itself (including the
            # batched-specific families), so skip record_run here.
            from .batched import RunSpec, run_batch

            return run_batch(
                self._config,
                [
                    RunSpec(
                        streams=streams,
                        background=background,
                        pinned_bytes=pinned_bytes,
                        rng=self._rng,
                    )
                ],
                metrics=self._metrics,
            )[0]
        else:
            result = self._run_virtual_time(streams, background, pinned_bytes)
        if self._instr is not None:
            self._instr.record_run(result)
        return result

    def _batched_ok(self) -> bool:
        """Whether the batched engine can serve this run.

        Tracers need per-interval telemetry and blame attribution
        records per-phase entry/exit coordinates — both inherently
        scalar, so those runs take the virtual-time loop (which the
        batched engine mirrors bit-for-bit anyway).
        """
        return self._tracer is None and self._recorder is None

    # ------------------------------------------------------------------
    # Virtual-time engine: cumulative-service scheduling.

    def _run_virtual_time(
        self,
        streams: Sequence[Stream],
        background: Sequence[ResourceProfile],
        pinned_bytes: float,
    ) -> RunResult:
        """Cumulative-service event loop.

        Three integrals advance in lock step with simulated time:

        * ``s_seq`` — bytes served to *each* sequential stream (shared
          group members are credited at the full stream rate, so one
          integral covers every consumer);
        * ``s_rand`` — variance-normalized random ops served per stream;
        * ``s_cpu`` — seconds of one core's service per query.

        A component entering a phase with remaining work ``w`` drains
        when its integral reaches ``integral_now + w`` — a static
        deadline pushed onto that resource's heap.  Rates may change at
        every event (the fair-share divisor tracks stream membership
        incrementally via :class:`repro.engine.disk.StreamTable`), but
        deadlines never move, so next-event selection is three heap
        peeks and an event settles only what actually drained.
        """
        ledger = MemoryLedger(total_bytes=self._hw.ram_bytes)
        if pinned_bytes > 0:
            ledger.pin("spoiler", pinned_bytes)
        cache = BufferCache(
            capacity_bytes=self.DIMENSION_CACHE_FRACTION * self._hw.ram_bytes
        )

        now = 0.0
        events = 0
        completions: List[QueryResult] = []
        completed_counts = [0 for _ in streams]
        stream_done = [False for _ in streams]
        active: List[_Running] = []
        fg_active = 0
        open_streams = len(streams)
        max_events = self._sim.max_events
        time_epsilon = self._sim.time_epsilon
        tracer = self._tracer
        instr = self._instr
        # Blame-attribution hooks (repro.explain): append-only records of
        # phase entries and I/O exits, resolved into bound methods so the
        # disabled path pays one None test per phase transition and the
        # per-event hot loop pays nothing.  The hook fires nearly once
        # per event, so its constant is the attribution overhead gate's
        # whole budget: phases with no I/O armed (the large majority on
        # catalog workloads) get a short 5-slot record instead of the
        # full 12-slot one.  All matrix math happens in post-processing —
        # the loop's arithmetic is untouched, which is what keeps
        # attribution-on runs bit-identical to attribution-off.
        recorder = self._recorder
        if recorder is not None:
            recorder.begin_run()
            rec_phase = recorder.phases.append
            rec_io = recorder.io_exits.append
        else:
            rec_phase = None
            rec_io = None
        cores = self._hw.cores
        seq_bandwidth = self._hw.seq_bandwidth
        random_iops = self._hw.random_iops
        inf = math.inf

        # Cumulative service integrals, one per resource class.
        s_seq = 0.0
        s_rand = 0.0
        s_cpu = 0.0
        # Instrumentation state kept loop-local: peak heap sizes fold
        # into ints, flushed to the registry once after the loop
        # (Registry.labels() takes a lock — too hot for per-phase use).
        peak_seq = peak_rand = peak_cpu = 0
        # Deadline heaps: (deadline, tiebreak, run).  Entries are pushed
        # at phase entry and leave only by draining — phases cannot be
        # abandoned, so no lazy invalidation is needed.
        seq_heap: List[Tuple[float, int, _Running]] = []
        rand_heap: List[Tuple[float, int, _Running]] = []
        cpu_heap: List[Tuple[float, int, _Running]] = []
        tiebreak = 0
        # Incremental stream membership (fair-share divisor in O(1)).
        table = disk.StreamTable(self._hw)
        add_seq = table.add_seq
        remove_seq = table.remove_seq
        add_rand = table.add_rand
        remove_rand = table.remove_rand
        enter_impl = self._enter_phase
        stream_key = self._stream_key
        dimension_cache = self._sim.dimension_cache
        cpu_demand = 0
        seq_consumers = 0  # telemetry: components, not streams
        num_streams = 0  # mirrors table.num_streams (fair-share divisor)
        num_rand = 0
        # Shared-scan group ledger: stream key -> [mark, credit] where
        # `credit` integrates per-stream service over the intervals the
        # group had >= 2 members and `mark` is the s_seq value of the
        # last membership change.  A member's shared bytes are the
        # credit growth between its join and its drain.
        share_groups: Dict[disk.StreamKey, List[float]] = {}
        # Runs whose current phase has fully drained, awaiting phase
        # transition (mirrors the reference loop's `finished` scan).
        finished: List[_Running] = []
        # instance id -> phase label, maintained only when tracing.
        phase_labels: Dict[int, str] = {}
        # Timed-arrival extension: dormant streams waiting on a clock
        # time (min-heap) or on the next foreground completion (flags).
        arrival_fns = [getattr(s, "next_arrival", None) for s in streams]
        wake_heap: List[Tuple[float, int]] = []
        pending_wake = [False for _ in streams]
        pending_count = 0

        def vt_rem_seq(run: _Running) -> float:
            """Remaining sequential work (deadline minus integral)."""
            return run.vt_seq_deadline - s_seq

        def enter_phase(run: _Running, contended: bool) -> None:
            nonlocal cpu_demand, seq_consumers, tiebreak, num_streams, num_rand
            nonlocal peak_seq, peak_rand, peak_cpu
            enter_impl(run, ledger, cache, contended, active, vt_rem_seq)
            pending = 0
            io_pending = 0
            # Record defaults for the unarmed branches; the armed
            # branches rebind them to the locals they compute anyway, so
            # the attribution record below builds from locals instead of
            # re-reading run attributes (the hook fires once per phase —
            # nearly once per event — so its constant matters).
            key = None
            shared = False
            factor = 1.0
            rem_s = run.rem_seq
            if rem_s > _DONE:
                key = stream_key(run)
                run.seq_key = key
                size = add_seq(key)
                if size == 1:
                    num_streams += 1
                shared = not run.seq_private and run.phase.relation is not None
                run.vt_shared = shared
                if shared:
                    group = share_groups.get(key)
                    if group is None:
                        group = share_groups[key] = [s_seq, 0.0]
                    else:
                        if size - 1 >= 2:
                            group[1] += s_seq - group[0]
                        group[0] = s_seq
                    run.vt_share_entry = group[1]
                deadline = s_seq + rem_s
                run.vt_seq_deadline = deadline
                tiebreak += 1
                heappush(seq_heap, (deadline, tiebreak, run))
                seq_consumers += 1
                pending += 1
                io_pending += 1
                # Peak tracking rides the push branches (the counters
                # mirror the heap sizes, so an int compare suffices and
                # only the resource actually pushed pays it).
                if instr is not None and seq_consumers > peak_seq:
                    peak_seq = seq_consumers
            rem_r = run.rem_rand
            if rem_r > _DONE:
                factor = run.rand_factor
                deadline = s_rand + rem_r / factor
                run.vt_rand_deadline = deadline
                tiebreak += 1
                heappush(rand_heap, (deadline, tiebreak, run))
                add_rand()
                num_streams += 1
                num_rand += 1
                pending += 1
                io_pending += 1
                if instr is not None and num_rand > peak_rand:
                    peak_rand = num_rand
            rem_c = run.rem_cpu
            if rem_c > _DONE:
                deadline = s_cpu + rem_c
                run.vt_cpu_deadline = deadline
                tiebreak += 1
                heappush(cpu_heap, (deadline, tiebreak, run))
                cpu_demand += 1
                pending += 1
                if instr is not None and cpu_demand > peak_cpu:
                    peak_cpu = cpu_demand
            run.vt_pending = pending
            run.vt_io_pending = io_pending
            if io_pending:
                run.vt_io_start = now
            if tracer is not None:
                phase_labels[run.profile.instance_id] = run.phase.label
            if rec_phase is not None:
                if io_pending:
                    rec_phase((
                        run.profile,
                        run.phase_idx,
                        now,
                        s_seq,
                        s_rand,
                        s_cpu,
                        rem_s,
                        rem_r,
                        rem_c,
                        factor,
                        key,
                        shared,
                    ))
                else:
                    # CPU-only phase: the I/O fields are all at their
                    # neutral defaults, so a short record suffices.
                    rec_phase((run.profile, run.phase_idx, now, s_cpu, rem_c))
            if pending == 0:
                finished.append(run)

        def start_query(profile: ResourceProfile, stream_idx: Optional[int]) -> None:
            nonlocal fg_active
            stats = QueryStats(
                template_id=profile.template_id,
                instance_id=profile.instance_id,
                start_time=now,
            )
            run = _Running(profile=profile, stream_idx=stream_idx, stats=stats)
            run.vt_last_phase = len(profile.phases) - 1
            enter_phase(run, len(active) > 0)
            active.append(run)
            if stream_idx is not None:
                fg_active += 1

        def pull_stream(idx: int) -> None:
            nonlocal open_streams, pending_count
            if stream_done[idx]:
                return
            profile = streams[idx].next_profile(now, completed_counts[idx])
            if profile is not None:
                start_query(profile, idx)
                return
            arrival_fn = arrival_fns[idx]
            wake = arrival_fn(now) if arrival_fn is not None else None
            if wake is None:
                stream_done[idx] = True
                open_streams -= 1
            elif wake == inf:
                if not pending_wake[idx]:
                    pending_wake[idx] = True
                    pending_count += 1
            else:
                heappush(wake_heap, (wake if wake > now else now, idx))

        def settle_seq(entry: Tuple[float, int, _Running]) -> None:
            """One sequential component crossed its deadline."""
            nonlocal seq_consumers, num_streams
            deadline, _, run = entry
            residual = deadline - s_seq
            served = run.rem_seq - residual if residual > 0.0 else run.rem_seq
            stats = run.stats
            stats.seq_bytes_read += served
            key = run.seq_key
            remaining = remove_seq(key)
            if remaining == 0:
                num_streams -= 1
            if run.vt_shared:
                group = share_groups[key]
                if remaining >= 1:  # group had >= 2 members until now
                    group[1] += s_seq - group[0]
                group[0] = s_seq
                credit = group[1] - run.vt_share_entry
                if credit > 0.0:
                    stats.shared_seq_bytes += credit if credit < served else served
            seq_consumers -= 1
            run.vt_pending -= 1
            run.vt_io_pending -= 1
            if run.vt_io_pending == 0:
                stats.io_seconds += now - run.vt_io_start
                if rec_io is not None:
                    rec_io((
                        run.profile.instance_id, run.phase_idx, now, s_cpu,
                    ))
            if run.vt_pending == 0:
                finished.append(run)

        def settle_rand(entry: Tuple[float, int, _Running]) -> None:
            """One random-I/O component crossed its deadline."""
            nonlocal num_streams, num_rand
            deadline, _, run = entry
            residual = deadline - s_rand
            if residual > 0.0:
                served = run.rem_rand - residual * run.rand_factor
            else:
                served = run.rem_rand
            run.stats.rand_ops_done += served
            remove_rand()
            num_streams -= 1
            num_rand -= 1
            run.vt_pending -= 1
            run.vt_io_pending -= 1
            if run.vt_io_pending == 0:
                run.stats.io_seconds += now - run.vt_io_start
                if rec_io is not None:
                    rec_io((
                        run.profile.instance_id, run.phase_idx, now, s_cpu,
                    ))
            if run.vt_pending == 0:
                finished.append(run)

        def settle_cpu(entry: Tuple[float, int, _Running]) -> None:
            """One CPU component crossed its deadline."""
            nonlocal cpu_demand
            deadline, _, run = entry
            residual = deadline - s_cpu
            served = run.rem_cpu - residual if residual > 0.0 else run.rem_cpu
            run.stats.cpu_seconds += served
            cpu_demand -= 1
            run.vt_pending -= 1
            if run.vt_pending == 0:
                finished.append(run)

        def process_finished() -> None:
            """Advance/complete every run whose phase has drained.

            Mirrors the reference loop: the batch is a snapshot, runs
            are handled in active-set order, and phases that complete
            during processing (zero-work phases) wait for the next event.
            """
            nonlocal fg_active, pending_count
            if len(finished) == 1:
                batch = [finished[0]]
            else:
                batch = finished[:]
                order = {id(run): pos for pos, run in enumerate(active)}
                batch.sort(key=lambda run: order[id(run)])
            finished.clear()
            completed_any = False
            for run in batch:
                # Phase epilogue: admit completed dimension scans.
                phase = run.phase
                if (
                    phase.dimension_scan
                    and phase.relation is not None
                    and dimension_cache
                ):
                    cache.admit(phase.relation, phase.seq_bytes)
                if run.phase_idx < run.vt_last_phase:
                    run.phase_idx += 1
                    enter_phase(run, len(active) > 1)
                elif run.profile.background:
                    run.phase_idx = 0  # circular reader: start over
                    enter_phase(run, len(active) > 1)
                else:
                    active.remove(run)
                    ledger.release(run.profile.instance_id)
                    run.stats.end_time = now
                    if tracer is not None:
                        phase_labels.pop(run.profile.instance_id, None)
                    idx = run.stream_idx
                    if idx is not None:
                        fg_active -= 1
                        completed_any = True
                        completions.append(
                            QueryResult(
                                stream_name=streams[idx].name, stats=run.stats
                            )
                        )
                        completed_counts[idx] += 1
                        pull_stream(idx)
            if completed_any and pending_count:
                # A freed slot may unblock a deferred admission: re-poll
                # every stream that asked to be woken on completion.
                for idx in range(len(pending_wake)):
                    if pending_wake[idx]:
                        pending_wake[idx] = False
                        pending_count -= 1
                        pull_stream(idx)

        for profile in background:
            start_query(profile, None)
        for idx in range(len(streams)):
            pull_stream(idx)

        while fg_active > 0 or open_streams > 0:
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "likely a stalled simulation"
                )

            if finished:
                process_finished()
                continue

            divisor = num_streams if num_streams > 0 else 1
            seq_rate = seq_bandwidth / divisor
            rand_rate = random_iops / divisor
            cpu_rate = 1.0 if cpu_demand <= cores else cores / cpu_demand

            # Next event: nearest deadline across the three resources.
            best = inf
            which = -1
            if seq_heap:
                best = (seq_heap[0][0] - s_seq) / seq_rate
                which = 0
            if rand_heap:
                dt = (rand_heap[0][0] - s_rand) / rand_rate
                if dt < best:
                    best = dt
                    which = 1
            if cpu_heap:
                dt = (cpu_heap[0][0] - s_cpu) / cpu_rate
                if dt < best:
                    best = dt
                    which = 2
            if wake_heap:
                dt = wake_heap[0][0] - now
                if dt < best:
                    best = dt
                    which = 3
            if which < 0 or not best < inf:
                raise SimulationError("no finite next event; simulation stalled")
            dt = best
            if dt < time_epsilon:
                dt = time_epsilon

            if tracer is not None:
                tracer.record(
                    IntervalSample(
                        start=now,
                        duration=dt,
                        num_queries=len(active),
                        num_streams=num_streams,
                        seq_bytes_per_sec=seq_rate * (num_streams - num_rand),
                        logical_seq_bytes_per_sec=seq_rate * seq_consumers,
                        rand_ops_per_sec=rand_rate * num_rand,
                        cpu_cores_busy=cpu_rate * cpu_demand,
                        per_query_phase=dict(phase_labels),
                    )
                )

            s_seq += seq_rate * dt
            s_rand += rand_rate * dt
            s_cpu += cpu_rate * dt
            now += dt

            # The component that set `dt` has drained by construction;
            # pop it without re-testing so floating-point residue can
            # never stall the loop.  (An arrival wake, which == 3, pops
            # from the wake heap below instead.)
            if which == 0:
                settle_seq(heappop(seq_heap))
            elif which == 1:
                settle_rand(heappop(rand_heap))
            elif which == 2:
                settle_cpu(heappop(cpu_heap))
            # Then everything else that crossed within tolerance.
            bound = s_seq + _DONE + s_seq * _REL_DONE
            while seq_heap and seq_heap[0][0] <= bound:
                settle_seq(heappop(seq_heap))
            bound = s_cpu + _DONE + s_cpu * _REL_DONE
            while cpu_heap and cpu_heap[0][0] <= bound:
                settle_cpu(heappop(cpu_heap))
            while rand_heap:
                head = rand_heap[0]
                rem = (head[0] - s_rand) * head[2].rand_factor
                if rem > _DONE + s_rand * _REL_DONE:
                    break
                settle_rand(heappop(rand_heap))
            while wake_heap and wake_heap[0][0] <= now:
                _, idx = heappop(wake_heap)
                pull_stream(idx)

            if finished:
                process_finished()

        if instr is not None:
            instr.integral.labels("seq").set(s_seq)
            instr.integral.labels("rand").set(s_rand)
            instr.integral.labels("cpu").set(s_cpu)
            instr.heap_peak.labels("seq").set_max(peak_seq)
            instr.heap_peak.labels("rand").set_max(peak_rand)
            instr.heap_peak.labels("cpu").set_max(peak_cpu)

        return RunResult(completions=completions, elapsed=now, events=events)

    # ------------------------------------------------------------------
    # Phase entry and stream keys.

    def _enter_phase(
        self,
        run: _Running,
        ledger: MemoryLedger,
        cache: BufferCache,
        contended: bool,
        active: Sequence["_Running"],
        rem_seq: Callable[["_Running"], float],
    ) -> None:
        """Initialize the remaining-work counters for the current phase.

        ``rem_seq`` abstracts over how the calling engine tracks
        remaining sequential work (deadline-minus-integral for virtual
        time, a live field for the test suite's reference loop); it is only
        consulted for the shared-scan join-window test.
        """
        sim = self._sim
        phase = run.profile.phases[run.phase_idx]
        run.phase = phase
        qid = run.profile.instance_id

        seq_demand = phase.seq_bytes
        if (
            phase.dimension_scan
            and phase.relation is not None
            and sim.dimension_cache
            and cache.is_resident(phase.relation)
        ):
            run.stats.cache_served_bytes += seq_demand
            seq_demand = 0.0  # served from the buffer cache

        run.seq_private = phase.relation is None or not sim.shared_scans
        if not run.seq_private and sim.scan_share_window < 1.0:
            # Synchronized scans have a join window: a scan arriving after
            # the in-flight group has covered more than `scan_share_window`
            # of the table cannot catch up and runs privately.
            group_progress = self._group_progress(
                phase.relation, run, active, rem_seq
            )
            if group_progress is not None and (
                group_progress > sim.scan_share_window
            ):
                run.seq_private = True
        if phase.spillable:
            deficit = ledger.spill_bytes(qid, phase.mem_bytes)
            if deficit > 0:
                available = ledger.available_for(qid)
                thrash = 1.0 + sim.spill_thrash * deficit / available
                extra = deficit * sim.spill_multiplier * thrash
                seq_demand += extra
                run.seq_private = True
                run.stats.spill_bytes += extra

        if phase.mem_bytes > 0:
            ledger.hold(qid, phase.mem_bytes)
            run.stats.working_set_bytes = max(
                run.stats.working_set_bytes, phase.mem_bytes
            )
        else:
            ledger.release(qid)

        run.rem_seq = seq_demand
        run.rem_rand = phase.rand_ops
        run.rem_cpu = phase.cpu_seconds

        if phase.rand_ops > 0 and contended and self._hw.random_io_variance > 0:
            spread = self._hw.random_io_variance
            run.rand_factor = float(self._rng.uniform(1.0 - spread, 1.0 + spread))
            run.rand_factor = max(run.rand_factor, 0.05)
        else:
            run.rand_factor = 1.0

    def _group_progress(
        self,
        relation: Optional[str],
        joiner: "_Running",
        active: Sequence["_Running"],
        rem_seq: Callable[["_Running"], float],
    ) -> Optional[float]:
        """Progress fraction of the in-flight scan group on *relation*.

        Returns ``None`` when no other query is currently scanning the
        relation (the joiner would start a fresh group).
        """
        best: Optional[float] = None
        for other in active:
            if other is joiner or other.seq_private:
                continue
            remaining = rem_seq(other)
            if remaining <= _DONE or other.phase.relation != relation:
                continue
            total = other.phase.seq_bytes
            if total <= 0:
                continue
            progress = 1.0 - remaining / total
            best = progress if best is None else min(best, progress)
        return best

    def _stream_key(self, run: _Running) -> disk.StreamKey:
        phase = run.phase
        if run.seq_private or phase.relation is None:
            return disk.private_seq_key(run.profile.instance_id)
        return disk.shared_scan_key(phase.relation)
