"""The reference event loop: the executable specification of the engine.

:class:`ReferenceExecutor` is the original processor-sharing loop:
recompute rates, scan for the nearest completion, and drain every
active component on every event — O(active set) per event, with no
cumulative-service bookkeeping to get wrong.  It exists only as a test
oracle.  The differential suites hold the shipped virtual-time and
batched engines to it; they agree to floating-point reassociation
tolerance (cumulative sums re-associate the same arithmetic), not
bit-for-bit.  See docs/PERFORMANCE.md and docs/TESTING.md.

Phase entry, the shared-scan join window, and stream keys are the
shipped :class:`~repro.engine.executor.ConcurrentExecutor` machinery,
inherited unchanged, so the oracle checks the event loops and nothing
else.
"""

from __future__ import annotations

import math
from dataclasses import replace
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import disk
from repro.engine.buffers import BufferCache
from repro.engine.executor import (
    _DONE,
    ConcurrentExecutor,
    QueryResult,
    RunResult,
    Stream,
    _Running,
)
from repro.engine.memory import MemoryLedger
from repro.engine.profile import ResourceProfile
from repro.engine.stats import QueryStats
from repro.engine.trace import IntervalSample
from repro.errors import SimulationError

__all__ = ["ReferenceExecutor", "make_executor", "reference_run"]


def _rem_seq_field(run: _Running) -> float:
    """Remaining sequential work: a live field in this loop."""
    return run.rem_seq


def _phase_done(run: _Running) -> bool:
    return run.rem_seq <= _DONE and run.rem_rand <= _DONE and run.rem_cpu <= _DONE


class ReferenceExecutor(ConcurrentExecutor):
    """A :class:`ConcurrentExecutor` whose :meth:`run` is the reference loop.

    ``SimulationConfig.engine`` is ignored: every run takes this loop.
    Engine metrics get the engine-agnostic run totals only.
    """

    def run(
        self,
        streams: Sequence[Stream],
        background: Sequence[ResourceProfile] = (),
        pinned_bytes: float = 0.0,
    ) -> RunResult:
        if not streams and not background:
            raise SimulationError("nothing to run")
        if self._recorder is not None:
            raise SimulationError(
                "blame attribution requires the virtual-time engine; "
                "the reference engine does not maintain the "
                "cumulative-service deadlines the recorder reads"
            )
        result = self._run_reference(streams, background, pinned_bytes)
        if self._instr is not None:
            self._instr.record_run(result)
        return result

    def _run_reference(
        self,
        streams: Sequence[Stream],
        background: Sequence[ResourceProfile],
        pinned_bytes: float,
    ) -> RunResult:
        """The original O(active-set)-per-event loop (the specification)."""
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
        # All run-scoped state is local: the executor instance carries
        # nothing across (or between) runs except config and RNG state.
        active: List[_Running] = []
        # Counters replace per-event scans of `active`/`stream_done`:
        # the run ends when no foreground query is in flight and every
        # stream has drained.
        fg_active = 0
        open_streams = len(streams)
        max_events = self._sim.max_events
        time_epsilon = self._sim.time_epsilon
        tracer = self._tracer
        # Timed-arrival extension (see the Stream protocol): dormant
        # streams waiting on a clock time or on the next completion.
        arrival_fns = [getattr(s, "next_arrival", None) for s in streams]
        wake_heap: List[Tuple[float, int]] = []
        pending_wake = [False for _ in streams]
        pending_count = 0

        def start_query(profile: ResourceProfile, stream_idx: Optional[int]) -> None:
            nonlocal fg_active
            stats = QueryStats(
                template_id=profile.template_id,
                instance_id=profile.instance_id,
                start_time=now,
            )
            run = _Running(profile=profile, stream_idx=stream_idx, stats=stats)
            self._enter_phase(
                run, ledger, cache, len(active) > 0, active, _rem_seq_field
            )
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
            elif wake == math.inf:
                if not pending_wake[idx]:
                    pending_wake[idx] = True
                    pending_count += 1
            else:
                heappush(wake_heap, (wake if wake > now else now, idx))

        for profile in background:
            start_query(profile, None)
        for idx in range(len(streams)):
            pull_stream(idx)

        def handle_finished() -> bool:
            """Advance/complete every run whose phase has drained.

            Phases can complete without time passing (a cache-served
            dimension scan compiles to zero remaining work), so the main
            loop drains these before scheduling the next time step.
            """
            nonlocal fg_active, pending_count
            finished = [run for run in active if _phase_done(run)]
            if not finished:
                return False
            completed_any = False
            for run in finished:
                self._on_phase_end(run, cache)
                if run.phase_idx + 1 < len(run.profile.phases):
                    run.phase_idx += 1
                    self._enter_phase(
                        run, ledger, cache, len(active) > 1, active, _rem_seq_field
                    )
                elif run.profile.background:
                    run.phase_idx = 0  # circular reader: start over
                    self._enter_phase(
                        run, ledger, cache, len(active) > 1, active, _rem_seq_field
                    )
                else:
                    active.remove(run)
                    ledger.release(run.profile.instance_id)
                    run.stats.end_time = now
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
                for idx in range(len(pending_wake)):
                    if pending_wake[idx]:
                        pending_wake[idx] = False
                        pending_count -= 1
                        pull_stream(idx)
            return True

        while fg_active > 0 or open_streams > 0:
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "likely a stalled simulation"
                )

            if handle_finished():
                continue

            seq_rate, rand_rate, cpu_rate, group_sizes = self._rates(active)
            dt = self._time_to_next_event(active, seq_rate, rand_rate, cpu_rate)
            if wake_heap:
                dt_wake = wake_heap[0][0] - now
                if dt_wake < dt:
                    dt = dt_wake
            if not math.isfinite(dt) or dt < 0:
                raise SimulationError("no finite next event; simulation stalled")
            if dt < time_epsilon:
                dt = time_epsilon

            if tracer is not None:
                tracer.record(
                    self._interval_sample(
                        now, dt, active, seq_rate, rand_rate, cpu_rate
                    )
                )
            self._advance(active, dt, seq_rate, rand_rate, cpu_rate, group_sizes)
            now += dt
            while wake_heap and wake_heap[0][0] <= now:
                _, idx = heappop(wake_heap)
                pull_stream(idx)
            handle_finished()

        return RunResult(completions=completions, elapsed=now, events=events)

    def _on_phase_end(self, run: _Running, cache: BufferCache) -> None:
        """Phase epilogue: admit completed dimension scans to the cache."""
        phase = run.phase
        if (
            phase.dimension_scan
            and phase.relation is not None
            and self._sim.dimension_cache
        ):
            cache.admit(phase.relation, phase.seq_bytes)

    def _interval_sample(
        self,
        now: float,
        dt: float,
        active: Sequence[_Running],
        seq_rate: float,
        rand_rate: float,
        cpu_rate: float,
    ) -> IntervalSample:
        """Telemetry snapshot for the upcoming constant-rate interval."""
        seq_consumers = sum(1 for run in active if run.rem_seq > _DONE)
        rand_consumers = sum(1 for run in active if run.rem_rand > _DONE)
        cpu_consumers = sum(1 for run in active if run.rem_cpu > _DONE)
        keys = {
            self._stream_key(run) for run in active if run.rem_seq > _DONE
        }
        num_streams = len(keys) + rand_consumers
        return IntervalSample(
            start=now,
            duration=dt,
            num_queries=len(active),
            num_streams=num_streams,
            seq_bytes_per_sec=seq_rate * len(keys),
            logical_seq_bytes_per_sec=seq_rate * seq_consumers,
            rand_ops_per_sec=rand_rate * rand_consumers,
            cpu_cores_busy=cpu_rate * cpu_consumers,
            per_query_phase={
                run.profile.instance_id: run.phase.label for run in active
            },
        )

    def _rates(
        self, active: Sequence[_Running]
    ) -> Tuple[float, float, float, Dict[disk.StreamKey, int]]:
        """Service rates for the current active set.

        Returns the per-stream sequential rate, per-stream random rate,
        per-query CPU rate, and the membership count of each sequential
        stream (to attribute shared-scan credit).
        """
        keys: List[disk.StreamKey] = []
        group_sizes: Dict[disk.StreamKey, int] = {}
        cpu_demand = 0
        for run in active:
            if run.rem_seq > _DONE:
                key = self._stream_key(run)
                run.seq_key = key  # reused by _advance this event
                keys.append(key)
                group_sizes[key] = group_sizes.get(key, 0) + 1
            if run.rem_rand > _DONE:
                keys.append(disk.random_key(run.profile.instance_id))
            if run.rem_cpu > _DONE:
                cpu_demand += 1

        rates = disk.allocate(self._hw, keys)
        cpu_rate = 1.0
        if cpu_demand > self._hw.cores:
            cpu_rate = self._hw.cores / cpu_demand
        return rates.seq_bytes_per_sec, rates.rand_ops_per_sec, cpu_rate, group_sizes

    def _time_to_next_event(
        self,
        active: Sequence[_Running],
        seq_rate: float,
        rand_rate: float,
        cpu_rate: float,
    ) -> float:
        """Earliest time until any component of any query drains."""
        best = math.inf
        for run in active:
            if run.rem_seq > _DONE and seq_rate > 0:
                dt = run.rem_seq / seq_rate
                if dt < best:
                    best = dt
            if run.rem_rand > _DONE and rand_rate > 0:
                dt = run.rem_rand / (rand_rate * run.rand_factor)
                if dt < best:
                    best = dt
            if run.rem_cpu > _DONE and cpu_rate > 0:
                dt = run.rem_cpu / cpu_rate
                if dt < best:
                    best = dt
        return best

    def _advance(
        self,
        active: Sequence[_Running],
        dt: float,
        seq_rate: float,
        rand_rate: float,
        cpu_rate: float,
        group_sizes: Dict[disk.StreamKey, int],
    ) -> None:
        """Drain every component by *dt* at the current rates."""
        for run in active:
            had_io = run.rem_seq > _DONE or run.rem_rand > _DONE
            if run.rem_seq > _DONE:
                served = min(run.rem_seq, seq_rate * dt)
                run.rem_seq -= served
                run.stats.seq_bytes_read += served
                # seq_key was computed by _rates for this same event.
                if group_sizes.get(run.seq_key, 1) > 1:
                    run.stats.shared_seq_bytes += served
            if run.rem_rand > _DONE:
                served = min(run.rem_rand, rand_rate * run.rand_factor * dt)
                run.rem_rand -= served
                run.stats.rand_ops_done += served
            if run.rem_cpu > _DONE:
                done = min(run.rem_cpu, cpu_rate * dt)
                run.rem_cpu -= done
                run.stats.cpu_seconds += done
            if had_io:
                run.stats.io_seconds += dt


def make_executor(engine: str, config, **kwargs) -> ConcurrentExecutor:
    """An executor for *engine*: the oracle for ``"reference"``, else the
    shipped executor with ``config.simulation.engine`` set to *engine*."""
    if engine == "reference":
        return ReferenceExecutor(config, **kwargs)
    simulation = replace(config.simulation, engine=engine)
    return ConcurrentExecutor(replace(config, simulation=simulation), **kwargs)


def reference_run(
    self: ConcurrentExecutor,
    streams: Sequence[Stream],
    background: Sequence[ResourceProfile] = (),
    pinned_bytes: float = 0.0,
) -> RunResult:
    """Drop-in for :meth:`ConcurrentExecutor.run` that takes the oracle.

    Monkeypatch it over ``ConcurrentExecutor.run`` to route a whole
    in-process pipeline (campaign, replay, eval) through the reference
    loop.  The oracle shares this executor's RNG, so draws advance
    exactly as they would on the shipped engine.
    """
    oracle = ReferenceExecutor(
        self._config,
        rng=self._rng,
        tracer=self._tracer,
        metrics=self._metrics,
        recorder=self._recorder,
    )
    return oracle.run(streams, background, pinned_bytes)
