"""Batched lockstep virtual-time engine.

Advances many *independent* simulations — same hardware/simulation
config, different streams/seeds — in lockstep over numpy arrays.  Each
run occupies one column: the three cumulative service integrals become
rows of an ``(3, n_runs)`` array, per-query drain deadlines become an
``(3, n_runs, n_slots)`` array (``inf`` marks an absent component), and
shared-scan credit ledgers become ``(n_runs, n_relations)`` columns.
Next-event selection is a per-run ``argmin`` over the three resource
heads; runs that finish drop out of the active mask (``dt = 0`` columns
ride the same vector ops as bit-exact no-ops).

The arithmetic mirrors ``ConcurrentExecutor._run_virtual_time``
expression for expression, in the same order, so a batch of one is
*bitwise* identical to the scalar virtual-time engine — and because
columns never interact, results are independent of batch composition.
That is what lets campaigns batch transparently: grouping tasks into
batches cannot change any number, only the wall-clock cost.

Order-dependent per-run state (shared-scan group credit, the buffer
cache, the RNG) is touched through a rank-ordered transition loop: per
event, each run settles at most one drained query per rank, in
active-set order — exactly the order the scalar engine's
``process_finished`` uses.  RNG draws stay in Python, one draw per
(run, transition), so the per-run draw sequence matches the scalar
engine's and campaign results stay bit-identical across batch sizes.

Unsupported features fall back to the scalar loop at the executor
level: tracers (per-interval telemetry is inherently scalar) and blame
recorders (per-phase entry/exit records).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import SimulationError
from ..obs.metrics import Registry
from .executor import (
    _DONE,
    _REL_DONE,
    ConcurrentExecutor,
    QueryResult,
    RunResult,
    Stream,
    _EngineInstruments,
)
from .memory import MemoryLedger
from .profile import ResourceProfile
from .stats import QueryStats

__all__ = ["RunSpec", "batched_campaign_ok", "run_batch"]


def batched_campaign_ok(config: SystemConfig) -> bool:
    """Whether campaign tasks may be grouped into lockstep batches.

    The executor-level fallbacks (tracers, blame recorders) depend on
    per-run arguments campaign tasks never pass, so selecting the
    batched engine is the only condition.
    """
    return config.simulation.engine == "batched"


# ---------------------------------------------------------------------
# Phase matrices: each ResourceProfile compiles once to a (phases, 7)
# float array; relations intern to process-global integer ids so group
# ledgers can be arrays.  The intern table only grows, so ids are stable
# for the lifetime of a worker process.

_REL_IDS: Dict[str, int] = {}

_C_SEQ, _C_RAND, _C_CPU, _C_MEM, _C_REL, _C_SPILL, _C_DIM = range(7)

# Stats columns (flushed into QueryStats at completion).
(
    _ST_START,
    _ST_IO,
    _ST_CPU,
    _ST_SEQ,
    _ST_RAND,
    _ST_SPILL,
    _ST_CACHE,
    _ST_SHARED,
    _ST_WS,
) = range(9)
_NSTAT = 9


def _bump(counter: np.ndarray, rr: np.ndarray, sign: int) -> None:
    """``counter[rr] += sign`` with duplicate indices.  Lockstep batches
    produce dense waves (thousands of indices, many per run), where
    ``np.bincount`` is an order of magnitude faster than ``np.add.at``.
    """
    if sign > 0:
        counter += np.bincount(rr, minlength=counter.size)
    else:
        counter -= np.bincount(rr, minlength=counter.size)


def _phase_data(
    profile: ResourceProfile,
) -> Tuple[np.ndarray, int, bool]:
    """(phase matrix, max interned relation id, fast-cycle eligibility)
    for *profile*, memoized on the profile object."""
    cached = getattr(profile, "_batched_phase_data", None)
    if cached is not None:
        return cached
    maxrel = -1
    rows = []
    for ph in profile.phases:
        rel = ph.relation
        if rel is None:
            rid = -1.0
        else:
            iid = _REL_IDS.get(rel)
            if iid is None:
                iid = _REL_IDS[rel] = len(_REL_IDS)
            if iid > maxrel:
                maxrel = iid
            rid = float(iid)
        rows.append(
            (
                ph.seq_bytes,
                ph.rand_ops,
                ph.cpu_seconds,
                ph.mem_bytes,
                rid,
                1.0 if ph.spillable else 0.0,
                1.0 if ph.dimension_scan else 0.0,
            )
        )
    mat = np.array(rows)
    # Seq-only private profiles (circular spoiler readers) qualify for
    # the fused transition fast path: every phase change is commutative,
    # so whole waves of them skip the rank-ordered cascade.
    fast = bool(
        profile.background
        and mat.shape[0] > 0
        and (mat[:, _C_SEQ] > _DONE).all()
        and not mat[:, [_C_RAND, _C_CPU, _C_MEM, _C_DIM]].any()
        and (mat[:, _C_REL] < 0.0).all()
    )
    data = (mat, maxrel, fast)
    object.__setattr__(profile, "_batched_phase_data", data)
    return data


@dataclass
class RunSpec:
    """One independent simulation in a batch.

    Mirrors the arguments of :meth:`ConcurrentExecutor.run` plus the
    per-run RNG (each run must own its generator so draw order is
    independent of batch composition).
    """

    streams: Sequence[Stream]
    background: Sequence[ResourceProfile] = ()
    pinned_bytes: float = 0.0
    rng: Optional[np.random.Generator] = None


class _BatchedInstruments:
    """Batched-engine metric families (the obs satellite)."""

    def __init__(self, registry: Registry):
        self.engine = _EngineInstruments(registry)
        self.batches = registry.counter(
            "engine_batched_batches_total", "Batched-engine batches executed"
        )
        self.batched_runs = registry.counter(
            "engine_batched_runs_total",
            "Simulations executed through the batched engine",
        )
        self.occupancy = registry.gauge(
            "engine_batch_occupancy",
            "Mean fraction of batch columns still live per iteration "
            "of the last batched run",
        )

    def record_batch(
        self, results: Sequence[RunResult], occupancy: float
    ) -> None:
        self.batches.inc()
        self.batched_runs.inc(len(results))
        self.occupancy.set(occupancy)
        for result in results:
            self.engine.record_run(result)


_HUGE = np.iinfo(np.int64).max


class _BatchRunner:
    """State and event loop for one batch.  See the module docstring."""

    def __init__(self, config: SystemConfig, specs: Sequence[RunSpec]):
        hw = config.hardware
        sim = config.simulation
        for spec in specs:
            if not spec.streams and not spec.background:
                raise SimulationError("nothing to run")

        self.sim = sim
        self.cores = hw.cores
        self.seq_bandwidth = hw.seq_bandwidth
        self.random_iops = hw.random_iops
        self.spread = hw.random_io_variance
        self.max_events = sim.max_events
        self.time_epsilon = sim.time_epsilon
        self.dimension_cache = sim.dimension_cache
        self.shared_scans = sim.shared_scans
        self.window = sim.scan_share_window
        self.spill_thrash = sim.spill_thrash
        self.spill_multiplier = sim.spill_multiplier
        self.cache_cap = (
            ConcurrentExecutor.DIMENSION_CACHE_FRACTION * hw.ram_bytes
        )
        ledger = MemoryLedger(total_bytes=hw.ram_bytes)
        # available_for(owner) = ((total - os_reserve) - pinned) - others,
        # floored at min_grant — same association as the scalar ledger.
        self.base_avail = hw.ram_bytes - ledger.os_reserve_bytes
        self.min_grant = ledger.min_grant_bytes

        n = len(specs)
        self.width = n
        # Per-spec Python state, keyed by ORIGINAL spec index (stable
        # across compaction; numpy columns map through `spec_of`).
        self.streams_l = [list(s.streams) for s in specs]
        self.background_l = [list(s.background) for s in specs]
        self.rngs = [
            s.rng if s.rng is not None else np.random.default_rng(sim.seed)
            for s in specs
        ]
        self.arrival_fns = [
            [getattr(st, "next_arrival", None) for st in s.streams]
            for s in specs
        ]
        self.stream_names = [[st.name for st in s.streams] for s in specs]
        self.completed_counts = [[0] * len(s.streams) for s in specs]
        self.stream_done = [[False] * len(s.streams) for s in specs]
        self.pending_wake = [[False] * len(s.streams) for s in specs]
        self.pending_count = [0] * n
        self.wake_heaps: List[List[Tuple[float, int]]] = [[] for _ in specs]
        self.completions_l: List[List[QueryResult]] = [[] for _ in specs]
        self.results: List[Optional[RunResult]] = [None] * n
        self.n_stream_slots = [len(s.streams) for s in specs]
        qmax = max(
            len(s.streams) + len(s.background) for s in specs
        )
        self.qmax = qmax
        # (spec, slot) -> ids of the in-flight query (Python ints).
        self.tmpl_ids = [[0] * qmax for _ in specs]
        self.inst_ids = [[0] * qmax for _ in specs]
        self.wake_count = 0

        # Column arrays.  Axis order: resource (seq=0, rand=1, cpu=2),
        # run column, slot.
        self.spec_of = np.arange(n, dtype=np.int64)
        self.S3 = np.zeros((3, n))
        self.now = np.zeros(n)
        self.D = np.full((3, n, qmax), np.inf)
        self.rem = np.zeros((3, n, qmax))
        self.factor = np.ones((n, qmax))
        self.entry = np.zeros((n, qmax))
        self.io_start = np.zeros((n, qmax))
        self.vtD_seq = np.full((n, qmax), -np.inf)
        self.cur_seq_total = np.zeros((n, qmax))
        self.order = np.zeros((n, qmax), dtype=np.int64)
        self.phase_idx = np.zeros((n, qmax), dtype=np.int64)
        self.n_phases = np.zeros((n, qmax), dtype=np.int64)
        self.pending = np.zeros((n, qmax), dtype=np.int64)
        self.io_pending = np.zeros((n, qmax), dtype=np.int64)
        self.occupied = np.zeros((n, qmax), dtype=bool)
        self.fin = np.zeros((n, qmax), dtype=bool)
        self.is_bg = np.zeros((n, qmax), dtype=bool)
        self.private_arr = np.ones((n, qmax), dtype=bool)
        self.shared_arr = np.zeros((n, qmax), dtype=bool)
        self.rel = np.full((n, qmax), -2, dtype=np.int64)
        self.bg_fast = np.zeros((n, qmax), dtype=bool)
        self.stats = np.zeros((n, qmax, _NSTAT))
        self.held = np.zeros((n, qmax))
        self.held_sum = np.zeros(n)
        self.pinned = np.zeros(n)
        for r, spec in enumerate(specs):
            if spec.pinned_bytes > 0:
                self.pinned[r] = 0.0 + spec.pinned_bytes
        self.num_streams = np.zeros(n, dtype=np.int64)
        self.cpu_demand = np.zeros(n, dtype=np.int64)
        self.events = np.zeros(n, dtype=np.int64)
        # Per-run counters live in Python lists: they mutate one scalar
        # at a time from the transition loop, where list stores are an
        # order of magnitude cheaper than numpy item assignment.
        self.spec_of_l = list(range(n))
        self.fg_active = [0] * n
        self.open_streams = [len(s.streams) for s in specs]
        self.active_q = [0] * n
        self.next_order = [0] * n
        self.wake_head = np.full(n, np.inf)
        # Liveness is tracked incrementally: `_mark_dead` flips a column
        # off the instant its last foreground query and stream drain.
        self.alive = np.zeros(n, dtype=bool)
        self.n_alive = 0
        self.dead_dirty = False

        self.p_cap = 4
        self.phase_buf = np.zeros((n, qmax, self.p_cap, 7))
        self.n_rel = max(len(_REL_IDS), 4)
        self.group_count = np.zeros((n, self.n_rel), dtype=np.int64)
        self.group_mark = np.zeros((n, self.n_rel))
        self.group_credit = np.zeros((n, self.n_rel))
        self.cache_res = np.zeros((n, self.n_rel), dtype=bool)
        self.cache_used = np.zeros(n)

        # Query starts queue their (cheap, Python-side) bookkeeping and
        # defer every per-slot array reset to `_flush_starts`, which
        # applies them for a whole wave with a handful of fancy-index
        # stores.  The enter queue then admits one pair per run per wave
        # so within-run ordering matches the scalar engine.
        self.start_queue: List[Tuple[int, int, ResourceProfile, int, bool]] = []
        self.enter_queue: List[Tuple[int, int, bool]] = []
        self.occ_sum = 0
        self.occ_iters = 0

    # -- capacity growth ------------------------------------------------

    def _ensure_phases(self, count: int) -> None:
        if count <= self.p_cap:
            return
        new_cap = max(count, self.p_cap * 2)
        buf = np.zeros(
            (self.phase_buf.shape[0], self.qmax, new_cap, 7)
        )
        buf[:, :, : self.p_cap] = self.phase_buf
        self.phase_buf = buf
        self.p_cap = new_cap

    def _ensure_rel(self, maxrel: int) -> None:
        if maxrel < self.n_rel:
            return
        new_n = maxrel + 4
        n = self.group_count.shape[0]

        def grow(arr: np.ndarray, fill) -> np.ndarray:
            out = np.full((n, new_n), fill, dtype=arr.dtype)
            out[:, : self.n_rel] = arr
            return out

        self.group_count = grow(self.group_count, 0)
        self.group_mark = grow(self.group_mark, 0.0)
        self.group_credit = grow(self.group_credit, 0.0)
        self.cache_res = grow(self.cache_res, False)
        self.n_rel = new_n

    # -- query lifecycle ------------------------------------------------

    def _start_query(
        self, r: int, sl: int, profile: ResourceProfile, foreground: bool
    ) -> None:
        """Mirror of the scalar ``start_query``: the counter updates the
        rest of the wave can observe happen now, the per-slot array
        resets are deferred to `_flush_starts`."""
        spec = self.spec_of_l[r]
        self.tmpl_ids[spec][sl] = profile.template_id
        self.inst_ids[spec][sl] = profile.instance_id
        contended = self.active_q[r] > 0
        self.active_q[r] += 1
        if foreground:
            self.fg_active[r] += 1
        order = self.next_order[r]
        self.next_order[r] += 1
        self.start_queue.append((r, sl, profile, order, contended))

    def _mark_dead(self, r: int) -> None:
        if self.alive[r]:
            self.alive[r] = False
            self.n_alive -= 1
            self.dead_dirty = True

    def _pull_stream(self, r: int, sl: int, now: float) -> None:
        spec = self.spec_of_l[r]
        if self.stream_done[spec][sl]:
            return
        profile = self.streams_l[spec][sl].next_profile(
            now, self.completed_counts[spec][sl]
        )
        if profile is not None:
            self._start_query(r, sl, profile, True)
            return
        arrival_fn = self.arrival_fns[spec][sl]
        wake = arrival_fn(now) if arrival_fn is not None else None
        if wake is None:
            self.stream_done[spec][sl] = True
            self.open_streams[r] -= 1
            if self.open_streams[r] == 0 and self.fg_active[r] == 0:
                self._mark_dead(r)
        elif wake == math.inf:
            if not self.pending_wake[spec][sl]:
                self.pending_wake[spec][sl] = True
                self.pending_count[spec] += 1
        else:
            heappush(
                self.wake_heaps[spec], (wake if wake > now else now, sl)
            )
            self.wake_head[r] = self.wake_heaps[spec][0][0]
            self.wake_count += 1

    def _flush_starts(self) -> None:
        """Apply the deferred per-slot resets for every queued start with
        wave-wide fancy-index stores; (run, slot) pairs are unique."""
        queue = self.start_queue
        if not queue:
            return
        self.start_queue = []
        k = len(queue)
        rr = np.fromiter((t[0] for t in queue), np.int64, k)
        ss = np.fromiter((t[1] for t in queue), np.int64, k)
        mats = []
        nps = []
        fasts = []
        for r, sl, profile, _, _ in queue:
            mat, maxrel, fast = _phase_data(profile)
            if mat.shape[0] > self.p_cap:
                self._ensure_phases(mat.shape[0])
            if maxrel >= self.n_rel:
                self._ensure_rel(maxrel)
            mats.append(mat)
            nps.append(mat.shape[0])
            fasts.append(fast)
        # Shared profile objects (e.g. one reader list across a spoiler
        # batch) compile to the same matrix; store each distinct matrix
        # with one fancy-indexed write instead of k row copies.
        groups: Dict[int, List[int]] = {}
        for j, mat in enumerate(mats):
            groups.setdefault(id(mat), []).append(j)
        for idxs in groups.values():
            mat = mats[idxs[0]]
            if len(idxs) == 1:
                j = idxs[0]
                self.phase_buf[queue[j][0], queue[j][1], : nps[j]] = mat
            else:
                jj = np.asarray(idxs, dtype=np.int64)
                self.phase_buf[rr[jj], ss[jj], : mat.shape[0]] = mat
        self.n_phases[rr, ss] = np.fromiter(nps, np.int64, k)
        self.phase_idx[rr, ss] = 0
        self.stats[rr, ss] = 0.0
        self.stats[rr, ss, _ST_START] = self.now[rr]
        self.factor[rr, ss] = 1.0
        self.entry[rr, ss] = 0.0
        self.vtD_seq[rr, ss] = -np.inf
        self.cur_seq_total[rr, ss] = 0.0
        self.rel[rr, ss] = -2
        self.private_arr[rr, ss] = True
        self.shared_arr[rr, ss] = False
        self.is_bg[rr, ss] = np.fromiter(
            (t[2].background for t in queue), bool, k
        )
        self.bg_fast[rr, ss] = np.fromiter(fasts, bool, k)
        self.order[rr, ss] = np.fromiter((t[3] for t in queue), np.int64, k)
        self.occupied[rr, ss] = True
        self.enter_queue.extend((t[0], t[1], t[4]) for t in queue)

    def _flush_enters(self) -> None:
        """Enter queued (run, slot) pairs, one pair per run per wave so
        within-run ordering matches the scalar engine."""
        self._flush_starts()
        queue = self.enter_queue
        if not queue:
            return
        self.enter_queue = []
        while queue:
            seen = set()
            wave = []
            rest = []
            for item in queue:
                if item[0] in seen:
                    rest.append(item)
                else:
                    seen.add(item[0])
                    wave.append(item)
            rr = np.array([t[0] for t in wave], dtype=np.int64)
            ss = np.array([t[1] for t in wave], dtype=np.int64)
            cc = np.array([t[2] for t in wave], dtype=bool)
            self._enter(rr, ss, cc)
            queue = rest

    # -- phase entry (mirror of _enter_phase + vt enter_phase) ----------

    def _enter(
        self, rr: np.ndarray, ss: np.ndarray, contended: np.ndarray
    ) -> None:
        k = rr.size
        pi = self.phase_idx[rr, ss]
        row = self.phase_buf[rr, ss, pi]
        # `row` is a fresh copy (fancy indexing), so the seq column can
        # be mutated in place; the original total is stored first.
        self.cur_seq_total[rr, ss] = row[:, _C_SEQ]
        seq_demand = row[:, _C_SEQ]
        relids = row[:, _C_REL].astype(np.int64)
        rand_ops = row[:, _C_RAND]
        cpu_work = row[:, _C_CPU]
        mem = row[:, _C_MEM]

        if self.dimension_cache:
            m = (row[:, _C_DIM] != 0.0) & (relids >= 0)
            if m.any():
                hit = np.zeros(k, dtype=bool)
                hit[m] = self.cache_res[rr[m], relids[m]]
                if hit.any():
                    self.stats[rr[hit], ss[hit], _ST_CACHE] += seq_demand[hit]
                    seq_demand[hit] = 0.0

        if self.shared_scans:
            priv = relids < 0
        else:
            priv = np.ones(k, dtype=bool)

        if self.shared_scans and self.window < 1.0:
            # Join-window test: vector over the run's slots, one
            # candidate at a time (rare path, only when window < 1).
            for j in np.nonzero(~priv)[0]:
                r = int(rr[j])
                sl = int(ss[j])
                relid = relids[j]
                others = (
                    self.occupied[r]
                    & ~self.private_arr[r]
                    & (self.rel[r] == relid)
                )
                others[sl] = False
                if not others.any():
                    continue
                remv = self.vtD_seq[r] - self.S3[0, r]
                tot = self.cur_seq_total[r]
                mask = others & (remv > _DONE) & (tot > 0.0)
                if not mask.any():
                    continue
                progress = 1.0 - remv[mask] / tot[mask]
                if progress.min() > self.window:
                    priv[j] = True

        spill_f = row[:, _C_SPILL] != 0.0
        if spill_f.any():
            own = self.held[rr, ss]
            others_held = self.held_sum[rr] - own
            free = (self.base_avail - self.pinned[rr]) - others_held
            avail = np.maximum(free, self.min_grant)
            deficit = np.where(
                mem > 0.0, np.maximum(0.0, mem - avail), 0.0
            )
            deficit = np.where(spill_f, deficit, 0.0)
            hit = deficit > 0.0
            if hit.any():
                thrash = 1.0 + (self.spill_thrash * deficit[hit]) / avail[hit]
                extra = (deficit[hit] * self.spill_multiplier) * thrash
                seq_demand[hit] = seq_demand[hit] + extra
                priv[hit] = True
                self.stats[rr[hit], ss[hit], _ST_SPILL] += extra

        self.private_arr[rr, ss] = priv

        hold_m = mem > 0.0
        old = self.held[rr, ss]
        new = np.where(hold_m, mem, 0.0)
        self.held_sum[rr] += new - old
        self.held[rr, ss] = new
        ws = self.stats[rr, ss, _ST_WS]
        self.stats[rr, ss, _ST_WS] = np.where(
            hold_m, np.maximum(ws, mem), ws
        )

        self.rem[0, rr, ss] = seq_demand
        self.rem[1, rr, ss] = rand_ops
        self.rem[2, rr, ss] = cpu_work
        self.rel[rr, ss] = relids

        fvals = np.ones(k)
        if self.spread > 0:
            draw = (rand_ops > 0.0) & contended
            if draw.any():
                rr_l = rr.tolist()
                for j in np.nonzero(draw)[0]:
                    rng = self.rngs[self.spec_of_l[rr_l[j]]]
                    value = float(
                        rng.uniform(1.0 - self.spread, 1.0 + self.spread)
                    )
                    fvals[j] = value if value > 0.05 else 0.05
        self.factor[rr, ss] = fvals

        p_cnt = np.zeros(k, dtype=np.int64)
        io_cnt = np.zeros(k, dtype=np.int64)
        s0 = self.S3[0][rr]

        seq_c = seq_demand > _DONE
        if seq_c.any():
            shared = seq_c & ~priv
            private = seq_c & priv
            if private.any():
                # A private stream is always a new singleton stream.
                self.num_streams[rr[private]] += 1
            if shared.any():
                rg = rr[shared]
                lg = relids[shared]
                count_before = self.group_count[rg, lg]
                self.group_count[rg, lg] = count_before + 1
                self.num_streams[rg] += count_before == 0
                s0g = s0[shared]
                join = count_before >= 2
                credit = self.group_credit[rg, lg]
                credit = np.where(
                    join, credit + (s0g - self.group_mark[rg, lg]), credit
                )
                self.group_credit[rg, lg] = credit
                self.group_mark[rg, lg] = s0g
                self.entry[rg, ss[shared]] = credit
            self.shared_arr[rr, ss] = shared
            deadline = s0 + seq_demand
            self.D[0, rr[seq_c], ss[seq_c]] = deadline[seq_c]
            self.vtD_seq[rr[seq_c], ss[seq_c]] = deadline[seq_c]
            p_cnt += seq_c
            io_cnt += seq_c

        rand_c = rand_ops > _DONE
        if rand_c.any():
            deadline = self.S3[1][rr] + rand_ops / fvals
            self.D[1, rr[rand_c], ss[rand_c]] = deadline[rand_c]
            self.num_streams[rr[rand_c]] += 1
            p_cnt += rand_c
            io_cnt += rand_c

        cpu_c = cpu_work > _DONE
        if cpu_c.any():
            deadline = self.S3[2][rr] + cpu_work
            self.D[2, rr[cpu_c], ss[cpu_c]] = deadline[cpu_c]
            self.cpu_demand[rr[cpu_c]] += 1
            p_cnt += cpu_c

        self.pending[rr, ss] = p_cnt
        self.io_pending[rr, ss] = io_cnt
        has_io = io_cnt > 0
        if has_io.any():
            self.io_start[rr[has_io], ss[has_io]] = self.now[rr[has_io]]
        zero_work = p_cnt == 0
        if zero_work.any():
            self.fin[rr[zero_work], ss[zero_work]] = True

    # -- settles (mirrors of settle_seq / settle_rand / settle_cpu) -----

    def _close_component(
        self, rr: np.ndarray, ss: np.ndarray, io: bool
    ) -> None:
        p = self.pending[rr, ss] - 1
        self.pending[rr, ss] = p
        if io:
            q = self.io_pending[rr, ss] - 1
            self.io_pending[rr, ss] = q
            done = q == 0
            if done.any():
                rd = rr[done]
                sd = ss[done]
                self.stats[rd, sd, _ST_IO] += (
                    self.now[rd] - self.io_start[rd, sd]
                )
        drained = p == 0
        if drained.any():
            self.fin[rr[drained], ss[drained]] = True

    def _settle_seq(self, rr: np.ndarray, ss: np.ndarray) -> None:
        s0 = self.S3[0][rr]
        deadline = self.D[0, rr, ss]
        residual = deadline - s0
        rem0 = self.rem[0, rr, ss]
        served = np.where(residual > 0.0, rem0 - residual, rem0)
        self.stats[rr, ss, _ST_SEQ] += served
        shared = self.shared_arr[rr, ss]
        if shared.any():
            rg = rr[shared]
            lg = self.rel[rg, ss[shared]]
            count = self.group_count[rg, lg] - 1
            self.group_count[rg, lg] = count
            self.num_streams[rg] -= count == 0
            s0g = s0[shared]
            keep = count >= 1
            credit = self.group_credit[rg, lg]
            credit = np.where(
                keep, credit + (s0g - self.group_mark[rg, lg]), credit
            )
            self.group_credit[rg, lg] = credit
            self.group_mark[rg, lg] = s0g
            delta = credit - self.entry[rg, ss[shared]]
            served_g = served[shared]
            gain = np.where(
                delta > 0.0,
                np.where(delta < served_g, delta, served_g),
                0.0,
            )
            self.stats[rg, ss[shared], _ST_SHARED] += gain
        private = ~shared
        if private.any():
            _bump(self.num_streams, rr[private], -1)
        self.D[0, rr, ss] = np.inf
        self._close_component(rr, ss, True)

    def _settle_seq_private(self, rr: np.ndarray, ss: np.ndarray) -> None:
        """Mass settle for private seq components: no group ledger, so
        any number of slots per run settle in one commutative wave."""
        s0 = self.S3[0][rr]
        residual = self.D[0, rr, ss] - s0
        rem0 = self.rem[0, rr, ss]
        served = np.where(residual > 0.0, rem0 - residual, rem0)
        self.stats[rr, ss, _ST_SEQ] += served
        _bump(self.num_streams, rr, -1)
        self.D[0, rr, ss] = np.inf
        self._close_component(rr, ss, True)

    def _settle_rand(self, rr: np.ndarray, ss: np.ndarray) -> None:
        deadline = self.D[1, rr, ss]
        residual = deadline - self.S3[1][rr]
        rem1 = self.rem[1, rr, ss]
        served = np.where(
            residual > 0.0,
            rem1 - residual * self.factor[rr, ss],
            rem1,
        )
        self.stats[rr, ss, _ST_RAND] += served
        _bump(self.num_streams, rr, -1)
        self.D[1, rr, ss] = np.inf
        self._close_component(rr, ss, True)

    def _settle_cpu(self, rr: np.ndarray, ss: np.ndarray) -> None:
        deadline = self.D[2, rr, ss]
        residual = deadline - self.S3[2][rr]
        rem2 = self.rem[2, rr, ss]
        served = np.where(residual > 0.0, rem2 - residual, rem2)
        self.stats[rr, ss, _ST_CPU] += served
        _bump(self.cpu_demand, rr, -1)
        self.D[2, rr, ss] = np.inf
        self._close_component(rr, ss, False)

    # -- phase transitions (mirror of process_finished) -----------------

    def _complete_many(self, rr: np.ndarray, ss: np.ndarray) -> None:
        """Complete one query per run (``rr`` is duplicate-free): the
        array-side teardown is vectorized, only the result objects and
        stream pulls stay per-query Python."""
        # ledger.release(instance_id), batched.
        self.held_sum[rr] -= self.held[rr, ss]
        self.held[rr, ss] = 0.0
        self.occupied[rr, ss] = False
        rows = self.stats[rr, ss].tolist()
        ends = self.now[rr].tolist()
        rr_l = rr.tolist()
        ss_l = ss.tolist()
        for j in range(len(rr_l)):
            r = rr_l[j]
            sl = ss_l[j]
            spec = self.spec_of_l[r]
            st = rows[j]
            stats = QueryStats(
                template_id=self.tmpl_ids[spec][sl],
                instance_id=self.inst_ids[spec][sl],
                start_time=st[_ST_START],
                end_time=ends[j],
                io_seconds=st[_ST_IO],
                cpu_seconds=st[_ST_CPU],
                seq_bytes_read=st[_ST_SEQ],
                rand_ops_done=st[_ST_RAND],
                spill_bytes=st[_ST_SPILL],
                cache_served_bytes=st[_ST_CACHE],
                shared_seq_bytes=st[_ST_SHARED],
                working_set_bytes=st[_ST_WS],
            )
            self.active_q[r] -= 1
            self.fg_active[r] -= 1
            self.completions_l[spec].append(
                QueryResult(
                    stream_name=self.stream_names[spec][sl], stats=stats
                )
            )
            self.completed_counts[spec][sl] += 1
            self._pull_stream(r, sl, ends[j])
            if self.fg_active[r] == 0 and self.open_streams[r] == 0:
                self._mark_dead(r)

    def _transitions(self) -> None:
        """Process every drained phase, rank by rank in active-set order."""
        snap = self.fin.copy()
        self.fin.fill(False)
        completed: List[int] = []
        # Fused fast path: cycling seq-only private background readers.
        # Their settles have already run; re-entry touches only per-slot
        # state plus commutative per-run counters, so every such slot —
        # even several per run — transitions in one wave with no rank
        # cascade.  Orders are preserved (cycling keeps active position),
        # exactly like the scalar engine.
        fast = snap & self.bg_fast
        if fast.any():
            snap &= ~fast
            rr, ss = np.nonzero(fast)
            pi = self.phase_idx[rr, ss]
            last = self.n_phases[rr, ss] - 1
            npi = np.where(pi < last, pi + 1, 0)
            self.phase_idx[rr, ss] = npi
            seq = self.phase_buf[rr, ss, npi, _C_SEQ]
            self.cur_seq_total[rr, ss] = seq
            self.rem[0, rr, ss] = seq
            self.rel[rr, ss] = -1
            self.factor[rr, ss] = 1.0
            deadline = self.S3[0][rr] + seq
            self.D[0, rr, ss] = deadline
            self.vtD_seq[rr, ss] = deadline
            _bump(self.num_streams, rr, 1)
            self.pending[rr, ss] = 1
            self.io_pending[rr, ss] = 1
            self.io_start[rr, ss] = self.now[rr]
        while True:
            run_mask = snap.any(axis=1)
            if not run_mask.any():
                break
            masked_order = np.where(snap, self.order, _HUGE)
            sel = masked_order.argmin(axis=1)
            rr = np.nonzero(run_mask)[0]
            ss = sel[rr]
            snap[rr, ss] = False

            pi = self.phase_idx[rr, ss]
            row = self.phase_buf[rr, ss, pi]
            if self.dimension_cache:
                relids = row[:, _C_REL].astype(np.int64)
                m = (row[:, _C_DIM] != 0.0) & (relids >= 0)
                if m.any():
                    ra = rr[m]
                    la = relids[m]
                    size = row[m, _C_SEQ]
                    resident = self.cache_res[ra, la]
                    ok = (
                        ~resident
                        & ~(size > self.cache_cap)
                        & ~(self.cache_used[ra] + size > self.cache_cap)
                    )
                    if ok.any():
                        ro = ra[ok]
                        self.cache_res[ro, la[ok]] = True
                        self.cache_used[ro] += size[ok]

            last = self.n_phases[rr, ss] - 1
            bg = self.is_bg[rr, ss]
            advm = pi < last
            cycm = (~advm) & bg
            compm = (~advm) & (~bg)
            if advm.any():
                self.phase_idx[rr[advm], ss[advm]] = pi[advm] + 1
            if cycm.any():
                self.phase_idx[rr[cycm], ss[cycm]] = 0
            enterm = advm | cycm
            if enterm.any():
                er = rr[enterm]
                es = ss[enterm]
                if er.size > 64:
                    # Dense wave: one list->array copy beats per-element
                    # generator dispatch.
                    ec = np.asarray(self.active_q, dtype=np.int64)[er] > 1
                else:
                    ec = np.fromiter(
                        (self.active_q[r] > 1 for r in er.tolist()),
                        bool,
                        er.size,
                    )
                self._enter(er, es, ec)
            if compm.any():
                cr = rr[compm]
                self._complete_many(cr, ss[compm])
                completed.extend(cr.tolist())
            self._flush_enters()
        # A freed slot may unblock a deferred admission: re-poll every
        # stream that asked to be woken on completion.
        for r in completed:
            spec = self.spec_of_l[r]
            if self.pending_count[spec]:
                flags = self.pending_wake[spec]
                now = float(self.now[r])
                for sl in range(len(flags)):
                    if flags[sl]:
                        flags[sl] = False
                        self.pending_count[spec] -= 1
                        self._pull_stream(r, sl, now)
        self._flush_enters()

    # -- main loop -------------------------------------------------------

    def _seed_bg_uniform(self, j: int) -> bool:
        """Wave-wide background seeding when every run starts the SAME
        profile object in the same slot (campaign batches share reader
        profiles).  Stores the exact values the per-run path would, with
        whole-column writes instead of ``width`` Python calls; returns
        False to fall back when the batch is not uniform."""
        n = self.width
        if n < 64:
            return False
        bgs0 = self.background_l[0]
        if j >= len(bgs0):
            return False
        profile = bgs0[j]
        sl = self.n_stream_slots[0] + j
        for r in range(n):
            bgs = self.background_l[r]
            if (
                j >= len(bgs)
                or bgs[j] is not profile
                or self.n_stream_slots[r] != sl - j
                or self.active_q[r] != j
            ):
                return False
        mat, maxrel, fast = _phase_data(profile)
        if mat.shape[0] > self.p_cap:
            self._ensure_phases(mat.shape[0])
        if maxrel >= self.n_rel:
            self._ensure_rel(maxrel)
        tid = profile.template_id
        iid = profile.instance_id
        for r in range(n):
            self.tmpl_ids[r][sl] = tid
            self.inst_ids[r][sl] = iid
        # Background seeding precedes stream pulls, so active_q == j on
        # every run: contended and the admission order are uniform.
        self.active_q = [j + 1] * n
        self.next_order = [j + 1] * n
        self.phase_buf[:, sl, : mat.shape[0]] = mat
        self.n_phases[:, sl] = mat.shape[0]
        self.phase_idx[:, sl] = 0
        self.stats[:, sl] = 0.0
        self.stats[:, sl, _ST_START] = self.now
        self.factor[:, sl] = 1.0
        self.entry[:, sl] = 0.0
        self.vtD_seq[:, sl] = -np.inf
        self.cur_seq_total[:, sl] = 0.0
        self.rel[:, sl] = -2
        self.private_arr[:, sl] = True
        self.shared_arr[:, sl] = False
        self.is_bg[:, sl] = bool(profile.background)
        self.bg_fast[:, sl] = fast
        self.order[:, sl] = j
        self.occupied[:, sl] = True
        rr = np.arange(n, dtype=np.int64)
        ss = np.full(n, sl, dtype=np.int64)
        self._enter(rr, ss, np.full(n, j > 0, dtype=bool))
        return True

    def run(self) -> List[RunResult]:
        # Start order mirrors the scalar engine: background queries
        # first, then one pull per stream — batched across runs one
        # slot-position wave at a time (cross-run order is immaterial:
        # columns never interact).
        max_bg = max((len(b) for b in self.background_l), default=0)
        for j in range(max_bg):
            if self._seed_bg_uniform(j):
                continue
            for r in range(self.width):
                bgs = self.background_l[self.spec_of_l[r]]
                if j < len(bgs):
                    self._start_query(
                        r, self.n_stream_slots[self.spec_of_l[r]] + j,
                        bgs[j], False,
                    )
            self._flush_enters()
        max_streams = max(self.n_stream_slots, default=0)
        for j in range(max_streams):
            for r in range(self.width):
                if j < self.n_stream_slots[self.spec_of_l[r]]:
                    self._pull_stream(r, j, 0.0)
            self._flush_enters()

        for r in range(self.width):
            if self.fg_active[r] > 0 or self.open_streams[r] > 0:
                self.alive[r] = True
                self.n_alive += 1
        self._flush_dead(self.alive)
        iters = 0
        while self.n_alive:
            iters += 1
            self.occ_sum += self.n_alive
            self.occ_iters += 1
            if iters > self.max_events and (
                self.events[self.alive] >= self.max_events
            ).any():
                raise SimulationError(
                    f"exceeded max_events={self.max_events}; "
                    "likely a stalled simulation"
                )
            self.events += self.alive

            top_fin = self.fin.any(axis=1)
            adv = self.alive & ~top_fin
            if adv.any():
                self._advance(adv)
            if self.fin.any():
                self._transitions()

            if self.dead_dirty:
                self.dead_dirty = False
                self._flush_dead(self.alive)
                if (
                    self.width >= 16
                    and self.n_alive <= self.width // 2
                ):
                    self._compact(self.alive)
        return [result for result in self.results]  # type: ignore[misc]

    def _advance(self, adv: np.ndarray) -> None:
        """One lockstep advance event for every run in *adv*."""
        divisor = np.maximum(self.num_streams, 1)
        rates = np.empty((3, divisor.size))
        rates[0] = self.seq_bandwidth / divisor
        rates[1] = self.random_iops / divisor
        rates[2] = np.where(
            self.cpu_demand <= self.cores,
            1.0,
            self.cores / np.maximum(self.cpu_demand, 1),
        )

        heads = self.D.min(axis=2)
        head_idx = self.D.argmin(axis=2)
        dt3 = (heads - self.S3) / rates
        best = dt3.min(axis=0)
        which = dt3.argmin(axis=0)
        if self.wake_count:
            dtw = self.wake_head - self.now
            m = dtw < best
            if m.any():
                which = np.where(m, 3, which)
                best = np.where(m, dtw, best)
        bad = adv & ~(best < np.inf)
        if bad.any():
            raise SimulationError("no finite next event; simulation stalled")
        dt = np.where(best < self.time_epsilon, self.time_epsilon, best)
        dt = np.where(adv, dt, 0.0)
        self.S3 += rates * dt
        self.now += dt

        # The component that set dt has drained by construction; settle
        # it without re-testing (mirrors the scalar pop).
        for res, settle in (
            (0, self._settle_seq),
            (1, self._settle_rand),
            (2, self._settle_cpu),
        ):
            m = adv & (which == res)
            if m.any():
                rr = np.nonzero(m)[0]
                settle(rr, head_idx[res][rr])
        # Then everything else that crossed within tolerance.  Private
        # seq, cpu, and rand settles are commutative (per-slot state
        # plus counter adds), so every crossed slot of those kinds
        # settles in one wave; only shared-scan settles — whose group
        # credit updates are order-dependent — go one head per run per
        # pass.  Settling one resource never moves another's deadlines.
        bound = (self.S3 + _DONE) + self.S3 * _REL_DONE
        while True:
            settled = False
            crossed = self.D[0] <= bound[0][:, None]
            crossed &= adv[:, None]
            if crossed.any():
                shared_c = crossed & self.shared_arr
                if shared_c.any():
                    # Order-dependent: settle the head slot only, then
                    # re-test on the next pass.
                    masked = np.where(shared_c, self.D[0], np.inf)
                    m = shared_c.any(axis=1)
                    rr = np.nonzero(m)[0]
                    self._settle_seq(rr, masked[rr].argmin(axis=1))
                    crossed &= ~shared_c
                if crossed.any():
                    rr, ss = np.nonzero(crossed)
                    self._settle_seq_private(rr, ss)
                settled = True
            crossed = self.D[2] <= bound[2][:, None]
            crossed &= adv[:, None]
            if crossed.any():
                rr, ss = np.nonzero(crossed)
                self._settle_cpu(rr, ss)
                settled = True
            rem_all = (self.D[1] - self.S3[1][:, None]) * self.factor
            crossed = ~(rem_all > (_DONE + self.S3[1] * _REL_DONE)[:, None])
            crossed &= adv[:, None]
            crossed &= self.D[1] < np.inf
            if crossed.any():
                rr, ss = np.nonzero(crossed)
                self._settle_rand(rr, ss)
                settled = True
            if not settled:
                break
        # Arrival wakes (mirrors the scalar wake-pop loop).
        if self.wake_count:
            m = adv & (self.wake_head <= self.now)
            if m.any():
                for r in np.nonzero(m)[0].tolist():
                    spec = self.spec_of_l[r]
                    heap = self.wake_heaps[spec]
                    now = float(self.now[r])
                    while heap and heap[0][0] <= now:
                        _, sl = heappop(heap)
                        self.wake_count -= 1
                        self._pull_stream(r, sl, now)
                        heap = self.wake_heaps[spec]
                        now = float(self.now[r])
                    self.wake_head[r] = heap[0][0] if heap else np.inf
                self._flush_enters()

    def _flush_dead(self, alive: np.ndarray) -> None:
        """Materialize RunResults for columns that just went idle."""
        for r in range(alive.size):
            spec = self.spec_of_l[r]
            if not alive[r] and self.results[spec] is None:
                self.results[spec] = RunResult(
                    completions=self.completions_l[spec],
                    elapsed=float(self.now[r]),
                    events=int(self.events[r]),
                )

    def _compact(self, alive: np.ndarray) -> None:
        """Drop dead columns so stragglers stop paying full-batch cost."""
        keep = np.nonzero(alive)[0]
        self.width = keep.size
        self.spec_of = self.spec_of[keep]
        self.S3 = np.ascontiguousarray(self.S3[:, keep])
        self.now = self.now[keep]
        self.D = np.ascontiguousarray(self.D[:, keep])
        self.rem = np.ascontiguousarray(self.rem[:, keep])
        for name in (
            "factor", "entry", "io_start", "vtD_seq", "cur_seq_total",
            "order", "phase_idx", "n_phases", "pending", "io_pending",
            "occupied", "fin", "is_bg", "private_arr", "shared_arr",
            "rel", "bg_fast", "stats", "held", "phase_buf",
            "group_count", "group_mark", "group_credit",
            "cache_res",
        ):
            setattr(self, name, getattr(self, name)[keep])
        for name in (
            "held_sum", "pinned", "num_streams", "cpu_demand", "events",
            "wake_head", "cache_used", "alive",
        ):
            setattr(self, name, getattr(self, name)[keep])
        keep_l = keep.tolist()
        for name in (
            "spec_of_l", "fg_active", "open_streams", "active_q",
            "next_order",
        ):
            old = getattr(self, name)
            setattr(self, name, [old[i] for i in keep_l])


def run_batch(
    config: SystemConfig,
    specs: Sequence[RunSpec],
    metrics: Optional[Registry] = None,
) -> List[RunResult]:
    """Run every spec to completion in one lockstep batch.

    Results are bit-identical to running each spec alone through the
    scalar virtual-time engine (each spec must own its RNG for that to
    hold).  Raises :class:`SimulationError` for a spec with nothing to
    run, mirroring :meth:`ConcurrentExecutor.run`.
    """
    if not specs:
        return []
    runner = _BatchRunner(config, specs)
    results = runner.run()
    if metrics is not None:
        occupancy = (
            runner.occ_sum / (runner.occ_iters * len(specs))
            if runner.occ_iters
            else 1.0
        )
        _BatchedInstruments(metrics).record_batch(results, occupancy)
    return results
