"""Unit tests for the virtual-time engine's deadline machinery.

The differential suite (tests/property/test_engine_differential.py)
holds the engine to the reference loop (tests/reference_engine.py) on
randomized workloads; these
tests pin down the deadline-structure behaviours individually: spill and
privacy flips at phase entry, background-profile phase cycling,
``time_epsilon`` clamping, simultaneous drains, and the engine knob.
"""

import numpy as np
import pytest

from repro.config import HardwareSpec, SimulationConfig, SystemConfig
from repro.engine.executor import ConcurrentExecutor, SingleShotStream
from repro.engine.profile import Phase, ResourceProfile, reader_profile
from repro.errors import ConfigurationError
from repro.units import GB, MB
from tests.reference_engine import ReferenceExecutor


def _config(engine="virtual_time", **sim_kwargs):
    sim_kwargs.setdefault("restart_cost", 0.0)
    return SystemConfig(
        hardware=HardwareSpec(
            cores=4,
            ram_bytes=GB(1),
            seq_bandwidth=MB(100),
            random_iops=100.0,
            random_io_variance=0.0,
        ),
        simulation=SimulationConfig(engine=engine, **sim_kwargs),
    )


def _run(config, profiles, background=(), pinned=0.0, seed=0,
         executor_cls=ConcurrentExecutor):
    streams = [
        SingleShotStream(p, name=f"s{i}") for i, p in enumerate(profiles)
    ]
    executor = executor_cls(config, rng=np.random.default_rng(seed))
    return executor.run(streams, background=background, pinned_bytes=pinned)


def _both(profiles, background=(), pinned=0.0, seed=0, **sim_kwargs):
    """(reference loop, virtual-time engine) results for one workload."""
    return tuple(
        _run(
            _config(**sim_kwargs),
            profiles,
            background=background,
            pinned=pinned,
            seed=seed,
            executor_cls=cls,
        )
        for cls in (ReferenceExecutor, ConcurrentExecutor)
    )


class TestEngineKnob:
    def test_default_engine_is_virtual_time(self):
        assert SimulationConfig().engine == "virtual_time"

    def test_reference_engine_rejected(self):
        # The reference loop is a test oracle, not a shipped engine.
        with pytest.raises(ConfigurationError, match="engine"):
            SimulationConfig(engine="reference")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            SimulationConfig(engine="warp-speed")


class TestDeadlineThresholds:
    def test_spill_inflates_deadline_and_flips_privacy(self):
        """A spilling phase gets extra *private* sequential work, so its
        deadline must be computed from the inflated demand and its
        stream must not coalesce with same-table scans."""
        spiller = ResourceProfile(
            template_id=1,
            phases=(
                Phase(
                    label="sort",
                    relation="facts",
                    seq_bytes=MB(50),
                    mem_bytes=GB(2),  # exceeds RAM: must spill
                    spillable=True,
                ),
            ),
        )
        scanner = ResourceProfile(
            template_id=2,
            phases=(Phase(label="scan", relation="facts", seq_bytes=MB(50)),),
        )
        ref, vt = _both([spiller, scanner])
        spill_stats = vt.by_stream()["s0"][0]
        assert spill_stats.spill_bytes > 0
        # Private spill stream: no shared-scan credit despite the shared
        # relation being scanned concurrently.
        assert spill_stats.shared_seq_bytes == 0.0
        assert vt.latencies() == pytest.approx(ref.latencies(), rel=1e-9)

    def test_late_joiner_outside_window_runs_privately(self):
        """Privacy decided at phase entry must hold for the whole phase:
        the late scan keeps its own stream (no shared credit)."""
        early = ResourceProfile(
            template_id=1,
            phases=(Phase(label="scan", relation="facts", seq_bytes=MB(100)),),
        )
        late = ResourceProfile(
            template_id=2,
            phases=(
                Phase(label="warm", cpu_seconds=0.9),  # join at ~90% progress
                Phase(label="scan", relation="facts", seq_bytes=MB(100)),
            ),
        )
        ref, vt = _both([early, late], scan_share_window=0.3)
        late_stats = vt.by_stream()["s1"][0]
        assert late_stats.shared_seq_bytes == 0.0
        assert vt.latencies() == pytest.approx(ref.latencies(), rel=1e-9)

    def test_shared_scan_group_credits_members(self):
        profiles = [
            ResourceProfile(
                template_id=i,
                phases=(
                    Phase(label="scan", relation="facts", seq_bytes=MB(80)),
                ),
            )
            for i in (1, 2)
        ]
        ref, vt = _both(profiles)
        for stream in ("s0", "s1"):
            stats = vt.by_stream()[stream][0]
            assert stats.shared_seq_bytes > 0
            assert stats.shared_seq_bytes == pytest.approx(
                ref.by_stream()[stream][0].shared_seq_bytes, rel=1e-9
            )

    def test_cache_served_phase_enters_with_zero_deadline(self):
        """A cache-served dimension scan compiles to zero remaining work:
        the phase must complete without registering a disk stream."""
        dim = Phase(
            label="dim",
            relation="dim_date",
            seq_bytes=MB(30),
            dimension_scan=True,
        )
        first = ResourceProfile(template_id=1, phases=(dim,))
        second = ResourceProfile(
            template_id=2,
            phases=(Phase(label="warm", cpu_seconds=1.0), dim),
        )
        ref, vt = _both([first, second])
        warm_stats = vt.by_stream()["s1"][0]
        assert warm_stats.cache_served_bytes == pytest.approx(MB(30))
        assert warm_stats.seq_bytes_read == 0.0
        assert vt.latencies() == pytest.approx(ref.latencies(), rel=1e-9)


class TestBackgroundCycling:
    def test_background_reader_cycles_until_foreground_finishes(self):
        """The spoiler reader's single phase re-enters the deadline heaps
        every cycle; the run must end exactly when the foreground ends."""
        fg = ResourceProfile(
            template_id=1,
            phases=(Phase(label="scan", relation="facts", seq_bytes=MB(150)),),
        )
        reader = reader_profile(MB(10))  # many short cycles
        ref, vt = _both([fg], background=[reader])
        assert len(vt.completions) == 1  # background never completes
        assert vt.elapsed == pytest.approx(ref.elapsed, rel=1e-9)
        # Two streams share the disk the whole time: 2x the isolated time.
        isolated = MB(150) / MB(100)
        assert vt.latencies()[0] == pytest.approx(2 * isolated, rel=1e-6)

    def test_background_cycle_count_does_not_change_physics(self):
        fg = ResourceProfile(
            template_id=1,
            phases=(Phase(label="scan", relation="facts", seq_bytes=MB(90)),),
        )
        coarse = _run(_config(), [fg], background=[reader_profile(MB(500))])
        fine = _run(_config(), [fg], background=[reader_profile(MB(5))])
        assert coarse.latencies()[0] == pytest.approx(
            fine.latencies()[0], rel=1e-9
        )
        assert fine.events > coarse.events  # cycling costs events, not time


class TestTimeEpsilonAndTies:
    def test_simultaneous_drains_settle_in_one_event(self):
        """Equal-work components hit identical deadlines; the tolerance
        pop must drain them together instead of stalling on epsilon
        steps."""
        profiles = [
            ResourceProfile(
                template_id=i,
                phases=(
                    Phase(label="scan", relation=None, seq_bytes=MB(60)),
                ),
            )
            for i in (1, 2, 3)
        ]
        ref, vt = _both(profiles)
        assert vt.latencies() == pytest.approx(ref.latencies(), rel=1e-9)
        # 3 private streams at fair share: each takes 3x isolated time.
        assert vt.latencies()[0] == pytest.approx(
            3 * MB(60) / MB(100), rel=1e-6
        )

    def test_tiny_demands_clamped_to_time_epsilon(self):
        """Demands far below the drain tolerance cannot produce negative
        or zero time steps."""
        profile = ResourceProfile(
            template_id=1,
            phases=(
                Phase(label="tiny", seq_bytes=1e-6, cpu_seconds=1e-12),
                Phase(label="real", cpu_seconds=0.5),
            ),
        )
        result = _run(_config(time_epsilon=1e-9), [profile])
        assert result.elapsed >= 0.5
        assert result.latencies()[0] == pytest.approx(0.5, rel=1e-3)

    def test_zero_work_phase_cascade_completes(self):
        """Consecutive cache-served phases finish without time passing;
        the finished buffer must drain them in bounded events."""
        dim = Phase(
            label="dim",
            relation="dim_date",
            seq_bytes=MB(10),
            dimension_scan=True,
        )
        warm = ResourceProfile(template_id=1, phases=(dim,))
        cascade = ResourceProfile(
            template_id=2,
            phases=(
                Phase(label="warm", cpu_seconds=0.2),
                dim,
                dim,
                dim,
                Phase(label="tail", cpu_seconds=0.1),
            ),
        )
        ref, vt = _both([warm, cascade])
        vt_stats = vt.by_stream()["s1"][0]
        assert vt_stats.cache_served_bytes == pytest.approx(3 * MB(10))
        assert vt.latencies() == pytest.approx(ref.latencies(), rel=1e-9)


class TestIoSecondsAccounting:
    def test_io_seconds_covers_io_phase_span(self):
        """io_seconds is closed out when a phase's last I/O component
        drains, not per event — the totals must still match wall time
        spent with I/O in flight."""
        profile = ResourceProfile(
            template_id=1,
            phases=(
                Phase(label="io", relation="facts", seq_bytes=MB(100)),
                Phase(label="cpu", cpu_seconds=2.0),
            ),
        )
        result = _run(_config(), [profile])
        stats = result.by_stream()["s0"][0]
        assert stats.io_seconds == pytest.approx(MB(100) / MB(100), rel=1e-6)
        assert stats.latency == pytest.approx(1.0 + 2.0, rel=1e-6)

    def test_overlapping_io_and_cpu_components(self):
        """CPU draining before the phase's I/O must not close the
        io_seconds window early."""
        profile = ResourceProfile(
            template_id=1,
            phases=(
                Phase(
                    label="mixed",
                    relation="facts",
                    seq_bytes=MB(100),
                    rand_ops=10.0,
                    cpu_seconds=0.1,
                ),
            ),
        )
        ref, vt = _both([profile])
        vt_stats = vt.by_stream()["s0"][0]
        ref_stats = ref.by_stream()["s0"][0]
        assert vt_stats.io_seconds == pytest.approx(
            ref_stats.io_seconds, rel=1e-9
        )
        # Phase ends when the slowest component (the two I/O streams
        # share the disk) drains; I/O is in flight the whole time.
        assert vt_stats.io_seconds == pytest.approx(vt_stats.latency, rel=1e-6)
