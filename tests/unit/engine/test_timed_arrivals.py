"""Timed-arrival stream extension: both engines, all three wake modes.

The stream protocol's ``next_arrival`` hook lets a stream stay open
while momentarily idle: a finite wake time re-polls it at that simulated
time (an arrival that has not happened yet), ``inf`` re-polls it after
the next foreground completion (a deferred admission), and ``None``
closes it (the historical meaning of an exhausted stream).  These tests
drive each mode directly, on the virtual-time engine and the test-side
reference loop (``tests/reference_engine.py``).
"""

import math

import numpy as np
import pytest

from repro.config import HardwareSpec, SimulationConfig, SystemConfig
from repro.engine.executor import SingleShotStream
from repro.engine.profile import Phase, ResourceProfile
from repro.units import GB, MB
from tests.reference_engine import make_executor

ENGINES = ("reference", "virtual_time")


def _config():
    return SystemConfig(
        hardware=HardwareSpec(
            cores=4,
            ram_bytes=GB(1),
            seq_bandwidth=MB(100),
            random_iops=100.0,
            random_io_variance=0.0,
        ),
        simulation=SimulationConfig(restart_cost=0.0),
    )


def _cpu_profile(seconds=1.0):
    return ResourceProfile(
        template_id=-1, phases=(Phase(label="cpu", cpu_seconds=seconds),)
    )


def _run(engine, streams):
    executor = make_executor(engine, _config(), rng=np.random.default_rng(0))
    return executor.run(streams)


class TimedStream:
    """Emits one fixed profile per scheduled arrival time."""

    def __init__(self, arrival_times, seconds=1.0, name="timed"):
        self.name = name
        self._times = sorted(arrival_times)
        self._seconds = seconds
        self._emitted = 0

    def next_profile(self, now, completed):
        if self._emitted < len(self._times) and self._times[self._emitted] <= now:
            self._emitted += 1
            return _cpu_profile(self._seconds)
        return None

    def next_arrival(self, now):
        if self._emitted < len(self._times):
            return self._times[self._emitted]
        return None


class DeferUntilCompletionStream:
    """Defers its only query (wake ``inf``) until another query finishes."""

    def __init__(self, name="deferred"):
        self.name = name
        self.polls_while_deferred = 0
        self._released = False
        self._emitted = False

    def next_profile(self, now, completed):
        if self._emitted:
            return None
        if self._released:
            self._emitted = True
            return _cpu_profile(0.5)
        self.polls_while_deferred += 1
        if self.polls_while_deferred >= 2:
            # First poll defers; the completion-triggered re-poll admits.
            self._released = True
            self._emitted = True
            return _cpu_profile(0.5)
        return None

    def next_arrival(self, now):
        return None if self._emitted else math.inf


@pytest.mark.parametrize("engine", ENGINES)
def test_future_arrival_starts_exactly_on_time(engine):
    stream = TimedStream([5.0], seconds=1.0)
    result = _run(engine, [stream])
    assert len(result.completions) == 1
    stats = result.completions[0].stats
    assert stats.start_time == pytest.approx(5.0, abs=1e-6)
    assert stats.end_time == pytest.approx(6.0, rel=1e-6)


@pytest.mark.parametrize("engine", ENGINES)
def test_idle_gap_between_arrivals_is_idled_through(engine):
    # Second arrival lands long after the first query finished: the
    # stream must stay open across the idle gap, not close on the None.
    stream = TimedStream([1.0, 10.0], seconds=1.0)
    result = _run(engine, [stream])
    assert len(result.completions) == 2
    first, second = (c.stats for c in result.completions)
    assert first.end_time == pytest.approx(2.0, rel=1e-6)
    assert second.start_time == pytest.approx(10.0, abs=1e-6)


@pytest.mark.parametrize("engine", ENGINES)
def test_back_to_back_arrivals_overlap(engine):
    # Both arrivals are due before the first completes; they contend.
    stream_a = TimedStream([1.0], seconds=4.0, name="a")
    stream_b = TimedStream([2.0], seconds=4.0, name="b")
    result = _run(engine, [stream_a, stream_b])
    by_name = {c.stream_name: c.stats for c in result.completions}
    assert by_name["a"].start_time == pytest.approx(1.0, abs=1e-6)
    assert by_name["b"].start_time == pytest.approx(2.0, abs=1e-6)
    # Overlap: b starts before a ends.
    assert by_name["b"].start_time < by_name["a"].end_time


@pytest.mark.parametrize("engine", ENGINES)
def test_inf_wake_repolls_after_completion(engine):
    runner = SingleShotStream(_cpu_profile(2.0), name="runner")
    deferred = DeferUntilCompletionStream()
    result = _run(engine, [runner, deferred])
    by_name = {c.stream_name: c.stats for c in result.completions}
    assert set(by_name) == {"runner", "deferred"}
    # The deferred query was admitted at (not before) the completion.
    assert by_name["deferred"].start_time == pytest.approx(
        by_name["runner"].end_time, rel=1e-6
    )
    assert deferred.polls_while_deferred == 2


@pytest.mark.parametrize("engine", ENGINES)
def test_streams_without_extension_close_on_none(engine):
    # The historical protocol: SingleShotStream has no next_arrival, so
    # its first None closes it and the run ends.
    result = _run(engine, [SingleShotStream(_cpu_profile(1.0), name="solo")])
    assert len(result.completions) == 1
    assert result.elapsed == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_agree_on_timed_workload(engine):
    # Cross-check: identical timed workload on both engines (the
    # differential property suite does this for the base protocol).
    def build():
        return [
            TimedStream([0.5, 3.0, 3.2], seconds=2.0, name="t0"),
            TimedStream([1.0], seconds=5.0, name="t1"),
        ]

    reference = _run("reference", build())
    virtual = _run("virtual_time", build())
    assert len(reference.completions) == len(virtual.completions) == 4
    for ref, virt in zip(reference.completions, virtual.completions):
        assert ref.stream_name == virt.stream_name
        assert ref.stats.start_time == pytest.approx(
            virt.stats.start_time, rel=1e-6, abs=1e-6
        )
        assert ref.stats.end_time == pytest.approx(
            virt.stats.end_time, rel=1e-6, abs=1e-6
        )
