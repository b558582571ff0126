"""Open- and closed-loop request generators for the serving workloads.

Both drive a ``send(lane, index) -> bool`` callable from *lanes*
threads; each lane owns one keep-alive connection, so the lane index is
also the connection index.

* **Open loop**: request *i* is due at ``start + i / rate`` whatever
  happened before.  Lanes take the next due request from a shared
  counter, sleep until it is due and send it.  Latency runs from the
  due time, so a stall also charges the requests queued behind it, and
  *lateness* (send time minus due time) shows how far the generator
  itself fell behind.
* **Closed loop**: each lane sends its next request as soon as the
  previous one returns, for a fixed duration.

A lane that sees :data:`MAX_CONSECUTIVE_FAILURES` failures in a row
stops the phase: a dead or hung server then costs a few timeouts and
shows up as failed requests, not as a hang.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List

#: Consecutive failures on one lane that abort the phase.
MAX_CONSECUTIVE_FAILURES = 3


@dataclass(frozen=True)
class Outcome:
    """One request: when it was due, sent and answered, and whether ok."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


@dataclass
class PhaseResult:
    """Every outcome of a phase plus the requests never sent.

    *start* and *span* are the phase's schedule: requests fall due in
    ``[start, start + span)``; *duration* is the wall time it took.
    """

    outcomes: List[Outcome]
    unsent: int
    duration: float
    start: float
    span: float

    @property
    def attempted(self) -> int:
        return len(self.outcomes) + self.unsent

    @property
    def failed(self) -> int:
        return self.unsent + sum(1 for o in self.outcomes if not o.ok)

    def latencies(self) -> List[float]:
        return [o.latency for o in self.outcomes if o.ok]


class _PhaseState:
    """The shared request counter and outcome list of one phase."""

    def __init__(self, lanes: int):
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self._lanes = lanes
        self._lock = threading.Lock()
        self._next = 0
        self._abort = False
        self._outcomes: List[Outcome] = []

    def _take(self) -> int:
        with self._lock:
            if self._abort:
                return -1
            index = self._next
            self._next += 1
            return index

    def _record(self, outcome: Outcome, failures: int) -> int:
        failures = 0 if outcome.ok else failures + 1
        with self._lock:
            self._outcomes.append(outcome)
            if failures >= MAX_CONSECUTIVE_FAILURES:
                self._abort = True
        return failures

    def _run(self, lane_body: Callable[[int], None]) -> List[Outcome]:
        if self._lanes == 1:
            lane_body(0)
        else:
            threads = [
                threading.Thread(target=lane_body, args=(lane,), name=f"lane-{lane}")
                for lane in range(self._lanes)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        self._outcomes.sort(key=lambda o: o.index)
        return self._outcomes


def open_loop(
    send: Callable[[int, int], bool],
    rate: float,
    duration: float,
    lanes: int = 2,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> PhaseResult:
    """Send ``int(rate * duration)`` requests on a fixed schedule."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    total = int(rate * duration)
    state = _PhaseState(lanes)
    start = clock()

    def lane_body(lane: int) -> None:
        failures = 0
        while True:
            index = state._take()
            if index < 0 or index >= total:
                return
            due = start + index / rate
            now = clock()
            if now < due:
                sleep(due - now)
            sent = clock()
            ok = send(lane, index)
            failures = state._record(Outcome(index, due, sent, clock(), ok), failures)

    outcomes = state._run(lane_body)
    return PhaseResult(outcomes, total - len(outcomes), clock() - start, start, duration)


def closed_loop(
    send: Callable[[int, int], bool],
    duration: float,
    lanes: int = 2,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> PhaseResult:
    """Each lane sends back to back until *duration* has passed."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    state = _PhaseState(lanes)
    start = clock()
    end = start + duration

    def lane_body(lane: int) -> None:
        failures = 0
        while clock() < end:
            index = state._take()
            if index < 0:
                return
            sent = clock()
            ok = send(lane, index)
            failures = state._record(Outcome(index, sent, sent, clock(), ok), failures)

    outcomes = state._run(lane_body)
    return PhaseResult(outcomes, 0, clock() - start, start, duration)
