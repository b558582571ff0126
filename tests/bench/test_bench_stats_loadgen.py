"""Percentile reporting rules and open-loop lateness accounting."""

import pytest

from bench import loadgen, stats


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile([1.0] * 99) is None
    q, _ = stats.tail_percentile(list(range(100)))
    assert q == 0.9
    assert stats.tail_percentile(list(range(999)))[0] == 0.95  # 9 beyond p99
    assert stats.tail_percentile(list(range(1000)))[0] == 0.99
    assert stats.tail_percentile(list(range(10_000)))[0] == 0.999


def test_quartiles_match_the_acceptance_rule():
    values = [float(v) for v in range(1, 11)]
    summary = stats.quartiles(values)
    assert summary["median"] == 5.5
    assert (summary["q1"], summary["q3"]) == (2.75, 8.25)
    assert summary["n"] == 10
    assert stats.spread(values) == pytest.approx(5.5 / 5.5)
    assert stats.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}


class FakeClock:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    clock = FakeClock()
    service = {0: 0.35}  # request 0 stalls; the rest take 10 ms

    def send(lane, index):
        clock.now += service.get(index, 0.01)
        return True

    result = loadgen.open_loop(send, rate=10.0, duration=0.5, lanes=1,
                               clock=clock, sleep=clock.sleep)
    assert result.attempted == 5 and result.failed == 0
    late = [round(o.lateness, 6) for o in result.outcomes]
    lat = [round(o.latency, 6) for o in result.outcomes]
    # Due at 0, .1, .2, .3, .4; request 0 ends at .35, so 1-3 start late.
    assert late == [0.0, 0.25, 0.16, 0.07, 0.0]
    assert lat == [0.35, 0.26, 0.17, 0.08, 0.01]
    # Only the request that was on time slept, for the remaining gap.
    assert clock.slept == [pytest.approx(0.02)]


def test_consecutive_failures_abort_and_count_unsent_requests():
    clock = FakeClock()

    def send(lane, index):
        clock.now += 0.001
        return False

    result = loadgen.open_loop(send, rate=100.0, duration=1.0, lanes=1,
                               clock=clock, sleep=clock.sleep)
    assert len(result.outcomes) == loadgen.MAX_CONSECUTIVE_FAILURES
    assert result.attempted == 100
    assert result.failed == 100


def test_closed_loop_sends_back_to_back():
    clock = FakeClock()

    def send(lane, index):
        clock.now += 0.25
        return True

    result = loadgen.closed_loop(send, duration=1.0, lanes=1,
                                 clock=clock, sleep=clock.sleep)
    assert [o.index for o in result.outcomes] == [0, 1, 2, 3]
    assert all(o.lateness == 0.0 for o in result.outcomes)
    assert result.latencies() == [0.25] * 4
