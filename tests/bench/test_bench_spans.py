"""Self time, per-thread recording and the remainder row of bench.spans."""

import threading

import pytest

from bench.spans import ThreadRecorders, layer_times, wrap


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _doc(name, layer, start, end, thread=1):
    return {
        "name": name,
        "start": start,
        "end": end,
        "span_id": f"{name}-{start}",
        "parent_id": None,
        "attributes": {"layer": layer, "thread": thread, "thread_name": "t"},
    }


def test_cross_layer_child_is_subtracted_from_parent():
    clock = FakeClock()
    recorders = ThreadRecorders(clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        traced_inner()
        clock.advance(3.0)

    traced_inner = wrap(inner, "inner", "engine", recorders)
    wrap(outer, "outer", "workload", recorders)()

    times = layer_times(recorders.docs())
    assert times.layer_self == {"workload": 4.0, "engine": 2.0}
    assert times.name_total == {"outer": 6.0, "inner": 2.0}
    assert times.total_self() == 6.0


def test_same_layer_nesting_adds_nothing():
    docs = [
        _doc("run", "engine", 0.0, 10.0),
        _doc("run_batch", "engine", 2.0, 7.0),
        _doc("profile", "workload", 3.0, 4.0),
    ]
    times = layer_times(docs)
    assert times.layer_self == {"engine": 9.0, "workload": 1.0}
    assert times.total_self() == 10.0


def test_overlapping_waits_on_one_thread_count_once():
    # A batch request submits two keys; their waits overlap.
    docs = [
        _doc("handle", "serving.app", 0.0, 10.0),
        _doc("wait", "serving.batching", 1.0, 6.0),
        _doc("wait", "serving.batching", 2.0, 8.0),
    ]
    times = layer_times(docs)
    assert times.layer_self == {"serving.app": 3.0, "serving.batching": 7.0}
    assert times.name_calls["wait"] == 2


def test_each_thread_gets_its_own_recorder():
    recorders = ThreadRecorders()
    barrier = threading.Barrier(2)

    def body():
        rec = recorders.recorder()
        with rec.span("outer", layer="a"):
            barrier.wait(timeout=5)
            with rec.span("inner", layer="b"):
                barrier.wait(timeout=5)

    threads = [threading.Thread(target=body) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()

    docs = recorders.docs()
    assert len(docs) == 4
    by_id = {d["span_id"]: d for d in docs}
    for doc in docs:
        if doc["name"] == "inner":
            parent = by_id[doc["parent_id"]]
            # Interleaved threads never adopt each other's spans.
            assert parent["name"] == "outer"
            assert parent["attributes"]["thread"] == doc["attributes"]["thread"]
    assert len({d["attributes"]["thread"] for d in docs}) == 2


def test_detached_interval_closes_from_another_thread():
    clock = FakeClock()
    recorders = ThreadRecorders(clock)
    span = recorders.open_detached("RequestBatcher.wait", "serving.batching")
    clock.advance(0.5)
    closer = threading.Thread(target=recorders.close_detached, args=(span,))
    closer.start()
    closer.join(timeout=5)
    (doc,) = recorders.docs()
    assert doc["end"] - doc["start"] == 0.5
    assert doc["attributes"]["thread"] == threading.get_ident()


def test_remainder_row_is_root_time_no_layer_covers():
    # Root spans are the bench's own: their uncovered time is the
    # unattributed row, so the rows add back up to the end-to-end time.
    docs = [
        _doc("bench.op", "unattributed", 0.0, 5.0),
        _doc("collect", "core.training", 0.5, 4.5),
        _doc("run", "engine", 1.0, 3.0),
        _doc("bench.op", "unattributed", 6.0, 8.0),
        _doc("collect", "core.training", 6.0, 8.0),
    ]
    times = layer_times(docs)
    assert times.layer_self == pytest.approx(
        {"unattributed": 1.0, "core.training": 4.0, "engine": 2.0}
    )
    assert times.total_self() == pytest.approx(5.0 + 2.0)
