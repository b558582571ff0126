"""Blame attribution against the virtual-time engine's records."""

import numpy as np
import pytest

from repro.config import HardwareSpec, SimulationConfig, SystemConfig
from repro.engine.executor import ConcurrentExecutor, SingleShotStream
from repro.engine.profile import Phase, ResourceProfile, reader_profile
from repro.errors import SimulationError
from repro.explain import (
    ExplainRecorder,
    QueryAttribution,
    attribute,
    max_residual,
)
from repro.units import GB, MB
from tests.reference_engine import ReferenceExecutor


def _config(engine="virtual_time", *, variance=0.0, window=1.0):
    return SystemConfig(
        hardware=HardwareSpec(
            cores=4,
            ram_bytes=GB(1.0),
            seq_bandwidth=MB(100),
            random_iops=120.0,
            random_io_variance=variance,
        ),
        simulation=SimulationConfig(
            engine=engine, scan_share_window=window, restart_cost=0.0
        ),
    )


def _run(profiles, *, engine="virtual_time", variance=0.0, window=1.0,
         background=(), seed=0):
    config = _config(engine, variance=variance, window=window)
    recorder = ExplainRecorder()
    executor = ConcurrentExecutor(
        config, rng=np.random.default_rng(seed), recorder=recorder
    )
    result = executor.run(
        [SingleShotStream(p, name=f"s{i}") for i, p in enumerate(profiles)],
        background=list(background),
    )
    return recorder, result, config


MIXED = [
    ResourceProfile(
        template_id=1,
        phases=(
            Phase(label="scan", relation="facts", seq_bytes=MB(120),
                  cpu_seconds=0.5),
            Phase(label="agg", cpu_seconds=1.5),
        ),
    ),
    ResourceProfile(
        template_id=2,
        phases=(
            Phase(label="probe", rand_ops=40.0, cpu_seconds=0.3),
        ),
    ),
    ResourceProfile(
        template_id=3,
        phases=(
            Phase(label="scan", relation="orders", seq_bytes=MB(200)),
        ),
    ),
]


def test_conservation_on_mixed_workload():
    recorder, result, config = _run(MIXED, variance=0.35, seed=7)
    attrs = attribute(recorder, result, config)
    assert len(attrs) == len(MIXED)
    assert max_residual(attrs) < 1e-9
    for attr in attrs:
        assert attr.slowdown == pytest.approx(
            attr.total_attributed(), abs=1e-9
        )


def test_contended_query_blames_positive_seconds():
    recorder, result, config = _run(MIXED, seed=3)
    attrs = {a.template_id: a for a in attribute(recorder, result, config)}
    # Both scanners share the disk: each is slowed and blames the other.
    scanner = attrs[1]
    assert scanner.slowdown > 0.0
    others = {tid for tid in attrs if tid != 1}
    blamed = {
        attrs_by_inst
        for attrs_by_inst in scanner.blame
    }
    assert blamed  # at least one co-runner row
    net = sum(sum(row.values()) for row in scanner.blame.values())
    assert net > 0.0
    assert others  # sanity


def test_shared_scan_co_members_receive_negative_seq_blame():
    profiles = [
        ResourceProfile(
            template_id=5,
            phases=(Phase(label="scan", relation="facts", seq_bytes=MB(150)),),
        )
        for _ in range(3)
    ]
    recorder, result, config = _run(profiles, window=1.0)
    attrs = attribute(recorder, result, config)
    assert max_residual(attrs) < 1e-9
    negative = [
        seconds
        for attr in attrs
        for row in attr.blame.values()
        for resource, seconds in row.items()
        if resource == "seq" and seconds < 0.0
    ]
    assert negative, "synchronized scans must credit their co-members"
    # The credit is offset by a positive self entry, keeping totals
    # conserved per query.
    for attr in attrs:
        assert attr.self_adjust.get("seq", 0.0) >= 0.0


def test_background_reader_is_a_blame_source():
    recorder, result, config = _run(
        MIXED[:1], background=[reader_profile(MB(300))]
    )
    attrs = attribute(recorder, result, config)
    primary = next(a for a in attrs if a.template_id == 1)
    background_ids = {
        record[0].instance_id
        for record in recorder.phase_records()
        if record[0].background
    }
    assert background_ids
    blamed_background = background_ids & set(primary.blame)
    assert blamed_background, "spoiler reader must appear in the blame rows"
    assert max_residual(attrs) < 1e-9


def test_rand_variance_draw_is_a_self_entry():
    profile = ResourceProfile(
        template_id=7, phases=(Phase(label="probe", rand_ops=50.0),)
    )
    recorder, result, config = _run([profile], variance=0.5, seed=11)
    (attr,) = attribute(recorder, result, config)
    # Alone on the box: the only slowdown source is the variance draw,
    # which is the query's own doing.
    assert attr.blame == {} or all(
        abs(sum(row.values())) < 1e-12 for row in attr.blame.values()
    )
    assert attr.slowdown == pytest.approx(
        attr.self_adjust.get("rand", 0.0), abs=1e-9
    )


def test_reference_engine_refuses_recorder():
    # The test-side reference loop keeps no deadlines to record.
    executor = ReferenceExecutor(
        _config(), rng=np.random.default_rng(0), recorder=ExplainRecorder()
    )
    with pytest.raises(SimulationError, match="virtual-time engine"):
        executor.run([SingleShotStream(MIXED[0], name="s0")])


def test_batched_engine_records_via_scalar_fallback():
    plain_cfg = _config("batched")
    executor = ConcurrentExecutor(plain_cfg, rng=np.random.default_rng(0))
    plain = executor.run(
        [SingleShotStream(p, name=f"s{i}") for i, p in enumerate(MIXED)]
    )
    recorder, recorded, _ = _run(MIXED, engine="batched")
    assert len(recorder.phases) > 0
    for a, b in zip(plain.completions, recorded.completions):
        assert a.stats == b.stats
    assert plain.elapsed == recorded.elapsed


def test_recorder_begin_run_resets_records():
    recorder, _, _ = _run(MIXED[:1])
    assert len(recorder) > 0
    assert recorder.io_exits
    recorder.begin_run()
    assert len(recorder) == 0
    assert recorder.io_exits == []


def test_max_residual_of_nothing_is_zero():
    assert max_residual([]) == 0.0
    perfect = QueryAttribution(
        instance_id=1, template_id=1, latency=2.0, baseline=2.0
    )
    assert max_residual([perfect]) == 0.0
