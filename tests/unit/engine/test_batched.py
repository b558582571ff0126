"""Batched lockstep engine unit tests.

The batched engine's contract is stronger than the differential
tolerance: a batch of one must be *bitwise* identical to the scalar
virtual-time engine, and results must be independent of batch
composition.  These tests pin that contract on the edge cases the
lockstep mask must survive — mixed spill/privacy columns, whole batches
finishing on the same event, and the empty-run guard.

Profiles are shared between the batched and scalar runs (instance ids
are globally unique, so rebuilding one would already break equality);
only the RNG is re-seeded per run.
"""

import numpy as np
import pytest

from repro.config import HardwareSpec, SimulationConfig, SystemConfig
from repro.engine.batched import RunSpec, batched_campaign_ok, run_batch
from repro.engine.executor import ConcurrentExecutor, SingleShotStream
from repro.engine.profile import Phase, ResourceProfile, reader_profile
from repro.errors import SimulationError
from repro.units import GB, MB


def _config(engine: str, ram_gb: float = 0.5) -> SystemConfig:
    return SystemConfig(
        hardware=HardwareSpec(
            cores=4,
            ram_bytes=GB(ram_gb),
            seq_bandwidth=MB(100),
            random_iops=120.0,
            random_io_variance=0.35,
        ),
        simulation=SimulationConfig(engine=engine, restart_cost=0.0),
    )


def _rich_profile(template_id: int, mem_mb: float = 0.0) -> ResourceProfile:
    """Exercises shared scans, random I/O, CPU, and (optionally) a
    spillable working set in one profile."""
    return ResourceProfile(
        template_id=template_id,
        phases=(
            Phase(
                label="dim",
                relation="dim_date",
                seq_bytes=MB(20),
                dimension_scan=True,
            ),
            Phase(
                label="join",
                relation="facts",
                seq_bytes=MB(80),
                rand_ops=12.0,
                cpu_seconds=0.4,
                mem_bytes=MB(mem_mb),
                spillable=mem_mb > 0,
            ),
        ),
    )


def _spec(profile, seed: int, background=(), pinned: float = 0.0) -> RunSpec:
    return RunSpec(
        streams=[SingleShotStream(profile, name="primary")],
        background=background,
        pinned_bytes=pinned,
        rng=np.random.default_rng(seed),
    )


def _scalar_run(profile, seed: int, background=(), pinned: float = 0.0):
    executor = ConcurrentExecutor(
        _config("virtual_time"), rng=np.random.default_rng(seed)
    )
    return executor.run(
        [SingleShotStream(profile, name="primary")],
        background=background,
        pinned_bytes=pinned,
    )


def _assert_bitwise(a, b):
    assert a.elapsed == b.elapsed
    assert len(a.completions) == len(b.completions)
    for x, y in zip(a.completions, b.completions):
        assert x.stream_name == y.stream_name
        assert x.stats == y.stats


def test_batch_of_one_equals_scalar_exactly():
    profile = _rich_profile(1, mem_mb=300)
    reader = reader_profile(MB(150))
    [batched] = run_batch(
        _config("batched"),
        [_spec(profile, seed=7, background=[reader], pinned=MB(200))],
    )
    scalar = _scalar_run(
        profile, seed=7, background=[reader], pinned=MB(200)
    )
    _assert_bitwise(batched, scalar)


def test_all_runs_finish_on_the_same_event():
    # Identical columns drain in lockstep and leave the active mask on
    # the same iteration; every result must still be the scalar one.
    profile = _rich_profile(2)
    results = run_batch(
        _config("batched"), [_spec(profile, seed=3) for _ in range(8)]
    )
    scalar = _scalar_run(profile, seed=3)
    assert len(results) == 8
    for result in results:
        _assert_bitwise(result, scalar)


def test_mid_batch_spill_and_privacy_flips():
    # Columns diverge mid-batch: one spills, one stays in memory, one
    # scans shared fact tables while another runs private-only phases.
    cases = [
        (_rich_profile(3, mem_mb=900), 11),  # spills
        (_rich_profile(4, mem_mb=40), 12),  # fits in memory
        (_rich_profile(5), 13),  # shared scans, no working set
        (
            ResourceProfile(
                template_id=6,
                phases=(
                    Phase(label="p", seq_bytes=MB(60), cpu_seconds=0.2),
                ),
            ),
            14,
        ),  # private only
    ]
    results = run_batch(
        _config("batched"),
        [_spec(profile, seed) for profile, seed in cases],
    )
    for result, (profile, seed) in zip(results, cases):
        _assert_bitwise(result, _scalar_run(profile, seed))


def test_results_independent_of_batch_composition():
    cases = [
        (_rich_profile(10 + j, mem_mb=100.0 * j), 100 + j) for j in range(5)
    ]
    together = run_batch(
        _config("batched"), [_spec(p, s) for p, s in cases]
    )
    alone = [
        run_batch(_config("batched"), [_spec(p, s)])[0] for p, s in cases
    ]
    for a, b in zip(together, alone):
        _assert_bitwise(a, b)


def test_empty_run_is_rejected():
    with pytest.raises(SimulationError):
        run_batch(_config("batched"), [RunSpec(streams=[])])


def test_empty_batch_returns_no_results():
    assert run_batch(_config("batched"), []) == []


def test_batched_campaign_ok_conditions():
    assert batched_campaign_ok(_config("batched"))
    assert not batched_campaign_ok(_config("virtual_time"))
