"""Property tests for the blame-attribution contracts.

Three invariants over randomized workloads:

* **Conservation** — every attributed query's blame rows plus its self
  adjustments sum to its measured slowdown (latency minus the analytic
  solo baseline) to a relative 1e-6.
* **Shared-scan credit** — synchronized same-table scans save their
  co-members divisor slots, which the accounting must report as
  *negative* ``seq`` blame between group members.
* **Read-only hooks** — a run with the recorder attached is
  bit-identical to the same run without it, on the same randomized
  workloads the engine-differential suite sweeps.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HardwareSpec, SimulationConfig, SystemConfig
from repro.engine.executor import ConcurrentExecutor, SingleShotStream
from repro.engine.profile import Phase, ResourceProfile, reader_profile
from repro.explain import ExplainRecorder, attribute, max_residual
from repro.units import GB, MB

#: Per-query stat fields that must not move when the recorder attaches.
STAT_FIELDS = (
    "start_time",
    "end_time",
    "io_seconds",
    "cpu_seconds",
    "seq_bytes_read",
    "rand_ops_done",
    "spill_bytes",
    "cache_served_bytes",
    "shared_seq_bytes",
    "working_set_bytes",
)

REL_TOL = 1e-6

RELATIONS = ("facts", "orders", "dim_date")


def _config(*, window=1.0, ram_gb=1.0, variance=0.35):
    return SystemConfig(
        hardware=HardwareSpec(
            cores=4,
            ram_bytes=GB(ram_gb),
            seq_bandwidth=MB(100),
            random_iops=120.0,
            random_io_variance=variance,
        ),
        simulation=SimulationConfig(
            scan_share_window=window, restart_cost=0.0
        ),
    )


def _run(profiles, *, window=1.0, ram_gb=1.0, variance=0.35, background=(),
         pinned=0.0, seed=0, recorder=None):
    config = _config(window=window, ram_gb=ram_gb, variance=variance)
    streams = [
        SingleShotStream(p, name=f"s{i}") for i, p in enumerate(profiles)
    ]
    executor = ConcurrentExecutor(
        config, rng=np.random.default_rng(seed), recorder=recorder
    )
    result = executor.run(
        streams, background=list(background), pinned_bytes=pinned
    )
    return result, config


# The engine-differential feature space: shared or private scans,
# random I/O, CPU, working memory that may spill, dimension scans.
phases = st.builds(
    Phase,
    label=st.just("p"),
    relation=st.one_of(st.none(), st.sampled_from(RELATIONS)),
    seq_bytes=st.one_of(
        st.just(0.0), st.floats(min_value=MB(1), max_value=MB(400))
    ),
    rand_ops=st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=60.0)),
    cpu_seconds=st.one_of(
        st.just(0.0), st.floats(min_value=0.05, max_value=4.0)
    ),
    mem_bytes=st.one_of(
        st.just(0.0), st.floats(min_value=MB(16), max_value=MB(900))
    ),
    spillable=st.booleans(),
    dimension_scan=st.booleans(),
)

profiles_strategy = st.lists(
    st.builds(
        lambda ps: ResourceProfile(template_id=1, phases=tuple(ps)),
        st.lists(phases, min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=5,
)

workload = st.fixed_dictionaries(
    {
        "profiles": profiles_strategy,
        "window": st.sampled_from([1.0, 0.3]),
        "ram_gb": st.sampled_from([0.25, 1.0]),
        "variance": st.sampled_from([0.0, 0.35]),
        "spoilers": st.integers(min_value=0, max_value=2),
        "seed": st.integers(min_value=0, max_value=2**31),
    }
)


def _kwargs(spec):
    return dict(
        window=spec["window"],
        ram_gb=spec["ram_gb"],
        variance=spec["variance"],
        background=[
            reader_profile(MB(200)) for _ in range(spec["spoilers"])
        ],
        pinned=GB(spec["ram_gb"]) * 0.5 if spec["spoilers"] else 0.0,
        seed=spec["seed"],
    )


def _empty(spec):
    return all(
        phase.is_empty
        for profile in spec["profiles"]
        for phase in profile.phases
    )


@given(spec=workload)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_blame_rows_sum_to_slowdown(spec):
    """Conservation: slowdown == sum(blame) + sum(self) to rel 1e-6."""
    if _empty(spec):
        return
    recorder = ExplainRecorder()
    result, config = _run(spec["profiles"], recorder=recorder, **_kwargs(spec))
    attributions = attribute(recorder, result, config)
    assert len(attributions) == len(spec["profiles"])
    assert max_residual(attributions) <= REL_TOL
    for attr in attributions:
        scale = attr.latency if attr.latency > 1.0 else 1.0
        assert abs(attr.slowdown - attr.total_attributed()) <= REL_TOL * scale


@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=20, deadline=None)
def test_shared_scans_credit_their_co_members(n, seed):
    """Same-group synchronized scans show negative seq blame rows."""
    rng = np.random.default_rng(seed)
    profiles = [
        ResourceProfile(
            template_id=2,
            phases=(
                Phase(
                    label="scan",
                    relation="facts",
                    seq_bytes=float(rng.uniform(MB(80), MB(300))),
                ),
            ),
        )
        for _ in range(n)
    ]
    recorder = ExplainRecorder()
    # No lead CPU: every scan joins the same coalesced group at t=0.
    result, config = _run(profiles, window=1.0, seed=seed, recorder=recorder)
    attributions = attribute(recorder, result, config)
    assert max_residual(attributions) <= REL_TOL
    negative_rows = 0
    for attr in attributions:
        for row in attr.blame.values():
            if row.get("seq", 0.0) < 0.0:
                negative_rows += 1
        # The shared-scan credit is balanced by a non-negative self
        # offset, never by inventing co-runner delay.
        assert attr.self_adjust.get("seq", 0.0) >= -1e-12
    assert negative_rows > 0


@given(spec=workload)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_recorder_attachment_is_bit_invisible(spec):
    """Attribution on/off: identical stats, elapsed, and completions."""
    if _empty(spec):
        return
    plain, _ = _run(spec["profiles"], **_kwargs(spec))
    recorder = ExplainRecorder()
    recorded, _ = _run(spec["profiles"], recorder=recorder, **_kwargs(spec))
    assert len(plain.completions) == len(recorded.completions)
    for a, b in zip(plain.completions, recorded.completions):
        assert a.stream_name == b.stream_name
        for field in STAT_FIELDS:
            x = getattr(a.stats, field)
            y = getattr(b.stats, field)
            assert x == y, (
                f"{a.stream_name}.{field}: plain={x!r} recorded={y!r}"
            )
    assert plain.elapsed == recorded.elapsed
    assert len(recorder.phases) > 0
