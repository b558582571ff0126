"""Differential tests: the shipped engines against the reference loop.

The reference loop (``tests/reference_engine.py``) is the executable
specification; the virtual-time and batched engines must reproduce its
physics on arbitrary workloads.
Bit-equality with the reference is impossible — it decrements remaining
work per event while virtual time subtracts a cumulative integral from
a static deadline, and those float reassociations differ — so that
equivalence is held to a relative tolerance (documented in
docs/PERFORMANCE.md): per-query stats to 1e-6, tracer aggregates to
1e-6.  The batched engine, by contrast, mirrors virtual time expression
for expression, so its runs are additionally checked *bitwise* against
the scalar virtual-time results.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HardwareSpec, SimulationConfig, SystemConfig
from repro.engine.executor import SingleShotStream
from repro.engine.profile import Phase, ResourceProfile, reader_profile
from repro.engine.trace import UtilizationTrace
from repro.units import GB, MB
from tests.reference_engine import make_executor

#: Per-query stat fields that must agree across engines.
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


def _run_engine(engine, profiles, *, window=1.0, ram_gb=1.0, variance=0.35,
                background=(), pinned=0.0, seed=0, tracer=None):
    config = _config(window=window, ram_gb=ram_gb, variance=variance)
    streams = [
        SingleShotStream(p, name=f"s{i}") for i, p in enumerate(profiles)
    ]
    executor = make_executor(
        engine, config, rng=np.random.default_rng(seed), tracer=tracer
    )
    return executor.run(streams, background=background, pinned_bytes=pinned)


def assert_equivalent(ref, vt):
    """Both engines produced the same completions with the same physics."""
    assert len(ref.completions) == len(vt.completions)
    for a, b in zip(ref.completions, vt.completions):
        assert a.stream_name == b.stream_name
        assert a.stats.template_id == b.stats.template_id
        assert a.stats.instance_id == b.stats.instance_id
        for field in STAT_FIELDS:
            x = getattr(a.stats, field)
            y = getattr(b.stats, field)
            assert x == pytest.approx(y, rel=REL_TOL, abs=1e-6), (
                f"{a.stream_name}.{field}: reference={x!r} virtual_time={y!r}"
            )
    assert ref.elapsed == pytest.approx(vt.elapsed, rel=REL_TOL)


def assert_bitwise(vt, bt):
    """The batched engine must equal scalar virtual time exactly."""
    assert len(vt.completions) == len(bt.completions)
    for a, b in zip(vt.completions, bt.completions):
        assert a.stream_name == b.stream_name
        assert a.stats == b.stats, (
            f"{a.stream_name}: virtual_time={a.stats!r} batched={b.stats!r}"
        )
    assert vt.elapsed == bt.elapsed


# A phase drawn from the full feature space: shared or private scans,
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


@given(spec=workload)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_engines_agree_on_randomized_workloads(spec):
    """Sweep randomized stream sets through both engines."""
    if all(
        phase.is_empty
        for profile in spec["profiles"]
        for phase in profile.phases
    ):
        return  # nothing to simulate
    kwargs = dict(
        window=spec["window"],
        ram_gb=spec["ram_gb"],
        variance=spec["variance"],
        background=[
            reader_profile(MB(200)) for _ in range(spec["spoilers"])
        ],
        pinned=GB(spec["ram_gb"]) * 0.5 if spec["spoilers"] else 0.0,
        seed=spec["seed"],
    )
    ref = _run_engine("reference", spec["profiles"], **kwargs)
    vt = _run_engine("virtual_time", spec["profiles"], **kwargs)
    bt = _run_engine("batched", spec["profiles"], **kwargs)
    assert_equivalent(ref, vt)
    assert_equivalent(ref, bt)
    assert_bitwise(vt, bt)


@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
    window=st.sampled_from([1.0, 0.3]),
)
@settings(max_examples=25, deadline=None)
def test_engines_agree_on_shared_scan_groups(n, seed, window):
    """Concurrent same-table scans: coalescing and join windows."""
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(n):
        size = float(rng.uniform(MB(50), MB(300)))
        lead_cpu = float(rng.uniform(0.0, 2.0))
        profiles.append(
            ResourceProfile(
                template_id=2,
                phases=(
                    Phase(label="warm", cpu_seconds=lead_cpu),
                    Phase(label="scan", relation="facts", seq_bytes=size),
                ),
            )
        )
    ref = _run_engine("reference", profiles, window=window, seed=seed)
    vt = _run_engine("virtual_time", profiles, window=window, seed=seed)
    bt = _run_engine("batched", profiles, window=window, seed=seed)
    assert_equivalent(ref, vt)
    assert_equivalent(ref, bt)
    assert_bitwise(vt, bt)


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=15, deadline=None)
def test_engines_agree_with_tracer_attached(seed):
    """Tracer on/off must not perturb either engine, and the traces of
    the two engines must aggregate identically."""
    rng = np.random.default_rng(seed)
    profiles = [
        ResourceProfile(
            template_id=3,
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
                    seq_bytes=float(rng.uniform(MB(30), MB(120))),
                    rand_ops=float(rng.uniform(0, 20)),
                    cpu_seconds=float(rng.uniform(0, 1.0)),
                    mem_bytes=MB(300),
                    spillable=True,
                ),
            ),
        )
        for _ in range(3)
    ]
    traces = {}
    results = {}
    for engine in ("reference", "virtual_time"):
        traces[engine] = UtilizationTrace()
        results[engine] = _run_engine(
            engine, profiles, ram_gb=0.5, seed=seed, tracer=traces[engine]
        )
        untraced = _run_engine(engine, profiles, ram_gb=0.5, seed=seed)
        assert results[engine].elapsed == untraced.elapsed  # same engine: exact
    assert_equivalent(results["reference"], results["virtual_time"])
    ref_trace, vt_trace = traces["reference"], traces["virtual_time"]
    assert ref_trace.elapsed == pytest.approx(vt_trace.elapsed, rel=REL_TOL)
    assert ref_trace.seq_bytes_total() == pytest.approx(
        vt_trace.seq_bytes_total(), rel=REL_TOL
    )
    assert ref_trace.logical_seq_bytes_total() == pytest.approx(
        vt_trace.logical_seq_bytes_total(), rel=REL_TOL
    )
    assert ref_trace.mean_concurrency() == pytest.approx(
        vt_trace.mean_concurrency(), rel=REL_TOL
    )
    ref_occ = ref_trace.phase_occupancy()
    vt_occ = vt_trace.phase_occupancy()
    assert set(ref_occ) == set(vt_occ)
    for label, seconds in ref_occ.items():
        assert seconds == pytest.approx(vt_occ[label], rel=REL_TOL, abs=1e-6)
