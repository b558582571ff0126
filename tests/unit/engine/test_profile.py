"""Plan-to-profile compilation tests."""

import math

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG, SimulationConfig, SystemConfig
from repro.engine.operators import Aggregate, HashJoin, SeqScan, Sort
from repro.engine.plans import QueryPlan
from repro.engine.profile import (
    Phase,
    ResourceProfile,
    compile_plan,
    reader_profile,
    scan_profile,
    startup_phase,
)
from repro.engine.relation import Relation, RelationKind
from repro.errors import WorkloadError
from repro.units import GB, MB
from repro.workload.templates import TEMPLATE_IDS, InstanceParams, draw_params
from tests.reference_compile import phase_bits, reference_compile


@pytest.fixture()
def fact():
    return Relation("sales", GB(4), 40_000_000, RelationKind.FACT)


@pytest.fixture()
def dim():
    return Relation("item", MB(50), 200_000, RelationKind.DIMENSION)


def _plan(fact, dim):
    scan = SeqScan(relation=fact, selectivity=0.2)
    join = HashJoin(children=(scan, SeqScan(relation=dim)))
    return QueryPlan(template_id=1, root=Sort(children=(join,)))


def test_compile_preserves_total_io(fact, dim):
    profile = compile_plan(_plan(fact, dim), DEFAULT_CONFIG)
    assert profile.total_seq_bytes == pytest.approx(
        fact.size_bytes + dim.size_bytes
    )


def test_compile_preserves_total_cpu(fact, dim):
    plan = _plan(fact, dim)
    profile = compile_plan(plan, DEFAULT_CONFIG)
    total_plan_cpu = sum(node.cost().cpu_seconds for node in plan.nodes())
    assert profile.total_cpu_seconds == pytest.approx(total_plan_cpu)


def test_scan_phase_marks_relation_for_sharing(fact, dim):
    profile = compile_plan(_plan(fact, dim), DEFAULT_CONFIG)
    fact_phases = [p for p in profile.phases if p.relation == "sales"]
    assert len(fact_phases) == 1
    assert not fact_phases[0].dimension_scan


def test_dimension_scan_flagged(fact, dim):
    profile = compile_plan(_plan(fact, dim), DEFAULT_CONFIG)
    dim_phases = [p for p in profile.phases if p.relation == "item"]
    assert len(dim_phases) == 1
    assert dim_phases[0].dimension_scan


def test_blocking_operators_produce_spillable_phases(fact, dim):
    profile = compile_plan(_plan(fact, dim), DEFAULT_CONFIG)
    spillable = [p for p in profile.phases if p.spillable]
    # Hash join build + sort.
    assert len(spillable) == 2
    assert all(p.mem_bytes > 0 for p in spillable)
    assert all(p.relation is None for p in spillable)


def test_zero_overlap_splits_all_cpu_serially(fact, dim):
    config = SystemConfig(
        simulation=SimulationConfig(cpu_io_overlap=0.0)
    )
    profile = compile_plan(_plan(fact, dim), config)
    io_phases = [p for p in profile.phases if p.seq_bytes > 0]
    assert all(p.cpu_seconds == 0 for p in io_phases)


def test_full_overlap_attaches_all_streaming_cpu(fact, dim):
    config = SystemConfig(simulation=SimulationConfig(cpu_io_overlap=1.0))
    plan = QueryPlan(template_id=1, root=SeqScan(relation=fact))
    profile = compile_plan(plan, config)
    assert len(profile.phases) == 1
    assert profile.phases[0].cpu_seconds > 0


def test_working_set_is_peak_phase_memory(fact, dim):
    profile = compile_plan(_plan(fact, dim), DEFAULT_CONFIG)
    assert profile.working_set_bytes == max(p.mem_bytes for p in profile.phases)


def test_with_startup_prepends_cpu_phase(fact, dim):
    profile = compile_plan(_plan(fact, dim), DEFAULT_CONFIG)
    with_cost = profile.with_startup(2.5)
    assert with_cost.phases[0].label == "Startup"
    assert with_cost.phases[0].cpu_seconds == 2.5
    assert len(with_cost.phases) == len(profile.phases) + 1
    assert with_cost.instance_id != profile.instance_id


def test_with_startup_takes_a_prebuilt_phase(fact, dim):
    profile = compile_plan(_plan(fact, dim), DEFAULT_CONFIG)
    startup = startup_phase(2.5)
    first = profile.with_startup(startup)
    second = profile.with_startup(startup)
    assert first.phases[0] is startup and second.phases[0] is startup
    assert first.phases == profile.with_startup(2.5).phases
    assert len({profile.instance_id, first.instance_id, second.instance_id}) == 3


def test_with_startup_zero_is_identity(fact, dim):
    profile = compile_plan(_plan(fact, dim), DEFAULT_CONFIG)
    assert profile.with_startup(0.0) is profile


def test_scan_profile_reads_exactly_the_table(fact):
    profile = scan_profile(fact)
    assert profile.total_seq_bytes == fact.size_bytes
    assert profile.total_cpu_seconds == 0


def test_reader_profile_is_background():
    profile = reader_profile(GB(4))
    assert profile.background
    assert profile.total_seq_bytes == GB(4)


def test_reader_profile_rejects_nonpositive():
    with pytest.raises(WorkloadError):
        reader_profile(0)


def test_phase_rejects_negative_demand():
    with pytest.raises(WorkloadError):
        Phase(label="bad", seq_bytes=-1)


@pytest.mark.parametrize(
    "field", ["seq_bytes", "rand_ops", "cpu_seconds", "mem_bytes"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_phase_rejects_non_finite_demand(field, value):
    with pytest.raises(WorkloadError):
        Phase(label="bad", **{field: value})


def test_phase_is_immutable_and_revalidates_on_replace():
    phase = Phase(label="p", cpu_seconds=1.0)
    with pytest.raises(AttributeError):
        phase.cpu_seconds = 2.0
    assert phase._replace(cpu_seconds=2.0).cpu_seconds == 2.0
    with pytest.raises(WorkloadError):
        phase._replace(cpu_seconds=math.nan)


#: The fast-tier pin: canonical, every clamp engaged (1e-12: sel, rows
#: and cpu floors; 1e12: the selectivity cap), and three seeded draws.
PIN_JITTERS = (1.0, 1e-12, 1e12) + tuple(
    draw_params(np.random.default_rng(seed)).jitter for seed in (5, 6, 7)
)


@pytest.mark.parametrize("template_id", TEMPLATE_IDS)
def test_lowered_templates_match_reference_compiler(catalog, template_id):
    spec = catalog.spec(template_id)
    program = spec.lower(catalog.schema, catalog.config)
    for jitter in PIN_JITTERS:
        params = InstanceParams(jitter)
        expected = reference_compile(spec.plan(catalog.schema, params), catalog.config)
        assert phase_bits(program.phases(params)) == phase_bits(expected), jitter


def test_profile_instance_ids_are_unique(fact):
    a = scan_profile(fact)
    b = scan_profile(fact)
    assert a.instance_id != b.instance_id


def test_foreground_profile_requires_phases():
    with pytest.raises(WorkloadError):
        ResourceProfile(template_id=1, phases=())
