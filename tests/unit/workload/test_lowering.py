"""Template lowering: the jitter contract and the catalog's program cache."""

import pickle

import numpy as np
import pytest

from repro.config import SimulationConfig, SystemConfig
from repro.engine.operators import Aggregate, IndexScan, Sort
from repro.errors import WorkloadError
from repro.workload import custom
from repro.workload.catalog import TemplateCatalog
from repro.workload.custom import catalog_with_templates, template_from_plan_text
from repro.workload.schema import build_schema
from repro.workload.templates import InstanceParams, TemplateSpec
from tests.reference_compile import phase_bits, reference_compile


def _spec(build):
    return TemplateSpec(
        template_id=700, description="test", category="test", build=build
    )


def _index_plan(schema, rows, cpu=1.0):
    scan = IndexScan(relation=schema["store_sales"], matching_rows=rows, cpu_factor=cpu)
    return Aggregate(children=(scan,), groups=10)


def test_contract_abiding_builder_lowers(schema, config):
    spec = _spec(lambda schema, p: _index_plan(schema, p.rows(5000), p.cpu(0.5)))
    program = spec.lower(schema, config)
    assert len(program.calls) == 2
    params = InstanceParams(1.7)
    expected = reference_compile(spec.plan(schema, params), config)
    assert phase_bits(program.phases(params)) == phase_bits(expected)


@pytest.mark.parametrize(
    "build",
    [
        # Arithmetic on a jittered value.
        lambda schema, p: _index_plan(schema, p.rows(5000) * 2),
        # Jitter read directly instead of through sel/rows/cpu.
        lambda schema, p: _index_plan(schema, 5000 * p.jitter),
        # Plan shape branching on the jitter.
        lambda schema, p: (
            Sort(children=(_index_plan(schema, p.rows(5000)),))
            if p.jitter > 1.1
            else _index_plan(schema, p.rows(5000))
        ),
    ],
    ids=["arithmetic", "raw-jitter", "branching"],
)
def test_contract_breaking_builder_raises_naming_template(schema, config, build):
    with pytest.raises(WorkloadError, match="template 700"):
        _spec(build).lower(schema, config)


def test_plan_text_is_parsed_once_per_catalog_template(monkeypatch, catalog):
    calls = []
    original = custom.parse_plan

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(custom, "parse_plan", counting)
    spec = template_from_plan_text(
        501, "custom", "HashAggregate (groups=5)\n  SeqScan web_sales (sel=0.1)\n"
    )
    combined = catalog_with_templates(catalog, [spec], include_builtin=[26])
    rng = np.random.default_rng(0)
    for _ in range(20):
        combined.profile(501, rng)
    assert len(calls) == 1


def test_replacing_config_or_schema_is_not_served_stale():
    catalog = TemplateCatalog()
    before = catalog.profile(26)
    catalog.config = SystemConfig(simulation=SimulationConfig(cpu_io_overlap=0.0))
    after = catalog.profile(26)
    expected = reference_compile(catalog.canonical_plan(26), catalog.config)
    assert phase_bits(after.phases) == phase_bits(expected)
    assert phase_bits(after.phases) != phase_bits(before.phases)

    catalog.schema = build_schema(10.0)
    rescaled = catalog.profile(26)
    expected = reference_compile(catalog.canonical_plan(26), catalog.config)
    assert phase_bits(rescaled.phases) == phase_bits(expected)
    assert rescaled.total_seq_bytes < after.total_seq_bytes


def test_profile_consumes_one_instance_id_per_call():
    catalog = TemplateCatalog()
    first = catalog.profile(65)  # lowers the template on first use
    second = catalog.profile(65)
    third = catalog.profile(26)  # lowers another template
    assert second.instance_id == first.instance_id + 1
    assert third.instance_id == second.instance_id + 1


def test_used_catalog_pickles_and_relowers():
    catalog = TemplateCatalog()
    rng = np.random.default_rng(3)
    original = catalog.profile(22, rng)
    clone = pickle.loads(pickle.dumps(catalog))
    again = clone.profile(22, np.random.default_rng(3))
    assert phase_bits(again.phases) == phase_bits(original.phases)
