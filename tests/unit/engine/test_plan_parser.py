"""EXPLAIN-style plan-parser tests."""

import pytest

from repro.engine.operators import (
    Aggregate,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    SeqScan,
    Sort,
)
from repro.engine.plan_parser import parse_plan
from repro.errors import WorkloadError

SIMPLE = """\
HashAggregate (groups=2000)
  HashJoin (sel=0.9)
    SeqScan catalog_sales (sel=0.02 cpu=0.3 width=32)
    SeqScan customer_demographics
"""


def test_parses_tree_shape(schema):
    plan = parse_plan(SIMPLE, schema, template_id=500)
    assert plan.template_id == 500
    assert isinstance(plan.root, Aggregate)
    join = plan.root.children[0]
    assert isinstance(join, HashJoin)
    assert all(isinstance(c, SeqScan) for c in join.children)


def test_parameters_applied(schema):
    plan = parse_plan(SIMPLE, schema)
    scan = plan.root.children[0].children[0]
    assert scan.selectivity == pytest.approx(0.02)
    assert scan.cpu_factor == pytest.approx(0.3)
    assert scan.project_width == pytest.approx(32)
    assert plan.root.groups == 2000


def test_defaults_when_params_absent(schema):
    plan = parse_plan("SeqScan item\n", schema)
    assert plan.root.selectivity == 1.0
    assert plan.root.cpu_factor == 1.0


def test_index_scan_needs_rows(schema):
    plan = parse_plan("IndexScan store_returns (rows=5000)\n", schema)
    assert isinstance(plan.root, IndexScan)
    assert plan.root.matching_rows == 5000
    with pytest.raises(WorkloadError):
        parse_plan("IndexScan store_returns\n", schema)


def test_nested_loop_lookup_ops(schema):
    text = """\
NestedLoopJoin (lookup_ops=2)
  IndexScan store_returns (rows=100)
  IndexScan store_sales (rows=100)
"""
    plan = parse_plan(text, schema)
    assert isinstance(plan.root, NestedLoopJoin)
    assert plan.root.inner_lookup_ops == 2.0


def test_sort_and_group_aggregate(schema):
    text = """\
GroupAggregate (groups=10)
  Sort (cpu=0.5)
    SeqScan web_sales (sel=0.1)
"""
    plan = parse_plan(text, schema)
    assert plan.root.strategy == "group"
    assert isinstance(plan.root.children[0], Sort)


def test_fact_scan_set_extracted(schema):
    plan = parse_plan(SIMPLE, schema)
    assert plan.fact_tables_scanned() == {"catalog_sales"}


def test_unknown_relation_rejected(schema):
    with pytest.raises(WorkloadError):
        parse_plan("SeqScan nonexistent\n", schema)


def test_unknown_operator_rejected(schema):
    with pytest.raises(WorkloadError):
        parse_plan("QuantumScan item\n", schema)


def test_bad_arity_rejected(schema):
    with pytest.raises(WorkloadError):
        parse_plan("HashJoin\n  SeqScan item\n", schema)
    with pytest.raises(WorkloadError):
        parse_plan("Sort\n", schema)


def test_scan_with_children_rejected(schema):
    with pytest.raises(WorkloadError):
        parse_plan("SeqScan item\n  SeqScan store\n", schema)


def test_odd_indentation_rejected(schema):
    with pytest.raises(WorkloadError):
        parse_plan("Sort\n SeqScan item\n", schema)


def test_skipped_level_rejected(schema):
    with pytest.raises(WorkloadError):
        parse_plan("Sort\n    SeqScan item\n", schema)


def test_multiple_roots_rejected(schema):
    with pytest.raises(WorkloadError):
        parse_plan("SeqScan item\nSeqScan store\n", schema)


def test_empty_text_rejected(schema):
    with pytest.raises(WorkloadError):
        parse_plan("\n\n", schema)


def test_malformed_params_rejected(schema):
    with pytest.raises(WorkloadError):
        parse_plan("SeqScan item (sel)\n", schema)
    with pytest.raises(WorkloadError):
        parse_plan("SeqScan item (sel=abc)\n", schema)


def test_round_trip_with_describe(schema):
    plan = parse_plan(SIMPLE, schema)
    rendered = plan.describe()
    assert "SeqScan:catalog_sales" in rendered
    assert rendered.splitlines()[0].startswith("HashAggregate")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "infinity"])
def test_non_finite_values_rejected_with_line_number(schema, value):
    text = f"HashAggregate (groups=10)\n  IndexScan store_sales (rows={value})\n"
    with pytest.raises(WorkloadError, match="line 2: non-finite"):
        parse_plan(text, schema)
