"""Parse EXPLAIN-style text into executable plan trees.

Contender consumes the *semantic information* of query execution plans;
in the paper that information comes from PostgreSQL's EXPLAIN output.
This module accepts a small, EXPLAIN-flavoured text format so users can
feed their own plans to the simulator and the predictor without writing
Python:

    HashAggregate (groups=2000)
      HashJoin (sel=0.9)
        SeqScan catalog_sales (sel=0.02 cpu=0.3 width=32)
        SeqScan customer_demographics

Rules:

* one node per line, children indented by two spaces per level;
* the node name is an operator (``SeqScan``, ``IndexScan``,
  ``BitmapHeapScan``, ``HashJoin``, ``MergeJoin``, ``NestedLoopJoin``,
  ``Sort``, ``HashAggregate``, ``GroupAggregate``, ``WindowAgg``,
  ``Materialize``);
* scans take a relation name; parameters go in a trailing
  ``(key=value ...)`` group (``sel``, ``rows``, ``groups``, ``cpu``,
  ``width``, ``lookup_ops``); values must be finite numbers.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from .operators import (
    Aggregate,
    BitmapHeapScan,
    HashJoin,
    IndexScan,
    Materialize,
    MergeJoin,
    NestedLoopJoin,
    PlanNode,
    SeqScan,
    Sort,
    WindowAgg,
)
from .plans import QueryPlan
from .relation import Relation
from ..workload.schema import Schema

_LINE = re.compile(
    r"^(?P<indent> *)(?P<op>[A-Za-z]+)"
    r"(?: (?P<relation>[a-z_][a-z0-9_]*))?"
    r"(?: *\((?P<params>[^)]*)\))? *$"
)

_SCAN_OPS = {"SeqScan", "IndexScan", "BitmapHeapScan"}
_UNARY_OPS = {"Sort", "HashAggregate", "GroupAggregate", "WindowAgg", "Materialize"}
_BINARY_OPS = {"HashJoin", "MergeJoin", "NestedLoopJoin"}


def _parse_params(text: Optional[str], line_no: int) -> Dict[str, float]:
    if not text:
        return {}
    out: Dict[str, float] = {}
    for item in text.split():
        if "=" not in item:
            raise WorkloadError(f"line {line_no}: malformed parameter {item!r}")
        key, _, value = item.partition("=")
        try:
            number = float(value)
        except ValueError:
            raise WorkloadError(
                f"line {line_no}: non-numeric value for {key!r}: {value!r}"
            ) from None
        if not math.isfinite(number):
            raise WorkloadError(
                f"line {line_no}: non-finite value for {key!r}: {value!r}"
            )
        out[key] = number
    return out


def _node_from(
    op: str,
    relation: Optional[Relation],
    params: Dict[str, float],
    children: Sequence[PlanNode],
    line_no: int,
) -> PlanNode:
    cpu = params.get("cpu", 1.0)
    width = params.get("width")

    if op in _SCAN_OPS:
        if relation is None:
            raise WorkloadError(f"line {line_no}: {op} needs a relation")
        if children:
            raise WorkloadError(f"line {line_no}: {op} takes no children")
        if op == "SeqScan":
            return SeqScan(
                relation=relation,
                selectivity=params.get("sel", 1.0),
                cpu_factor=cpu,
                project_width=width,
            )
        rows = params.get("rows")
        if rows is None:
            raise WorkloadError(f"line {line_no}: {op} needs rows=")
        cls = IndexScan if op == "IndexScan" else BitmapHeapScan
        return cls(
            relation=relation,
            matching_rows=rows,
            cpu_factor=cpu,
            project_width=width,
        )

    if relation is not None:
        raise WorkloadError(f"line {line_no}: {op} takes no relation")

    if op in _BINARY_OPS:
        if len(children) != 2:
            raise WorkloadError(f"line {line_no}: {op} needs two children")
        sel = params.get("sel", 1.0)
        if op == "HashJoin":
            return HashJoin(
                children=tuple(children),
                join_selectivity=sel,
                cpu_factor=cpu,
                project_width=width,
            )
        if op == "MergeJoin":
            return MergeJoin(
                children=tuple(children),
                join_selectivity=sel,
                cpu_factor=cpu,
                project_width=width,
            )
        return NestedLoopJoin(
            children=tuple(children),
            join_selectivity=sel,
            inner_lookup_ops=params.get("lookup_ops", 0.0),
            cpu_factor=cpu,
            project_width=width,
        )

    if op in _UNARY_OPS:
        if len(children) != 1:
            raise WorkloadError(f"line {line_no}: {op} needs one child")
        if op == "Sort":
            return Sort(children=tuple(children), cpu_factor=cpu, project_width=width)
        if op == "WindowAgg":
            return WindowAgg(
                children=tuple(children), cpu_factor=cpu, project_width=width
            )
        if op == "Materialize":
            return Materialize(
                children=tuple(children), cpu_factor=cpu, project_width=width
            )
        strategy = "hash" if op == "HashAggregate" else "group"
        return Aggregate(
            children=tuple(children),
            groups=params.get("groups", 1.0),
            strategy=strategy,
            cpu_factor=cpu,
            project_width=width,
        )

    raise WorkloadError(f"line {line_no}: unknown operator {op!r}")


def parse_plan(
    text: str, schema: Schema, template_id: int = -1
) -> QueryPlan:
    """Parse EXPLAIN-style *text* into a :class:`QueryPlan`.

    Args:
        text: The indented plan text (module docstring format).
        schema: Relation source for the scan leaves.
        template_id: Template id to stamp on the plan.

    Raises:
        WorkloadError: On syntax errors, unknown operators/relations,
            bad arity, or inconsistent indentation.
    """
    entries: List[Tuple[int, str, Optional[str], Dict[str, float], int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        match = _LINE.match(raw.rstrip())
        if match is None:
            raise WorkloadError(f"line {line_no}: cannot parse {raw!r}")
        indent = len(match.group("indent"))
        if indent % 2 != 0:
            raise WorkloadError(
                f"line {line_no}: indentation must be multiples of two spaces"
            )
        entries.append(
            (
                indent // 2,
                match.group("op"),
                match.group("relation"),
                _parse_params(match.group("params"), line_no),
                line_no,
            )
        )
    if not entries:
        raise WorkloadError("empty plan text")
    if entries[0][0] != 0:
        raise WorkloadError("the root node must not be indented")

    def build(index: int, depth: int) -> Tuple[PlanNode, int]:
        level, op, relation_name, params, line_no = entries[index]
        if level != depth:
            raise WorkloadError(
                f"line {line_no}: expected depth {depth}, found {level}"
            )
        relation = None
        if relation_name is not None:
            if relation_name not in schema:
                raise WorkloadError(
                    f"line {line_no}: unknown relation {relation_name!r}"
                )
            relation = schema[relation_name]
        children: List[PlanNode] = []
        next_index = index + 1
        while next_index < len(entries) and entries[next_index][0] > depth:
            if entries[next_index][0] != depth + 1:
                raise WorkloadError(
                    f"line {entries[next_index][4]}: child skipped a level"
                )
            child, next_index = build(next_index, depth + 1)
            children.append(child)
        return _node_from(op, relation, params, children, line_no), next_index

    root, consumed = build(0, 0)
    if consumed != len(entries):
        raise WorkloadError(
            f"line {entries[consumed][4]}: multiple roots in plan text"
        )
    return QueryPlan(template_id=template_id, root=root)
