"""Query-execution-plan (QEP) operator nodes and their resource costing.

Template builders construct small operator trees out of these nodes; the
compiler in :mod:`repro.engine.profile` lowers the tree and turns each
node into resource demands.  We do not implement a full optimizer:
cardinalities are supplied by the template definitions, exactly as the
paper consumes the *estimates* printed in PostgreSQL EXPLAIN output.

Each operator's cost model is one static function, :meth:`PlanNode.model`:
it maps the node's :attr:`~PlanNode.MODEL_FIELDS` values, followed by
each child's output rows and width, to ``(rows, width, NodeCost)``.  The
``output_rows``/``output_width``/``cost()`` accessors and the compiled
program in :mod:`repro.engine.profile` both call it, so the float
expressions live in exactly one place.

Per-row CPU constants are calibrated so that, at the default hardware spec,
a large fact-table scan is roughly balanced between I/O and CPU — which is
what makes some TPC-DS templates I/O-bound and others CPU-bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import WorkloadError
from .relation import Relation

# Calibrated per-row CPU costs, in seconds.  (Microseconds per row.)
_US = 1e-6
CPU_SCAN_ROW = 0.55 * _US
CPU_FILTER_ROW = 0.15 * _US
CPU_HASH_BUILD_ROW = 2.2 * _US
CPU_HASH_PROBE_ROW = 1.1 * _US
CPU_MERGE_ROW = 0.9 * _US
CPU_NESTED_ROW = 0.35 * _US
CPU_SORT_ROW_LOG = 0.22 * _US  # multiplied by log2(rows)
CPU_AGG_ROW = 1.3 * _US
CPU_WINDOW_ROW = 3.0 * _US
CPU_MATERIALIZE_ROW = 0.4 * _US

#: Random heap fetches issued per qualifying row by an index scan.
INDEX_FETCH_PER_ROW = 1.0
#: Bitmap heap scans sort page ids first, so they touch fewer pages per row.
BITMAP_FETCH_PER_ROW = 0.25


class NodeCost(NamedTuple):
    """Resource demand contributed by a single plan node.

    Attributes:
        seq_bytes: Sequential I/O, in bytes (table scans, spill passes).
        rand_ops: Random I/O operations (index/bitmap heap fetches).
        cpu_seconds: CPU work.
        mem_bytes: Working memory held while the node runs (hash tables,
            sort buffers); drives spill under memory pressure.
        spillable: Whether exceeding the memory grant converts to disk I/O.
    """

    seq_bytes: float = 0.0
    rand_ops: float = 0.0
    cpu_seconds: float = 0.0
    mem_bytes: float = 0.0
    spillable: bool = False


#: What :meth:`PlanNode.model` returns: output rows, output width, own cost.
NodeEstimate = Tuple[float, float, NodeCost]


@dataclass
class PlanNode:
    """Base class for all QEP operators.

    Attributes:
        children: Input operators, outer (left) first.
        cpu_factor: Per-node multiplier over the calibrated CPU constants;
            templates use it to express predicate complexity.
        project_width: When set, the node projects its output down to this
            many bytes per row (column pruning); otherwise the width is
            derived from the inputs.
    """

    children: Sequence["PlanNode"] = field(default_factory=tuple)
    cpu_factor: float = 1.0
    project_width: Optional[float] = None

    #: Human/feature name of the execution step; subclasses override.
    step = "PlanNode"

    #: Fields :meth:`model` reads, in the order it takes them (a class
    #: attribute, not a dataclass field: it carries no annotation).
    MODEL_FIELDS = ("cpu_factor", "project_width")

    def __post_init__(self) -> None:
        if self.cpu_factor < 0:
            raise WorkloadError(f"{self.step}: cpu_factor must be >= 0")
        if self.project_width is not None and self.project_width <= 0:
            raise WorkloadError(f"{self.step}: project_width must be positive")

    @staticmethod
    def model(*args) -> NodeEstimate:
        """The cost model: ``(rows, width, NodeCost)`` of this node.

        Arguments are the :attr:`MODEL_FIELDS` values in order, then each
        child's output rows and width.
        """
        raise NotImplementedError

    def evaluate(self) -> NodeEstimate:
        """:meth:`model` at this node's fields over its children's outputs."""
        inputs: List[float] = []
        for child in self.children:
            rows, width, _ = child.evaluate()
            inputs += (rows, width)
        fields = [getattr(self, name) for name in self.MODEL_FIELDS]
        return self.model(*fields, *inputs)

    @property
    def output_rows(self) -> float:
        """Estimated cardinality of this node's output."""
        return self.evaluate()[0]

    @property
    def output_width(self) -> float:
        """Estimated bytes per output row."""
        return self.evaluate()[1]

    def cost(self) -> NodeCost:
        """Resource demand of this node alone (children excluded)."""
        return self.evaluate()[2]

    @property
    def is_blocking(self) -> bool:
        """True when the node must consume its input before emitting."""
        return False

    def feature_name(self) -> str:
        """Name of this step in the ML feature space (Sec. 3)."""
        return self.step

    def walk(self) -> Iterator["PlanNode"]:
        """Post-order traversal (children before the node itself)."""
        for child in self.children:
            yield from child.walk()
        yield self


@dataclass
class SeqScan(PlanNode):
    """Full sequential scan of a base relation with an optional filter."""

    relation: Relation = None  # type: ignore[assignment]
    selectivity: float = 1.0

    step = "SeqScan"
    MODEL_FIELDS = ("relation", "selectivity", "cpu_factor", "project_width")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.relation is None:
            raise WorkloadError("SeqScan requires a relation")
        if not 0.0 < self.selectivity <= 1.0:
            raise WorkloadError("SeqScan selectivity must be in (0, 1]")
        if self.children:
            raise WorkloadError("SeqScan is a leaf; it takes no children")

    @staticmethod
    def model(relation, selectivity, cpu_factor, project_width) -> NodeEstimate:
        rows = relation.row_count
        cpu = rows * (CPU_SCAN_ROW + CPU_FILTER_ROW) * cpu_factor
        width = relation.row_width if project_width is None else project_width
        return (
            rows * selectivity,
            width,
            NodeCost(relation.size_bytes, 0.0, cpu),
        )

    def feature_name(self) -> str:
        # The paper treats sequential scans on different tables as distinct
        # features ("one feature per table in our schema", Sec. 3).
        return f"SeqScan:{self.relation.name}"


@dataclass
class IndexScan(PlanNode):
    """Index scan with per-row random heap fetches."""

    relation: Relation = None  # type: ignore[assignment]
    matching_rows: float = 0.0

    step = "IndexScan"
    MODEL_FIELDS = ("relation", "matching_rows", "cpu_factor", "project_width")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.relation is None:
            raise WorkloadError("IndexScan requires a relation")
        if self.matching_rows <= 0:
            raise WorkloadError("IndexScan matching_rows must be positive")
        if self.children:
            raise WorkloadError("IndexScan is a leaf; it takes no children")

    @staticmethod
    def model(relation, matching_rows, cpu_factor, project_width) -> NodeEstimate:
        ops = matching_rows * INDEX_FETCH_PER_ROW
        cpu = matching_rows * CPU_SCAN_ROW * cpu_factor
        width = relation.row_width if project_width is None else project_width
        return matching_rows, width, NodeCost(0.0, ops, cpu)


@dataclass
class BitmapHeapScan(PlanNode):
    """Bitmap index + heap scan: random I/O in page-sorted order."""

    relation: Relation = None  # type: ignore[assignment]
    matching_rows: float = 0.0

    step = "BitmapHeapScan"
    MODEL_FIELDS = ("relation", "matching_rows", "cpu_factor", "project_width")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.relation is None:
            raise WorkloadError("BitmapHeapScan requires a relation")
        if self.matching_rows <= 0:
            raise WorkloadError("BitmapHeapScan matching_rows must be positive")

    @staticmethod
    def model(relation, matching_rows, cpu_factor, project_width) -> NodeEstimate:
        ops = matching_rows * BITMAP_FETCH_PER_ROW
        cpu = matching_rows * (CPU_SCAN_ROW + CPU_FILTER_ROW) * cpu_factor
        width = relation.row_width if project_width is None else project_width
        return matching_rows, width, NodeCost(0.0, ops, cpu)


def _require_children(node: PlanNode, expected: int) -> None:
    if len(node.children) != expected:
        raise WorkloadError(
            f"{node.step} requires exactly {expected} children, "
            f"got {len(node.children)}"
        )


_JOIN_FIELDS = ("join_selectivity", "cpu_factor", "project_width")


@dataclass
class HashJoin(PlanNode):
    """Hash join: blocking build on the inner (second) child."""

    join_selectivity: float = 1.0

    step = "HashJoin"
    MODEL_FIELDS = _JOIN_FIELDS

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_children(self, 2)
        if self.join_selectivity <= 0:
            raise WorkloadError("HashJoin join_selectivity must be positive")

    @property
    def outer(self) -> PlanNode:
        return self.children[0]

    @property
    def inner(self) -> PlanNode:
        return self.children[1]

    @property
    def is_blocking(self) -> bool:
        return True

    @staticmethod
    def model(
        join_selectivity, cpu_factor, project_width,
        outer_rows, outer_width, inner_rows, inner_width,
    ) -> NodeEstimate:
        cpu = (
            inner_rows * CPU_HASH_BUILD_ROW + outer_rows * CPU_HASH_PROBE_ROW
        ) * cpu_factor
        width = outer_width + inner_width if project_width is None else project_width
        return (
            max(outer_rows * join_selectivity, 1.0),
            width,
            NodeCost(0.0, 0.0, cpu, inner_rows * inner_width, True),
        )


@dataclass
class MergeJoin(PlanNode):
    """Merge join over (assumed sorted) inputs."""

    join_selectivity: float = 1.0

    step = "MergeJoin"
    MODEL_FIELDS = _JOIN_FIELDS

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_children(self, 2)
        if self.join_selectivity <= 0:
            raise WorkloadError("MergeJoin join_selectivity must be positive")

    @staticmethod
    def model(
        join_selectivity, cpu_factor, project_width,
        outer_rows, outer_width, inner_rows, inner_width,
    ) -> NodeEstimate:
        width = outer_width + inner_width if project_width is None else project_width
        cpu = (outer_rows + inner_rows) * CPU_MERGE_ROW * cpu_factor
        return (
            max(outer_rows * join_selectivity, 1.0),
            width,
            NodeCost(0.0, 0.0, cpu),
        )


@dataclass
class NestedLoopJoin(PlanNode):
    """Nested-loop join; with an index inner it issues repeated lookups."""

    join_selectivity: float = 1.0
    inner_lookup_ops: float = 0.0

    step = "NestedLoopJoin"
    MODEL_FIELDS = (
        "join_selectivity", "inner_lookup_ops", "cpu_factor", "project_width",
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_children(self, 2)
        if self.inner_lookup_ops < 0:
            raise WorkloadError("inner_lookup_ops must be >= 0")

    @staticmethod
    def model(
        join_selectivity, inner_lookup_ops, cpu_factor, project_width,
        outer_rows, outer_width, inner_rows, inner_width,
    ) -> NodeEstimate:
        width = outer_width + inner_width if project_width is None else project_width
        cpu = outer_rows * CPU_NESTED_ROW * cpu_factor
        return (
            max(outer_rows * join_selectivity, 1.0),
            width,
            NodeCost(0.0, outer_rows * inner_lookup_ops, cpu),
        )


@dataclass
class Sort(PlanNode):
    """External-sort-capable in-memory sort."""

    step = "Sort"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_children(self, 1)

    @property
    def is_blocking(self) -> bool:
        return True

    @staticmethod
    def model(cpu_factor, project_width, input_rows, input_width) -> NodeEstimate:
        rows = max(input_rows, 2.0)
        cpu = rows * CPU_SORT_ROW_LOG * math.log2(rows) * cpu_factor
        width = input_width if project_width is None else project_width
        return input_rows, width, NodeCost(0.0, 0.0, cpu, rows * input_width, True)


@dataclass
class Aggregate(PlanNode):
    """Hash or sorted (group) aggregation."""

    groups: float = 1.0
    strategy: str = "hash"  # 'hash' or 'group'

    MODEL_FIELDS = ("groups", "strategy", "cpu_factor", "project_width")

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_children(self, 1)
        if self.groups < 1:
            raise WorkloadError("Aggregate groups must be >= 1")
        if self.strategy not in ("hash", "group"):
            raise WorkloadError("Aggregate strategy must be 'hash' or 'group'")

    @property
    def step(self) -> str:  # type: ignore[override]
        return "HashAggregate" if self.strategy == "hash" else "GroupAggregate"

    @property
    def is_blocking(self) -> bool:
        return self.strategy == "hash"

    @staticmethod
    def model(
        groups, strategy, cpu_factor, project_width, input_rows, input_width
    ) -> NodeEstimate:
        cpu = input_rows * CPU_AGG_ROW * cpu_factor
        width = input_width if project_width is None else project_width
        if strategy == "hash":
            cost = NodeCost(0.0, 0.0, cpu, groups * input_width, True)
        else:
            cost = NodeCost(0.0, 0.0, cpu)
        return groups, width, cost

    def feature_name(self) -> str:
        return self.step


@dataclass
class WindowAgg(PlanNode):
    """Window aggregation over sorted input (CPU-heavy)."""

    step = "WindowAgg"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_children(self, 1)

    @staticmethod
    def model(cpu_factor, project_width, input_rows, input_width) -> NodeEstimate:
        width = input_width if project_width is None else project_width
        cost = NodeCost(0.0, 0.0, input_rows * CPU_WINDOW_ROW * cpu_factor)
        return input_rows, width, cost


@dataclass
class Materialize(PlanNode):
    """Materialize an intermediate result in memory."""

    step = "Materialize"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_children(self, 1)

    @property
    def is_blocking(self) -> bool:
        return True

    @staticmethod
    def model(cpu_factor, project_width, input_rows, input_width) -> NodeEstimate:
        width = input_width if project_width is None else project_width
        cpu = input_rows * CPU_MATERIALIZE_ROW * cpu_factor
        cost = NodeCost(0.0, 0.0, cpu, input_rows * input_width, True)
        return input_rows, width, cost


@dataclass
class CTEScan(PlanNode):
    """Scan of a previously materialized common table expression."""

    rows: float = 0.0
    width: float = 64.0

    step = "CTEScan"
    MODEL_FIELDS = ("rows", "width", "cpu_factor", "project_width")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rows <= 0:
            raise WorkloadError("CTEScan rows must be positive")

    @staticmethod
    def model(rows, width, cpu_factor, project_width) -> NodeEstimate:
        out_width = width if project_width is None else project_width
        return rows, out_width, NodeCost(0.0, 0.0, rows * CPU_SCAN_ROW * cpu_factor)


#: Leaf node types that touch base relations.
SCAN_TYPES = (SeqScan, IndexScan, BitmapHeapScan)
