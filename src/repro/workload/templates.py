"""The 25 query templates of the evaluation workload.

The paper selects 25 TPC-DS templates of moderate isolated latency
(130-1000 s) and characterizes several of them (Sec. 6.1):

* extremely I/O-bound: 26, 33, 61, 71 (>= 97 % of isolated time on I/O);
* random-I/O (index scans): 17, 25, 32;
* CPU-weighted: 62 (light, one fact scan, ~87 % I/O), 65;
* memory-bound (multi-GB working sets): 2, 22;
* 22 and 82 are the only templates scanning the ``inventory`` fact table;
* 56 and 60 are close in plan structure.

Each template here is a plan builder honouring those notes.  Instances of
a template share structure and differ in their predicate parameters — we
draw a per-instance jitter factor so isolated latency varies by roughly
the ~6 % standard deviation the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SystemConfig
from ..engine.operators import (
    Aggregate,
    BitmapHeapScan,
    HashJoin,
    IndexScan,
    Materialize,
    NestedLoopJoin,
    PlanNode,
    SeqScan,
    Sort,
    WindowAgg,
)
from ..engine.plans import QueryPlan
from ..engine.profile import Phase, PlanProgram, ResourceProfile, lower_plan
from ..errors import WorkloadError
from .schema import Schema

#: Standard deviation of the per-instance jitter factor.
JITTER_SIGMA = 0.08


@dataclass(frozen=True)
class InstanceParams:
    """Per-instance predicate parameters.

    Attributes:
        jitter: Multiplicative factor (mean 1.0) applied to selectivities,
            matching-row counts, and CPU factors — the stand-in for the
            concrete predicate constants of a template instance.
    """

    jitter: float = 1.0

    def sel(self, base: float) -> float:
        """A jittered selectivity, clamped to (0, 1]."""
        return float(min(max(base * self.jitter, 1e-9), 1.0))

    def rows(self, base: float) -> float:
        """A jittered row count, at least 1."""
        return float(max(base * self.jitter, 1.0))

    def cpu(self, base: float) -> float:
        """A jittered CPU factor."""
        return float(max(base * self.jitter, 0.01))


def draw_params(rng: np.random.Generator) -> InstanceParams:
    """Draw instance parameters with ~:data:`JITTER_SIGMA` spread."""
    jitter = float(np.exp(rng.normal(0.0, JITTER_SIGMA)))
    return InstanceParams(jitter=jitter)


Builder = Callable[[Schema, InstanceParams], PlanNode]

#: Jitters a lowered template is checked at: the canonical instance, two
#: ordinary draws, and the extremes that engage every clamp (at 1e-12
#: selectivities floor at 1e-9, row counts at 1 and CPU factors at 0.01;
#: at 1e12 selectivities cap at 1).
CHECK_JITTERS = (1.0, 0.8, 1.25, 1e-12, 1e12)


class _Jittered(float):
    """A jitter-dependent parameter value that remembers its call."""

    __slots__ = ("call",)


@dataclass(frozen=True)
class _RecordingParams(InstanceParams):
    """Canonical parameters whose jitter-dependent results are tagged.

    A result carries ``(InstanceParams method, base)`` when that call's
    value changes at some :data:`CHECK_JITTERS` jitter.  Arithmetic on a
    result yields a plain float, so a field computed *from* a jittered
    value is not mistaken for one.
    """

    def sel(self, base: float) -> float:
        return self._record(InstanceParams.sel, base)

    def rows(self, base: float) -> float:
        return self._record(InstanceParams.rows, base)

    def cpu(self, base: float) -> float:
        return self._record(InstanceParams.cpu, base)

    def _record(
        self, method: Callable[[InstanceParams, float], float], base: float
    ) -> float:
        value = method(self, base)
        if all(method(InstanceParams(j), base) == value for j in CHECK_JITTERS):
            return value
        tagged = _Jittered(value)
        tagged.call = (method, base)
        return tagged


class TemplateProgram:
    """A template lowered once (:meth:`TemplateSpec.lower`).

    Replaying it at an instance's :class:`InstanceParams` gives exactly
    the phases of building that instance's plan and compiling it.
    """

    __slots__ = ("program", "calls")

    def __init__(
        self,
        program: PlanProgram,
        calls: Sequence[Tuple[Callable[[InstanceParams, float], float], float]],
    ) -> None:
        self.program = program
        #: ``(InstanceParams method, base)`` per input slot.
        self.calls = tuple(calls)

    def phases(self, params: InstanceParams) -> List[Phase]:
        """The phases of the instance with *params*."""
        return self.program.phases(self._values(params))

    def replay(self, params: InstanceParams) -> ResourceProfile:
        """A new profile instance with *params*."""
        return self.program.run(self._values(params))

    def _values(self, params: InstanceParams) -> List[float]:
        return [call(params, base) for call, base in self.calls]


@dataclass(frozen=True)
class TemplateSpec:
    """One query template.

    Attributes:
        template_id: TPC-DS-style template number.
        description: What the query computes (shortened from TPC-DS).
        category: Behavioural class used in the paper's discussion:
            ``'io'``, ``'random'``, ``'cpu'``, ``'memory'``, ``'mixed'``.
        build: Plan builder.
    """

    template_id: int
    description: str
    category: str
    build: Builder

    def plan(self, schema: Schema, params: Optional[InstanceParams] = None) -> QueryPlan:
        """Build a plan instance (default parameters when none given)."""
        params = params if params is not None else InstanceParams()
        return QueryPlan(template_id=self.template_id, root=self.build(schema, params))

    def lower(self, schema: Schema, config: SystemConfig) -> TemplateProgram:
        """Lower this template once into a replayable program.

        The builder runs once with recording parameters; every node field
        holding an unmodified ``params.sel/rows/cpu(base)`` result becomes
        a program input.  The jitter contract — instances differ only in
        such fields, and never in whether a demand is zero — is then
        checked: the program must reproduce a fresh build plus compile at
        every :data:`CHECK_JITTERS` jitter.

        Raises:
            WorkloadError: Naming the template, when the builder breaks
                the contract (arithmetic on a jittered value, branching on
                ``params.jitter``) or fails at a checked jitter.
        """
        plan = self.plan(schema, _RecordingParams())
        calls: List[Tuple[Callable[[InstanceParams, float], float], float]] = []
        inputs: Dict[Tuple[int, str], int] = {}
        for index, node in enumerate(plan.nodes()):
            for name in node.MODEL_FIELDS:
                value = getattr(node, name)
                if isinstance(value, _Jittered):
                    if value.call not in calls:
                        calls.append(value.call)
                    inputs[index, name] = calls.index(value.call)
        lowered = TemplateProgram(lower_plan(plan, config, inputs), calls)
        for jitter in CHECK_JITTERS:
            params = InstanceParams(jitter)
            try:
                expected = lower_plan(self.plan(schema, params), config).phases()
                matches = lowered.phases(params) == expected
            except WorkloadError as exc:
                raise WorkloadError(
                    f"template {self.template_id}: no valid instance at "
                    f"jitter {jitter!r}: {exc}"
                ) from exc
            if not matches:
                raise WorkloadError(
                    f"template {self.template_id}: instances must differ only "
                    f"in fields set to unmodified params.sel/rows/cpu values "
                    f"(a fresh build at jitter {jitter!r} does not match)"
                )
        return lowered


# ----------------------------------------------------------------------
# Small plan-construction helpers.


def _scan(
    schema: Schema,
    table: str,
    sel: float = 1.0,
    cpu: float = 1.0,
    width: Optional[float] = None,
) -> SeqScan:
    return SeqScan(
        relation=schema[table], selectivity=sel, cpu_factor=cpu, project_width=width
    )


def _join(
    outer: PlanNode,
    inner: PlanNode,
    sel: float = 1.0,
    cpu: float = 1.0,
    width: Optional[float] = None,
) -> HashJoin:
    return HashJoin(
        children=(outer, inner),
        join_selectivity=sel,
        cpu_factor=cpu,
        project_width=width,
    )


def _dims(
    schema: Schema,
    node: PlanNode,
    tables: List[str],
    sel: float = 1.0,
    cpu: float = 1.0,
    width: Optional[float] = None,
) -> PlanNode:
    """Join *node* against a chain of dimension tables.

    The chain keeps the running width at *width* (projection after each
    join) when given, which is what real plans do after pruning columns.
    """
    for table in tables:
        node = _join(node, _scan(schema, table), sel=sel, cpu=cpu, width=width)
    return node


def _agg(
    node: PlanNode,
    groups: float,
    strategy: str = "hash",
    cpu: float = 1.0,
    width: Optional[float] = None,
) -> Aggregate:
    return Aggregate(
        children=(node,),
        groups=max(groups, 1.0),
        strategy=strategy,
        cpu_factor=cpu,
        project_width=width,
    )


def _sort(node: PlanNode, cpu: float = 1.0) -> Sort:
    return Sort(children=(node,), cpu_factor=cpu)


# ----------------------------------------------------------------------
# Template builders.  Selectivities, cardinalities, and projections are
# calibrated so that isolated latencies land in the paper's 130-1000 s
# band on the default hardware and each template matches the behaviour
# the paper documents for it (see the module docstring).


def _t2(schema: Schema, p: InstanceParams) -> PlanNode:
    # Week-over-week catalog vs web sales: two channel scans feeding a
    # large sort — the workload's most memory-intensive template.
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.60), cpu=p.cpu(1.0), width=72)
    ws = _scan(schema, "web_sales", sel=p.sel(0.60), cpu=p.cpu(1.0), width=56)
    joined = _join(cs, _dims(schema, ws, ["date_dim"], width=56), sel=0.30, width=128)
    sorted_ = _sort(joined, cpu=p.cpu(1.1))
    return _agg(sorted_, groups=200_000, strategy="group", cpu=1.0)


def _t8(schema: Schema, p: InstanceParams) -> PlanNode:
    # Store sales by zip-code neighbourhoods.
    ss = _scan(schema, "store_sales", sel=p.sel(0.08), cpu=p.cpu(0.55), width=48)
    node = _dims(schema, ss, ["customer_address", "store", "date_dim"], width=48)
    return _agg(node, groups=400, strategy="hash", cpu=0.8)


def _t15(schema: Schema, p: InstanceParams) -> PlanNode:
    # Catalog sales by customer geography for one quarter.
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.05), cpu=p.cpu(0.6), width=64)
    node = _dims(schema, cs, ["customer", "customer_address", "date_dim"], width=64)
    return _agg(_sort(node, cpu=0.6), groups=10_000, strategy="group")


def _t17(schema: Schema, p: InstanceParams) -> PlanNode:
    # Store/catalog quantity statistics for returned items: driven by
    # index lookups into the returns tables (random I/O).
    sr = IndexScan(relation=schema["store_returns"], matching_rows=p.rows(16_000))
    ss = NestedLoopJoin(
        children=(
            sr,
            IndexScan(relation=schema["store_sales"], matching_rows=p.rows(16_000)),
        ),
        join_selectivity=0.9,
        inner_lookup_ops=1.0,
    )
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.03), cpu=p.cpu(0.5), width=48)
    node = _join(cs, ss, sel=0.5, width=64)
    node = _dims(schema, node, ["item", "date_dim"], width=64)
    return _agg(node, groups=25_000, strategy="hash")


def _t18(schema: Schema, p: InstanceParams) -> PlanNode:
    # Catalog sales by customer demographics.
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.10), cpu=p.cpu(0.75), width=56)
    node = _dims(schema, cs, ["customer_demographics", "customer", "item"], width=56)
    return _agg(node, groups=30_000, strategy="hash", cpu=0.8)


def _t20(schema: Schema, p: InstanceParams) -> PlanNode:
    # Catalog sales for a narrow item class over 30 days: bitmap scan.
    bhs = BitmapHeapScan(
        relation=schema["catalog_sales"],
        matching_rows=p.rows(110_000),
        cpu_factor=p.cpu(0.8),
        project_width=64,
    )
    node = _dims(schema, bhs, ["item", "date_dim"], width=64)
    return _agg(_sort(node, cpu=0.6), groups=5_000, strategy="group")


def _t22(schema: Schema, p: InstanceParams) -> PlanNode:
    # Inventory rollup: a full inventory scan materialized and hash
    # aggregated — the hash-aggregate-bottleneck memory template
    # (shares `inventory` only with template 82).
    inv = _scan(schema, "inventory", sel=p.sel(0.95), cpu=p.cpu(0.40), width=12)
    node = _join(inv, _scan(schema, "item"), sel=0.9, cpu=0.3, width=20)
    agg = Aggregate(
        children=(Materialize(children=(node,), cpu_factor=0.25),),
        groups=14_000_000,
        strategy="hash",
        cpu_factor=p.cpu(0.35),
        project_width=16,
    )
    return agg


def _t25(schema: Schema, p: InstanceParams) -> PlanNode:
    # Store/store-returns/catalog chain via index lookups (random I/O).
    sr = IndexScan(relation=schema["store_returns"], matching_rows=p.rows(22_000))
    cs = IndexScan(relation=schema["catalog_sales"], matching_rows=p.rows(9_000))
    node = NestedLoopJoin(children=(sr, cs), join_selectivity=0.8, inner_lookup_ops=0.4)
    ss = _scan(schema, "store_sales", sel=p.sel(0.02), cpu=p.cpu(0.45), width=48)
    node = _join(ss, node, sel=0.4, width=64)
    node = _dims(schema, node, ["item", "store", "date_dim"], width=64)
    return _agg(node, groups=20_000, strategy="hash")


def _t26(schema: Schema, p: InstanceParams) -> PlanNode:
    # Catalog sales averages for a demographic slice: one clean fact
    # scan with trivial CPU — extremely I/O-bound (>= 97 %).
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.02), cpu=p.cpu(0.05), width=32)
    node = _dims(
        schema, cs, ["customer_demographics", "date_dim"], cpu=0.15, width=32
    )
    return _agg(node, groups=2_000, strategy="hash", cpu=0.15)


def _t27(schema: Schema, p: InstanceParams) -> PlanNode:
    # Store sales statistics by state.
    ss = _scan(schema, "store_sales", sel=p.sel(0.06), cpu=p.cpu(0.6), width=56)
    node = _dims(
        schema, ss, ["customer_demographics", "store", "date_dim", "item"], width=56
    )
    return _agg(_sort(node, cpu=0.5), groups=12_000, strategy="group")


def _t32(schema: Schema, p: InstanceParams) -> PlanNode:
    # Excess-discount check: narrow date-ranged index retrieval on
    # catalog sales (random I/O).
    cs = IndexScan(
        relation=schema["catalog_sales"],
        matching_rows=p.rows(30_000),
        cpu_factor=p.cpu(0.7),
        project_width=48,
    )
    node = _dims(schema, cs, ["item", "date_dim"], width=48)
    return _agg(node, groups=1, strategy="hash", cpu=0.4)


def _t33(schema: Schema, p: InstanceParams) -> PlanNode:
    # Manufacturer list price across all three channels: three fact
    # scans, hardly any CPU — extremely I/O-bound.
    ss = _scan(schema, "store_sales", sel=p.sel(0.015), cpu=p.cpu(0.10), width=24)
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.015), cpu=p.cpu(0.10), width=24)
    ws = _scan(schema, "web_sales", sel=p.sel(0.015), cpu=p.cpu(0.10), width=24)
    node = _join(_join(ss, cs, sel=0.5, cpu=0.2, width=24), ws, sel=0.5, cpu=0.2, width=24)
    node = _dims(schema, node, ["item", "date_dim"], cpu=0.2, width=24)
    return _agg(node, groups=1_000, strategy="hash", cpu=0.15)


def _t40(schema: Schema, p: InstanceParams) -> PlanNode:
    # Catalog sales/returns by warehouse before and after a date.
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.08), cpu=p.cpu(0.55), width=48)
    cr = _scan(schema, "catalog_returns", sel=p.sel(0.30), cpu=p.cpu(0.6), width=40)
    node = _join(cs, cr, sel=0.85, width=64)
    node = _dims(schema, node, ["warehouse", "item", "date_dim"], width=64)
    return _agg(node, groups=8_000, strategy="hash")


def _t46(schema: Schema, p: InstanceParams) -> PlanNode:
    # Store sales to specific household demographics, sorted output.
    ss = _scan(schema, "store_sales", sel=p.sel(0.10), cpu=p.cpu(0.7), width=56)
    node = _dims(
        schema,
        ss,
        ["household_demographics", "customer_address", "store", "date_dim"],
        width=56,
    )
    return _sort(_agg(node, groups=1_500_000, strategy="hash", cpu=0.8, width=56), cpu=0.7)


def _t56(schema: Schema, p: InstanceParams) -> PlanNode:
    # Item revenue across channels (structurally the twin of T60).
    ss = _scan(schema, "store_sales", sel=p.sel(0.02), cpu=p.cpu(0.35), width=40)
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.02), cpu=p.cpu(0.35), width=40)
    ws = _scan(schema, "web_sales", sel=p.sel(0.02), cpu=p.cpu(0.35), width=40)
    node = _join(_join(ss, cs, sel=0.6, width=40), ws, sel=0.6, width=40)
    node = _dims(schema, node, ["item", "customer_address", "date_dim"], width=40)
    return _agg(_sort(node, cpu=0.4), groups=9_000, strategy="group")


def _t60(schema: Schema, p: InstanceParams) -> PlanNode:
    # Item revenue across channels for another category (twin of T56).
    ss = _scan(schema, "store_sales", sel=p.sel(0.025), cpu=p.cpu(0.40), width=40)
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.025), cpu=p.cpu(0.40), width=40)
    ws = _scan(schema, "web_sales", sel=p.sel(0.025), cpu=p.cpu(0.40), width=40)
    node = _join(_join(ss, cs, sel=0.6, width=40), ws, sel=0.6, width=40)
    node = _dims(schema, node, ["item", "customer_address", "date_dim"], width=40)
    return _agg(_sort(node, cpu=0.4), groups=9_000, strategy="group")


def _t61(schema: Schema, p: InstanceParams) -> PlanNode:
    # Promotional vs total store sales: one store_sales scan with
    # negligible CPU — I/O-bound.
    ss = _scan(schema, "store_sales", sel=p.sel(0.01), cpu=p.cpu(0.08), width=24)
    node = _dims(schema, ss, ["promotion", "store", "date_dim"], cpu=0.15, width=24)
    return _agg(node, groups=1, strategy="hash", cpu=0.15)


def _t62(schema: Schema, p: InstanceParams) -> PlanNode:
    # Shipping-lag report: one light fact scan, very small
    # intermediates, ~87 % of isolated time on I/O; the paper's example
    # of a light template with slow spoiler growth.
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.25), cpu=p.cpu(0.25), width=24)
    node = _dims(schema, cs, ["warehouse", "ship_mode", "date_dim"], cpu=0.1, width=24)
    agg = _agg(node, groups=120, strategy="hash", cpu=0.15)
    return _sort(agg, cpu=0.4)


def _t65(schema: Schema, p: InstanceParams) -> PlanNode:
    # Store-level item profitability: store_sales scanned with heavy
    # per-row expression work plus a large aggregation — CPU-bound.
    ss = _scan(schema, "store_sales", sel=p.sel(0.60), cpu=p.cpu(2.2), width=40)
    node = _join(ss, _scan(schema, "item"), sel=0.95, cpu=0.6, width=40)
    agg = _agg(node, groups=4_000_000, strategy="hash", cpu=p.cpu(1.6), width=40)
    return _sort(agg, cpu=1.2)


def _t66(schema: Schema, p: InstanceParams) -> PlanNode:
    # Web/catalog warehouse shipping by time-of-day windows.
    ws = _scan(schema, "web_sales", sel=p.sel(0.35), cpu=p.cpu(0.9), width=32)
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.35), cpu=p.cpu(0.9), width=24)
    node = _join(ws, cs, sel=0.5, width=48)
    node = _dims(schema, node, ["warehouse", "time_dim", "ship_mode", "date_dim"], width=48)
    agg = _agg(node, groups=30, strategy="hash", cpu=1.0)
    return _sort(agg, cpu=0.8)


def _t70(schema: Schema, p: InstanceParams) -> PlanNode:
    # Store sales rollup by state/county with a window ranking.
    ss = _scan(schema, "store_sales", sel=p.sel(0.25), cpu=p.cpu(0.9), width=40)
    node = _dims(schema, ss, ["store", "date_dim"], width=40)
    agg = _agg(node, groups=5_000, strategy="hash", cpu=1.0)
    return WindowAgg(children=(_sort(agg, cpu=0.6),), cpu_factor=p.cpu(1.2))


def _t71(schema: Schema, p: InstanceParams) -> PlanNode:
    # Brand revenue by hour across all three channels: three fact scans
    # back to back, tiny intermediates — the >99 % I/O-bound template.
    ss = _scan(schema, "store_sales", sel=p.sel(0.01), cpu=p.cpu(0.05), width=16)
    cs = _scan(schema, "catalog_sales", sel=p.sel(0.01), cpu=p.cpu(0.05), width=16)
    ws = _scan(schema, "web_sales", sel=p.sel(0.01), cpu=p.cpu(0.05), width=16)
    node = _join(_join(ss, cs, sel=0.5, cpu=0.1, width=16), ws, sel=0.5, cpu=0.1, width=16)
    node = _dims(schema, node, ["time_dim", "date_dim"], cpu=0.1, width=16)
    return _agg(node, groups=1_200, strategy="hash", cpu=0.1)


def _t79(schema: Schema, p: InstanceParams) -> PlanNode:
    # Customer in-store purchases with demographic filters, sorted.
    ss = _scan(schema, "store_sales", sel=p.sel(0.12), cpu=p.cpu(0.75), width=56)
    node = _dims(
        schema, ss, ["household_demographics", "store", "customer", "date_dim"], width=56
    )
    return _sort(_agg(node, groups=2_000_000, strategy="hash", cpu=0.8, width=48), cpu=0.8)


def _t82(schema: Schema, p: InstanceParams) -> PlanNode:
    # Items with bounded inventory quantities sold in stores: the other
    # `inventory` scanner (shares that fact table with T22).
    inv = _scan(schema, "inventory", sel=p.sel(0.20), cpu=p.cpu(0.35), width=16)
    node = _join(inv, _scan(schema, "item"), sel=0.15, width=32)
    ss = _scan(schema, "store_sales", sel=p.sel(0.03), cpu=p.cpu(0.35), width=32)
    node = _join(ss, node, sel=0.5, width=32)
    node = _dims(schema, node, ["date_dim"], width=32)
    return _agg(_sort(node, cpu=0.5), groups=40_000, strategy="group")


def _t90(schema: Schema, p: InstanceParams) -> PlanNode:
    # Morning-to-evening web sales ratio: light web_sales work with
    # noticeable expression CPU.
    ws = _scan(schema, "web_sales", sel=p.sel(0.30), cpu=p.cpu(1.6), width=24)
    node = _dims(schema, ws, ["household_demographics", "time_dim", "web_page"], width=24)
    return _agg(node, groups=1, strategy="hash", cpu=0.8)


_SPEC_TABLE: List[TemplateSpec] = [
    TemplateSpec(2, "catalog vs web weekly sales comparison", "memory", _t2),
    TemplateSpec(8, "store sales by zip neighbourhood", "mixed", _t8),
    TemplateSpec(15, "catalog sales by geography, quarterly", "mixed", _t15),
    TemplateSpec(17, "returned-item quantity statistics", "random", _t17),
    TemplateSpec(18, "catalog sales by demographics", "mixed", _t18),
    TemplateSpec(20, "catalog sales for item class window", "random", _t20),
    TemplateSpec(22, "inventory quantity-on-hand rollup", "memory", _t22),
    TemplateSpec(25, "store/catalog returns chain", "random", _t25),
    TemplateSpec(26, "catalog averages for demographic slice", "io", _t26),
    TemplateSpec(27, "store sales statistics by state", "mixed", _t27),
    TemplateSpec(32, "excess catalog discount check", "random", _t32),
    TemplateSpec(33, "manufacturer price across channels", "io", _t33),
    TemplateSpec(40, "warehouse sales/returns before-after", "mixed", _t40),
    TemplateSpec(46, "household store purchases, sorted", "mixed", _t46),
    TemplateSpec(56, "item revenue across channels (A)", "mixed", _t56),
    TemplateSpec(60, "item revenue across channels (B)", "mixed", _t60),
    TemplateSpec(61, "promotional vs total store sales", "io", _t61),
    TemplateSpec(62, "shipping-lag report", "cpu", _t62),
    TemplateSpec(65, "store item profitability", "cpu", _t65),
    TemplateSpec(66, "warehouse shipping by time window", "mixed", _t66),
    TemplateSpec(70, "sales rollup with ranking window", "mixed", _t70),
    TemplateSpec(71, "brand revenue by hour, all channels", "io", _t71),
    TemplateSpec(79, "customer in-store purchases, sorted", "mixed", _t79),
    TemplateSpec(82, "bounded-inventory items sold", "mixed", _t82),
    TemplateSpec(90, "morning/evening web sales ratio", "cpu", _t90),
]

_SPECS: Dict[int, TemplateSpec] = {spec.template_id: spec for spec in _SPEC_TABLE}

#: Template ids in ascending order.
TEMPLATE_IDS: List[int] = sorted(_SPECS)


def template_specs() -> Dict[int, TemplateSpec]:
    """All template specs keyed by template id (a fresh dict)."""
    return dict(_SPECS)


def get_spec(template_id: int) -> TemplateSpec:
    """Look up one template spec.

    Raises:
        WorkloadError: If the id is not one of the 25 workload templates.
    """
    try:
        return _SPECS[template_id]
    except KeyError:
        raise WorkloadError(f"unknown template id: {template_id}") from None
