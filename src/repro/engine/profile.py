"""Compilation of query plans into executable resource profiles.

The executor does not interpret operator trees directly; it runs *phases*.
A phase is a bundle of resource demands that drain concurrently — at most
one sequential-I/O component (optionally tied to a relation so concurrent
scans of the same table can coalesce), one random-I/O component, and one
CPU component — plus a working-memory footprint held while the phase runs.
Phases within a query are strictly serial, which mirrors the left-deep
pipelined execution of the analytical plans we model.

CPU/I/O overlap is resolved at compile time: for a scan feeding a pipeline,
a fraction ``cpu_io_overlap`` of the streaming CPU is attached to the I/O
phase itself (it hides behind the I/O) and the remainder becomes a serial
CPU-only phase.

Compilation is two steps.  :func:`lower_plan` turns an operator tree into
a :class:`PlanProgram`: a flat post-order program of node cost models
(:meth:`~repro.engine.operators.PlanNode.model`), their field values,
child links, labels and the phase layout.  Running the program evaluates
it at given values of the fields the caller declared as inputs.
:func:`compile_plan` lowers a plan and runs it at the plan's own values;
template catalogs lower each template once and run the program per
instance at that instance's jittered fields
(:meth:`repro.workload.templates.TemplateSpec.lower`).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..config import SystemConfig
from ..errors import WorkloadError
from .operators import SCAN_TYPES, SeqScan
from .plans import QueryPlan
from .relation import Relation

_instance_counter = itertools.count(1)

_INF = math.inf

_PhaseFields = namedtuple(
    "_PhaseFields",
    (
        "label",
        "relation",
        "seq_bytes",
        "rand_ops",
        "cpu_seconds",
        "mem_bytes",
        "spillable",
        "dimension_scan",
    ),
)


class Phase(_PhaseFields):
    """One serial execution phase of a query (immutable).

    A named tuple that validates on construction: a profile replay builds
    thousands of phases per second, and a tuple builds in well under half
    the time of a frozen dataclass.

    Attributes:
        label: Diagnostic name (operator that produced the phase).
        relation: Relation name when ``seq_bytes`` is a table scan that may
            coalesce with concurrent scans of the same table; ``None`` for
            private sequential I/O (spill passes, spoiler readers).
        seq_bytes: Sequential I/O demand in bytes.
        rand_ops: Random I/O demand in operations.
        cpu_seconds: CPU demand in seconds of one core.
        mem_bytes: Working memory held while the phase runs.
        spillable: Whether a memory deficit converts into extra private
            sequential I/O at phase start.
        dimension_scan: True for sequential scans of dimension tables,
            which are served from the buffer cache once resident.

    Raises:
        WorkloadError: When a demand or the memory is negative, NaN or
            infinite.
    """

    __slots__ = ()

    def __new__(
        cls,
        label: str,
        relation: Optional[str] = None,
        seq_bytes: float = 0.0,
        rand_ops: float = 0.0,
        cpu_seconds: float = 0.0,
        mem_bytes: float = 0.0,
        spillable: bool = False,
        dimension_scan: bool = False,
    ) -> "Phase":
        # Each chained comparison rejects negatives, NaN and inf at once.
        if not (
            0.0 <= seq_bytes < _INF
            and 0.0 <= rand_ops < _INF
            and 0.0 <= cpu_seconds < _INF
        ):
            raise WorkloadError(
                f"phase {label}: demand must be finite and non-negative"
            )
        if not 0.0 <= mem_bytes < _INF:
            raise WorkloadError(
                f"phase {label}: memory must be finite and non-negative"
            )
        return tuple.__new__(
            cls,
            (
                label,
                relation,
                seq_bytes,
                rand_ops,
                cpu_seconds,
                mem_bytes,
                spillable,
                dimension_scan,
            ),
        )

    @classmethod
    def _make(cls, iterable) -> "Phase":
        # The named-tuple default bypasses __new__; ``_replace`` uses it.
        return cls(*iterable)

    @property
    def is_empty(self) -> bool:
        """True when the phase demands nothing and can be dropped."""
        return (
            self.seq_bytes <= 0.0
            and self.rand_ops <= 0.0
            and self.cpu_seconds <= 0.0
        )


@dataclass(frozen=True)
class ResourceProfile:
    """The executable form of one query instance.

    Attributes:
        template_id: Owning template, or negative ids for synthetic work
            (spoiler readers, raw table scans).
        instance_id: Unique id of this instance.
        phases: Serial phases to execute.
        background: Background profiles (spoiler readers) never finish and
            do not gate run completion.
    """

    template_id: int
    phases: Sequence[Phase]
    background: bool = False
    instance_id: int = field(default_factory=lambda: next(_instance_counter))

    def __post_init__(self) -> None:
        if not self.phases and not self.background:
            raise WorkloadError("a foreground profile needs at least one phase")

    @property
    def working_set_bytes(self) -> float:
        """Peak working memory across phases."""
        return max((p.mem_bytes for p in self.phases), default=0.0)

    @property
    def total_seq_bytes(self) -> float:
        """Total sequential I/O demand."""
        return sum(p.seq_bytes for p in self.phases)

    @property
    def total_rand_ops(self) -> float:
        """Total random I/O demand."""
        return sum(p.rand_ops for p in self.phases)

    @property
    def total_cpu_seconds(self) -> float:
        """Total CPU demand."""
        return sum(p.cpu_seconds for p in self.phases)

    def with_startup(self, startup: Union[float, Phase]) -> "ResourceProfile":
        """Return a copy (a new instance) with a leading startup phase.

        Steady-state streams charge the restart cost (planning and
        dimension re-caching, Sec. 6.1) this way.  *startup* is the phase
        itself — streams build theirs once, see :func:`startup_phase` —
        or its CPU seconds; a non-positive cost returns ``self``.
        """
        if not isinstance(startup, Phase):
            if startup <= 0:
                return self
            startup = startup_phase(startup)
        return ResourceProfile(
            template_id=self.template_id,
            phases=(startup, *self.phases),
            background=self.background,
        )


def startup_phase(cpu_seconds: float) -> Phase:
    """The CPU-only phase :meth:`ResourceProfile.with_startup` prepends."""
    return Phase(label="Startup", cpu_seconds=cpu_seconds)


# ----------------------------------------------------------------------
# Lowering and replay.

#: Builds one phase from the program's registers.
PhaseBuilder = Callable[[List[object]], Phase]


def _io_phase(
    label: str,
    relation: Optional[str],
    dimension_scan: bool,
    cost_reg: int,
    scan: bool,
    overlap: float,
    hidden: List[int],
) -> PhaseBuilder:
    """An I/O phase: a scan leaf (*scan*) or a streaming operator's
    random I/O, plus the overlapped CPU of the streaming operators whose
    cost registers are in *hidden*, added in plan order."""

    def build(registers: List[object]) -> Phase:
        cost = registers[cost_reg]
        if scan:
            # The scan's own CPU overlaps its own I/O.
            seq, cpu = cost.seq_bytes, overlap * cost.cpu_seconds
        else:
            seq, cpu = 0.0, 0.0
        for reg in hidden:
            cpu = cpu + overlap * registers[reg].cpu_seconds
        return Phase(
            label, relation, seq, cost.rand_ops, cpu, 0.0, False, dimension_scan
        )

    return build


def _scan_cpu_phase(label: str, cost_reg: int, serial_share: float) -> PhaseBuilder:
    """The serial remainder of a scan's own CPU."""

    def build(registers: List[object]) -> Phase:
        cpu = registers[cost_reg].cpu_seconds
        return Phase(label, None, 0.0, 0.0, serial_share * cpu)

    return build


def _streaming_cpu_phase(
    label: str, cost_reg: int, hidden_share: float
) -> PhaseBuilder:
    """A streaming operator's CPU minus the share hidden behind I/O."""

    def build(registers: List[object]) -> Phase:
        cpu = registers[cost_reg].cpu_seconds
        return Phase(label, None, 0.0, 0.0, cpu - hidden_share * cpu)

    return build


def _blocking_phase(label: str, cost_reg: int) -> PhaseBuilder:
    """A blocking operator: its CPU plus a (possibly spilling) memory hold."""

    def build(registers: List[object]) -> Phase:
        cost = registers[cost_reg]
        return Phase(
            label, None, 0.0, 0.0, cost.cpu_seconds, cost.mem_bytes, cost.spillable
        )

    return build


class PlanProgram:
    """A plan lowered to a flat post-order program (see :func:`lower_plan`).

    The register file holds every node's model fields and its
    ``(rows, width, NodeCost)`` at lowering values.  A run overwrites the
    input registers, re-evaluates only the nodes that read them, and
    rebuilds only the phases that read those nodes; every other phase is
    the one built at lowering, shared by all runs (phases are immutable).
    """

    __slots__ = (
        "template_id", "_registers", "_inputs", "_nodes", "_phases", "_builders"
    )

    def __init__(
        self,
        template_id: int,
        registers: List[object],
        inputs: Sequence[Tuple[int, int]],
        nodes: Sequence[Tuple[Callable, Callable, int]],
        phases: List[Phase],
        builders: Sequence[Tuple[int, PhaseBuilder]],
    ) -> None:
        self.template_id = template_id
        self._registers = registers
        self._inputs = tuple(inputs)
        self._nodes = tuple(nodes)
        self._phases = phases
        self._builders = tuple(builders)

    def phases(self, values: Sequence[float] = ()) -> List[Phase]:
        """The phases with input slot ``i`` set to ``values[i]``."""
        registers = self._registers.copy()
        for reg, slot in self._inputs:
            registers[reg] = values[slot]
        for model, arguments, out in self._nodes:
            registers[out:out + 3] = model(*arguments(registers))
        phases = self._phases.copy()
        for index, build in self._builders:
            phases[index] = build(registers)
        return phases

    def run(self, values: Sequence[float] = ()) -> ResourceProfile:
        """A new profile instance of :meth:`phases` at *values*."""
        return ResourceProfile(template_id=self.template_id, phases=self.phases(values))


def lower_plan(
    plan: QueryPlan,
    config: SystemConfig,
    inputs: Optional[Mapping[Tuple[int, str], int]] = None,
) -> PlanProgram:
    """Lower *plan* into a :class:`PlanProgram`.

    The tree is walked post-order (the order a left-deep pipeline drains).
    Scan leaves become I/O phases; streaming operators split their CPU
    between the most recent I/O phase (the overlapped fraction) and a
    serial CPU phase; blocking operators become their own CPU+memory
    phases that may spill.

    Args:
        plan: The plan to lower.
        config: Supplies ``cpu_io_overlap``.
        inputs: ``(post-order node index, model field name) -> slot``:
            the fields a run reads from ``values[slot]`` instead of the
            plan.  The phase layout — which phases exist and which I/O
            phase hides which operator's CPU — is decided at the plan's
            own values, so an input may change a demand's value but not
            whether it is zero.  :meth:`TemplateSpec.lower
            <repro.workload.templates.TemplateSpec.lower>` checks that.

    Raises:
        WorkloadError: When the plan compiles to no work.
    """
    inputs = inputs or {}
    overlap = config.simulation.cpu_io_overlap
    registers: List[object] = []
    varying: Set[int] = set()
    bindings: List[Tuple[int, int]] = []
    nodes: List[Tuple[Callable, Callable, int]] = []
    # (builder, cost register, hidden-CPU registers) per phase, in order.
    layout: List[Tuple[PhaseBuilder, int, Sequence[int]]] = []
    outputs: List[int] = []  # output registers of nodes awaiting a parent
    last_io_hidden: Optional[List[int]] = None

    for index, node in enumerate(plan.nodes()):
        arguments: List[int] = []
        for name in node.MODEL_FIELDS:
            slot = inputs.get((index, name))
            if slot is not None:
                bindings.append((len(registers), slot))
                varying.add(len(registers))
            arguments.append(len(registers))
            registers.append(getattr(node, name))
        arity = len(node.children)
        if arity:
            for child in outputs[-arity:]:
                arguments += (child, child + 1)
            del outputs[-arity:]
        out = len(registers)
        registers.extend(node.model(*[registers[reg] for reg in arguments]))
        outputs.append(out)
        if not varying.isdisjoint(arguments):
            varying.update((out, out + 1, out + 2))
            nodes.append((node.model, itemgetter(*arguments), out))

        cost_reg = out + 2
        cost = registers[cost_reg]
        label = node.feature_name()
        if isinstance(node, SCAN_TYPES):
            relation = node.relation
            seq_scan = isinstance(node, SeqScan)
            hidden: List[int] = []
            build = _io_phase(
                label,
                relation.name if seq_scan else None,
                seq_scan and not relation.is_fact,
                cost_reg,
                True,
                overlap,
                hidden,
            )
            layout.append((build, cost_reg, hidden))
            if cost.seq_bytes > 0 or cost.rand_ops > 0:
                last_io_hidden = hidden
            if (1.0 - overlap) * cost.cpu_seconds > 0:
                build = _scan_cpu_phase(f"{label}/cpu", cost_reg, 1.0 - overlap)
                layout.append((build, cost_reg, ()))
        elif node.is_blocking:
            layout.append((_blocking_phase(label, cost_reg), cost_reg, ()))
        else:
            cpu = cost.cpu_seconds
            if cpu > 0:
                hidden_share = overlap if last_io_hidden is not None else 0.0
                hidden_cpu = hidden_share * cpu
                if last_io_hidden is not None and hidden_cpu > 0:
                    last_io_hidden.append(cost_reg)
                if cpu - hidden_cpu > 0:
                    build = _streaming_cpu_phase(label, cost_reg, hidden_share)
                    layout.append((build, cost_reg, ()))
            if cost.rand_ops > 0:
                # Streaming operators with random I/O (index nested loops).
                hidden = []
                build = _io_phase(
                    f"{label}/io", None, False, cost_reg, False, overlap, hidden
                )
                layout.append((build, cost_reg, hidden))
                last_io_hidden = hidden

    phases: List[Phase] = []
    builders: List[Tuple[int, PhaseBuilder]] = []
    for build, cost_reg, hidden in layout:
        phase = build(registers)
        if phase.is_empty:
            continue
        if cost_reg in varying or not varying.isdisjoint(hidden):
            builders.append((len(phases), build))
        phases.append(phase)
    if not phases:
        raise WorkloadError(
            f"template {plan.template_id}: plan compiled to no work"
        )
    return PlanProgram(plan.template_id, registers, bindings, nodes, phases, builders)


def compile_plan(plan: QueryPlan, config: SystemConfig) -> ResourceProfile:
    """Compile *plan* into a :class:`ResourceProfile`: lower it and run
    the program at the plan's own values (see :func:`lower_plan`)."""
    return lower_plan(plan, config).run()


def scan_profile(relation: Relation) -> ResourceProfile:
    """A profile that only sequentially scans *relation*.

    Contender measures ``s_f`` — the isolated scan time of each fact table
    (Eq. 2) — "by executing a query consisting of only the sequential
    scan"; this constructs exactly that query.
    """
    phase = Phase(
        label=f"SeqScan:{relation.name}",
        relation=relation.name,
        seq_bytes=relation.size_bytes,
        dimension_scan=not relation.is_fact,
    )
    return ResourceProfile(template_id=-1, phases=(phase,))


def reader_profile(read_bytes: float, label: str = "SpoilerReader") -> ResourceProfile:
    """An endless circular file reader used by the spoiler (Sec. 5.1).

    The profile is marked background: it keeps issuing sequential I/O
    until the run's foreground queries complete.
    """
    if read_bytes <= 0:
        raise WorkloadError("reader_profile needs positive read_bytes")
    phase = Phase(label=label, seq_bytes=read_bytes)
    return ResourceProfile(template_id=-2, phases=(phase,), background=True)
