"""The reference plan compiler: the executable specification of lowering.

:func:`reference_compile` is the original tree-walking compiler: walk
the plan post-order, ask every node for its ``cost()``, scan the phase
list backwards for the last I/O phase, and patch overlapped CPU into it.
It exists only as a test oracle.  The shipped compiler
(:func:`repro.engine.profile.lower_plan`) lowers a tree once into a flat
program and replays it per instance; the differential suites hold it to
this one *bitwise* — same phases, same labels and flags, the same float
bits in every demand.  Both share the operator cost models
(:meth:`repro.engine.operators.PlanNode.model`), so the oracle checks the
lowering, the phase layout and the replay, not the formulas.  See
docs/PERFORMANCE.md and docs/TESTING.md.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SystemConfig
from repro.engine.operators import SCAN_TYPES, SeqScan
from repro.engine.plans import QueryPlan
from repro.engine.profile import Phase
from repro.errors import WorkloadError


def reference_compile(plan: QueryPlan, config: SystemConfig) -> List[Phase]:
    """The phases of *plan*, compiled by walking the tree."""
    overlap = config.simulation.cpu_io_overlap
    phases: List[Phase] = []

    def last_io_index() -> Optional[int]:
        for idx in range(len(phases) - 1, -1, -1):
            if phases[idx].seq_bytes > 0 or phases[idx].rand_ops > 0:
                return idx
        return None

    def attach_streaming_cpu(cpu: float, label: str) -> None:
        """Split streaming CPU into overlapped + serial parts."""
        if cpu <= 0:
            return
        idx = last_io_index()
        hidden = overlap * cpu if idx is not None else 0.0
        serial = cpu - hidden
        if idx is not None and hidden > 0:
            phases[idx] = phases[idx]._replace(
                cpu_seconds=phases[idx].cpu_seconds + hidden
            )
        if serial > 0:
            phases.append(Phase(label=label, cpu_seconds=serial))

    for node in plan.nodes():
        cost = node.cost()
        if isinstance(node, SCAN_TYPES):
            relation = node.relation
            phases.append(
                Phase(
                    label=node.feature_name(),
                    relation=relation.name if isinstance(node, SeqScan) else None,
                    seq_bytes=cost.seq_bytes,
                    rand_ops=cost.rand_ops,
                    # The scan's own CPU overlaps its own I/O.
                    cpu_seconds=overlap * cost.cpu_seconds,
                    dimension_scan=(
                        isinstance(node, SeqScan) and not relation.is_fact
                    ),
                )
            )
            serial_cpu = (1.0 - overlap) * cost.cpu_seconds
            if serial_cpu > 0:
                phases.append(
                    Phase(label=f"{node.feature_name()}/cpu", cpu_seconds=serial_cpu)
                )
        elif node.is_blocking:
            phases.append(
                Phase(
                    label=node.feature_name(),
                    cpu_seconds=cost.cpu_seconds,
                    mem_bytes=cost.mem_bytes,
                    spillable=cost.spillable,
                )
            )
        else:
            attach_streaming_cpu(cost.cpu_seconds, node.feature_name())
            if cost.rand_ops > 0:
                # Streaming operators with random I/O (index nested loops).
                phases.append(
                    Phase(label=f"{node.feature_name()}/io", rand_ops=cost.rand_ops)
                )

    compiled = [p for p in phases if not p.is_empty]
    if not compiled:
        raise WorkloadError(
            f"template {plan.template_id}: plan compiled to no work"
        )
    return compiled


def phase_bits(phases) -> list:
    """*phases* with every float demand as ``float.hex``: equal exactly
    when the phases are bit-identical."""
    return [
        (
            p.label,
            p.relation,
            p.spillable,
            p.dimension_scan,
            float(p.seq_bytes).hex(),
            float(p.rand_ops).hex(),
            float(p.cpu_seconds).hex(),
            float(p.mem_bytes).hex(),
        )
        for p in phases
    ]
