"""Append-only attribution records captured by the virtual-time engine.

The recorder is deliberately dumb: two lists of tuples, appended to by
the executor's phase-entry and I/O-exit hooks and never read until the
run is over.  Everything the blame matrix needs is derivable from these
records plus the :class:`~repro.engine.executor.RunResult`:

* a *phase record* pins the entry event of one phase of one query
  instance — wall time, the cumulative-service integrals, and the
  phase's effective demands (post cache-credit, post spill-inflation),
  plus the sequential stream key and shared-scan flag the engine armed;
* an *I/O-exit record* pins the event at which the phase's last I/O
  component drained — the wall time (closing the phase's ``io_seconds``
  span) and the CPU integral at that moment (the boundary between CPU
  hidden under I/O and the serial CPU tail).

Phase records come in two widths.  The hook fires nearly once per
engine event, so its constant is the attribution overhead gate's whole
budget — and on catalog workloads the large majority of phases arm no
I/O at all.  Those get a short 5-slot record (profile, phase index,
wall time, CPU integral, CPU demand); only phases with a sequential or
random component pay for the full 12-slot one.  Consumers dispatch on
``len(record)``; every omitted field is at its neutral default (zero
demand, ``factor == 1.0``, no stream key, not shared).

Because the hooks only read state the engine already computed, a run
with a recorder attached is bit-identical to the same run without one;
the differential tests in ``tests/property`` pin that contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.profile import ResourceProfile

__all__ = [
    "CpuPhaseRecord",
    "ExplainRecorder",
    "IoExitRecord",
    "PhaseRecord",
]

#: Full phase record — the phase armed at least one I/O component:
#: (profile, phase_idx, now, s_seq, s_rand, s_cpu,
#:  rem_seq, rem_rand, rem_cpu, rand_factor, seq_key, shared)
#: The profile object stands in for (instance_id, template_id,
#: background) — one reference instead of three chained attribute reads
#: in the engine's per-phase hook; the unarmed-resource fields are the
#: neutral defaults (0-demand guards apply before they are read).
FullPhaseRecord = Tuple[
    "ResourceProfile", int, float,
    float, float, float, float, float, float,
    float, Optional[Tuple[str, Hashable]], bool,
]

#: Short phase record — no I/O armed, CPU only:
#: (profile, phase_idx, now, s_cpu, rem_cpu)
CpuPhaseRecord = Tuple["ResourceProfile", int, float, float, float]

#: What :meth:`ExplainRecorder.phase_records` yields; dispatch on
#: ``len(record)`` (12 = full, 5 = CPU-only).
PhaseRecord = Union[FullPhaseRecord, CpuPhaseRecord]

#: (instance_id, phase_idx, now, s_cpu)
IoExitRecord = Tuple[int, int, float, float]


class ExplainRecorder:
    """Raw material for one run's blame attribution.

    One recorder serves one run: the executor calls :meth:`begin_run`
    before its event loop, which drops any records from a previous run.
    Attach via ``ConcurrentExecutor(config, recorder=...)``; the
    test suite's full-rescan reference loop refuses one.

    ``phases`` and ``io_exits`` are the lists the engine appends to;
    :meth:`phase_records` / :meth:`io_exit_records` are the read-side
    aliases the attribution pass uses.
    """

    __slots__ = ("phases", "io_exits")

    def __init__(self) -> None:
        self.phases: List[PhaseRecord] = []
        self.io_exits: List[IoExitRecord] = []

    def begin_run(self) -> None:
        """Reset for a fresh run (called by the executor)."""
        self.phases.clear()
        self.io_exits.clear()

    def phase_records(self) -> List[PhaseRecord]:
        """The phase-entry records, in capture order."""
        return self.phases

    def io_exit_records(self) -> List[IoExitRecord]:
        """The I/O-exit records, in capture order."""
        return self.io_exits

    def __len__(self) -> int:
        return len(self.phases)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ExplainRecorder(phases={len(self.phases)}, "
            f"io_exits={len(self.io_exits)})"
        )
