"""Buffer-cache model for dimension tables.

Fact tables at the paper's 100 GB scale dwarf RAM, so their pages never
stay resident — sharing happens only through synchronized scans, which the
disk model handles.  Dimension tables are small and hot: after the first
touch within an experiment they are served from memory.  This asymmetry is
why "fact tables are the largest source of I/O for analytical queries"
(Sec. 4.1) holds in the simulator too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from ..errors import SimulationError


@dataclass
class BufferCache:
    """Tracks which dimension relations are buffer-resident.

    First resident wins: hot dimensions never churn in analytical
    workloads, so a relation that does not fit the remaining budget is
    simply not cached.

    Attributes:
        capacity_bytes: Total cache budget for dimension tables (a slice
            of shared_buffers + OS cache).
        cold: When True the cache starts empty (the paper's cold-cache
            isolated runs); steady-state experiments warm it up naturally.
    """

    capacity_bytes: float
    cold: bool = True
    _resident: Dict[str, float] = field(default_factory=dict)
    # Incremental total; the batched engine mirrors the same += sequence
    # on per-run arrays, keeping both engines bit-identical.
    _used: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise SimulationError("capacity_bytes must be non-negative")
        self._used = sum(self._resident.values())

    @property
    def used_bytes(self) -> float:
        """Bytes of cached dimension data."""
        return self._used

    def is_resident(self, relation: str) -> bool:
        """True when *relation* is fully cached."""
        return relation in self._resident

    def admit(self, relation: str, size_bytes: float) -> bool:
        """Try to cache *relation* after a full scan; returns success."""
        if size_bytes < 0:
            raise SimulationError("size_bytes must be non-negative")
        if relation in self._resident:
            return True
        if self.used_bytes + size_bytes > self.capacity_bytes:
            return False
        self._resident[relation] = size_bytes
        self._used += size_bytes
        return True

    def resident_relations(self) -> Set[str]:
        """Names of cached relations."""
        return set(self._resident)

    def clear(self) -> None:
        """Drop everything (simulate a cache flush between experiments)."""
        self._resident.clear()
        self._used = 0.0
