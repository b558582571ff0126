"""Memory ledger: pins, working sets, and spill arithmetic.

Analytical queries fill RAM with intermediate results; when a blocking
operator's working set exceeds what is available, the overflow is written
to disk and read back (external sort / hash partitioning).  The spoiler
exploits the same mechanism from the other side: it *pins* ``(1 - 1/n)``
of RAM so that primaries at simulated MPL ``n`` see worst-case memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable

from ..errors import SimulationError
from ..units import MB


@dataclass
class MemoryLedger:
    """Tracks who holds how much RAM in a running simulation.

    Attributes:
        total_bytes: Physical RAM.
        os_reserve_bytes: RAM never available to queries (OS, shared
            binaries); the PostgreSQL-era default of ~0.5 GB.
        min_grant_bytes: Minimum work memory any operator can always get
            (the ``work_mem`` floor); keeps spill arithmetic finite even
            under a fully pinned machine.
    """

    total_bytes: float
    os_reserve_bytes: float = MB(512)
    min_grant_bytes: float = MB(64)
    _pins: Dict[Hashable, float] = field(default_factory=dict)
    _held: Dict[Hashable, float] = field(default_factory=dict)
    # Running totals maintained incrementally (``sum += new - old``), so
    # reading a total is O(1).
    _pinned_sum: float = field(default=0.0, init=False, repr=False)
    _held_sum: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise SimulationError("total_bytes must be positive")
        if self.os_reserve_bytes < 0 or self.min_grant_bytes < 0:
            raise SimulationError("reserves must be non-negative")
        self._pinned_sum = sum(self._pins.values())
        self._held_sum = sum(self._held.values())

    def pin(self, owner: Hashable, nbytes: float) -> None:
        """Pin *nbytes* of RAM (spoiler-style), replacing any prior pin."""
        if nbytes < 0:
            raise SimulationError("cannot pin a negative amount")
        self._pinned_sum += nbytes - self._pins.get(owner, 0.0)
        self._pins[owner] = nbytes

    def unpin(self, owner: Hashable) -> None:
        """Release *owner*'s pin; no-op when absent."""
        self._pinned_sum -= self._pins.pop(owner, 0.0)

    def hold(self, owner: Hashable, nbytes: float) -> None:
        """Record that *owner* currently holds *nbytes* of working memory."""
        if nbytes < 0:
            raise SimulationError("cannot hold a negative amount")
        if nbytes == 0:
            self._held_sum -= self._held.pop(owner, 0.0)
        else:
            self._held_sum += nbytes - self._held.get(owner, 0.0)
            self._held[owner] = nbytes

    def release(self, owner: Hashable) -> None:
        """Drop *owner*'s working memory; no-op when absent."""
        self._held_sum -= self._held.pop(owner, 0.0)

    @property
    def pinned_bytes(self) -> float:
        """Total pinned RAM."""
        return self._pinned_sum

    @property
    def held_bytes(self) -> float:
        """Total query working memory currently held."""
        return self._held_sum

    def available_for(self, owner: Hashable) -> float:
        """RAM available to *owner* for a new working set.

        Everything not pinned, not reserved for the OS, and not held by
        *other* queries — floored at the minimum grant so a query can
        always proceed (by spilling).
        """
        others = self.held_bytes - self._held.get(owner, 0.0)
        free = self.total_bytes - self.os_reserve_bytes - self.pinned_bytes - others
        return max(free, self.min_grant_bytes)

    def spill_bytes(self, owner: Hashable, requested: float) -> float:
        """Working-set overflow for *owner* requesting *requested* bytes.

        Returns the number of bytes that do not fit and must take a round
        trip through disk (the caller multiplies by the spill factor to
        get I/O volume).
        """
        if requested <= 0:
            return 0.0
        return max(0.0, requested - self.available_for(owner))

    def snapshot(self) -> Dict[str, float]:
        """Diagnostic view of the ledger."""
        return {
            "total": self.total_bytes,
            "pinned": self.pinned_bytes,
            "held": self.held_bytes,
            "os_reserve": self.os_reserve_bytes,
        }
