"""Miss Status Holding Registers.

A 32-entry MSHR (Table 5.1) tracks outstanding misses per line.  One MSHR
serves a whole core-side cache stack (however many private/cluster levels
the hierarchy spec elaborates): it tracks misses that left the core for
the shared fabric, which is also why writebacks never occupy an entry.  A
second miss to a line that already has an entry *merges* instead of
allocating;
when the response arrives the merged requesters are serviced by the same
fill, which is exactly the paper's "L1 coalescing" memory-data stall
sub-class (Section 4.3).

When the MSHR is full the LSU rejects memory instructions, producing the
"full MSHR" memory structural stall sub-class (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.component import Component


@dataclass(slots=True)
class MshrEntry:
    line: int
    req_id: int
    #: consumers to notify on fill; each is opaque to the MSHR.
    waiters: list[Any] = field(default_factory=list)
    #: waiters added after the primary miss (serviced by coalescing).
    merged_waiters: list[Any] = field(default_factory=list)
    allocated_at: int = 0


class Mshr(Component):
    """Per-SM miss tracking with merge (secondary-miss coalescing)."""

    def __init__(self, capacity: int, name: str = "mshr") -> None:
        if capacity < 1:
            raise ValueError("MSHR needs at least one entry")
        Component.__init__(self, name)
        self.capacity = capacity
        self._entries: dict[int, MshrEntry] = {}
        # statistics
        self.allocations = self.stat_counter("allocations")
        self.merges = self.stat_counter("merges")
        self.full_rejections = self.stat_counter("full_rejections")
        self.peak_occupancy = self.stat_counter("peak_occupancy")
        self.occupancy_hist = self.stat_histogram("occupancy_hist")

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def lookup(self, line: int) -> MshrEntry | None:
        return self._entries.get(line)

    def allocate(self, line: int, req_id: int, now: int = 0) -> MshrEntry:
        """Allocate a primary-miss entry.  Caller must check :meth:`is_full`."""
        if line in self._entries:
            raise ValueError("line %#x already has an MSHR entry" % line)
        if self.is_full():
            raise RuntimeError("MSHR overflow")
        entry = MshrEntry(line=line, req_id=req_id, allocated_at=now)
        self._entries[line] = entry
        self.allocations.value += 1
        occupied = len(self._entries)
        self.peak_occupancy.maximize(occupied)
        self.occupancy_hist.observe(occupied)
        return entry

    def merge(self, line: int, waiter: Any) -> MshrEntry:
        """Attach a secondary miss to an existing entry."""
        entry = self._entries[line]
        entry.merged_waiters.append(waiter)
        self.merges.value += 1
        return entry

    def complete(self, line: int) -> MshrEntry:
        """Retire the entry for ``line`` (response arrived)."""
        entry = self._entries.pop(line, None)
        if entry is None:
            raise KeyError("no MSHR entry for line %#x" % line)
        return entry

    def note_rejection(self) -> None:
        self.full_rejections.value += 1

    def outstanding_lines(self) -> list[int]:
        return list(self._entries.keys())

