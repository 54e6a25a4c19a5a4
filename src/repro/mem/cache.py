"""Set-associative cache tag array with coherence line states.

Used for both the per-SM L1s and the banked L2.  Only tags and states are
modelled -- data values live in :class:`repro.mem.main_memory.GlobalMemory`
(see that module for why the decoupling is sound).

Line states:

* ``VALID`` -- present, readable.  Under GPU coherence every present line is
  merely VALID: writes are written through, so the L1 never owns data.
* ``OWNED`` -- DeNovo registration: this cache holds the only up-to-date
  copy.  Owned lines survive acquire-time self-invalidation and need no
  flush on release, which is the root of every DeNovo advantage the paper
  measures.

``lookup`` and ``invalidate_all`` are hot (GPU coherence self-invalidates
on *every* acquire), so occupancy is tracked incrementally: an empty cache
self-invalidates in O(1) and a full flush is a per-set ``clear()`` rather
than a per-line deletion loop.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Iterator

from repro.core.component import Component


class LineState(enum.Enum):
    VALID = "valid"
    OWNED = "owned"

    __hash__ = object.__hash__


class SetAssocCache(Component):
    """LRU set-associative tag array keyed by line number."""

    def __init__(self, num_sets: int, assoc: int, name: str = "cache") -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("cache needs at least one set and one way")
        Component.__init__(self, name)
        self.num_sets = num_sets
        self.assoc = assoc
        self._sets: list[OrderedDict[int, LineState]] = [
            OrderedDict() for _ in range(num_sets)
        ]
        self._occupied = 0
        # statistics
        self.hits = self.stat_counter("hits")
        self.misses = self.stat_counter("misses")
        self.evictions = self.stat_counter("evictions")
        self.invalidations = self.stat_counter("invalidations")
        self.stat_derived("occupancy", lambda: self._occupied)

    # ------------------------------------------------------------------
    def _set_of(self, line: int) -> OrderedDict[int, LineState]:
        return self._sets[line % self.num_sets]

    def lookup(self, line: int, touch: bool = True) -> LineState | None:
        """State of ``line`` or ``None``; refreshes LRU on hit by default."""
        s = self._sets[line % self.num_sets]
        state = s.get(line)
        if state is None:
            self.misses.value += 1
            return None
        if touch:
            s.move_to_end(line)
        self.hits.value += 1
        return state

    def contains(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]

    def state_of(self, line: int) -> LineState | None:
        """Peek at state without touching LRU or hit/miss counters."""
        return self._sets[line % self.num_sets].get(line)

    def insert(self, line: int, state: LineState) -> tuple[int, LineState] | None:
        """Insert/overwrite ``line``; returns the evicted ``(line, state)`` if any."""
        s = self._set_of(line)
        if line in s:
            s[line] = state
            s.move_to_end(line)
            return None
        victim = None
        if len(s) >= self.assoc:
            victim = s.popitem(last=False)
            self.evictions.value += 1
            self._occupied -= 1
        s[line] = state
        self._occupied += 1
        return victim

    def set_state(self, line: int, state: LineState) -> None:
        s = self._set_of(line)
        if line not in s:
            raise KeyError("line %#x not present" % line)
        s[line] = state

    def invalidate(self, line: int) -> LineState | None:
        """Drop ``line``; returns its former state if it was present."""
        s = self._set_of(line)
        state = s.pop(line, None)
        if state is not None:
            self.invalidations.value += 1
            self._occupied -= 1
        return state

    def invalidate_all(self, keep_owned: bool = False) -> int:
        """Self-invalidation on acquire.

        GPU coherence invalidates everything; DeNovo passes
        ``keep_owned=True`` so registered lines survive.  Returns the number
        of lines dropped.
        """
        if self._occupied == 0:
            return 0
        dropped = 0
        if keep_owned:
            for s in self._sets:
                if not s:
                    continue
                doomed = [ln for ln, st in s.items() if st is not LineState.OWNED]
                for ln in doomed:
                    del s[ln]
                dropped += len(doomed)
        else:
            for s in self._sets:
                n = len(s)
                if n:
                    s.clear()
                    dropped += n
        self._occupied -= dropped
        self.invalidations.value += dropped
        return dropped

    # ------------------------------------------------------------------
    def lines(self) -> Iterator[tuple[int, LineState]]:
        for s in self._sets:
            yield from s.items()

    def occupancy(self) -> int:
        return self._occupied

    def owned_lines(self) -> list[int]:
        return [ln for ln, st in self.lines() if st is LineState.OWNED]

