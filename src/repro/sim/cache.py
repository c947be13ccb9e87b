"""Generic cache storage structures shared by the L1s and the LLC.

These classes model *storage and replacement* only; the coherence state
machine that manipulates them lives in :mod:`repro.sim.private_cache` and
:mod:`repro.sim.system`.

Both arrays maintain their valid-line counts incrementally (``__len__``
and :meth:`SetAssociativeArray.occupancy` are O(1)): every sanctioned
mutation path — :meth:`CacheLine.invalidate`, :meth:`DirectMappedArray.
install`, :meth:`repro.sim.private_cache.PrivateCache.fill`, and the
set-associative insert/remove — keeps the counter in sync.  Poking a
line's fields directly bypasses the bookkeeping; use ``install``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.params import CacheGeometry


class LineState(enum.IntEnum):
    """MSI stable states of a private cache line."""

    I = 0  # noqa: E741 - the canonical protocol name
    S = 1
    M = 2


@dataclass(slots=True)
class CacheLine:
    """One private cache line with its CoHoRT coherence metadata.

    ``fill_cycle`` and ``generation`` drive the lazy timer model: the
    countdown counter conceptually loaded θ at ``fill_cycle`` and the
    generation counter disambiguates stale timer-expiry events after a
    line has been invalidated and refetched.
    """

    line_addr: int = -1
    state: LineState = LineState.I
    fill_cycle: int = 0
    #: Version of the data held (golden-value oracle; see tests).
    version: int = 0
    dirty: bool = False
    #: Cycle at which a remote conflicting request was observed, or None.
    pending_inv_since: Optional[int] = None
    #: True when the pending remote request is a GetS (downgrade), not a GetM.
    pending_is_downgrade: bool = False
    #: Earliest cycle at which the pending invalidation/handover may be
    #: actioned (the lazy countdown-counter expiry), or None.
    inv_at: Optional[int] = None
    #: The countdown counter reached zero with the remote request pending:
    #: the line is conceded and only awaits the bus transfer.
    handover_ready: bool = False
    generation: int = 0
    #: Back-reference to the owning :class:`DirectMappedArray` (if any),
    #: used to maintain its valid-line counter across invalidations.
    owner: Optional["DirectMappedArray"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def valid(self) -> bool:
        return self.state != LineState.I

    @property
    def frozen(self) -> bool:
        """Conceded to a remote *writer*: the line serves no further hits.

        A line conceded to a remote *reader* (downgrade) keeps serving local
        accesses until the data transfer actually completes.
        """
        return self.handover_ready and not self.pending_is_downgrade

    def can_serve(self, store: bool) -> bool:
        """Whether a local access hits on this line right now."""
        if not self.valid or self.frozen:
            return False
        if store:
            return self.state == LineState.M
        return True

    def arm_pending(self, now: int) -> None:
        """Record a remote conflicting request observed at ``now``.

        The only sanctioned way to set ``pending_inv_since`` — keeps the
        owning array's pending-line counter in sync (the telemetry
        sampler reads it in O(1) instead of scanning the array)."""
        self.pending_inv_since = now
        if self.owner is not None:
            self.owner._pending_lines += 1

    def clear_pending(self) -> None:
        """Clear all pending-invalidation state (after a handover)."""
        if self.pending_inv_since is not None and self.owner is not None:
            self.owner._pending_lines -= 1
        self.pending_inv_since = None
        self.pending_is_downgrade = False
        self.inv_at = None
        self.handover_ready = False

    def invalidate(self) -> None:
        """Drop the line to I, clearing metadata and bumping the generation."""
        if self.state != LineState.I and self.owner is not None:
            self.owner._valid_count -= 1
        self.state = LineState.I
        self.dirty = False
        self.clear_pending()
        self.generation += 1


class DirectMappedArray:
    """Storage of a direct-mapped private cache (one line per set)."""

    __slots__ = ("geometry", "_lines", "_set_mask", "_valid_count",
                 "_pending_lines")

    def __init__(self, geometry: CacheGeometry) -> None:
        if geometry.ways != 1:
            raise ValueError("DirectMappedArray models ways == 1 only")
        self.geometry = geometry
        self._lines: List[CacheLine] = [
            CacheLine(owner=self) for _ in range(geometry.num_sets)
        ]
        #: num_sets is validated to be a power of two, so indexing reduces
        #: to a mask — the hot paths use it instead of ``set_index``.
        self._set_mask = geometry.num_sets - 1
        self._valid_count = 0
        self._pending_lines = 0

    def slot(self, line_addr: int) -> CacheLine:
        """The (single) slot a line address maps to."""
        return self._lines[line_addr & self._set_mask]

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """The resident line for this address, or ``None``."""
        line = self._lines[line_addr & self._set_mask]
        if line.state and line.line_addr == line_addr:
            return line
        return None

    def victim(self, line_addr: int) -> Optional[CacheLine]:
        """The line a fill of ``line_addr`` would evict, or ``None``."""
        line = self._lines[line_addr & self._set_mask]
        if line.state and line.line_addr != line_addr:
            return line
        return None

    def install(self, line_addr: int, state: LineState = LineState.S) -> CacheLine:
        """Place a line directly into its slot (tests / setup helper).

        Maintains the valid-line counter; any resident line in the slot is
        invalidated first.
        """
        slot = self._lines[line_addr & self._set_mask]
        if slot.valid:
            slot.invalidate()
        if state != LineState.I:
            self._valid_count += 1
        slot.line_addr = line_addr
        slot.state = state
        return slot

    def valid_lines(self) -> Iterator[CacheLine]:
        """Iterate over the currently valid lines."""
        return (line for line in self._lines if line.valid)

    def pending_count(self) -> int:
        """Lines with a remote request currently pending, in O(1).

        Maintained by :meth:`CacheLine.arm_pending` /
        :meth:`CacheLine.clear_pending`; the telemetry sampler reads it
        every sample, so it must not require a scan."""
        return self._pending_lines

    def recount(self) -> int:
        """Recompute the valid-line count by scanning (O(num_sets)).

        Diagnostic only: must always equal ``len(self)``.  The test-suite
        asserts this after protocol activity to catch any mutation path
        that bypasses the incremental counter."""
        return sum(1 for line in self._lines if line.valid)

    def recount_pending(self) -> int:
        """Recompute the pending-line count by scanning (diagnostic).

        Must always equal :meth:`pending_count`; asserted by the test
        suite after protocol activity."""
        return sum(
            1 for line in self._lines if line.pending_inv_since is not None
        )

    def __len__(self) -> int:
        return self._valid_count


@dataclass(slots=True)
class LLCLine:
    """One LLC line: data version plus LRU bookkeeping."""

    line_addr: int
    version: int = 0
    last_touch: int = 0


class SetAssociativeArray:
    """Storage of the set-associative, LRU-replaced shared LLC."""

    __slots__ = ("geometry", "_sets", "_set_mask", "_occupancy")

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._sets: List[Dict[int, LLCLine]] = [
            {} for _ in range(geometry.num_sets)
        ]
        self._set_mask = geometry.num_sets - 1
        self._occupancy = 0

    def _set(self, line_addr: int) -> Dict[int, LLCLine]:
        return self._sets[line_addr & self._set_mask]

    def lookup(self, line_addr: int, cycle: int = 0, touch: bool = True) -> Optional[LLCLine]:
        """The resident LLC line, optionally touching LRU state."""
        line = self._sets[line_addr & self._set_mask].get(line_addr)
        if line is not None and touch:
            line.last_touch = cycle
        return line

    def peek_victim(self, line_addr: int) -> Optional[int]:
        """Line address that inserting ``line_addr`` would evict, or None."""
        cache_set = self._set(line_addr)
        if line_addr in cache_set or len(cache_set) < self.geometry.ways:
            return None
        return min(cache_set, key=lambda a: (cache_set[a].last_touch, a))

    def insert(self, line_addr: int, cycle: int, version: int = 0) -> Optional[LLCLine]:
        """Insert a line; return the evicted LRU victim if the set was full."""
        cache_set = self._set(line_addr)
        if line_addr in cache_set:
            line = cache_set[line_addr]
            line.last_touch = cycle
            return None
        victim: Optional[LLCLine] = None
        if len(cache_set) >= self.geometry.ways:
            lru_addr = min(cache_set, key=lambda a: (cache_set[a].last_touch, a))
            victim = cache_set.pop(lru_addr)
            self._occupancy -= 1
        cache_set[line_addr] = LLCLine(line_addr=line_addr, version=version, last_touch=cycle)
        self._occupancy += 1
        return victim

    def remove(self, line_addr: int) -> Optional[LLCLine]:
        """Remove and return a line (None if absent)."""
        line = self._set(line_addr).pop(line_addr, None)
        if line is not None:
            self._occupancy -= 1
        return line

    def recount(self) -> int:
        """Recompute the occupancy by scanning (diagnostic; O(lines))."""
        return sum(len(cache_set) for cache_set in self._sets)

    def occupancy(self) -> int:
        """Total valid lines across all sets."""
        return self._occupancy
