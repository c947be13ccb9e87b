"""A minimal deterministic discrete-event kernel.

The simulator is *cycle-accurate* in the sense that every event happens at
an integer cycle and same-cycle events are ordered by an explicit phase:

* :data:`PHASE_EFFECT` — hardware state updates (bus transaction
  completion, timer expiry, DRAM fill).
* :data:`PHASE_CORE` — core-side activity (issuing accesses, run-ahead).
* :data:`PHASE_ARBITRATE` — bus arbitration, which must observe every
  state change of the cycle.

Ties within a phase break on scheduling order, which makes runs fully
deterministic.

Events are stored as ``(cycle, phase, seq, fn, args)`` tuples: callers
pass a (typically bound-method) callable plus positional arguments
instead of allocating a fresh closure per event, which keeps the
per-event cost on the simulator's hot path low.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

PHASE_EFFECT = 0
PHASE_CORE = 1
PHASE_ARBITRATE = 2

#: Default ``max_cycles`` guard used outside :meth:`EventKernel.run`.
_NO_LIMIT = 1 << 62


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds its ``max_cycles`` safety valve."""


class EventKernel:
    """Priority-queue event loop with integer cycles and phases."""

    __slots__ = ("_heap", "_now", "_seq", "_max_cycles")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, Callable, tuple]] = []
        self._now = 0
        self._seq = 0
        self._max_cycles = _NO_LIMIT

    @property
    def now(self) -> int:
        """The current cycle."""
        return self._now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def schedule(self, cycle: int, phase: int, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` to run at ``cycle`` in ``phase``."""
        if cycle < self._now:
            raise ValueError(
                f"cannot schedule in the past (now={self._now}, cycle={cycle})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (cycle, phase, self._seq, fn, args))

    def run(self, max_cycles: int, until: Callable[[], bool]) -> int:
        """Process events until ``until()`` holds or the heap drains.

        Returns the final cycle.  Raises :class:`SimulationLimitError` when
        the clock passes ``max_cycles``.
        """
        self._max_cycles = max_cycles
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and not until():
                cycle, _phase, _seq, fn, args = pop(heap)
                if cycle > max_cycles:
                    raise SimulationLimitError(
                        f"simulation exceeded max_cycles={max_cycles}"
                    )
                self._now = cycle
                fn(*args)
        finally:
            self._max_cycles = _NO_LIMIT
        return self._now
