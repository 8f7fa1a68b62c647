"""The single-heap formulation of the engine's dispatch order (test oracle).

:class:`ReferenceEngine` dispatches strictly in ``(time, seq)`` order
from one heap.  Before each pop it moves every pending same-instant
entry from the engine's tail into the heap as ``(now, next seq)``, so it
has no tail fast path and no reasoning about which queue goes first.
``tests/test_fastpath_equivalence.py`` compares :class:`Engine` against
it on the committed goldens and on random kernel programs.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.sim.engine import _CONSUMED, Engine, SimulationError


class ReferenceEngine(Engine):
    """An :class:`Engine` whose ``run`` pops one ``(time, seq)`` heap."""

    def run(self, until: Optional[float] = None) -> float:
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until!r}) is before now={self.now!r}"
            )
        heap = self._heap
        while True:
            while self._tail:
                self._seq += 1
                heapq.heappush(heap, (self.now, self._seq, self._tail.popleft()))
            if not heap:
                return self.now
            at, _seq, event = heap[0]
            if until is not None and at > until:
                self.now = until
                return until
            heapq.heappop(heap)
            if at < self.now:
                raise SimulationError("time went backwards")
            self.now = at
            self._event_count += 1
            if self.sanitize and event._san is not None:
                self._san_check(at, event)
            callbacks = event._callbacks
            event._callbacks = _CONSUMED
            if callbacks is not None:
                for fn in callbacks if type(callbacks) is list else [callbacks]:
                    fn(event)
