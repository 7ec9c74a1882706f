"""Deterministic event queue for the discrete-event engine.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing sequence number assigned at push time.  The sequence number
makes pops fully deterministic (FIFO among simultaneous events), which
is essential for reproducible simulations and for checking replica
consistency in the database model: two runs with the same seed must
produce bit-identical traces.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class Event:
    """A single simulation event.

    Attributes
    ----------
    time:
        Simulation step at which the event fires.
    kind:
        Small integer or string tag interpreted by the executor.
    data:
        Arbitrary payload (kept opaque by the queue).
    """

    time: int
    kind: Any
    data: Any = None


class EventQueue:
    """Min-heap of events with deterministic FIFO tie-breaking.

    The queue intentionally exposes only the operations the executors
    need; in particular there is no "remove arbitrary event" — cancelled
    work is handled by the executors marking state, which keeps the heap
    operations O(log n) and the code simple.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Any, Any]] = []
        self._seq = 0

    def push(self, time: int, kind: Any, data: Any = None) -> None:
        """Schedule an event at ``time``.

        ``time`` may equal the current time (the executor processes it
        within the same step) but pushing into the past is a logic error
        caught by the executors, not here — the queue is agnostic.
        """
        heapq.heappush(self._heap, (time, self._seq, kind, data))
        self._seq += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        time, _seq, kind, data = heapq.heappop(self._heap)
        return Event(time, kind, data)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
