"""The linear-array message fabric.

:class:`LineFabric` carries every pebble the greedy tier sends, and the
dense tier inlines its slot rule as three flat ints per directed link.
Both see only linear arrays: algorithm OVERLAP runs on one, and a graph
host reaches the executors only through the Fact-3 embedding
(:mod:`repro.topology.embedding`), which collapses every per-assignment
route into the induced array's flat ``link_delays``.  Positions are
``0..n-1``; link ``j`` connects positions ``j`` and ``j+1`` and carries
one :class:`~repro.netsim.links.LinkPipe` per direction.
"""

from __future__ import annotations

from typing import Sequence

from repro.netsim.faults import LOST, FaultTables
from repro.netsim.links import LinkPipe


class LineFabric:
    """Pipelined fabric specialised to a linear-array host.

    Parameters
    ----------
    link_delays:
        ``link_delays[j]`` is the delay of the link between positions
        ``j`` and ``j+1``; the array therefore has ``len(link_delays)+1``
        positions.
    bandwidth:
        Per-direction pebbles/step on every link.
    """

    RIGHT = +1
    LEFT = -1

    def __init__(self, link_delays: Sequence[int], bandwidth: int = 1) -> None:
        if any(d < 1 for d in link_delays):
            raise ValueError("all link delays must be >= 1")
        self.link_delays = [int(d) for d in link_delays]
        self.n = len(self.link_delays) + 1
        self.bandwidth = bandwidth
        self._right = [LinkPipe(d, bandwidth) for d in self.link_delays]
        self._left = [LinkPipe(d, bandwidth) for d in self.link_delays]
        self._faults: FaultTables | None = None
        # Last arrival handed out per directed link (monotone-delivery clamp).
        self._last_out: dict[tuple[int, int], int] = {}

    def hop(self, pos: int, direction: int, t_ready: int) -> int:
        """Inject a pebble at ``pos`` heading ``direction`` (+1 right,
        -1 left); return its arrival time at the adjacent position."""
        if direction == self.RIGHT:
            return self._right[pos].inject(t_ready)
        if direction == self.LEFT:
            return self._left[pos - 1].inject(t_ready)
        raise ValueError(f"direction must be +1 or -1, got {direction}")

    def hop_many(self, pos: int, direction: int, t_ready: int, count: int) -> list[int]:
        """Inject ``count`` pebbles at ``pos`` heading ``direction``, all
        ready at ``t_ready`` (a whole-stream send); return their arrival
        times in injection order.  Identical slot assignment to ``count``
        :meth:`hop` calls, via :meth:`~repro.netsim.links.LinkPipe.inject_many`.
        """
        if direction == self.RIGHT:
            return self._right[pos].inject_many(t_ready, count)
        if direction == self.LEFT:
            return self._left[pos - 1].inject_many(t_ready, count)
        raise ValueError(f"direction must be +1 or -1, got {direction}")

    def attach_faults(self, tables: FaultTables | None) -> None:
        """Attach per-run fault tables consulted by :meth:`hop_faulty`."""
        self._faults = tables

    def hop_faulty(self, pos: int, direction: int, t_ready: int):
        """Fault-aware :meth:`hop`: returns :data:`~repro.netsim.faults.LOST`
        when the pebble enters a dead link (or eats a one-shot drop),
        and an arrival time inflated by any active jitter otherwise.

        Lost pebbles still occupy an injection slot — the sender spent
        the bandwidth even though the far end never sees the message.

        Links are FIFO: arrivals are clamped to stay monotone per
        directed link, so a jitter window ending mid-stream cannot let a
        later pebble's un-jittered arrival precede an earlier inflated
        one (which would feed non-monotone ``t_ready`` into downstream
        pipes and trip the :class:`~repro.netsim.links.LinkPipe`
        monotonicity assertion).
        """
        link = pos if direction == self.RIGHT else pos - 1
        outcome = 0
        if self._faults is not None:
            outcome = self._faults.link_outcome(link, direction, t_ready)
        if outcome is LOST:
            self.hop(pos, direction, t_ready)
            return LOST
        arrival = self.hop(pos, direction, t_ready) + outcome
        key = (link, direction)
        prev = self._last_out.get(key, 0)
        if arrival < prev:
            arrival = prev
        else:
            self._last_out[key] = arrival
        return arrival

    @property
    def total_injections(self) -> int:
        """Pebble-hops across both directions of every link."""
        return sum(p.injected for p in self._right) + sum(
            p.injected for p in self._left
        )
