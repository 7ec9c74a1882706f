"""Pipelined link model.

A :class:`LinkPipe` is one *direction* of a network link with integer
delay ``d >= 1`` and integer bandwidth ``bw >= 1`` (pebbles per step).
The model matches Section 2 of the paper: injection happens in slotted
time, at most ``bw`` pebbles per slot, and a pebble injected in slot
``s`` arrives at time ``s + d``.  Consequently ``P`` pebbles all ready
at time 0 occupy slots ``0 .. ceil(P/bw) - 1`` and the last one arrives
at ``d + ceil(P/bw) - 1`` — the paper's formula.

The pipe only supports *monotone* injection requests (``t_ready`` must
be non-decreasing across calls).  All executors in this repository
process events in time order, so the requirement holds by construction;
it is asserted to catch executor bugs early.
"""

from __future__ import annotations


def check_bandwidth(bandwidth: int) -> None:
    """Reject a link bandwidth below one pebble per step."""
    if bandwidth < 1:
        raise ValueError(f"link bandwidth must be >= 1, got {bandwidth}")


class LinkPipe:
    """One direction of a pipelined, bandwidth-limited link.

    Parameters
    ----------
    delay:
        Link delay in steps (time between injection and arrival of a
        single pebble).  Must be >= 1: the paper's "unit delay" is 1.
    bandwidth:
        Pebbles that may be injected per time slot.  The paper assumes
        host bandwidth is ``log n`` times guest bandwidth; passing 1
        models the weaker host of the paper's footnote (costing an extra
        ``log n`` factor in slowdown).
    """

    __slots__ = ("delay", "bandwidth", "_slot_time", "_slot_used", "_injected", "_last_ready")

    def __init__(self, delay: int, bandwidth: int = 1) -> None:
        if delay < 1:
            raise ValueError(f"link delay must be >= 1, got {delay}")
        check_bandwidth(bandwidth)
        self.delay = int(delay)
        self.bandwidth = int(bandwidth)
        self._slot_time = -1  # last slot with any injection
        self._slot_used = 0  # pebbles injected into that slot
        self._injected = 0  # lifetime total
        self._last_ready = -1

    def inject(self, t_ready: int) -> int:
        """Inject one pebble that is ready to enter the link at ``t_ready``.

        Returns the arrival time at the far end.  Requests must be made
        with non-decreasing ``t_ready`` (event-order processing).
        """
        if t_ready < self._last_ready:
            raise AssertionError(
                f"non-monotone injection: t_ready={t_ready} after {self._last_ready}"
            )
        self._last_ready = t_ready
        if t_ready > self._slot_time:
            # Pipe is idle at t_ready: start a fresh slot.
            self._slot_time = t_ready
            self._slot_used = 1
        elif self._slot_used < self.bandwidth:
            # Room left in the currently-filling slot.
            self._slot_used += 1
        else:
            # Current slot full: spill into the next one.
            self._slot_time += 1
            self._slot_used = 1
        self._injected += 1
        return self._slot_time + self.delay

    @property
    def injected(self) -> int:
        """Lifetime number of pebbles injected into this pipe."""
        return self._injected

    def inject_many(self, t_ready: int, count: int) -> list[int]:
        """Inject ``count`` pebbles all ready at ``t_ready`` in one call.

        Equivalent to ``count`` successive :meth:`inject` calls with the
        same ``t_ready`` (identical slot assignment and arrival times)
        but without the per-call overhead — the batched path whole-stream
        sends use.  Returns the arrival times in injection order.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return []
        if t_ready < self._last_ready:
            raise AssertionError(
                f"non-monotone injection: t_ready={t_ready} after {self._last_ready}"
            )
        self._last_ready = t_ready
        bw = self.bandwidth
        slot_time = self._slot_time
        slot_used = self._slot_used
        if t_ready > slot_time:
            slot_time = t_ready
            slot_used = 0
        # Closed form of the slot rule: with ``slot_used`` pebbles
        # already occupying the current slot, injection ``j`` (0-based)
        # is the ``slot_used + j``-th occupant and lands in slot
        # ``slot_time + (slot_used + j) // bw``.  Same assignment as
        # ``count`` successive inject() calls, without the per-pebble
        # branch (the dense tier inlines this identical arithmetic).
        delay = self.delay
        base = slot_time + delay
        arrivals = [base + (slot_used + j) // bw for j in range(count)]
        occ = slot_used + count - 1
        self._slot_time = slot_time + occ // bw
        self._slot_used = occ % bw + 1
        self._injected += count
        return arrivals

    def busy_until(self) -> int:
        """First step at which a new injection would not queue.

        An idle (fresh or reset) pipe reports ``0`` — schedulers must
        never see a negative ready time.
        """
        if self._slot_time < 0:
            return 0
        if self._slot_used >= self.bandwidth:
            return self._slot_time + 1
        return self._slot_time

    def reset(self) -> None:
        """Return the pipe to its initial (idle) state."""
        self._slot_time = -1
        self._slot_used = 0
        self._injected = 0
        self._last_ready = -1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LinkPipe(delay={self.delay}, bw={self.bandwidth}, "
            f"injected={self._injected})"
        )


def batch_transit_time(pebbles: int, delay: int, bandwidth: int) -> int:
    """Closed-form time for ``pebbles`` pebbles to cross a pipe.

    This is the paper's ``d + ceil(P/bw) - 1`` expression; used by the
    explicit (non-event-driven) schedules in :mod:`repro.core.uniform`
    and :mod:`repro.core.schedule`, and to cross-check :class:`LinkPipe`.
    """
    if pebbles < 0:
        raise ValueError("pebble count must be non-negative")
    if pebbles == 0:
        return 0
    return delay + -(-pebbles // bandwidth) - 1
