"""LineFabric: pipelined transport along a linear-array host."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.fabric import LineFabric
from repro.netsim.faults import LOST, FaultPlan, FaultTables


class TestLineFabric:
    def test_basic_hops(self):
        lf = LineFabric([2, 7], bandwidth=1)
        assert lf.n == 3
        assert lf.hop(0, +1, 0) == 2
        assert lf.hop(2, -1, 0) == 7

    def test_directions_are_independent_pipes(self):
        lf = LineFabric([2], bandwidth=1)
        assert lf.hop(0, +1, 0) == 2
        assert lf.hop(1, -1, 0) == 2  # no contention with the other direction

    def test_bandwidth_contention_per_direction(self):
        lf = LineFabric([5], bandwidth=2)
        assert lf.hop(0, +1, 0) == 5
        assert lf.hop(0, +1, 0) == 5
        assert lf.hop(0, +1, 0) == 6  # third pebble spills to next slot

    def test_invalid_direction(self):
        lf = LineFabric([1])
        with pytest.raises(ValueError):
            lf.hop(0, 0, 0)

    def test_invalid_delays_rejected(self):
        with pytest.raises(ValueError):
            LineFabric([1, 0, 2])

    def test_contention_between_streams_sharing_a_link(self):
        # Two streams injecting at the same position/direction share
        # the slot budget; arrivals serialise at bandwidth 1.
        lf = LineFabric([3], bandwidth=1)
        a1 = lf.hop(0, +1, 0)
        a2 = lf.hop(0, +1, 0)
        a3 = lf.hop(0, +1, 0)
        assert (a1, a2, a3) == (3, 4, 5)

    def test_wide_link_absorbs_burst(self):
        lf = LineFabric([3], bandwidth=3)
        arrivals = [lf.hop(0, +1, 0) for _ in range(3)]
        assert arrivals == [3, 3, 3]

    def test_backlog_drains_at_bandwidth_rate(self):
        lf = LineFabric([2], bandwidth=2)
        # 6 pebbles ready at t=0: slots 0,0,1,1,2,2 -> arrivals 2,2,3,3,4,4
        arrivals = [lf.hop(0, +1, 0) for _ in range(6)]
        assert arrivals == [2, 2, 3, 3, 4, 4]

    def test_hop_many_matches_repeated_hop(self):
        a = LineFabric([3, 5], bandwidth=2)
        b = LineFabric([3, 5], bandwidth=2)
        batched = a.hop_many(0, +1, 0, 5)
        single = [b.hop(0, +1, 0) for _ in range(5)]
        assert batched == single
        assert a.hop_many(2, -1, 1, 3) == [b.hop(2, -1, 1) for _ in range(3)]
        assert a.total_injections == b.total_injections

    def test_jitter_end_cannot_reorder_stream(self):
        # A jitter window ending mid-stream: the first pebble is
        # inflated (+5), the second is injected after the window.
        # Unclamped, the second would arrive at 4 < 8 — overtaking a
        # FIFO predecessor.  The clamp pins it to 8.
        plan = FaultPlan().jitter(0, time=0, duration=2, extra=5)
        lf = LineFabric([2], bandwidth=1)
        lf.attach_faults(FaultTables(plan, n=2))
        assert lf.hop_faulty(0, +1, 1) == 8  # slot 1, +2 delay, +5 jitter
        assert lf.hop_faulty(0, +1, 2) == 8  # clamped (raw would be 4)
        assert lf.hop_faulty(0, +1, 7) == 9  # past the clamp: raw again

    def test_jitter_clamp_is_per_directed_link(self):
        plan = FaultPlan().jitter(0, time=0, duration=2, extra=9, direction=+1)
        lf = LineFabric([2], bandwidth=1)
        lf.attach_faults(FaultTables(plan, n=2))
        assert lf.hop_faulty(0, +1, 0) == 11
        # Jitter targets direction +1 only; the reverse pipe is
        # untouched and must not inherit the clamp.
        assert lf.hop_faulty(1, -1, 0) == 2

    def test_undirected_outage_loses_both_directions(self):
        # An outage with direction=None takes down both pipes of the
        # link; the neighbouring link is untouched.
        plan = FaultPlan().link_down(0, time=0, duration=100)
        lf = LineFabric([2, 2], bandwidth=1)
        lf.attach_faults(FaultTables(plan, n=3))
        assert lf.hop_faulty(0, +1, 0) is LOST
        assert lf.hop_faulty(1, -1, 0) is LOST
        assert lf.hop_faulty(1, +1, 0) == 2
        assert lf.hop_faulty(2, -1, 0) == 2

    @given(
        st.integers(min_value=1, max_value=6),  # jitter extra
        st.integers(min_value=1, max_value=5),  # jitter window length
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=30),
    )
    def test_jittered_arrivals_stay_monotone(self, extra, duration, gaps):
        """FIFO links never reorder pebbles, jitter or not."""
        plan = FaultPlan().jitter(0, time=2, duration=duration, extra=extra)
        lf = LineFabric([2], bandwidth=1)
        lf.attach_faults(FaultTables(plan, n=2))
        t, last = 0, 0
        for gap in gaps:
            t += gap
            arr = lf.hop_faulty(0, +1, t)
            assert arr >= last
            last = arr


class TestFaultTables:
    """Outage outcomes on the compiled fault tables."""

    def test_outage_outcome_is_repeatable(self):
        # An outage loses every injection inside its window, however
        # often the link is used, and consumes no drop on another link.
        plan = FaultPlan().link_down(0, time=5, duration=5).drop(1, time=0)
        tables = FaultTables(plan, n=4)
        for _ in range(3):
            assert tables.link_outcome(0, 1, 7) is LOST
            assert tables.link_outcome(0, 1, 3) == 0
        assert tables.link_outcome(1, 1, 0) is LOST  # drop still armed
        assert tables.link_outcome(1, 1, 0) == 0  # ... and one-shot
