"""LinkPipe semantics: the paper's pipelined-link timing model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.links import LinkPipe, batch_transit_time


def test_single_pebble_takes_delay():
    pipe = LinkPipe(delay=7, bandwidth=3)
    assert pipe.inject(0) == 7


def test_burst_matches_paper_formula():
    # P pebbles ready at once cross a d-delay bw-wide link in
    # d + ceil(P/bw) - 1 steps (Section 2).
    d, bw, P = 5, 4, 13
    pipe = LinkPipe(d, bw)
    last = max(pipe.inject(0) for _ in range(P))
    assert last == d + -(-P // bw) - 1 == batch_transit_time(P, d, bw)


@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=100),
)
def test_burst_formula_property(d, bw, P):
    pipe = LinkPipe(d, bw)
    last = max(pipe.inject(0) for _ in range(P))
    assert last == batch_transit_time(P, d, bw)


def test_spaced_injections_do_not_queue():
    pipe = LinkPipe(delay=3, bandwidth=1)
    assert pipe.inject(0) == 3
    assert pipe.inject(10) == 13
    assert pipe.inject(20) == 23


def test_bandwidth_slots_fill_before_spilling():
    pipe = LinkPipe(delay=2, bandwidth=2)
    assert pipe.inject(0) == 2  # slot 0 (1/2)
    assert pipe.inject(0) == 2  # slot 0 (2/2)
    assert pipe.inject(0) == 3  # slot 1
    assert pipe.inject(1) == 3  # slot 1 (2/2)
    assert pipe.inject(1) == 4  # slot 2


def test_monotonicity_enforced():
    pipe = LinkPipe(delay=1)
    pipe.inject(5)
    with pytest.raises(AssertionError):
        pipe.inject(4)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        LinkPipe(0)
    with pytest.raises(ValueError):
        LinkPipe(1, 0)


def test_inject_many_matches_repeated_inject():
    a = LinkPipe(delay=4, bandwidth=2)
    b = LinkPipe(delay=4, bandwidth=2)
    a.inject(0)  # pre-existing backlog on both
    b.inject(0)
    batched = a.inject_many(1, 5)
    single = [b.inject(1) for _ in range(5)]
    assert batched == single
    assert a.injected == b.injected


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=10),
)
def test_inject_many_property(d, bw, count, t_ready):
    a = LinkPipe(d, bw)
    b = LinkPipe(d, bw)
    assert a.inject_many(t_ready, count) == [b.inject(t_ready) for _ in range(count)]
    assert a.injected == b.injected == count


def test_inject_many_monotonicity_enforced():
    pipe = LinkPipe(delay=1)
    pipe.inject(5)
    with pytest.raises(AssertionError):
        pipe.inject_many(4, 2)


def test_batch_transit_time_edge_cases():
    assert batch_transit_time(0, 5, 2) == 0
    assert batch_transit_time(1, 5, 2) == 5
    with pytest.raises(ValueError):
        batch_transit_time(-1, 5, 2)


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=50),
)
def test_arrivals_are_nondecreasing(d, bw, gaps):
    """FIFO pipes never reorder pebbles."""
    pipe = LinkPipe(d, bw)
    t = 0
    last_arrival = 0
    for gap in gaps:
        t += gap
        arr = pipe.inject(t)
        assert arr >= last_arrival
        assert arr >= t + d  # can never beat the raw delay
        last_arrival = arr
