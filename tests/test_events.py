"""EventQueue semantics."""

from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.events import EventQueue


def test_pop_orders_by_time():
    q = EventQueue()
    q.push(5, "a")
    q.push(1, "b")
    q.push(3, "c")
    assert [q.pop().kind for _ in range(3)] == ["b", "c", "a"]


def test_fifo_among_simultaneous_events():
    q = EventQueue()
    for i in range(10):
        q.push(7, i)
    assert [q.pop().kind for _ in range(10)] == list(range(10))


def test_peek_time_and_len():
    q = EventQueue()
    assert not q
    q.push(4, "x")
    assert len(q) == 1
    assert q


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200))
def test_pop_sequence_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, None)
    out = [q.pop().time for _ in range(len(times))]
    assert out == sorted(times)
