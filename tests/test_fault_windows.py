"""Property tests pinning the half-open ``[t0, t1)`` fault-window
convention of the compiled :class:`~repro.netsim.faults.FaultTables`,
on what the executors read: ``link_outcome``, ``crash_times`` and
``boundaries``.

Outage and jitter windows are closed on the left and open on the
right: an event scripted at ``t0`` with duration ``w`` affects
injections at ``t0 <= t < t0 + w`` and nothing at ``t = t0 + w``.
Node crashes are closed-left and permanent (``t >= t0``).  One-shot
drops arm at ``t0`` and consume the first injection at or after it.

Both executors lean on these exact semantics for bit-identity — the
segmented dense tier additionally derives its replay boundaries from
them — so the convention is pinned here, including the ``t == t0`` and
``t == t1`` edges, with hypothesis sweeping the window shapes.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.host import HostArray
from repro.netsim.faults import LOST, FaultPlan

N = 8  # host size for every compiled plan; links 0..6
_times = st.integers(min_value=0, max_value=60)
_durations = st.integers(min_value=1, max_value=20)
_links = st.integers(min_value=0, max_value=N - 2)
_dirs = st.sampled_from([1, -1])
_extras = st.integers(min_value=1, max_value=9)


def _compile(plan: FaultPlan):
    return plan.compile(HostArray.uniform(N, 2))


# ---------------------------------------------------------------------------
# outage windows: link_outcome is LOST exactly on [t0, t1)


@settings(max_examples=60, deadline=None)
@given(link=_links, d=_dirs, t0=_times, w=_durations)
def test_outage_window_half_open(link, d, t0, w):
    tables = _compile(FaultPlan().link_down(link, t0, w, direction=d))
    t1 = t0 + w
    probes = {t0 - 1: False, t0: True, t1 - 1: True, t1: False}
    for t, inside in probes.items():
        if t < 0:
            continue
        # Pure here: the plan scripts no drops to consume.
        outcome = tables.link_outcome(link, d, t)
        assert (outcome is LOST) == inside, (t, inside)
    # The opposite direction is never affected.
    assert tables.link_outcome(link, -d, t0) == 0
    # Window edges are exactly the segment boundaries.
    assert set(tables.boundaries()) == {t0, t1}


@settings(max_examples=40, deadline=None)
@given(link=_links, t0=_times)
def test_permanent_outage_closed_left(link, t0):
    tables = _compile(FaultPlan().link_down(link, t0))
    if t0 > 0:
        assert tables.link_outcome(link, 1, t0 - 1) == 0
    for t in (t0, t0 + 1, t0 + 10_000):
        assert tables.link_outcome(link, 1, t) is LOST
        assert tables.link_outcome(link, -1, t) is LOST  # direction=None: both


# ---------------------------------------------------------------------------
# jitter windows: link_outcome's extra delay is [t0, t1) and additive
# across overlaps


@settings(max_examples=60, deadline=None)
@given(link=_links, d=_dirs, t0=_times, w=_durations, e=_extras)
def test_jitter_window_half_open(link, d, t0, w, e):
    tables = _compile(FaultPlan().jitter(link, t0, w, e, direction=d))
    t1 = t0 + w
    probes = {t0 - 1: 0, t0: e, t1 - 1: e, t1: 0}
    for t, want in probes.items():
        if t < 0:
            continue
        assert tables.link_outcome(link, d, t) == want, (t, want)
    assert tables.link_outcome(link, -d, t0) == 0


@settings(max_examples=40, deadline=None)
@given(
    link=_links,
    t0=_times,
    w1=_durations,
    w2=_durations,
    e1=_extras,
    e2=_extras,
    gap=st.integers(min_value=0, max_value=10),
)
def test_jitter_overlap_sums(link, t0, w1, w2, e1, e2, gap):
    # Second window opens inside (or right at the end of) the first.
    s2 = t0 + min(gap, w1)
    plan = FaultPlan().jitter(link, t0, w1, e1).jitter(link, s2, w2, e2)
    tables = _compile(plan)
    for t in (t0, s2, t0 + w1 - 1, s2 + w2 - 1, t0 + w1, s2 + w2):
        want = (e1 if t0 <= t < t0 + w1 else 0) + (e2 if s2 <= t < s2 + w2 else 0)
        assert tables.link_outcome(link, 1, t) == want, t


# ---------------------------------------------------------------------------
# crashes: one permanent crash time per node, the earliest scripted


@settings(max_examples=40, deadline=None)
@given(
    pos=st.integers(min_value=0, max_value=N - 1),
    t0=_times,
    later=st.integers(min_value=0, max_value=20),
)
def test_crash_closed_left_permanent(pos, t0, later):
    tables = _compile(FaultPlan().crash(pos, t0 + later).crash(pos, t0))
    assert tables.crash_times == {pos: t0}
    assert tables.boundaries() == [t0]


# ---------------------------------------------------------------------------
# drops: armed at t0, one-shot, consumed by the first injection at/after


@settings(max_examples=60, deadline=None)
@given(link=_links, d=_dirs, t0=_times, late=st.integers(min_value=0, max_value=9))
def test_drop_one_shot_at_or_after(link, d, t0, late):
    tables = _compile(FaultPlan().drop(link, t0, direction=d))
    if t0 > 0:
        # Probing before the arm time neither loses nor consumes.
        assert tables.link_outcome(link, d, t0 - 1) == 0
    # First injection at/after t0 eats it; the next one sails through.
    assert tables.link_outcome(link, d, t0 + late) is LOST
    assert tables.link_outcome(link, d, t0 + late) == 0


@settings(max_examples=30, deadline=None)
@given(link=_links, t0=_times)
def test_drop_direction_isolated(link, t0):
    tables = _compile(FaultPlan().drop(link, t0, direction=1))
    assert tables.link_outcome(link, -1, t0) == 0  # other direction clean
    assert tables.link_outcome(link, 1, t0) is LOST
