"""The shared run pipeline, exercised through every front-end.

Every executor-backed ``simulate_*`` front-end hands its assignment to
:func:`repro.core.pipeline.run_pipeline`, so policy resolution,
stealing, tier selection, telemetry and verification must behave the
same on every guest: racing and stealing change only *when* pebbles
complete (per-column digests equal the single-issue run's), an attached
timeline changes nothing and reconciles with the run's stats, and the
step/guest-size defaults are read the same way everywhere.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core.baselines import simulate_prior_efficient, simulate_single_copy
from repro.core.composed import simulate_composed, simulate_composed_on_graph
from repro.core.overlap import simulate_overlap, simulate_overlap_on_graph
from repro.core.ring import simulate_ring
from repro.core.uniform import simulate_uniform
from repro.machine.host import HostArray
from repro.netsim.faults import FaultPlan
from repro.telemetry import MetricsTimeline
from repro.topology.delays import uniform_delays
from repro.topology.generators import mesh_host


def _mesh():
    return mesh_host(4, 4, uniform_delays(24, np.random.default_rng(5), 1, 6))


def _jitter_plan(n: int) -> FaultPlan:
    return FaultPlan.random(
        n, seed=7, horizon=80, jitter_rate=0.9, drop_rate=0.3, max_jitter=12
    )


#: front-end -> (run(**kwargs), positions a fault plan addresses)
GUESTS = {
    "overlap": (
        lambda **kw: simulate_overlap(
            HostArray.uniform(24), steps=8, min_copies=2, **kw
        ),
        24,
    ),
    "overlap_on_graph": (
        lambda **kw: simulate_overlap_on_graph(
            _mesh(), steps=8, min_copies=2, **kw
        ),
        16,
    ),
    "ring": (
        lambda **kw: simulate_ring(HostArray.uniform(24), steps=8, copies=2, **kw),
        24,
    ),
    "composed": (
        lambda **kw: simulate_composed(HostArray.uniform(24, 4), steps=8, **kw),
        24,
    ),
    "composed_on_graph": (
        lambda **kw: simulate_composed_on_graph(_mesh(), steps=6, **kw),
        16,
    ),
}


def _run(guest: str, **kw):
    run, n = GUESTS[guest]
    return run(faults=_jitter_plan(n), **kw)


def _column_digests(res) -> dict[int, int]:
    out: dict[int, int] = {}
    for (_p, c), d in res.exec_result.value_digests.items():
        assert out.setdefault(c, d) == d, f"replicas of column {c} disagree"
    return out


@pytest.mark.parametrize("policy", ["racing", "stealing", "racing+stealing"])
@pytest.mark.parametrize("guest", sorted(GUESTS))
def test_policies_on_every_guest(guest, policy):
    base = _run(guest)
    res = _run(guest, policy=policy)
    assert base.verified and res.verified
    assert _column_digests(res) == _column_digests(base)
    extras = res.exec_result.stats.extras
    if "racing" in policy:
        assert res.engine == "greedy"
        assert extras["raced_wins"] > 0
    else:
        assert res.engine == "dense"
        assert "raced_wins" not in extras
    if "stealing" in policy:
        assert extras["steal_moves"] > 0


@pytest.mark.parametrize("policy", [None, "racing", "stealing"])
@pytest.mark.parametrize("guest", sorted(GUESTS))
def test_telemetry_on_every_guest(guest, policy):
    plain = _run(guest, policy=policy)
    tl = MetricsTimeline()
    timed = _run(guest, policy=policy, telemetry=tl)
    stats = timed.exec_result.stats
    assert stats.as_dict() == plain.exec_result.stats.as_dict()
    assert timed.exec_result.value_digests == plain.exec_result.value_digests
    tl.reconcile(stats)


_ARRAY = HostArray.uniform(16, 3)

#: every executor-backed front-end -> its leading positional arguments
FRONT_ENDS = {
    simulate_overlap: (_ARRAY,),
    simulate_overlap_on_graph: (_mesh(),),
    simulate_ring: (_ARRAY,),
    simulate_composed: (_ARRAY,),
    simulate_composed_on_graph: (_mesh(),),
    simulate_uniform: (8, 4),
    simulate_single_copy: (_ARRAY,),
    simulate_prior_efficient: (_ARRAY,),
}


@pytest.mark.parametrize("front_end", FRONT_ENDS, ids=lambda f: f.__name__)
def test_zero_steps_and_zero_guest_size(front_end):
    args = FRONT_ENDS[front_end]
    res = front_end(*args, steps=0)
    assert res.steps == 0
    assert res.exec_result.stats.pebbles == 0
    assert res.verified
    if "m" in inspect.signature(front_end).parameters:
        with pytest.raises(ValueError):
            front_end(*args, m=0)
