"""Property-based policy checks (hypothesis): racing and stealing are
deterministic functions of their seeds — repeated runs over a grid of
seeded jitter plans produce bit-identical winner selections, digests
and stats — and both stay digest-identical to the single-issue ground
truth on every drawn plan.

``tests/test_racing.py`` holds the fixed-grid differential suite for
the same contract.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import steal_rebalance
from repro.core.overlap import simulate_overlap
from repro.machine.host import HostArray
from repro.netsim.faults import FaultPlan
from repro.telemetry import MetricsTimeline


@st.composite
def jittered_run(draw):
    n = draw(st.integers(min_value=8, max_value=20))
    steps = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    max_jitter = draw(st.integers(min_value=1, max_value=12))
    drop_rate = draw(st.sampled_from([0.0, 0.2, 0.5]))
    plan = FaultPlan.random(
        n,
        seed=seed,
        horizon=16 * steps,
        jitter_rate=0.8,
        drop_rate=drop_rate,
        max_jitter=max_jitter,
    )
    return HostArray.uniform(n), steps, plan


def _fingerprint(res, timeline):
    """Everything observable about a run, in comparable form."""
    stats = dict(res.exec_result.stats.__dict__)
    stats["extras"] = dict(stats["extras"])
    tl = timeline.as_dict()
    tl.pop("meta", None)
    return {
        "stats": stats,
        "digests": dict(res.exec_result.value_digests),
        "timeline": tl,
        "summary": res.summary(),
    }


def _run(host, steps, plan, policy):
    tl = MetricsTimeline()
    res = simulate_overlap(
        host,
        steps=steps,
        min_copies=2,
        faults=plan,
        policy=policy,
        telemetry=tl,
    )
    return res, tl


@given(jittered_run(), st.sampled_from(["racing", "stealing", "racing+stealing"]))
@settings(max_examples=20, deadline=None)
def test_policy_runs_bit_identical_across_repeats(run, policy):
    host, steps, plan = run
    a = _fingerprint(*_run(host, steps, plan, policy))
    b = _fingerprint(*_run(host, steps, plan, policy))
    assert a == b


@given(jittered_run(), st.sampled_from(["racing", "stealing", "racing+stealing"]))
@settings(max_examples=20, deadline=None)
def test_policy_digests_match_single_issue(run, policy):
    host, steps, plan = run

    def col_digests(res):
        out = {}
        for (_p, c), d in res.exec_result.value_digests.items():
            assert out.setdefault(c, d) == d
        return out

    base, _ = _run(host, steps, plan, None)
    poly, tl = _run(host, steps, plan, policy)
    assert poly.verified
    assert col_digests(poly) == col_digests(base)
    # The telemetry cross-check holds on every drawn plan.
    tl.reconcile(poly.exec_result.stats)


@given(
    st.integers(min_value=8, max_value=24),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_steal_rebalance_seeded_determinism(n, plan_seed, steal_seed):
    host = HostArray.uniform(n, delay=2)
    plan = FaultPlan.random(
        n, seed=plan_seed, horizon=64, jitter_rate=0.6, max_jitter=8
    )
    from repro.core.killing import kill_and_label
    from repro.core.assignment import assign_databases

    asg = assign_databases(kill_and_label(host, 4.0), 1)
    out1, moves1 = steal_rebalance(asg, host, faults=plan, seed=steal_seed)
    out2, moves2 = steal_rebalance(asg, host, faults=plan, seed=steal_seed)
    assert moves1 == moves2 and out1.ranges == out2.ranges
    out1.validate()
    assert sorted(out1.owners()) == sorted(asg.owners())
