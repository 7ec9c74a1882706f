"""Execution policies: redundant-issue racing and work stealing.

Differential suite (no hypothesis import — the bench-smoke zero-skip
gate runs this file alongside tests/test_dense*.py): racing and
stealing may only ever change *when* pebbles complete, never their
values, so every policy run here is checked digest-identical to the
single-issue ground truth.  The seeded-grid property tests live in
``tests/test_racing_props.py``.
"""

from __future__ import annotations

import pytest

from repro.core.assignment import Assignment, steal_rebalance
from repro.core.overlap import simulate_overlap
from repro.core.racing import (
    DEFAULT_FANOUT,
    POLICIES,
    SINGLE,
    ExecPolicy,
    resolve_policy,
)
from repro.machine.host import HostArray
from repro.netsim.faults import FaultPlan, RecoveryPolicy
from repro.telemetry import MetricsTimeline


def _jitter_plan(n: int, seed: int = 7, horizon: int = 80) -> FaultPlan:
    return FaultPlan.random(
        n,
        seed=seed,
        horizon=horizon,
        jitter_rate=0.9,
        drop_rate=0.3,
        max_jitter=12,
    )


def _column_digests(res) -> dict[int, int]:
    """Per-column value digests (ownership-independent: replicated and
    stolen copies of a column must fold to the same digest)."""
    out: dict[int, int] = {}
    for (_p, c), d in res.exec_result.value_digests.items():
        if c in out:
            assert out[c] == d, f"replicas of column {c} disagree"
        else:
            out[c] = d
    return out


# -- policy resolution -------------------------------------------------


def test_policy_names_and_registry():
    assert SINGLE.is_single and SINGLE.name == "single"
    assert resolve_policy(None) is SINGLE
    assert resolve_policy("racing").racing
    assert resolve_policy("stealing").stealing
    both = resolve_policy("racing+stealing")
    assert both.racing and both.stealing
    assert both.name == "racing+stealing"
    # Registry aliases resolve to equal policies.
    assert POLICIES["stealing+racing"] == POLICIES["racing+stealing"]
    assert resolve_policy(ExecPolicy(racing=True)).racing


def test_resolve_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown execution policy"):
        resolve_policy("fastest")


def test_recovery_policy_as_policy_raises():
    # Recovery knobs go to recovery=; policy= names the execution policy.
    with pytest.raises(TypeError, match="recovery="):
        resolve_policy(RecoveryPolicy())
    host = HostArray.uniform(12)
    with pytest.raises(TypeError, match="recovery="):
        simulate_overlap(host, steps=4, policy=RecoveryPolicy())
    res = simulate_overlap(
        host, steps=4, policy="single", recovery=RecoveryPolicy()
    )
    assert res.verified


def test_racing_forces_greedy_dense_refuses():
    host = HostArray.uniform(12)
    res = simulate_overlap(host, steps=4, min_copies=2, policy="racing")
    assert res.engine == "greedy"
    with pytest.raises(ValueError, match="racing"):
        simulate_overlap(
            host, steps=4, min_copies=2, policy="racing", engine="dense"
        )


def test_racing_with_multicast_raises():
    from repro.core.executor import GreedyExecutor
    from repro.machine.programs import CounterProgram

    host = HostArray.uniform(12)
    asg = _skewed_assignment(12, 2, 0, heavy=())
    with pytest.raises(ValueError, match="mutually exclusive"):
        GreedyExecutor(
            host,
            asg,
            CounterProgram(),
            4,
            multicast=True,
            exec_policy="racing",
        )


# -- racing: values, counters, telemetry -------------------------------


def test_racing_digest_identical_to_single_issue():
    host = HostArray.uniform(24)
    plan = _jitter_plan(24)
    base = simulate_overlap(
        host, steps=8, min_copies=2, faults=plan, engine="greedy"
    )
    raced = simulate_overlap(
        host, steps=8, min_copies=2, faults=plan, policy="racing"
    )
    assert base.verified and raced.verified
    assert _column_digests(raced) == _column_digests(base)
    extras = raced.exec_result.stats.extras
    assert extras["raced_wins"] > 0
    assert raced.summary()["policy"] == "racing"


def test_racing_improves_tail_under_drops():
    host = HostArray.uniform(48)
    plan = _jitter_plan(48, seed=1996)
    p99 = {}
    for pol in ("single", "racing"):
        res = simulate_overlap(
            host, steps=16, min_copies=2, faults=plan, policy=pol
        )
        p99[pol] = res.exec_result.stats.step_latency_summary()["p99"]
    assert p99["racing"] < p99["single"]


def test_racing_counters_match_timeline():
    host = HostArray.uniform(24)
    tl = MetricsTimeline()
    res = simulate_overlap(
        host,
        steps=8,
        min_copies=2,
        faults=_jitter_plan(24),
        policy="racing",
        telemetry=tl,
    )
    stats = res.exec_result.stats
    assert tl.totals()["cancelled"] == stats.extras.get("cancelled_messages", 0)
    tl.reconcile(stats)  # cross-checks cancelled + step-latency samples
    lat = stats.step_latency_summary()
    assert lat["count"] == 8
    assert sum(stats.step_latency_samples()) == stats.makespan
    summary = tl.summary()
    assert summary["step_p99"] == lat["p99"]


def test_single_policy_run_records_no_racing_extras():
    host = HostArray.uniform(16)
    res = simulate_overlap(host, steps=4, min_copies=2)
    extras = res.exec_result.stats.extras
    assert "raced_wins" not in extras
    assert "cancelled_messages" not in extras
    assert "policy" not in res.summary()
    lat = res.exec_result.stats.step_latency_summary()
    assert lat is not None and lat["count"] == 4


# -- work stealing -----------------------------------------------------


def _skewed_assignment(n: int, per: int, extra: int, heavy: tuple) -> Assignment:
    sizes = [per + (extra if p in heavy else 0) for p in range(n)]
    ranges, lo = [], 1
    for s in sizes:
        ranges.append((lo, lo + s - 1))
        lo += s
    return Assignment(ranges, lo - 1)


def test_steal_rebalance_preserves_coverage_and_lowers_peak():
    host = HostArray.uniform(16, delay=2)
    asg = _skewed_assignment(16, 2, 6, heavy=(3, 11))
    out, moves = steal_rebalance(asg, host, seed=0)
    assert moves, "a 4x-overloaded victim must shed columns"
    out.validate()
    assert out.m == asg.m
    owners = out.owners()
    assert sorted(owners) == list(range(1, asg.m + 1))

    def peak(a: Assignment) -> int:
        return max(hi - lo + 1 for lo, hi in a.ranges if a is not None)

    assert peak(out) < peak(asg)
    for mv in moves:
        assert set(mv) == {"column", "victim", "thief"}


def test_steal_rebalance_deterministic_and_pure():
    host = HostArray.uniform(16, delay=2)
    asg = _skewed_assignment(16, 2, 6, heavy=(3, 11))
    before = list(asg.ranges)
    out1, moves1 = steal_rebalance(asg, host, seed=5)
    out2, moves2 = steal_rebalance(asg, host, seed=5)
    assert moves1 == moves2
    assert out1.ranges == out2.ranges
    assert asg.ranges == before  # input never mutated


def test_steal_rebalance_balanced_input_untouched():
    host = HostArray.uniform(8, delay=2)
    asg = _skewed_assignment(8, 3, 0, heavy=())
    out, moves = steal_rebalance(asg, host, seed=0)
    assert moves == []
    assert out is asg  # byte-identical single-policy runs


def test_steal_rebalance_max_moves():
    host = HostArray.uniform(16, delay=2)
    asg = _skewed_assignment(16, 2, 6, heavy=(3, 11))
    out, moves = steal_rebalance(asg, host, seed=0, max_moves=2)
    assert len(moves) == 2


def test_stealing_digest_identical_and_counted():
    host = HostArray.uniform(24)
    plan = _jitter_plan(24, seed=3)
    base = simulate_overlap(
        host, steps=8, min_copies=2, faults=plan, engine="greedy"
    )
    stolen = simulate_overlap(
        host, steps=8, min_copies=2, faults=plan, policy="stealing"
    )
    assert stolen.verified
    assert _column_digests(stolen) == _column_digests(base)
    if stolen.exec_result.stats.extras.get("steal_moves"):
        assert stolen.summary()["steal_moves"] > 0


def test_policy_default_fanout():
    assert DEFAULT_FANOUT == 2
    assert resolve_policy("racing").fanout == DEFAULT_FANOUT


# -- sweep integration -------------------------------------------------


def test_policy_sweep_identical_across_worker_counts():
    from repro.experiments.w1 import _policy_point
    from repro.runner import SweepRunner

    configs = [
        {
            "n": 16,
            "delay": 2,
            "steps": 4,
            "policy": pol,
            "max_jitter": 8,
            "jitter_rate": 0.9,
            "drop_rate": 0.3,
            "seed": 11,
            "horizon": 32,
        }
        for pol in ("single", "racing", "stealing", "racing+stealing")
    ]
    serial = SweepRunner(workers=1).map(_policy_point, configs)
    pooled = SweepRunner(workers=2).map(_policy_point, configs)
    assert pooled == serial
