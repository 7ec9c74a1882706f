"""The fault-injection layer: plans, tables, fabrics, determinism."""

import pytest

from repro.core.assignment import assign_databases
from repro.core.executor import GreedyExecutor
from repro.core.killing import kill_and_label
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram
from repro.netsim.fabric import LineFabric
from repro.netsim.faults import (
    LOST,
    FaultEvent,
    FaultPlan,
    FaultTables,
    RecoveryPolicy,
)
from repro.netsim.stats import SimStats
from repro.telemetry import MetricsTimeline


# -- events and plans -----------------------------------------------------


def test_fault_event_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent("meteor", 0, 0)
    with pytest.raises(ValueError, match="time"):
        FaultEvent("node_crash", -1, 0)
    with pytest.raises(ValueError, match="duration"):
        FaultEvent("link_down", 0, 0, duration=0)
    with pytest.raises(ValueError, match="jitter"):
        FaultEvent("link_jitter", 0, 0, duration=4, extra=0)
    with pytest.raises(ValueError, match="direction"):
        FaultEvent("msg_drop", 0, 0, direction=2)


def test_plan_builders_chain_and_count():
    plan = (
        FaultPlan()
        .crash(3, 10)
        .link_down(1, 5, duration=8)
        .jitter(2, 0, 16, 3)
        .drop(0, 7, direction=-1)
    )
    assert len(plan) == 4
    assert plan.counts() == {
        "node_crash": 1,
        "link_down": 1,
        "link_jitter": 1,
        "msg_drop": 1,
    }
    assert plan.crash_positions() == {3}
    assert not plan.is_empty
    assert FaultPlan.empty().is_empty
    assert "crash node 3" in plan.describe()


def test_random_plan_is_seed_deterministic():
    kwargs = dict(
        n=32, horizon=64, node_crash_rate=0.2, link_outage_rate=0.2,
        jitter_rate=0.2, drop_rate=0.2,
    )
    a = FaultPlan.random(seed=7, **kwargs)
    b = FaultPlan.random(seed=7, **kwargs)
    c = FaultPlan.random(seed=8, **kwargs)
    assert a.events == b.events
    assert a.events != c.events
    assert a.seed == 7


def test_plan_target_validation_at_compile():
    host = HostArray.uniform(8)
    with pytest.raises(ValueError, match="crash target"):
        FaultPlan().crash(8, 0).compile(host)
    with pytest.raises(ValueError, match="link target"):
        FaultPlan().link_down(7, 0).compile(host)  # links are 0..6


# -- compiled tables ------------------------------------------------------


def test_outage_window_and_permanence():
    plan = FaultPlan().link_down(0, 10, duration=5).link_down(1, 20)
    tables = FaultTables(plan, n=4)
    assert tables.link_outcome(0, 1, 9) == 0
    assert tables.link_outcome(0, 1, 10) is LOST
    assert tables.link_outcome(0, 1, 14) is LOST
    assert tables.link_outcome(0, 1, 15) == 0
    # permanent outage never ends; both directions affected
    assert tables.link_outcome(1, 1, 10_000) is LOST
    assert tables.link_outcome(1, -1, 10_000) is LOST
    assert tables.has_link_faults()


def test_one_shot_drop_consumed_once_per_compile():
    plan = FaultPlan().drop(0, 5, direction=1)
    tables = FaultTables(plan, n=2)
    assert tables.link_outcome(0, -1, 6) == 0  # other direction untouched
    assert tables.link_outcome(0, 1, 6) is LOST
    assert tables.link_outcome(0, 1, 7) == 0  # consumed
    # a fresh compile replays the same fate — plans are reusable
    again = FaultTables(plan, n=2)
    assert again.link_outcome(0, 1, 6) is LOST


def test_jitter_adds_extra_delay_in_window():
    plan = FaultPlan().jitter(0, 10, 10, extra=3)
    tables = FaultTables(plan, n=2)
    assert tables.link_outcome(0, 1, 9) == 0
    assert tables.link_outcome(0, 1, 12) == 3
    assert tables.link_outcome(0, 1, 20) == 0


def test_crash_times_keep_earliest():
    plan = FaultPlan().crash(2, 30).crash(2, 10)
    tables = FaultTables(plan, n=4)
    assert tables.crash_times == {2: 10}


# -- fault-aware fabrics --------------------------------------------------


def test_linefabric_hop_faulty_lost_consumes_slot():
    fabric = LineFabric([2, 2], bandwidth=1)
    fabric.attach_faults(FaultTables(FaultPlan().link_down(0, 0, duration=100), 3))
    assert fabric.hop_faulty(0, +1, 0) is LOST
    # The doomed injection still occupied a slot: the next send queues
    # behind it exactly as a successful one would have.
    assert fabric.total_injections == 1
    assert fabric.hop_faulty(1, +1, 0) == 2  # other link unaffected


def test_linefabric_hop_faulty_jitter_inflates_arrival():
    fabric = LineFabric([2], bandwidth=4)
    fabric.attach_faults(FaultTables(FaultPlan().jitter(0, 0, 50, 5), 2))
    assert fabric.hop_faulty(0, +1, 0) == 2 + 5
    fabric2 = LineFabric([2], bandwidth=4)
    assert fabric2.hop(0, +1, 0) == 2  # same send, no faults


# -- recovery policy ------------------------------------------------------


def test_recovery_policy_validation_and_timeout():
    with pytest.raises(ValueError):
        RecoveryPolicy(retry_factor=0)
    with pytest.raises(ValueError):
        RecoveryPolicy(max_retries=0)
    with pytest.raises(ValueError):
        RecoveryPolicy(restart_penalty=-1)
    with pytest.raises(ValueError):
        RecoveryPolicy(watchdog_factor=0.5)
    policy = RecoveryPolicy(retry_factor=3.0)
    assert policy.timeout(10) == 30
    assert policy.timeout(0) >= 4  # floored


# -- determinism ----------------------------------------------------------


def _run_with_plan(plan, telemetry=None):
    host = HostArray.uniform(32)
    killing = kill_and_label(host)
    assignment = assign_databases(killing, min_copies=2)
    ex = GreedyExecutor(
        host, assignment, CounterProgram(), 6, faults=plan, telemetry=telemetry
    )
    return ex.run()


def test_identical_plan_gives_byte_identical_runs():
    plan = FaultPlan.random(
        32, seed=11, horizon=40, node_crash_rate=0.1, drop_rate=0.1
    )
    t1, t2 = MetricsTimeline(), MetricsTimeline()
    r1 = _run_with_plan(plan, t1)
    r2 = _run_with_plan(plan, t2)
    assert t1.records == t2.records
    assert t1.faults == t2.faults
    assert r1.value_digests == r2.value_digests
    assert r1.stats.as_dict() == r2.stats.as_dict()
    assert {k: (d.version, d.digest) for k, d in r1.replicas.items()} == {
        k: (d.version, d.digest) for k, d in r2.replicas.items()
    }


def test_empty_plan_bit_identical_to_fault_free():
    host = HostArray.uniform(32)
    killing = kill_and_label(host)
    assignment = assign_databases(killing, min_copies=2)
    prog = CounterProgram()
    t_plain, t_empty = MetricsTimeline(), MetricsTimeline()
    plain = GreedyExecutor(host, assignment, prog, 6, telemetry=t_plain).run()
    empty = GreedyExecutor(
        host, assignment, prog, 6, telemetry=t_empty, faults=FaultPlan.empty()
    ).run()
    assert t_plain.records == t_empty.records
    assert t_empty.faults == []
    assert plain.stats.makespan == empty.stats.makespan
    assert plain.stats.as_dict() == empty.stats.as_dict()
    assert plain.value_digests == empty.value_digests


# -- stats / trace surfacing ----------------------------------------------


def test_stats_fault_counters_merge_and_dict():
    s = SimStats(
        faults_injected=3,
        retries=3,
        recoveries=1,
        crashed_nodes=1,
        lost_messages=4,
        columns_lost=5,
    )
    d = s.as_dict()
    assert d["faults_injected"] == 3
    assert d["retries"] == 3
    assert d["lost_messages"] == 4
    assert d["recoveries"] == 1
    assert d["columns_lost"] == 5
    assert d["crashed_nodes"] == 1


def test_trace_fault_marks_summary():
    t = MetricsTimeline()
    t.pebble(1, 0, 1, 1)
    assert "fault_marks" not in t.run_summary()
    t.fault(3, "crash", "node 2")
    t.fault(5, "recovery", "epoch 1")
    t.fault(9, "retry", "7 col 3 from 9")
    s = t.run_summary()
    assert s["fault_marks"] == 3
    assert s["fault_kinds"] == {"crash": 1, "recovery": 1, "retry": 1}
