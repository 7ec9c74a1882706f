"""Differential tests: the segmented faulted dense tier must be
bit-identical to GreedyExecutor under scripted faults.

:class:`~repro.core.dense_faults.FaultedDenseExecutor` replays each
fault-free stretch of a run with the vectorised watermark skeleton and
falls back to scalar stepping only inside recovery epochs, so these
tests compare *everything* a faulted run produces — stats, value
digests, replicas, telemetry timelines, and (for runs that cannot
finish) the deadlock diagnostics — across line, ring and graph hosts.

The CI ``tests`` job fails when any test is skipped, so keep these
dependency-light and fast.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.assignment import assign_databases
from repro.core.composed import simulate_composed
from repro.core.dense import DenseExecutor, build_executor
from repro.core.dense_faults import ExecutorCheckpoint, FaultedDenseExecutor
from repro.core.executor import GreedyExecutor, SimulationDeadlock
from repro.core.killing import kill_and_label
from repro.core.overlap import simulate_overlap, simulate_overlap_on_graph
from repro.core.ring import simulate_ring
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram, get_program
from repro.netsim.faults import FaultPlan
from repro.telemetry import MetricsTimeline
from repro.topology.delays import scale_to_average, uniform_delays
from repro.topology.generators import mesh_host, now_cluster_host, tree_host

# ---------------------------------------------------------------------------
# helpers


def _random_host(n: int, d_ave: float, seed: int) -> HostArray:
    rng = np.random.default_rng(seed)
    return HostArray(scale_to_average(uniform_delays(n - 1, rng, 1, 8), d_ave))


def _stats_dict(result):
    return dict(result.stats.__dict__)


def _telemetry_dict(timeline):
    """Timeline contents minus ``meta`` (whose ``engine`` tag differs)."""
    d = timeline.as_dict()
    d.pop("meta", None)
    return d


def _run_both(run_one):
    """Run ``run_one(engine, timeline)`` on both tiers; compare outcomes.

    Returns the two results on success.  If one engine deadlocks, both
    must, with identical diagnostics.
    """
    outcomes = []
    for eng in ("greedy", "auto"):
        tl = MetricsTimeline()
        try:
            outcomes.append(("ok", run_one(eng, tl), tl))
        except SimulationDeadlock as exc:
            outcomes.append(
                ("dead", (str(exc), exc.pending, exc.undelivered, exc.fault_log), tl)
            )
    (kind_g, out_g, tl_g), (kind_d, out_d, tl_d) = outcomes
    assert kind_g == kind_d, f"greedy={kind_g} dense={kind_d}"
    if kind_g == "dead":
        assert out_d == out_g, "deadlock diagnostics diverge"
        return None, None
    assert _stats_dict(out_d.exec_result) == _stats_dict(out_g.exec_result)
    assert out_d.exec_result.value_digests == out_g.exec_result.value_digests
    reps_g, reps_d = out_g.exec_result.replicas, out_d.exec_result.replicas
    assert reps_d.keys() == reps_g.keys()
    for key, rep in reps_g.items():
        other = reps_d[key]
        assert (other.column, other.version, other.digest) == (
            rep.column,
            rep.version,
            rep.digest,
        ), key
        assert other.state == rep.state, key
    assert _telemetry_dict(tl_d) == _telemetry_dict(tl_g)
    assert out_d.engine == "dense"
    assert out_g.engine == "greedy"
    return out_g, out_d


# ---------------------------------------------------------------------------
# line hosts: full fault mix (crashes + outages + jitter + drops)

FAULTED_LINE_GRID = [
    # (n, d_ave, steps, min_copies, seed, crash, outage, jitter, drop)
    (16, 2.0, 16, 2, 0, 0.08, 0.10, 0.20, 0.20),
    (24, 3.0, 24, 2, 1, 0.08, 0.10, 0.20, 0.20),
    (24, 3.0, 24, 2, 2, 0.00, 0.15, 0.25, 0.25),  # link-only
    (32, 4.0, 24, 2, 3, 0.10, 0.10, 0.15, 0.15),
    (33, 5.0, 32, 2, 4, 0.06, 0.12, 0.20, 0.20),
    (40, 2.0, 24, 3, 5, 0.08, 0.10, 0.20, 0.20),
    (24, 3.0, 16, 2, 6, 0.15, 0.00, 0.00, 0.00),  # crash-only
    (24, 3.0, 16, 1, 7, 0.00, 0.10, 0.20, 0.30),  # single-copy, link-only
]


@pytest.mark.parametrize(
    "n,d_ave,steps,copies,seed,crash,outage,jitter,drop", FAULTED_LINE_GRID
)
def test_differential_faulted_line(
    n, d_ave, steps, copies, seed, crash, outage, jitter, drop
):
    host = _random_host(n, d_ave, seed)
    horizon = steps * (2 * int(d_ave) + 4)
    plan = FaultPlan.random(
        n,
        seed=1000 + seed,
        horizon=horizon,
        node_crash_rate=crash,
        link_outage_rate=outage,
        jitter_rate=jitter,
        drop_rate=drop,
    )
    _run_both(
        lambda eng, tl: simulate_overlap(
            host,
            steps=steps,
            min_copies=copies,
            faults=plan,
            engine=eng,
            telemetry=tl,
        )
    )


# ---------------------------------------------------------------------------
# ring guests: link-level faults through the dep_map wiring


def _link_plan(n: int, seed: int) -> FaultPlan:
    rng = np.random.default_rng(seed)
    plan = FaultPlan()
    for _ in range(int(rng.integers(1, 4))):
        link = int(rng.integers(0, n - 1))
        plan.link_down(link, int(rng.integers(1, 80)), int(rng.integers(2, 14)))
    for _ in range(int(rng.integers(0, 3))):
        plan.jitter(
            int(rng.integers(0, n - 1)),
            int(rng.integers(0, 80)),
            int(rng.integers(2, 12)),
            int(rng.integers(1, 6)),
        )
    for _ in range(int(rng.integers(0, 4))):
        plan.drop(
            int(rng.integers(0, n - 1)),
            int(rng.integers(1, 80)),
            direction=int(rng.choice([1, -1])),
        )
    return plan


RING_FAULT_GRID = [
    # (n, copies, program, seed)
    (16, 2, "counter", 0),
    (24, 2, "counter", 1),
    (24, 1, "counter", 2),
    (32, 2, "hashchain", 3),
    (32, 3, "token", 4),
]


@pytest.mark.parametrize("n,copies,prog,seed", RING_FAULT_GRID)
def test_differential_faulted_ring(n, copies, prog, seed):
    from repro.core.ring import simulate_ring

    host = _random_host(n, 3.0, 50 + seed)
    plan = _link_plan(n, 500 + seed)

    def run_one(eng, tl):
        return simulate_ring(
            host,
            m=n,
            steps=16,
            program=get_program(prog),
            copies=copies,
            engine=eng,
            telemetry=tl,
            faults=plan,
        )

    _run_both(run_one)


def test_ring_crash_rejected_on_both_engines():
    """Node crashes on a dep_map guest raise identically on both tiers:
    recovery reassignment assumes the standard array adjacency."""
    from repro.core.ring import simulate_ring

    host = HostArray.uniform(16, 2)
    plan = FaultPlan().crash(4, 10)
    for eng in ("greedy", "auto", "dense"):
        with pytest.raises(ValueError, match="dep_map"):
            simulate_ring(host, m=16, steps=8, copies=2, engine=eng, faults=plan)


# ---------------------------------------------------------------------------
# graph hosts: full fault mix in embedded-array coordinates


def _graph_hosts():
    rng = np.random.default_rng(7)
    yield mesh_host(4, 4, uniform_delays(24, rng, 1, 6))
    yield tree_host(3, uniform_delays(14, rng, 1, 6))
    yield now_cluster_host(3, 4, intra_delay=1, inter_delay=8)


@pytest.mark.parametrize("host", list(_graph_hosts()), ids=lambda h: h.name)
def test_differential_faulted_graph(host):
    plan = FaultPlan.random(
        host.n,
        seed=hash(host.name) % 1000,
        horizon=300,
        node_crash_rate=0.06,
        link_outage_rate=0.10,
        jitter_rate=0.15,
        drop_rate=0.15,
    )
    _run_both(
        lambda eng, tl: simulate_overlap_on_graph(
            host, steps=24, min_copies=2, faults=plan, engine=eng, telemetry=tl
        )
    )


def test_faulted_composed_engines_agree():
    from repro.core.composed import simulate_composed

    host = HostArray.uniform(24, 4)
    plan = FaultPlan.random(
        24,
        seed=42,
        horizon=2000,
        node_crash_rate=0.05,
        link_outage_rate=0.08,
        jitter_rate=0.10,
        drop_rate=0.10,
    )
    greedy = simulate_composed(host, steps=12, engine="greedy", faults=plan)
    dense = simulate_composed(host, steps=12, engine="auto", faults=plan)
    assert dense.engine == "dense" and greedy.engine == "greedy"
    assert greedy.verified and dense.verified
    assert _stats_dict(dense.exec_result) == _stats_dict(greedy.exec_result)
    assert dense.exec_result.value_digests == greedy.exec_result.value_digests


# ---------------------------------------------------------------------------
# engine selection and verification under faults


def test_faulted_auto_resolves_dense():
    host = _random_host(16, 2.0, 90)
    assignment = assign_databases(kill_and_label(host), 1, min_copies=2)
    plan = FaultPlan().crash(3, 10).link_down(2, 5, 10)

    def build(**kwargs):
        return build_executor(
            "auto", host, assignment, CounterProgram(), 8, faults=plan, **kwargs
        )

    assert isinstance(build(), FaultedDenseExecutor)
    # Racing stays on the faulted dense tier, equal to the greedy oracle.
    racing = build(exec_policy="racing")
    assert isinstance(racing, FaultedDenseExecutor)
    oracle = build_executor(
        "greedy", host, assignment, CounterProgram(), 8, faults=plan,
        exec_policy="racing",
    )
    result, expected = racing.run(), oracle.run()
    assert _stats_dict(result) == _stats_dict(expected)
    assert result.value_digests == expected.value_digests


def test_build_executor_faulted_dispatch():
    host = _random_host(16, 2.0, 90)
    killing = kill_and_label(host)
    assignment = assign_databases(killing, 1, min_copies=2)
    prog = CounterProgram()
    plan = FaultPlan().link_down(3, 4, 6)
    ex = build_executor("auto", host, assignment, prog, 8, faults=plan)
    assert isinstance(ex, FaultedDenseExecutor)
    ex = build_executor(
        "auto", host, assignment, prog, 8, faults=FaultPlan.empty()
    )
    assert isinstance(ex, DenseExecutor)
    assert not isinstance(ex, FaultedDenseExecutor)
    ex = build_executor("greedy", host, assignment, prog, 8, faults=plan)
    assert isinstance(ex, GreedyExecutor)


def test_faulted_dense_verifies_against_reference():
    host = _random_host(32, 3.0, 91)
    plan = FaultPlan.random(
        host.n, seed=9, horizon=200, link_outage_rate=0.1, drop_rate=0.2
    )
    res = simulate_overlap(
        host, steps=16, min_copies=2, faults=plan, engine="auto", verify=True
    )
    assert res.verified and res.engine == "dense"


# ---------------------------------------------------------------------------
# deadlock equivalence: when a run cannot finish, both tiers must fail
# with the same diagnostics


def test_faulted_deadlock_diagnostics_agree():
    host = HostArray.uniform(12, 2)
    # Permanent bidirectional outage on a middle link with single-copy
    # replicas: downstream subscriptions can never be served.
    plan = FaultPlan().link_down(5, 2)

    def run_one(eng, tl):
        return simulate_overlap(
            host,
            steps=8,
            faults=plan,
            engine=eng,
            telemetry=tl,
            verify=False,
        )

    out_g, out_d = _run_both(run_one)
    assert out_g is None and out_d is None  # both deadlocked, identically


# ---------------------------------------------------------------------------
# satellite regression: no-op fault plans must not leave the dense tier
# (one case per event kind), and effect-free runs are bit-identical to
# truly fault-free ones


def _zero_extra_jitter_plan() -> FaultPlan:
    # The builder rejects extra < 1, so a zero-extra window can only
    # come from a hand-rolled event; the compile-time filter is the
    # defensive net for exactly that case.
    from repro.netsim.faults import LINK_JITTER, FaultEvent

    ev = FaultEvent(LINK_JITTER, 5, 2, 10, 1)
    object.__setattr__(ev, "extra", 0)
    return FaultPlan([ev])


def _noop_plans():
    yield "crash-past-horizon", FaultPlan().crash(3, 500).declare_horizon(100)
    yield "outage-past-horizon", FaultPlan().link_down(2, 500, 10).declare_horizon(100)
    yield "jitter-past-horizon", FaultPlan().jitter(2, 500, 10, 4).declare_horizon(100)
    yield "drop-past-horizon", FaultPlan().drop(2, 500).declare_horizon(100)
    yield "jitter-zero-extra", _zero_extra_jitter_plan()


@pytest.mark.parametrize(
    "label,plan", list(_noop_plans()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_noop_plan_stays_dense(label, plan):
    host = HostArray.uniform(16, 2)
    assert not plan.is_empty  # the plan has events...
    assert plan.compile(host).is_effect_free  # ...but they compile away
    baseline = simulate_overlap(host, steps=12, engine="auto")
    res = simulate_overlap(host, steps=12, faults=plan, engine="auto")
    assert res.engine == "dense"
    assert _stats_dict(res.exec_result) == _stats_dict(baseline.exec_result)
    assert (
        res.exec_result.value_digests == baseline.exec_result.value_digests
    )
    greedy = simulate_overlap(host, steps=12, faults=plan, engine="greedy")
    assert _stats_dict(greedy.exec_result) == _stats_dict(baseline.exec_result)


def test_noop_plan_still_validates_targets():
    host = HostArray.uniform(8, 2)
    bad = FaultPlan().crash(99, 500).declare_horizon(100)
    with pytest.raises(ValueError, match="crash target"):
        bad.compile(host)
    bad = FaultPlan().link_down(99, 500, 5).declare_horizon(100)
    with pytest.raises(ValueError, match="link target"):
        bad.compile(host)


# ---------------------------------------------------------------------------
# checkpoints: given a stride, the segmented executor also snapshots
# state at every fault boundary (the reusable hook for incremental
# re-simulation)


def test_checkpoints_captured_at_boundaries():
    host = HostArray.uniform(24, 3)
    killing = kill_and_label(host, 4.0)
    assignment = assign_databases(killing, 1, min_copies=2)
    plan = FaultPlan().crash(5, 40).link_down(3, 10, 15)
    # A stride longer than the run: only boundary and resume captures.
    ex = FaultedDenseExecutor(
        host, assignment, CounterProgram(), 64, faults=plan,
        checkpoint_stride=10**6,
    )
    result = ex.run()
    assert result.stats.makespan > 0
    assert ex.checkpoints, "no checkpoints captured"
    for cp in ex.checkpoints:
        assert isinstance(cp, ExecutorCheckpoint)
        assert cp.label in ("fault-boundary", "resume")
        assert 0 <= cp.time <= result.stats.makespan
        assert cp.remaining >= 0
    times = [cp.time for cp in ex.checkpoints]
    assert times == sorted(times)
    # The crash boundary and the post-recovery resume are both present.
    assert any(cp.label == "resume" for cp in ex.checkpoints)
    boundary_times = {cp.time for cp in ex.checkpoints}
    assert 10 in boundary_times or 25 in boundary_times or 40 in boundary_times


# ---------------------------------------------------------------------------
# racing: the dense tier replays greedy's race (fanout subscriptions,
# cancellation at the source and at each relay hop, raced wins and
# losses) bit for bit, clean and under every fault kind


def _race_plan(kind: str, n: int, seed: int, crashes: bool = True):
    rates = {
        "clean": None,
        "jitter": dict(jitter_rate=0.6),
        "drops": dict(jitter_rate=0.6, drop_rate=0.3),
        "mix": dict(
            node_crash_rate=0.08 if crashes else 0.0,
            link_outage_rate=0.10,
            jitter_rate=0.20,
            drop_rate=0.20,
        ),
    }[kind]
    if rates is None:
        return None
    return FaultPlan.random(n, seed=seed, horizon=240, max_jitter=10, **rates)


#: host -> (run(**kwargs), positions a fault plan addresses, crashes allowed)
RACE_HOSTS = {
    "line": (
        lambda **kw: simulate_overlap(
            _random_host(24, 3.0, 60), steps=12, min_copies=2, **kw
        ),
        24,
        True,
    ),
    # link faults only: node crashes need the plain array adjacency
    "ring": (
        lambda **kw: simulate_ring(
            _random_host(24, 3.0, 61), m=24, steps=12, copies=2, **kw
        ),
        24,
        False,
    ),
    "composed": (
        lambda **kw: simulate_composed(HostArray.uniform(24, 4), steps=8, **kw),
        24,
        True,
    ),
    "mesh": (
        lambda **kw: simulate_overlap_on_graph(
            mesh_host(4, 4, uniform_delays(24, np.random.default_rng(5), 1, 6)),
            steps=12,
            min_copies=2,
            **kw,
        ),
        16,
        True,
    ),
}


@pytest.mark.parametrize("bw", [None, 1], ids=["bw-default", "bw-1"])
@pytest.mark.parametrize("kind", ["clean", "jitter", "drops", "mix"])
@pytest.mark.parametrize("policy", ["racing", "racing+stealing"])
@pytest.mark.parametrize("host", sorted(RACE_HOSTS))
def test_differential_racing(host, policy, kind, bw):
    run, n, crashes = RACE_HOSTS[host]
    plan = _race_plan(kind, n, seed=600 + n, crashes=crashes)
    out_g, out_d = _run_both(
        lambda eng, tl: run(
            bandwidth=bw, faults=plan, policy=policy, engine=eng, telemetry=tl
        )
    )
    if out_d is not None:
        extras = out_d.exec_result.stats.extras
        assert list(extras) == list(out_g.exec_result.stats.extras)
        assert extras["raced_wins"] > 0
        assert {"cancelled_messages", "raced_losses"} <= extras.keys()


def test_racing_deadlock_diagnostics_agree():
    # A permanent outage on a middle link cuts every raced replica off
    # from the far side: both tiers deadlock with the same diagnostics.
    host = HostArray.uniform(12, 2)
    plan = FaultPlan().link_down(5, 2)

    def run_one(eng, tl):
        return simulate_overlap(
            host,
            steps=8,
            min_copies=2,
            faults=plan,
            policy="racing",
            engine=eng,
            telemetry=tl,
            verify=False,
        )

    out_g, out_d = _run_both(run_one)
    assert out_g is None and out_d is None


@pytest.mark.parametrize(
    "plan",
    [
        None,
        FaultPlan()
        .crash(5, 20)
        .link_down(3, 10, 6)
        .jitter(7, 4, 12, 3)
        .drop(10, 15),
    ],
    ids=["clean", "faulted"],
)
def test_racing_resume_every_checkpoint_bit_identical(plan):
    """Every stride checkpoint of a racing run, JSON round-tripped and
    resumed, ends equal to the full run, racing counters included."""

    def run(resume_from=None, telemetry=None):
        return simulate_overlap(
            HostArray.uniform(16, delay=3),
            steps=12,
            min_copies=2,
            faults=plan,
            policy="racing",
            telemetry=telemetry,
            checkpoint_stride=8,
            resume_from=resume_from,
        )

    tl = MetricsTimeline()
    base = run(telemetry=tl)
    extras = base.exec_result.stats.extras
    assert extras["cancelled_messages"] and extras["raced_wins"]
    assert extras["raced_losses"]
    strides = [ck for ck in base.checkpoints if ck.label == "stride"]
    assert len(strides) > 2
    for ck in strides:
        blob = json.loads(json.dumps(ck.to_json()))
        tl2 = MetricsTimeline()
        res = run(ExecutorCheckpoint.from_json(blob), telemetry=tl2)
        assert _stats_dict(res.exec_result) == _stats_dict(base.exec_result), (
            f"stats diverge from t={ck.time}"
        )
        assert res.exec_result.value_digests == base.exec_result.value_digests
        assert _telemetry_dict(tl2) == _telemetry_dict(tl)
