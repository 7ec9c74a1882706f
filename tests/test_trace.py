"""Execution tracing: the pebble records of a run's timeline."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.executor import GreedyExecutor
from repro.core.overlap import simulate_overlap, simulate_overlap_on_graph
from repro.core.ring import simulate_ring
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram, get_program, list_programs
from repro.netsim.faults import FaultPlan
from repro.telemetry import MetricsTimeline
from repro.topology.delays import scale_to_average, uniform_delays
from repro.topology.generators import mesh_host


def traced_run(delays=(4, 4, 4), steps=6):
    host = HostArray(list(delays))
    n = host.n
    asg = Assignment([(i + 1, i + 1) for i in range(n)], n)
    trace = MetricsTimeline()
    GreedyExecutor(host, asg, CounterProgram(), steps, telemetry=trace).run()
    return trace, n, steps


def test_records_every_pebble():
    trace, n, steps = traced_run()
    assert len(trace.records) == n * steps


def test_makespan_matches_latest_record():
    trace, _, _ = traced_run()
    assert trace.makespan == max(r[0] for r in trace.records)


def test_row_completion_monotone():
    trace, _, steps = traced_run()
    times = trace.row_completion_times()
    assert sorted(times) == list(range(1, steps + 1))
    ordered = [times[t] for t in sorted(times)]
    assert ordered == sorted(ordered)


def test_per_row_slowdown_sums_to_makespan():
    trace, _, _ = traced_run()
    per_row = trace.per_row_slowdown()
    assert sum(step for _, step in per_row) == trace.makespan


def test_utilization_bounds():
    trace, n, _ = traced_run()
    util = trace.utilization(list(range(n)))
    assert len(util) == n
    assert all(0 <= u <= 1 for u in util.values())
    assert any(u > 0 for u in util.values())


def test_spacetime_ascii_shape():
    trace, n, _ = traced_run()
    art = trace.spacetime_ascii(n, width=8, height=6)
    lines = art.splitlines()
    assert len(lines) == 6
    assert all("|" in line for line in lines)
    # Activity must appear somewhere.
    assert any(ch not in " |t=0123456789" for line in lines for ch in line)


def test_empty_trace():
    t = MetricsTimeline()
    assert t.makespan == 0
    assert t.spacetime_ascii(4) == "(empty trace)"
    assert t.run_summary()["pebbles"] == 0


def test_summary_keys():
    trace, _, steps = traced_run()
    s = trace.run_summary()
    assert s["rows_completed"] == steps
    assert s["pebbles"] == len(trace.records)
    assert 0 < s["mean_utilization"] <= 1


def test_wavefront_shows_latency_pauses():
    """On a host with one huge link and no redundancy window, rows pay
    the link every step: per-row increments reflect it."""
    trace, _, _ = traced_run(delays=(1, 64, 1), steps=5)
    per_row = trace.per_row_slowdown()
    # After row 1 (free, from row 0), each row waits on the long link.
    late_rows = [inc for row, inc in per_row if row >= 2]
    assert all(inc >= 64 for inc in late_rows)


# -- the dense tier records what the greedy tier records ----------------


def _line_host(n=40, seed=1):
    rng = np.random.default_rng(seed)
    return HostArray(scale_to_average(uniform_delays(n - 1, rng, 1, 8), 3.0))


_PLANS = {
    "crash": lambda: FaultPlan().crash(13, 12),
    "outage": lambda: FaultPlan.random(40, seed=5, horizon=60, link_outage_rate=0.2),
    "jitter": lambda: FaultPlan.random(40, seed=6, horizon=60, jitter_rate=0.3),
    "drop": lambda: FaultPlan.random(40, seed=7, horizon=60, drop_rate=0.2),
    "mixed": lambda: FaultPlan.random(
        40, seed=8, horizon=60, node_crash_rate=0.05, link_outage_rate=0.1,
        jitter_rate=0.1, drop_rate=0.1,
    ),
}

# name -> run(engine, timeline)
CROSS_TIER_RUNS = {
    **{
        f"line_{prog}": lambda engine, tl, prog=prog: simulate_overlap(
            _line_host(), get_program(prog), steps=6, block=2,
            engine=engine, telemetry=tl,
        )
        for prog in list_programs()
    },
    **{
        f"ring_{copies}_copies": lambda engine, tl, copies=copies: simulate_ring(
            HostArray([2, 1, 3, 1, 4, 2, 1, 3, 2, 1, 2, 3, 1, 2, 1]), m=16,
            steps=6, copies=copies, engine=engine, telemetry=tl,
        )
        for copies in (1, 2)
    },
    "mesh_fact3": lambda engine, tl: simulate_overlap_on_graph(
        mesh_host(4, 4, uniform_delays(24, np.random.default_rng(5), 1, 6)),
        steps=6, engine=engine, telemetry=tl,
    ),
    **{
        f"faulted_line_{kind}": lambda engine, tl, plan=plan: simulate_overlap(
            _line_host(), steps=8, block=2, min_copies=2, faults=plan(),
            engine=engine, telemetry=tl,
        )
        for kind, plan in _PLANS.items()
    },
}


@pytest.mark.parametrize("name", sorted(CROSS_TIER_RUNS))
def test_dense_records_equal_greedy(name):
    greedy, dense = MetricsTimeline(), MetricsTimeline()
    CROSS_TIER_RUNS[name]("greedy", greedy)
    CROSS_TIER_RUNS[name]("dense", dense)
    assert greedy.records
    assert dense.records == greedy.records
    assert dense.faults == greedy.faults
