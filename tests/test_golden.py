"""Golden regression pins.

Every run in this repository is deterministic, so a handful of exact
output values guard the whole stack against accidental semantic drift
(a changed mixing constant, a scheduling-order tweak, an off-by-one in
the pipelined-link model would all move these numbers).  If a change
*intentionally* alters semantics, update the pins in the same commit
and say why.
"""

import hashlib

import pytest

from repro.cli import main
from repro.core import simulate_2d_on_uniform_array
from repro.core.assignment import assign_databases
from repro.core.executor import GreedyExecutor
from repro.core.killing import kill_and_label
from repro.core.ndim import simulate_nd_on_uniform_array
from repro.core.overlap import simulate_overlap
from repro.core.ring import simulate_ring
from repro.core.uniform import simulate_uniform
from repro.machine.guest import GuestArray
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram
from repro.netsim.faults import FaultPlan
from repro.telemetry import MetricsTimeline

GOLDEN_HOST = [1, 5, 2, 9, 1, 3, 7, 2, 4, 6, 1, 8, 3, 2, 5]


def test_reference_grid_values_pinned():
    ref = GuestArray(8, CounterProgram()).run_reference(5)
    assert int(ref.values[5, 1]) == 3541152622121647128
    assert int(ref.values[5, 8]) == 17163625588304628634
    assert int(ref.update_digests[2]) == 6276431966630397882


def test_overlap_run_pinned():
    res = simulate_overlap(HostArray(GOLDEN_HOST, "golden"), steps=8, verify=False)
    stats = res.exec_result.stats
    assert res.m == 14
    assert stats.makespan == 47
    assert stats.pebbles == 240


def test_uniform_run_pinned():
    res = simulate_uniform(4, 16, steps=8, verify=False)
    assert res.exec_result.stats.makespan == 98


def test_ring_run_pinned():
    res = simulate_ring(HostArray.uniform(8, 3), steps=6, verify=False)
    assert res.exec_result.stats.makespan == 36


# -- slab simulator (Theorem 7 and its D-dimensional form) -------------
# Timing fields only: value digests depend on the guest program.
SLAB_CASES = {
    "2d_case1": (simulate_2d_on_uniform_array, (10, 10, 4), {"steps": 4},
                 (10, 1, 4, 72, 400, 1440)),
    "2d_case2": (simulate_2d_on_uniform_array, (12, 4, 9), {"steps": 6},
                 (4, 3, 6, 484, 1296, 1728)),
    "2d_partial_batch": (simulate_2d_on_uniform_array, (8, 2, 3), {"steps": 5},
                         (2, 4, 5, 324, 416, 448)),
    "2d_bw1": (simulate_2d_on_uniform_array, (24, 24, 8),
               {"steps": 4, "bandwidth": 1}, (24, 1, 4, 308, 2304, 8832)),
    "2d_default_steps": (simulate_2d_on_uniform_array, (16, 4, 16), {},
                         (4, 4, 8, 1166, 3200, 3840)),
    "3d": (simulate_nd_on_uniform_array, (6, 3, 2, 4), {"steps": 6},
           (2, 3, 6, 1302, 1728, 1728)),
    "4d": (simulate_nd_on_uniform_array, (4, 4, 2, 4), {"steps": 4},
           (2, 2, 4, 1030, 1280, 1536)),
}


@pytest.mark.parametrize("name", sorted(SLAB_CASES))
def test_slab_run_pinned(name):
    entry, args, kwargs, pins = SLAB_CASES[name]
    res = entry(*args, **kwargs)
    assert res.verified
    got = (res.n_procs, res.g, res.steps, res.makespan, res.pebbles,
           res.exchanged_cells)
    assert got == pins


def test_overlap_run_is_also_correct():
    # The pinned run, with full verification on (belt and braces).
    res = simulate_overlap(HostArray(GOLDEN_HOST, "golden"), steps=8, verify=True)
    assert res.verified


# -- greedy-only paths --------------------------------------------------
# Runs no dense differential covers: only the greedy engine executes
# them, so these pins are their regression net.  Each case runs with
# telemetry off and on; the stats must match either way.

GREEDY_HOST = GOLDEN_HOST + [2, 1, 4, 3, 1, 2, 6, 1, 3]
GREEDY_STEPS = 8


def _jitter_plan(n: int) -> FaultPlan:
    return FaultPlan.random(
        n, seed=7, horizon=80, jitter_rate=0.9, drop_rate=0.3, max_jitter=12
    )


def _direct(telemetry, **kwargs):
    host = HostArray(GREEDY_HOST, "greedy-golden")
    asg = assign_databases(kill_and_label(host), 1, min_copies=2)
    return GreedyExecutor(
        host, asg, CounterProgram(), GREEDY_STEPS, telemetry=telemetry, **kwargs
    ).run()


def _front(telemetry, **kwargs):
    host = HostArray(GREEDY_HOST, "greedy-golden")
    res = simulate_overlap(
        host, steps=GREEDY_STEPS, min_copies=2, engine="greedy",
        telemetry=telemetry, **kwargs,
    )
    assert res.verified
    return res.exec_result


GREEDY_CASES = {
    "multicast": lambda tl: _direct(tl, multicast=True),
    "tie_seed": lambda tl: _direct(tl, tie_seed=7),
    "trace": lambda tl: _direct(tl),
    "racing": lambda tl: _front(tl, policy="racing"),
    "racing_jitter": lambda tl: _front(
        tl, policy="racing", faults=_jitter_plan(len(GREEDY_HOST) + 1)
    ),
    "crash_recovery": lambda tl: _front(tl, faults=FaultPlan().crash(10, 5)),
}


def _run_greedy_case(name: str, telemetry: bool):
    tl = MetricsTimeline() if telemetry else None
    stats = GREEDY_CASES[name](tl).stats
    lat = stats.step_latency_summary()
    pins = {
        "makespan": stats.makespan,
        "messages": stats.messages,
        "pebble_hops": stats.pebble_hops,
        "lost_messages": stats.lost_messages,
        "faults_injected": stats.faults_injected,
        "recoveries": stats.recoveries,
        "step_p50": round(lat["p50"], 6),
        "step_p99": round(lat["p99"], 6),
    }
    for key in ("cancelled_messages", "raced_wins", "raced_losses"):
        if key in stats.extras:
            pins[key] = stats.extras[key]
    return pins, (tl.totals() if tl is not None else None)


_NO_RACE = {"lost_messages": 0, "faults_injected": 0, "recoveries": 0}
GREEDY_PINS = {
    "multicast": {"makespan": 51, "messages": 304, "pebble_hops": 352,
                  **_NO_RACE, "step_p50": 6.0, "step_p99": 10.86},
    "tie_seed": {"makespan": 50, "messages": 352, "pebble_hops": 400,
                 **_NO_RACE, "step_p50": 5.5, "step_p99": 10.86},
    "trace": {"makespan": 51, "messages": 352, "pebble_hops": 400,
              **_NO_RACE, "step_p50": 6.0, "step_p99": 10.86},
    "racing": {"makespan": 50, "messages": 693, "pebble_hops": 1050,
               **_NO_RACE, "step_p50": 5.5, "step_p99": 10.86,
               "cancelled_messages": 93, "raced_wins": 352,
               "raced_losses": 259},
    "racing_jitter": {"makespan": 81, "messages": 693, "pebble_hops": 1048,
                      "lost_messages": 5, "faults_injected": 27,
                      "recoveries": 0, "step_p50": 9.5, "step_p99": 18.86,
                      "cancelled_messages": 91, "raced_wins": 349,
                      "raced_losses": 251},
    "crash_recovery": {"makespan": 142, "messages": 381, "pebble_hops": 463,
                       "lost_messages": 0, "faults_injected": 1,
                       "recoveries": 1, "step_p50": 7.0, "step_p99": 85.54},
}
_PEBBLES = {"pebbles": 704, "redundant": 536}
GREEDY_TIMELINE_PINS = {
    "multicast": {**_PEBBLES, "messages": 304, "hops": 352, "deliveries": 352,
                  "lost": 0, "cancelled": 0, "stalled": 646, "faults": 0},
    "tie_seed": {**_PEBBLES, "messages": 352, "hops": 400, "deliveries": 352,
                 "lost": 0, "cancelled": 0, "stalled": 646, "faults": 0},
    "trace": {**_PEBBLES, "messages": 352, "hops": 400, "deliveries": 352,
              "lost": 0, "cancelled": 0, "stalled": 646, "faults": 0},
    "racing": {**_PEBBLES, "messages": 693, "hops": 1050, "deliveries": 352,
               "lost": 0, "cancelled": 93, "stalled": 646, "faults": 0},
    "racing_jitter": {**_PEBBLES, "messages": 693, "hops": 1048,
                      "deliveries": 349, "lost": 5, "cancelled": 91,
                      "stalled": 1446, "faults": 1},
    "crash_recovery": {"pebbles": 770, "redundant": 608, "messages": 381,
                       "hops": 463, "deliveries": 343, "lost": 0,
                       "cancelled": 0, "stalled": 2830, "faults": 2},
}


@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
@pytest.mark.parametrize("name", sorted(GREEDY_CASES))
def test_greedy_only_run_pinned(name, telemetry):
    pins, totals = _run_greedy_case(name, telemetry)
    assert pins == GREEDY_PINS[name]
    if telemetry:
        assert totals == GREEDY_TIMELINE_PINS[name]


# -- `repro trace` output -----------------------------------------------
# First 16 hex digits of the sha256 of the command's stdout, or of its
# --trace-out file (that run's stdout names the path).  Every tier must
# print and write the same bytes.
TRACE_CLI_CASES = {
    "campus": ("--preset campus --steps 6 --block 2", "stdout",
               "943bdc6a563bbf75"),
    "campus_faults_telemetry": (
        "--preset campus --steps 12 --block 4 --faults 7 --telemetry",
        "stdout", "7a138e37db52420f"),
    "outlier_ledger_faults_telemetry": (
        "--preset dialup-outlier --steps 8 --block 8 --faults 3 "
        "--program ledger --telemetry", "stdout", "768e4010e3fe5b39"),
    "campus_faults_chrome": ("--preset campus --steps 6 --block 2 --faults 7",
                             "file", "d8d25f22d370f0c8"),
    "campus_chrome": ("--preset campus --steps 6 --block 2", "file",
                      "a52df0ab172998c1"),
}


@pytest.mark.parametrize(
    "engine", [None, "greedy", "auto", "dense"], ids=lambda e: e or "default"
)
@pytest.mark.parametrize("name", sorted(TRACE_CLI_CASES))
def test_trace_cli_output_pinned(name, engine, tmp_path, capsys):
    args, pinned, digest = TRACE_CLI_CASES[name]
    argv = ["trace", *args.split()]
    out = tmp_path / "run.json"
    if pinned == "file":
        argv += ["--trace-out", str(out)]
    if engine is not None:
        argv += ["--engine", engine]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    data = out.read_bytes() if pinned == "file" else stdout.encode()
    assert hashlib.sha256(data).hexdigest()[:16] == digest
