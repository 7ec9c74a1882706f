"""R1 bench — fault-injection overhead and degradation under crashes.

Two claims are pinned down here:

* An **empty** fault plan must cost nothing: the executor takes the
  plain (fault-free) inner loop, so wall-clock overhead stays within
  noise of running without ``faults=`` at all.
* Seeded crash plans at 5% / 15% per-node rates complete verified on a
  reduced surviving guest, with the measured slowdown degrading as the
  rate grows — the R1 curve, benched end-to-end.
"""

from conftest import run_experiment_bench

from repro.core.assignment import assign_databases
from repro.core.executor import GreedyExecutor
from repro.core.killing import kill_and_label
from repro.core.overlap import simulate_overlap
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram
from repro.netsim.faults import FaultPlan

HOST_N = 64
STEPS = 10


def _executor(faults=None):
    host = HostArray.uniform(HOST_N)
    killing = kill_and_label(host)
    assignment = assign_databases(killing, min_copies=2)
    return GreedyExecutor(host, assignment, CounterProgram(), STEPS, faults=faults)


def test_executor_fault_free_baseline(benchmark):
    result = benchmark(lambda: _executor().run())
    benchmark.extra_info["makespan"] = result.stats.makespan


def test_executor_empty_plan_overhead(benchmark):
    """Empty plan must run as fault-free — same makespan, noise-level cost."""
    plain = _executor().run()
    result = benchmark(lambda: _executor(faults=FaultPlan.empty()).run())
    assert result.stats.makespan == plain.stats.makespan
    assert result.stats.faults_injected == 0
    benchmark.extra_info["makespan"] = result.stats.makespan


def _crash_bench(benchmark, rate):
    host = HostArray.uniform(HOST_N)
    clean = simulate_overlap(host, steps=STEPS, min_copies=2)
    plan = FaultPlan.random(
        host.n,
        seed=1996,
        horizon=max(8, clean.exec_result.stats.makespan),
        node_crash_rate=rate,
    )

    def run():
        return simulate_overlap(
            host, steps=STEPS, min_copies=2, faults=plan, verify=True
        )

    res = benchmark(run)
    assert res.verified
    assert res.m_surviving < res.m  # crashes really hit database holders
    assert res.slowdown > clean.slowdown  # recovery costs host time
    benchmark.extra_info.update(
        {
            "crash_rate": rate,
            "m_surviving": res.m_surviving,
            "recoveries": res.exec_result.stats.recoveries,
            "slowdown": round(res.slowdown, 2),
            "clean_slowdown": round(clean.slowdown, 2),
        }
    )
    return res


def test_overlap_degradation_5pct_crashes(benchmark):
    _crash_bench(benchmark, 0.05)


def test_overlap_degradation_15pct_crashes(benchmark):
    _crash_bench(benchmark, 0.15)


def test_r1_experiment(benchmark):
    run_experiment_bench(
        benchmark,
        "r1",
        expected_true=[
            "zero-rate run identical to fault-free",
            "every run verified or deadlocked",
            "degradation grows with fault rate",
        ],
    )
