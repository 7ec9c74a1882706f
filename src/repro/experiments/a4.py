"""A4 — ablation: multicast boundary streams.

OVERLAP's boundary columns can have several consumers on the same side
of the supplier (deep overlap nesting); delivering them as one
peel-off stream per direction instead of one unicast stream per
consumer cuts pebble-hops (host bandwidth use) without touching
correctness or, materially, the makespan.  This quantifies the saving
— one of the engineering choices DESIGN.md calls out.
"""

from __future__ import annotations

from repro.core.assignment import assign_databases
from repro.core.executor import GreedyExecutor
from repro.core.killing import kill_and_label
from repro.core.pipeline import run_pipeline
from repro.experiments.base import ExperimentResult
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram


def run(quick: bool = True, engine: str = "auto") -> ExperimentResult:
    """Run the multicast on/off comparison across block factors."""
    n = 96 if quick else 160
    steps = 16 if quick else 24
    delays = [1] * (n - 1)
    delays[n // 2 - 1] = 128
    host = HostArray(delays)
    killing = kill_and_label(host)
    prog = CounterProgram()

    rows = []
    savings = []
    for block in (1, 4, 8):
        asg = assign_databases(killing, block=block)
        uni = run_pipeline(
            host, asg, prog, steps, engine=engine, verify=False
        ).exec_result
        multi = GreedyExecutor(host, asg, prog, steps, multicast=True).run()
        saving = 1 - multi.stats.pebble_hops / max(1, uni.stats.pebble_hops)
        savings.append(saving)
        rows.append(
            {
                "block": block,
                "unicast hops": uni.stats.pebble_hops,
                "multicast hops": multi.stats.pebble_hops,
                "hop saving": f"{saving:.1%}",
                "unicast slowdown": round(uni.stats.makespan / steps, 2),
                "multicast slowdown": round(multi.stats.makespan / steps, 2),
            }
        )

    return ExperimentResult(
        "A4",
        "Ablation - multicast boundary streams save bandwidth",
        rows,
        summary={
            "max hop saving": f"{max(savings):.1%}",
            "multicast never hurts makespan (within 5%)": all(
                r["multicast slowdown"] <= 1.05 * r["unicast slowdown"]
                for r in rows
            ),
        },
    )
