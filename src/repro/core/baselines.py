"""Baseline latency-handling strategies the paper compares against.

Three comparators, all stated in Section 1 / Section 3:

* **Lockstep slowdown** — "slow down the computation to the point where
  the latency is accommodated": every guest step costs ``d_max + 1``
  host steps.  A closed form (:func:`simulate_lockstep_bound`).
* **Single copy** — databases are placed once, no redundancy, all
  processors used.  Run for real through the greedy executor; on
  skewed hosts its slowdown tracks ``d_max`` (Theorem 9's regime).
* **Prior efficient** — the work-preserving prior approach the paper
  credits: use only ``~ n / d_max`` processors so the inter-processor
  delay amortises over a bigger load.  Also run for real.

All baselines run through :func:`~repro.core.pipeline.run_pipeline` with
different assignments, so comparisons against OVERLAP are apples to
apples (same engine, same program, same bandwidth model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.assignment import Assignment
from repro.core.executor import ExecResult
from repro.core.pipeline import run_pipeline
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram, Program


@dataclass
class BaselineResult:
    """Outcome of one baseline run."""

    name: str
    host: HostArray
    assignment: Assignment | None
    exec_result: ExecResult | None
    steps: int
    makespan: int
    verified: bool

    @property
    def slowdown(self) -> float:
        """Host steps per guest step."""
        return self.makespan / self.steps


def spread_assignment(n: int, m: int, positions: list[int] | None = None) -> Assignment:
    """Distribute ``m`` columns over ``positions`` (default: all ``n``)
    in contiguous blocks, one copy each — the no-redundancy layout."""
    if positions is None:
        positions = list(range(n))
    k = len(positions)
    if k < 1 or m < 1:
        raise ValueError("need at least one position and one column")
    ranges: list[tuple[int, int] | None] = [None] * n
    base, extra = divmod(m, k)
    col = 1
    for idx, p in enumerate(positions):
        width = base + (1 if idx < extra else 0)
        if width == 0:
            continue
        ranges[p] = (col, col + width - 1)
        col += width
    asg = Assignment(ranges, m)
    asg.validate()
    return asg


def _run_baseline(
    name: str, host: HostArray, assignment: Assignment, steps, program,
    bandwidth, verify: bool, engine: str,
) -> BaselineResult:
    """Run a baseline's assignment (default ``max(4, m // 4)`` steps)."""
    if steps is None:
        steps = max(4, assignment.m // 4)
    run = run_pipeline(
        host, assignment, program or CounterProgram(), steps, bandwidth,
        engine=engine, verify=verify,
    )
    return BaselineResult(
        name, host, assignment, run.exec_result, steps,
        run.exec_result.stats.makespan, run.verified,
    )


def simulate_single_copy(
    host: HostArray,
    m: int | None = None,
    steps: int | None = None,
    program: Program | None = None,
    bandwidth: int | None = None,
    verify: bool = True,
    engine: str = "auto",
) -> BaselineResult:
    """No-redundancy baseline: one copy per database, all processors.

    Default guest size ``m = n`` (load 1, like load-1 OVERLAP).
    """
    if m is None:
        m = host.n
    return _run_baseline(
        "single-copy", host, spread_assignment(host.n, m), steps, program,
        bandwidth, verify, engine,
    )


def simulate_prior_efficient(
    host: HostArray,
    m: int | None = None,
    steps: int | None = None,
    program: Program | None = None,
    bandwidth: int | None = None,
    verify: bool = True,
    engine: str = "auto",
) -> BaselineResult:
    """Prior work-preserving approach: only ``~ n / d_max`` processors.

    Evenly-spaced processors carry the whole guest in large blocks, so
    the per-step communication delay amortises over the block work.
    """
    n = host.n
    k = max(1, n // max(1, host.d_max))
    positions = [round(i * (n - 1) / max(1, k - 1)) for i in range(k)] if k > 1 else [0]
    positions = sorted(set(positions))
    if m is None:
        m = n
    return _run_baseline(
        "prior-efficient", host, spread_assignment(n, m, positions), steps,
        program, bandwidth, verify, engine,
    )


def simulate_lockstep_bound(
    host: HostArray, steps: int, work_per_step: int = 1
) -> BaselineResult:
    """Closed-form circuit-style baseline: the clock runs at the speed
    of the slowest link, so one guest step costs ``work + d_max``."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    makespan = steps * (work_per_step + host.d_max)
    return BaselineResult("lockstep", host, None, None, steps, makespan, False)


def lockstep_slowdown(host: HostArray, work_per_step: int = 1) -> float:
    """Slowdown of the lockstep baseline (``d_max + work``)."""
    return host.d_max + work_per_step


def prior_efficient_processor_count(host: HostArray) -> int:
    """``~ n / d_max`` — how many processors prior approaches keep."""
    return max(1, host.n // max(1, host.d_max))


def theoretical_overlap_advantage(host: HostArray) -> float:
    """The paper's headline ratio ``d_max / (sqrt(d_ave) log^3 n)`` —
    how much OVERLAP should win by on this host."""
    lg = max(1.0, math.log2(host.n))
    return host.d_max / (math.sqrt(host.d_ave) * lg**3)
