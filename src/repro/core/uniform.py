"""Theorem 4: hiding uniform latency with ``sqrt(d)`` slowdown.

Host ``H0`` is an ``n``-processor array whose every link has delay
``d``; the guest has ``n * sqrt(d)`` processors.  Processor ``j`` owns
the 3``q``-column block ``P_j`` (``q = floor(sqrt(d))``), overlapping
its neighbours' blocks by 2``q`` columns.  Working in rounds of ``q``
guest steps, a processor can compute the *trapezium* of pebbles that
depends only on its own block (``2q^2 - q`` pebbles), exchange the
four boundary column groups A/B/C/D with its neighbours (``d + q - 1``
steps, pipelined), and then fill in the left/right *triangles*
(``q^2 + q`` pebbles) — at most ``~5d`` steps per ``q`` guest steps,
i.e. slowdown ``O(sqrt(d))`` (Figure 4).

``simulate_uniform`` measures the real makespan by running the greedy
executor on the block assignment (greedy is never slower than the
phased schedule); :func:`phased_bound` gives the paper's explicit
accounting for comparison, and :func:`trapezium_census` regenerates
the Figure-4 region sizes for the F4 bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.assignment import Assignment
from repro.core.executor import ExecResult
from repro.core.pipeline import run_pipeline
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram, Program
from repro.netsim.links import batch_transit_time


def block_width(d: int) -> int:
    """The paper's ``sqrt(d)`` block parameter, floored, at least 1."""
    return max(1, int(math.isqrt(max(1, d))))


def uniform_assignment(n: int, q: int, m: int | None = None) -> Assignment:
    """The ``P_j`` block assignment of Theorem 4.

    Processor ``j`` (1-indexed in the paper) owns columns
    ``(j-2) q + 1 .. (j+1) q`` clipped to ``[1, m]``; with ``m = n q``
    every column has 2-3 owners.
    """
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    if m is None:
        m = n * q
    ranges: list[tuple[int, int] | None] = []
    for p in range(n):
        j = p + 1
        lo = max(1, (j - 2) * q + 1)
        hi = min(m, (j + 1) * q)
        ranges.append((lo, hi) if lo <= hi else None)
    asg = Assignment(ranges, m)
    asg.validate()
    return asg


@dataclass
class UniformResult:
    """Outcome of a Theorem-4 simulation."""

    host: HostArray
    assignment: Assignment
    exec_result: ExecResult
    steps: int
    q: int
    verified: bool

    @property
    def slowdown(self) -> float:
        """Measured host steps per guest step."""
        return self.exec_result.stats.makespan / self.steps

    @property
    def d(self) -> int:
        """The uniform link delay."""
        return self.host.d_max

    def bound(self, bandwidth: int | None = None) -> float:
        """Paper's phased bound for the same configuration."""
        bw = bandwidth if bandwidth is not None else self.host.default_bandwidth()
        return phased_bound(self.d, self.steps, self.q, bw)

    def normalized(self) -> float:
        """Slowdown divided by ``sqrt(d)`` — should be O(1) over a
        ``d`` sweep (the Theorem-4 shape, matching the [2] lower
        bound ``Omega(sqrt(d))``)."""
        return self.slowdown / math.sqrt(max(1, self.d))


def simulate_uniform(
    n: int,
    d: int,
    steps: int | None = None,
    q: int | None = None,
    program: Program | None = None,
    bandwidth: int | None = None,
    verify: bool = True,
    engine: str = "auto",
) -> UniformResult:
    """Simulate an ``n q``-column guest on a uniform-delay-``d`` host."""
    program = program or CounterProgram()
    host = HostArray.uniform(n, d)
    q = q or block_width(d)
    if steps is None:
        steps = max(4, 2 * q)
    assignment = uniform_assignment(n, q)
    run = run_pipeline(
        host, assignment, program, steps, bandwidth, engine=engine,
        verify=verify,
    )
    return UniformResult(host, assignment, run.exec_result, steps, q, run.verified)


def trapezium_census(d: int, q: int | None = None) -> dict:
    """Pebble counts of the Figure-4 regions for one round.

    ``T`` (trapezium), ``L``/``R`` (triangles), plus the step budget of
    each phase: compute-T, exchange, compute-LR — the paper's
    ``2d + 2d + d <= 5d`` accounting.
    """
    q = q or block_width(d)
    trapezium = 3 * q * q - 2 * (q * (q + 1) // 2)  # 2q^2 - q
    triangles = q * (q + 1)  # L and R together
    return {
        "q": q,
        "trapezium_pebbles": trapezium,
        "triangle_pebbles": triangles,
        "compute_T_steps": trapezium,
        "exchange_steps": batch_transit_time(q, d, 1),
        "compute_LR_steps": triangles,
        "round_total": trapezium + batch_transit_time(q, d, 1) + triangles,
        "paper_budget": 5 * d,
    }


def phased_bound(d: int, steps: int, q: int | None = None, bandwidth: int = 1) -> float:
    """Makespan of the explicit phased schedule for ``steps`` guest
    steps: ``ceil(steps / q)`` rounds of compute-T + exchange +
    compute-LR, each at most ``~5d`` (Theorem 4's proof)."""
    q = q or block_width(d)
    rounds = math.ceil(steps / q)
    trapezium = 2 * q * q - q
    exchange = batch_transit_time(q, d, bandwidth)
    triangles = q * (q + 1)
    return rounds * (trapezium + exchange + triangles)
