"""Theorems 5 and 6: the ``O(sqrt(d_ave) log^3 n)`` composition.

Theorem 5 composes two simulations: the guest ``G`` (an
``n0 * sqrt(d_ave)``-column array) runs on an *intermediate* uniform
array ``H0`` of ``n0`` processors with delay ``d_ave`` on every link
(Theorem 4, slowdown ``O(sqrt(d_ave))``); and ``H0`` runs on the real
host ``H`` via OVERLAP (Theorem 2/3, slowdown ``O(log^3 n)``).

Operationally the intermediate machine is virtual: composing the two
*assignments* — each host processor owns the guest columns of the
``H0`` processors OVERLAP assigned to it, inflated by Theorem 4's
block rule — yields a single contiguous assignment that the greedy
executor runs directly on ``H``.  The measured slowdown then carries
both factors, which is exactly how the paper multiplies the bounds.

Theorem 6 extends this to arbitrary connected bounded-degree hosts via
the Fact-3 embedding (see :func:`simulate_composed_on_graph`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.assignment import Assignment, assign_databases
from repro.core.executor import ExecResult
from repro.core.killing import KillingResult, kill_and_label
from repro.core.pipeline import run_pipeline
from repro.machine.host import HostArray, HostGraph
from repro.machine.programs import CounterProgram, Program
from repro.topology.embedding import ArrayEmbedding, embed_linear_array


def composed_assignment(
    killing: KillingResult, q: int, h0_block: int = 1
) -> Assignment:
    """Compose OVERLAP's assignment with Theorem 4's block assignment.

    OVERLAP (with block factor ``h0_block``) assigns virtual ``H0``
    processors ``1..n0`` to live host positions; each virtual processor
    ``j`` owns guest columns ``(j-2) q + 1 .. (j+1) q`` (Theorem 4), so
    a host position with ``H0`` range ``[a, b]`` owns guest columns
    ``(a-2) q + 1 .. (b+1) q``, clipped to ``[1, n0 q]``.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    base = assign_databases(killing, h0_block)
    n0 = base.m
    m = n0 * q
    ranges: list[tuple[int, int] | None] = [None] * base.n
    for p, r in enumerate(base.ranges):
        if r is None:
            continue
        a, b = r
        lo = max(1, (a - 2) * q + 1)
        hi = min(m, (b + 1) * q)
        ranges[p] = (lo, hi)
    asg = Assignment(ranges, m)
    asg.validate()
    return asg


@dataclass
class ComposedResult:
    """Outcome of a Theorem-5/6 composed simulation."""

    host: HostArray
    killing: KillingResult
    assignment: Assignment
    exec_result: ExecResult
    steps: int
    q: int
    verified: bool
    embedding: ArrayEmbedding | None = None
    #: Execution tier that ran ("dense" or "greedy").
    engine: str = "greedy"

    @property
    def slowdown(self) -> float:
        """Measured host steps per guest step."""
        return self.exec_result.stats.makespan / self.steps

    @property
    def m(self) -> int:
        """Guest size."""
        return self.assignment.m

    def normalized(self) -> float:
        """Slowdown over ``sqrt(d_ave)`` — flat over a ``d_ave`` sweep
        if Theorem 5's shape holds (up to the polylog factor)."""
        return self.slowdown / math.sqrt(max(1.0, self.host.d_ave))

    def summary(self) -> dict:
        """Flat dict for report tables."""
        return {
            "n": self.host.n,
            "m": self.m,
            "q": self.q,
            "steps": self.steps,
            "d_ave": round(self.host.d_ave, 2),
            "d_max": self.host.d_max,
            "slowdown": round(self.slowdown, 2),
            "slow/sqrt(d_ave)": round(self.normalized(), 2),
            "load": self.assignment.load(),
            "verified": self.verified,
        }


def simulate_composed(
    host: HostArray,
    program: Program | None = None,
    steps: int | None = None,
    c: float = 4.0,
    q: int | None = None,
    h0_block: int = 1,
    bandwidth: int | None = None,
    verify: bool = True,
    engine: str = "auto",
    telemetry=None,
    faults=None,
    policy=None,
    recovery=None,
) -> ComposedResult:
    """Theorem 5 on a host array: guest of ``~ n' h0_block q`` columns,
    slowdown ``O(sqrt(d_ave) * polylog)``.

    ``engine`` selects the execution tier (``auto``/``dense``/
    ``greedy``); the composed assignment is a plain array run, so
    ``auto`` takes the dense tier — the fault-free fast path, or the
    segmented :class:`~repro.core.dense_faults.FaultedDenseExecutor`
    when ``faults`` (a :class:`~repro.netsim.faults.FaultPlan`) is
    non-empty — bit-identical to greedy either way.  ``telemetry``
    attaches a :class:`~repro.telemetry.timeline.MetricsTimeline`
    (both tiers).
    """
    program = program or CounterProgram()
    killing = kill_and_label(host, c)
    if q is None:
        q = max(1, math.isqrt(int(round(host.d_ave))))
    if steps is None:
        steps = max(4, 2 * q)
    run = run_pipeline(
        host, composed_assignment(killing, q, h0_block), program, steps,
        bandwidth, engine=engine, policy=policy, faults=faults,
        recovery=recovery, telemetry=telemetry, verify=verify,
    )
    return ComposedResult(
        host, killing, run.assignment, run.exec_result, steps, q,
        run.verified, engine=run.engine,
    )


def simulate_composed_on_graph(
    host: HostGraph,
    program: Program | None = None,
    steps: int | None = None,
    c: float = 4.0,
    q: int | None = None,
    h0_block: int = 1,
    bandwidth: int | None = None,
    verify: bool = True,
    engine: str = "auto",
    telemetry=None,
    faults=None,
    policy=None,
    recovery=None,
) -> ComposedResult:
    """Theorem 6: the composed simulation on an arbitrary connected
    host, reduced to an array by the Fact-3 embedding.

    The embedding precomputes every per-assignment route delay into the
    flat ``link_delays`` array of the induced
    :class:`~repro.machine.host.HostArray`, so the composed run
    executes on the dense tier exactly like a native array host —
    fault-free or faulted (``faults`` targets are interpreted in
    embedded-array coordinates, as in
    :func:`~repro.core.overlap.simulate_overlap_on_graph`).
    """
    embedding = embed_linear_array(host)
    array = embedding.host_array(name=f"embed({host.name})")
    result = simulate_composed(
        array, program, steps, c, q, h0_block, bandwidth, verify,
        engine=engine, telemetry=telemetry, faults=faults, policy=policy,
        recovery=recovery,
    )
    result.embedding = embedding
    return result


def theorem5_bound(host: HostArray, c: float = 4.0) -> float:
    """The paper's slowdown bound ``O(sqrt(d_ave) log^3 n)`` with the
    explicit constants of Theorems 2+4 (``5 sqrt(d_ave)`` per Theorem 4
    round times the OVERLAP schedule factor)."""
    lg = max(1.0, math.log2(host.n))
    return 5.0 * math.sqrt(max(1.0, host.d_ave)) * c * lg**3
