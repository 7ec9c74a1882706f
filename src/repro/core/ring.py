"""Ring guests on array hosts (the paper's ring-to-array reduction).

The paper states its results for linear arrays and notes that "a
linear array can simulate a ring with slowdown 2 [8], so the
distinction is not important".  The constructive content is the *fold
embedding* (:meth:`repro.machine.guest.GuestRing.fold_embedding`):
interleave the two halves of the ring along the array so every pair of
ring neighbours lands within array distance 2.

Operationally we place ring node ``k`` at array column
``pos[k] + 1`` and hand the shared run pipeline a ``dep_map``
wiring each column to the array columns of its *ring* neighbours —
distance <= 2, so all communication stays local and the slowdown
relative to the array simulation is the promised small constant.  The
pipeline verifies the run with :func:`verify_ring_execution` against
the direct ring reference (values, update digests and final states per
node).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.baselines import spread_assignment
from repro.core.executor import ExecResult
from repro.core.pipeline import run_pipeline
from repro.lower_bounds.audit import windowed_assignment
from repro.machine.guest import GuestRing, RingReferenceRun
from repro.machine.host import HostArray
from repro.machine.mixing import fold_s
from repro.machine.programs import CounterProgram, Program


def ring_layout(m: int) -> tuple[list[int], list[int]]:
    """(``col_of_node``, ``node_of_col``): ring node ``k`` (0-indexed)
    <-> array column (1-indexed), via the dilation-2 fold."""
    pos = GuestRing.fold_embedding(m)
    col_of_node = [p + 1 for p in pos]
    node_of_col = [0] * (m + 1)
    for k, col in enumerate(col_of_node):
        node_of_col[col] = k
    return col_of_node, node_of_col


def ring_dep_map(m: int) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """The executor ``dep_map`` for an ``m``-ring folded on an array.

    Returns ``(dep_map, node_of_col)``; ``dep_map[col]`` is the pair of
    array columns holding the ring-left and ring-right neighbours of
    the node at ``col``.
    """
    col_of_node, node_of_col = ring_layout(m)
    dep_map = {}
    for col in range(1, m + 1):
        k = node_of_col[col]
        dep_map[col] = (
            col_of_node[(k - 1) % m],
            col_of_node[(k + 1) % m],
        )
    return dep_map, node_of_col


def fold_dilation_in_columns(m: int) -> int:
    """Max array distance between dependent columns (should be <= 2)."""
    dep_map, _ = ring_dep_map(m)
    return max(
        max(abs(col - a), abs(col - b)) for col, (a, b) in dep_map.items()
    )


@dataclass
class RingResult:
    """Outcome of a ring simulation on an array host."""

    host: HostArray
    m: int
    steps: int
    exec_result: ExecResult
    verified: bool
    #: Execution tier that ran ("dense" or "greedy").
    engine: str = "greedy"

    @property
    def slowdown(self) -> float:
        """Host steps per guest (ring) step."""
        return self.exec_result.stats.makespan / self.steps


def simulate_ring(
    host: HostArray,
    m: int | None = None,
    steps: int | None = None,
    program: Program | None = None,
    copies: int = 1,
    bandwidth: int | None = None,
    verify: bool = True,
    engine: str = "auto",
    telemetry=None,
    faults=None,
    policy=None,
    recovery=None,
) -> RingResult:
    """Simulate an ``m``-node unit-delay guest ring on an array host.

    ``copies`` selects the assignment: 1 spreads each folded column
    once; >= 2 uses the windowed multi-copy layout (redundancy).

    ``engine`` selects the execution tier (``auto``/``dense``/
    ``greedy``): the dense skeleton resolves the ring's ``dep_map``
    through the same watermark indices as the line adjacency, so ring
    runs take it by default — bit-identical to greedy — including
    faulted ones (the segmented
    :class:`~repro.core.dense_faults.FaultedDenseExecutor`).
    ``faults``/``recovery`` script link-level fault injection (a
    :class:`~repro.netsim.faults.FaultPlan` /
    :class:`~repro.netsim.faults.RecoveryPolicy`); node crashes are
    rejected on ring guests — recovery reassignment assumes the
    standard array dependency structure.  ``policy`` names the
    execution policy (see :data:`~repro.core.racing.POLICIES`:
    ``racing`` races replicated columns on the greedy engine,
    ``stealing`` rebalances the assignment first).  ``telemetry`` (a
    :class:`~repro.telemetry.timeline.MetricsTimeline`) is supported on
    both tiers.
    """
    program = program or CounterProgram()
    if m is None:
        m = host.n
    if m < 3:
        raise ValueError("a ring needs at least 3 nodes")
    if steps is None:
        steps = max(4, m // 4)
    dep_map, node_of_col = ring_dep_map(m)
    if copies <= 1:
        asg = spread_assignment(host.n, m)
    else:
        asg = windowed_assignment(host.n, m, copies=copies)
    run = run_pipeline(
        host, asg, program, steps, bandwidth, engine=engine, policy=policy,
        faults=faults, recovery=recovery, telemetry=telemetry,
        dep_map=dep_map, col_label=lambda col: node_of_col[col] + 1,
        verify=verify,
        verifier=lambda result: verify_ring_execution(
            result, GuestRing(m, program).run_reference_full(steps), program,
            node_of_col,
        ),
    )
    return RingResult(host, m, steps, run.exec_result, run.verified, engine=run.engine)


def verify_ring_execution(
    result: ExecResult,
    reference: RingReferenceRun,
    program: Program,
    node_of_col: list[int],
) -> int:
    """Check every replica of every folded column against the ring
    reference (value folds, update digests, final states)."""
    checked = 0
    ref_folds: dict[int, int] = {}
    for (p, col), digest in result.value_digests.items():
        k = node_of_col[col]
        if k not in ref_folds:
            ref_folds[k] = fold_s(int(v) for v in reference.values[1:, k])
        if digest != ref_folds[k]:
            raise AssertionError(
                f"ring node {k}: pebble values diverge at position {p}"
            )
        replica = result.replicas[(p, col)]
        if replica.version != reference.steps:
            raise AssertionError(f"ring node {k}: wrong update count")
        if replica.digest != int(reference.update_digests[k]):
            raise AssertionError(f"ring node {k}: update digest diverges")
        if program.state_digest(replica.state) != int(reference.state_digests[k]):
            raise AssertionError(f"ring node {k}: final state diverges")
        checked += 1
    if checked < result.assignment.m:
        raise AssertionError("some ring nodes were never verified")
    return checked
