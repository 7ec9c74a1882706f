"""Algorithm OVERLAP, end to end (Theorems 2, 3 and 6).

``simulate_overlap`` runs the whole pipeline on a host array:

1. kill useless processors and label the interval tree (Section 3.1);
2. assign overlapped database ranges to live processors (Section 3.2),
   optionally blocked by ``beta`` for work efficiency (Section 3.3);
3. execute the guest on the host's pipelined links and verify the run
   bit-for-bit against the direct reference execution — both in
   :func:`~repro.core.pipeline.run_pipeline`, shared by the front-ends.

``simulate_overlap_on_graph`` first reduces an arbitrary connected host
network to a linear array via the Fact-3 dilation-3 embedding
(Section 4 / Theorem 6), then does the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

from repro.core.assignment import Assignment, assign_databases, survivor_assignment
from repro.core.executor import ExecResult
from repro.core.killing import (
    KillingResult,
    kill_and_label,
    normalize_forced_dead,
    validate_steps,
)
from repro.core.pipeline import run_pipeline
from repro.core.schedule import ScheduleTable, build_schedule
from repro.machine.host import HostArray, HostGraph
from repro.machine.programs import CounterProgram, Program
from repro.netsim.faults import FaultPlan, RecoveryPolicy
from repro.topology.embedding import ArrayEmbedding, embed_linear_array


@dataclass
class OverlapResult:
    """End-to-end outcome of one OVERLAP simulation."""

    host: HostArray
    killing: KillingResult
    assignment: Assignment
    exec_result: ExecResult
    schedule: ScheduleTable
    steps: int
    verified: bool
    embedding: ArrayEmbedding | None = None
    faults: FaultPlan | None = None
    engine: str = "greedy"  # execution tier actually used (resolved)
    policy: str = "single"  # execution policy name (racing/stealing/...)
    telemetry: object | None = None  # MetricsTimeline when requested
    #: ExecutorCheckpoints captured during the run (dense tiers only;
    #: stride marks plus, on faulted runs, fault boundaries/resumes).
    checkpoints: list = field(default_factory=list)
    #: First host step where any own watermark reached ``steps`` (dense
    #: tiers; None if unknown) — the horizon-extension divergence bound.
    first_top_t: int | None = None

    @property
    def slowdown(self) -> float:
        """Measured host steps per guest step."""
        return self.exec_result.stats.makespan / self.steps

    @property
    def m(self) -> int:
        """Guest size simulated (initial assignment)."""
        return self.assignment.m

    @property
    def m_surviving(self) -> int:
        """Guest size actually completed — smaller than :attr:`m` when
        mid-run crashes forced a reduced reassignment."""
        return self.exec_result.assignment.m

    @property
    def load(self) -> int:
        """Maximum databases per host processor."""
        return self.assignment.load()

    def schedule_slowdown_bound(self) -> float:
        """Theorem 1/2 slowdown bound from the explicit schedule."""
        return self.schedule.slowdown_bound()

    def efficiency(self) -> float:
        """Guest work per host processor-step (1.0 == perfectly
        work-preserving; OVERLAP loses only the redundancy constant and
        idle time)."""
        stats = self.exec_result.stats
        if stats.makespan == 0:
            return 1.0
        return (self.m * self.steps) / (stats.makespan * stats.procs_used)

    def summary(self) -> dict:
        """Flat dict for report tables."""
        out = {
            "n": self.host.n,
            "n_live": self.killing.n_live,
            "m": self.m,
            "steps": self.steps,
            "d_ave": round(self.host.d_ave, 2),
            "d_max": self.host.d_max,
            "load": self.load,
            "slowdown": round(self.slowdown, 2),
            "bound": round(self.schedule_slowdown_bound(), 2),
            "makespan": self.exec_result.stats.makespan,
            "pebbles": self.exec_result.stats.pebbles,
            "redundancy": round(self.assignment.redundancy(), 3),
            "verified": self.verified,
        }
        stats = self.exec_result.stats
        lat = stats.step_latency_summary()
        if lat is not None:
            out.update(
                step_p50=lat["p50"], step_p95=lat["p95"], step_p99=lat["p99"]
            )
        if self.policy != "single":
            out["policy"] = self.policy
        extras = stats.extras
        if "cancelled_messages" in extras:
            out.update(
                cancelled_messages=extras["cancelled_messages"],
                raced_wins=extras.get("raced_wins", 0),
                raced_losses=extras.get("raced_losses", 0),
            )
        if "steal_moves" in extras:
            out["steal_moves"] = extras["steal_moves"]
        if self.faults is not None and not self.faults.is_empty:
            stats = self.exec_result.stats
            out.update(
                m_surviving=self.m_surviving,
                faults_injected=stats.faults_injected,
                crashed_nodes=stats.crashed_nodes,
                recoveries=stats.recoveries,
                retries=stats.retries,
                lost_messages=stats.lost_messages,
                columns_lost=stats.columns_lost,
            )
        return out


def default_steps(killing: KillingResult) -> int:
    """The paper simulates in rounds of ``m_0 = n / (c lg n)`` guest
    steps; one round is the natural default experiment length."""
    return max(4, killing.params.m_int(0))


def simulate_overlap(
    host: HostArray,
    program: Program | None = None,
    steps: int | None = None,
    c: float = 4.0,
    block: int = 1,
    bandwidth: int | None = None,
    verify: bool = True,
    forced_dead: set[int] | None = None,
    faults: FaultPlan | None = None,
    policy=None,
    recovery: RecoveryPolicy | None = None,
    min_copies: int | None = None,
    engine: str = "auto",
    telemetry=None,
    checkpoint_stride: int | None = None,
    resume_from=None,
) -> OverlapResult:
    """Run algorithm OVERLAP on a host array.

    Parameters
    ----------
    host:
        The host linear array (arbitrary link delays).
    program:
        Guest program (default: the ``counter`` database workload).
    steps:
        Guest steps to simulate (default: one ``m_0`` round).
    c:
        The paper's constant (> 2).
    block:
        Work-efficiency factor ``beta`` (Section 3.3): each live
        processor holds ``O(beta)`` databases and the guest grows to
        ``n' * beta`` columns.
    bandwidth:
        Host link bandwidth (default ``ceil(log2 n)``, the paper's
        assumption; pass 1 for the low-bandwidth regime).
    verify:
        Compare against the reference run (costs one direct execution).
    forced_dead:
        Failed workstations (hold no databases, still relay) — OVERLAP
        reconfigures around them like around latency-killed processors.
    faults:
        Optional :class:`~repro.netsim.faults.FaultPlan` injected
        *during* the run (node crashes, link outages, jitter, drops).
        A non-empty plan enables the executor's detection/recovery
        machinery; an empty/absent plan is bit-identical to the
        fault-free path.
    policy:
        Execution policy: a name from
        :data:`~repro.core.racing.POLICIES` (``"single"``,
        ``"racing"``, ``"stealing"``, ``"racing+stealing"``) or an
        :class:`~repro.core.racing.ExecPolicy`.  ``racing`` subscribes
        each needed external column to its ``fanout`` nearest owners
        and takes the first consistent delivery (losers are cancelled
        down to the link level); ``stealing`` rebalances the assignment
        with :func:`~repro.core.assignment.steal_rebalance` before the
        run.
    recovery:
        Detection/recovery knobs (timeouts, retry budget, restart
        penalty); default :class:`~repro.netsim.faults.RecoveryPolicy`.
    min_copies:
        Minimum database replicas per column (default 1).  Never
        auto-flipped by the presence of ``faults`` — pass
        ``min_copies=2`` explicitly so a single mid-run crash cannot
        destroy the last replica of an interval.
    engine:
        Execution tier: ``"auto"`` (default) picks the dense tier —
        the fault-free fast path, or the segmented
        :class:`~repro.core.dense_faults.FaultedDenseExecutor` when a
        non-empty fault plan is scripted — and falls back to the greedy
        event-driven engine only for tracing, multicast or ``tie_seed``
        runs; ``"dense"`` / ``"greedy"`` force a tier (``"dense"``
        raises if the config needs greedy-only machinery).  Both tiers
        produce bit-identical results on any config ``auto`` would run
        densely, fault plans included.
    telemetry:
        Optional :class:`~repro.telemetry.timeline.MetricsTimeline` to
        fill with per-step counters (and epoch/recovery spans on fault
        runs).  Supported by *both* tiers — attaching one never changes
        the engine selection or the results; the filled timeline is
        returned on :attr:`OverlapResult.telemetry`.
    checkpoint_stride:
        When set, the dense tiers snapshot the full executor state
        every ``checkpoint_stride`` host steps (see
        :mod:`repro.core.checkpoint`); the captures land on
        :attr:`OverlapResult.checkpoints`.  Ignored by the greedy
        engine.
    resume_from:
        An :class:`~repro.core.checkpoint.ExecutorCheckpoint` to
        restore before running: the executor replays only the suffix
        from the snapshot's time, finishing bit-identically to a full
        run (the caller guarantees the prefix is still valid for this
        config — the delta layer's blast-radius rules do).  Requires a
        dense-tier resolution; a config that resolves to the greedy
        engine raises :class:`~repro.delta.DeltaUnsupported`.
    """
    program = program or CounterProgram()
    forced_dead = normalize_forced_dead(host.n, forced_dead)
    if steps is not None:
        steps = validate_steps(steps)
    copies = 1 if min_copies is None else min_copies
    killing = kill_and_label(host, c, forced_dead=forced_dead)
    if steps is None:
        steps = default_steps(killing)
    run = run_pipeline(
        host, assign_databases(killing, block, min_copies=copies), program,
        steps, bandwidth, engine=engine, policy=policy, faults=faults,
        recovery=recovery, telemetry=telemetry,
        checkpoint_stride=checkpoint_stride, resume_from=resume_from,
        reassign=partial(
            survivor_assignment, host, block=block, c=c,
            forced_dead=forced_dead, min_copies=copies,
        ),
        verify=verify,
    )
    schedule = build_schedule(killing.params, base_work=float(max(1, block)))
    return OverlapResult(
        host, killing, run.assignment, run.exec_result, schedule, steps,
        run.verified, faults=faults, engine=run.engine, policy=run.policy,
        telemetry=telemetry, checkpoints=run.checkpoints,
        first_top_t=run.first_top_t,
    )


def simulate_overlap_on_graph(
    host: HostGraph,
    program: Program | None = None,
    steps: int | None = None,
    c: float = 4.0,
    block: int = 1,
    bandwidth: int | None = None,
    verify: bool = True,
    forced_dead: set | None = None,
    faults: FaultPlan | None = None,
    policy=None,
    recovery: RecoveryPolicy | None = None,
    min_copies: int | None = None,
    engine: str = "auto",
    telemetry=None,
    checkpoint_stride: int | None = None,
    resume_from=None,
) -> OverlapResult:
    """Theorem 6: OVERLAP on an arbitrary connected host network.

    The host is reduced to a linear array with the Fact-3 dilation-3
    embedding; for a bounded-degree host the induced array's average
    delay is within a constant factor of the host's, so Theorem 5's
    slowdown carries over.

    ``forced_dead`` names failed workstations as host *graph nodes*;
    they are translated to embedded-array positions before OVERLAP
    reconfigures around them.  ``faults``, ``policy`` and ``min_copies``
    behave exactly as in :func:`simulate_overlap`; a
    :class:`~repro.netsim.faults.FaultPlan`'s targets are interpreted in
    embedded-array coordinates (position ``j`` = ``embedding.order[j]``,
    link ``j`` = the tree path between consecutive embedded nodes) —
    call :func:`~repro.topology.embedding.embed_linear_array` on the
    host first to aim a plan at specific graph nodes, the embedding is
    deterministic.

    The embedding also precomputes every route delay into the induced
    array's flat ``link_delays``, so a fault-free graph-host run is an
    ordinary array workload: ``engine="auto"`` resolves it to the
    dense tier (bit-identical to greedy), faulted or not; only
    ``policy="racing"`` forces the event-driven engine.
    """
    embedding = embed_linear_array(host)
    array = embedding.host_array(name=f"embed({host.name})")
    if forced_dead:
        position_of = embedding.position_of()
        unknown = [v for v in forced_dead if v not in position_of]
        if unknown:
            raise ValueError(
                f"forced_dead nodes not in the host graph: {sorted(unknown, key=repr)}"
            )
        forced_dead = {position_of[v] for v in forced_dead}
    result = simulate_overlap(
        array,
        program,
        steps,
        c,
        block,
        bandwidth,
        verify,
        forced_dead=forced_dead,
        faults=faults,
        policy=policy,
        recovery=recovery,
        min_copies=min_copies,
        engine=engine,
        telemetry=telemetry,
        checkpoint_stride=checkpoint_stride,
        resume_from=resume_from,
    )
    result.embedding = embedding
    return result


def work_efficient_block(host: HostArray, polylog_exponent: int = 3) -> int:
    """The paper's ``beta = d_ave * log^q n`` block factor (Section 3.3
    uses ``q = 3``); exposed with a tunable exponent so experiments can
    keep guest sizes tractable while preserving the scaling shape."""
    lg = max(1.0, math.log2(host.n))
    return max(1, int(round(host.d_ave * lg**polylog_exponent)))
