"""One pipelined-link run under the executor-backed ``simulate_*`` front-ends.

OVERLAP (Theorems 2-3), Theorem 4's blocks, the Theorem 5/6
composition and the baselines differ only in the assignment they hand
to one execution on the host's pipelined links; a folded ring differs
only in its dependency wiring and its verifier.  :func:`run_pipeline`
is that execution, and the only code that resolves the execution
policy, applies work stealing (recording ``steal_moves``), builds the
executor for the resolved tier, restores ``resume_from``, runs, and
verifies the run against a direct execution of the guest.  The
front-ends keep only their guest-specific work: killing and
assignment, the ring's fold wiring and verifier, the Fact-3 embedding,
the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import Assignment, steal_rebalance
from repro.core.dense import DenseExecutor, build_executor
from repro.core.executor import ExecResult
from repro.core.racing import resolve_policy
from repro.core.verify import verify_execution
from repro.delta import DeltaUnsupported
from repro.machine.guest import GuestArray
from repro.machine.host import HostArray
from repro.machine.programs import Program


@dataclass
class PipelineRun:
    """What one :func:`run_pipeline` call produced.

    ``assignment`` is the initial one, after stealing
    (``exec_result.assignment`` is the one the run finished on, smaller
    after a crash).  ``checkpoints`` and ``first_top_t`` come from the
    dense tiers (``[]`` and ``None`` on the greedy engine);
    ``checkpoints`` is also ``[]`` when no ``checkpoint_stride`` was
    given.
    """

    exec_result: ExecResult
    assignment: Assignment
    engine: str  # execution tier that ran: "dense" or "greedy"
    policy: str  # execution policy name
    verified: bool
    checkpoints: list
    first_top_t: int | None


def run_pipeline(
    host: HostArray,
    assignment: Assignment,
    program: Program,
    steps: int,
    bandwidth: int | None = None,
    *,
    engine: str = "auto",
    policy=None,
    faults=None,
    recovery=None,
    telemetry=None,
    checkpoint_stride: int | None = None,
    resume_from=None,
    reassign=None,
    dep_map=None,
    col_label=None,
    verify: bool = True,
    verifier=None,
) -> PipelineRun:
    """Run ``assignment`` of the guest on ``host``, then verify it.

    ``engine``, ``policy``, ``faults``, ``recovery``, ``telemetry``,
    ``checkpoint_stride`` and ``resume_from`` mean what they mean on
    :func:`~repro.core.overlap.simulate_overlap`; ``reassign``,
    ``dep_map`` and ``col_label`` go to the executor unchanged.  With
    ``verify``, ``verifier(exec_result)`` checks the run when given (a
    ring's); otherwise the run is compared with the array guest's
    reference run by :func:`~repro.core.verify.verify_execution`.
    """
    exec_policy = resolve_policy(policy)
    moves: list = []
    if exec_policy.stealing:
        assignment, moves = steal_rebalance(
            assignment, host, faults=faults, seed=exec_policy.steal_seed
        )
    executor = build_executor(
        engine, host, assignment, program, steps, bandwidth,
        checkpoint_stride=checkpoint_stride, faults=faults, policy=recovery,
        reassign=reassign, dep_map=dep_map, col_label=col_label,
        telemetry=telemetry, exec_policy=exec_policy,
    )
    dense = isinstance(executor, DenseExecutor)
    if resume_from is not None:
        if not dense:
            raise DeltaUnsupported(
                "resume_from requires the dense tier; this config resolved "
                "to the greedy engine"
            )
        executor.restore(resume_from)
    exec_result = executor.run()
    if moves:
        exec_result.stats.extras["steal_moves"] = len(moves)
    if verify and verifier is not None:
        verifier(exec_result)
    elif verify:
        # Reference built *after* the run: mid-run recovery may have
        # shrunk the guest to the surviving prefix 1..m'.
        guest = GuestArray(exec_result.assignment.m, program)
        verify_execution(exec_result, guest.run_reference(steps), program)
    return PipelineRun(
        exec_result, assignment, "dense" if dense else "greedy",
        exec_policy.name, bool(verify),
        list(executor.checkpoints) if dense else [],
        executor.first_top_t if dense else None,
    )
