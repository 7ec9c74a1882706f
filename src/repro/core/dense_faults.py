"""Dense tier under faults: the plan's boundaries and recovery handlers.

:class:`FaultedDenseExecutor` runs a non-empty
:class:`~repro.netsim.faults.FaultPlan` on the one timing loop of
:class:`~repro.core.dense.DenseExecutor`.  The compiled
:class:`~repro.netsim.faults.FaultTables` give a sorted timeline of
fault **boundaries** (crash times, outage/jitter window edges, drop arm
times — :meth:`FaultTables.boundaries`); between consecutive boundaries
the fault environment is time-invariant, so the loop replays the run
with the same machinery as a fault-free one — watermark arrays,
heap-keyed event buckets, the flat-integer link-slot rule, values
decoupled from timing.  Faults only add to the control side: the loop
schedules crash, stream-check and watchdog events, consults the fault
tables on faulty directed links, and snapshots its complete integer
state as a reusable :class:`ExecutorCheckpoint` at every boundary
crossed and at each epoch resume.

This module keeps only what is specific to faults: plan compilation,
the recovery policy (stall detection, retries, the watchdog window),
reassignment after a crash, and deadlock diagnostics.  The loop calls
these handlers for the fault events; a plan whose events all fall
outside the horizon compiles to nothing and runs the fault-free path.

Bit-identity with the greedy engine is preserved the same way the
fault-free case preserves it: the bucket sweep replays the exact
``(time, seq)`` event order of a fault run of :meth:`GreedyExecutor.run`,
including the per-destination injection order of faulty sends, the
one-shot drop consumption order, the per-directed-link monotone arrival
clamp, retry re-subscription order, and recovery epoch restarts.
Telemetry is fed inline, as on every dense run, and a fault run stamps
sends at their ready time, like the greedy engine's.

Scheduling decisions never read pebble *values* — fault timing included
— so values are still computed once, vectorised, from the final epoch's
guest (an epoch restart re-derives every database from scratch, hence
the final epoch alone determines all digests and replicas).

``tests/test_dense_faults.py`` asserts bit-identity (stats, digests,
replicas, telemetry timelines, deadlock diagnostics) differentially
against the greedy engine over faulted r1/chaos-style grids on line,
ring and graph topologies.
"""

from __future__ import annotations

from functools import partial

from repro.core.assignment import survivor_assignment
from repro.core.checkpoint import ExecutorCheckpoint
from repro.core.dense import _CHECK, _REQ, _RESUME, DenseExecutor
from repro.netsim.faults import RecoveryPolicy

__all__ = ["ExecutorCheckpoint", "FaultedDenseExecutor"]


class FaultedDenseExecutor(DenseExecutor):
    """Dense executor for faulted runs (see module docstring).

    Construction mirrors :class:`~repro.core.executor.GreedyExecutor`'s
    fault surface: ``faults`` (a non-empty plan), ``policy`` (default
    :class:`~repro.netsim.faults.RecoveryPolicy`) and ``reassign`` (the
    mid-run reconfiguration hook).  ``dep_map`` guests are supported for
    link-level faults; node crashes require the standard array
    dependency structure, exactly like the greedy engine.
    """

    def __init__(
        self,
        host,
        assignment,
        program,
        steps,
        bandwidth=None,
        dep_map=None,
        col_label=None,
        telemetry=None,
        faults=None,
        policy=None,
        reassign=None,
        checkpoint_stride=None,
    ) -> None:
        super().__init__(
            host,
            assignment,
            program,
            steps,
            bandwidth,
            dep_map=dep_map,
            col_label=col_label,
            telemetry=telemetry,
            checkpoint_stride=checkpoint_stride,
        )
        self.faults = faults
        self.policy = policy or RecoveryPolicy()
        self.reassign = reassign
        tables = None
        if faults is not None and not faults.is_empty:
            tables = faults.compile(host)
            if dep_map is not None and tables.crash_times:
                raise ValueError(
                    "node-crash injection supports the standard array "
                    "dependency structure only (dep_map must be None); "
                    "link-level faults are fine"
                )
        self._fault_tables = tables
        # An effect-free plan (all events at/after the declared
        # horizon) runs the zero-boundary case, bit-identical to the
        # greedy engine's identical elision.
        self._faulty = tables is not None and not tables.is_effect_free
        if self._faulty:
            # assignment.load() is invariant between reassignments but
            # O(n * m) to recompute, and every stream check needs it.
            self._load = assignment.load()

    def run(self):
        if not self._faulty:
            return super().run()
        return self._execute()

    # -- recovery policy (mirrors GreedyExecutor) ------------------------
    def _watch_window(self) -> int:
        base = self.policy.timeout(self.host.total_delay)
        return max(32, int(self.policy.watchdog_factor * base))

    def _stream_timeout(self, p: int, q: int) -> int:
        return self.policy.timeout(self.host.distance(p, q) + self._load)

    def _init_streams(self, now: int, push) -> None:
        """One stall record ``[provider, attempts, retries,
        watermark at last check]`` and one pending ``_CHECK`` per
        subscription stream."""
        ep = self._epoch
        W_of, _, _, _, ext_idx = self._layout[:5]
        provider_of: dict[tuple[int, int], int] = {}
        for (q, c), subs in self.subscribers.items():
            for p in subs:
                provider_of[(p, c)] = q
        self._streams = {}
        for (p, c), q in sorted(provider_of.items()):
            self._streams[(p, c)] = [q, 0, 0, int(W_of[p][ext_idx[p][c]])]
            push(now + self._stream_timeout(p, q), (_CHECK, p, c, ep))

    def _check_stream(self, p: int, c: int, ep: int, now: int, push) -> None:
        """Stall check on the stream feeding column ``c`` to ``p``:
        re-arm while it progresses, else re-request the missing suffix
        from the next live replica (a deadlock once the retry budget is
        spent)."""
        if ep != self._epoch or p in self._dead:
            return
        W_of, _, _, _, ext_idx = self._layout[:5]
        idx = ext_idx[p]
        wi = idx.get(c) if idx is not None else None
        stream = self._streams.get((p, c))
        if wi is None or stream is None:
            return
        wm = int(W_of[p][wi])
        if wm >= self.T:
            return  # stream complete
        provider, attempts, retries, last_t = stream
        if wm > last_t:  # progressing normally
            stream[3] = wm
            push(now + self._stream_timeout(p, provider), (_CHECK, p, c, ep))
            return
        if retries >= self.policy.max_retries:
            raise self._deadlock(
                f"stream {provider}->{p} for column {c} stalled "
                f"at t={wm} after {retries} retries"
            )
        candidates = [
            q
            for q in self.assignment.owners().get(c, ())
            if q not in self._dead
        ]
        if not candidates:
            raise self._deadlock(
                f"no live replica of column {c} left to retry from"
            )
        host = self.host
        candidates.sort(key=lambda q: (host.distance(p, q), abs(q - p), q))
        stream[1] = attempts + 1
        q2 = candidates[attempts % len(candidates)]
        if q2 != provider:
            old = self.subscribers.get((provider, c))
            if old and p in old:
                old.remove(p)
            self.subscribers.setdefault((q2, c), []).append(p)
            stream[0] = q2
        self._fault_log.append(
            f"t={now} retry: {p} re-requests column {c} "
            f"(past t={wm}) from {q2}"
        )
        if self.telemetry is not None:
            self.telemetry.fault(now, "retry", f"{p} col {c} from {q2}")
        push(now + max(1, host.distance(p, q2)), (_REQ, q2, p, c, wm, ep))
        push(now + self._stream_timeout(p, q2), (_CHECK, p, c, ep))

    # -- reassignment ----------------------------------------------------
    def _reassign(self, dead):
        """The survivors' assignment for crashed set ``dead``."""
        reassign = self.reassign or partial(
            survivor_assignment, self.host, block=self.assignment.block
        )
        try:
            return reassign(frozenset(dead))
        except ValueError as exc:
            raise self._deadlock(f"reconfiguration impossible: {exc}") from exc

    def _adopt(self, assignment, dead) -> None:
        """Switch the executor to ``assignment`` (a crash's
        reconfiguration, or a restore past one): subscriptions, layout
        and the holders-to-be are rebuilt for it."""
        self._reassign_dead = sorted(dead)
        self.assignment = assignment
        self.m = assignment.m
        self.used = assignment.used_positions()
        self._load = assignment.load()
        self._build_subscriptions()
        self._build_layout()
        self._pending_holders = assignment.owners()

    def _crash(self, pos: int, now: int, stats, push) -> int | None:
        """A scripted node crash.  Returns the new remaining-pebble
        count when it forces a reconfiguration, else ``None``."""
        if pos in self._dead:
            return None
        self._dead.add(pos)
        stats.crashed_nodes += 1
        self._fault_log.append(f"t={now} crash node {pos}")
        tl = self.telemetry
        if tl is not None:
            tl.fault(now, "crash", f"node {pos}")
        for holders in self._holders.values():
            holders.discard(pos)
        if self.assignment.ranges[pos] is None:
            return None  # relay-only node: no databases lost
        old_m = self.m
        assignment = self._reassign(self._dead)
        missing = [
            c for c in range(1, assignment.m + 1) if not self._holders.get(c)
        ]
        if missing:
            raise self._deadlock(
                "no replica of a needed database interval survives: "
                f"columns {missing[:10]}"
                f"{'...' if len(missing) > 10 else ''}"
            )
        stats.recoveries += 1
        if assignment.m < old_m:
            stats.columns_lost += old_m - assignment.m
        self._epoch += 1
        self._adopt(assignment, self._dead)
        self._streams = {}
        penalty = self.policy.restart_penalty
        if penalty is None:
            penalty = self.host.total_delay
        self._fault_log.append(
            f"t={now} recovery: epoch {self._epoch}, m {old_m}->{self.m}, "
            f"resume at t={now + penalty}"
        )
        if tl is not None:
            tl.fault(now, "recovery", f"epoch {self._epoch}: m {old_m}->{self.m}")
            tl.spans.close_all(now)
            tl.spans.begin("recovery", now, track="epochs")
            tl.spans.end(now + penalty)
            tl.spans.begin(
                "epoch", now + penalty, track="epochs", epoch=self._epoch
            )
        push(now + penalty, (_RESUME, self._epoch))
        return sum(self._layout[3][p] for p in self.used) * self.T

    def _resume(self, now: int, push, try_start) -> None:
        """End of a restart window: the new owners become holders (their
        sources must have survived the window) and the epoch starts."""
        missing = [c for c in range(1, self.m + 1) if not self._holders.get(c)]
        if missing:
            raise self._deadlock(
                "no replica of a needed database interval "
                "survived the restart window: columns "
                f"{missing[:10]}"
                f"{'...' if len(missing) > 10 else ''}"
            )
        self._holders = {
            c: set(ps) - self._dead for c, ps in self._pending_holders.items()
        }
        for p in self.used:
            try_start(p, now)
        self._init_streams(now, push)

    # -- diagnostics -----------------------------------------------------
    def _deadlock(self, message: str):
        """Same diagnostics as the greedy engine, read off the
        watermark arrays (same tuple order: own columns lo..hi per used
        position; ext columns in sorted-needed order)."""
        from repro.core.executor import SimulationDeadlock

        T = self.T
        W_of, _, lo_of, k_of, ext_idx = self._layout[:5]
        pending = []
        undelivered = []
        for p in self.used:
            w = W_of[p]
            for i in range(k_of[p]):
                if w[i] < T:
                    pending.append((p, lo_of[p] + i, int(w[i])))
        for p in self.used:
            w = W_of[p]
            for c in self._ext_cols[p]:
                wt = int(w[ext_idx[p][c]])
                if wt < T:
                    undelivered.append((p, c, wt))
        return SimulationDeadlock(
            message,
            pending=pending,
            undelivered=undelivered,
            fault_log=list(self._fault_log),
        )
