"""Greedy event-driven executor for contiguous column assignments.

This is the engine that actually *runs* a database-model simulation on
a host array.  It takes any assignment mapping host positions to
contiguous guest-column ranges (OVERLAP's, Theorem 4's blocks, a
baseline's) and executes greedily:

* every owner of column ``i`` computes **all** pebbles ``(i, 1..T)`` in
  order (the database forces the order — the paper's redundant
  computation);
* a processor computes one pebble per step, always picking the ready
  pebble with the smallest ``(t, i)``;
* each processor that needs an external boundary column subscribes to
  its nearest owner, which pushes every pebble of that column as it is
  computed, hop by hop over the pipelined links.

Greedy execution is a feasible realisation of the paper's explicit
schedule (Theorem 1 exhibits *one* feasible timing; eager execution
with the same assignment can only complete each pebble no later), so
the measured makespan validates the upper-bound theorems, and the
executor doubles as the baseline engine when given redundancy-free
assignments.

The implementation follows the hot-loop rules of the HPC guides: plain
lists and dicts bound to locals, integer event tags, a single heap, no
per-pebble object allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.assignment import Assignment, survivor_assignment
from repro.machine.database import Database
from repro.machine.host import HostArray
from repro.machine.mixing import fold_s
from repro.machine.pebbles import (
    BOUNDARY_LEFT,
    BOUNDARY_RIGHT,
    boundary_value,
    initial_value,
)
from repro.machine.programs import Program
from repro.core.racing import ExecPolicy, resolve_policy
from repro.netsim.events import EventQueue
from repro.netsim.faults import LOST, FaultPlan, RecoveryPolicy
from repro.netsim.stats import SimStats, latencies_from_completions

_DONE = 0
_MSG = 1
# Fault-mode event kinds (only pushed when a non-empty FaultPlan runs).
_CRASH = 2
_RESUME = 3
_CHECK = 4
_REQ = 5
_WATCH = 6


class SimulationDeadlock(RuntimeError):
    """The run cannot make progress before every pebble is computed.

    Carries diagnostic state:

    ``pending``
        ``(position, column, last computed t)`` for every replica that
        never reached ``T``.
    ``undelivered``
        ``(position, column, watermark)`` for every subscription stream
        whose delivery watermark is short of ``T``.
    ``fault_log``
        Human-readable fault/recovery events seen before the deadlock
        (empty on fault-free runs).
    """

    def __init__(
        self,
        message: str,
        pending: list | None = None,
        undelivered: list | None = None,
        fault_log: list | None = None,
    ) -> None:
        details = []
        if pending:
            details.append(f"{len(pending)} stuck replicas, first: {pending[:5]}")
        if undelivered:
            details.append(
                f"{len(undelivered)} stalled streams, first: {undelivered[:5]}"
            )
        if fault_log:
            details.append(
                f"{len(fault_log)} fault events, last: {fault_log[-3:]}"
            )
        if details:
            message = f"{message} [{'; '.join(details)}]"
        super().__init__(message)
        self.pending = pending or []
        self.undelivered = undelivered or []
        self.fault_log = fault_log or []


@dataclass
class ExecResult:
    """Everything a run produces.

    ``value_digests[(p, col)]`` folds the column's pebble values in
    ``t`` order; ``replicas[(p, col)]`` is the final database replica.
    Both are compared against the reference run by
    :mod:`repro.core.verify`.
    """

    stats: SimStats
    steps: int
    assignment: Assignment
    value_digests: dict[tuple[int, int], int] = field(default_factory=dict)
    replicas: dict[tuple[int, int], Database] = field(default_factory=dict)

    def slowdown(self) -> float:
        """Host steps per guest step."""
        return self.stats.slowdown(self.steps)


class GreedyExecutor:
    """One-shot executor; build, :meth:`run`, read the result."""

    __slots__ = (
        "host",
        "assignment",
        "program",
        "T",
        "fabric",
        "m",
        "dep_map",
        "col_label",
        "telemetry",
        "multicast",
        "_tie_seed",
        "_rank",
        "faults",
        "policy",
        "exec_policy",
        "_racing",
        "_raced",
        "_step_done",
        "_cancelled",
        "_raced_wins",
        "_raced_losses",
        "reassign",
        "_faulty",
        "_epoch",
        "_fault_tables",
        "used",
        "own_range",
        "vals",
        "done",
        "dbs",
        "ext",
        "busy",
        "subscribers",
        "_streams",
        "_dead",
        "_fault_log",
        "_holders",
        "_pending_holders",
    )

    def __init__(
        self,
        host: HostArray,
        assignment: Assignment,
        program: Program,
        steps: int,
        bandwidth: int | None = None,
        dep_map: dict[int, tuple[int, int]] | None = None,
        col_label=None,
        multicast: bool = False,
        tie_seed: int | None = None,
        faults: FaultPlan | None = None,
        policy: RecoveryPolicy | None = None,
        reassign=None,
        telemetry=None,
        exec_policy: ExecPolicy | str | None = None,
    ) -> None:
        """Build an executor.

        ``dep_map`` generalises the dependency structure: it maps each
        column to its two *lateral source columns* (default: ``c-1``
        and ``c+1`` with virtual boundary columns 0 / m+1).  Ring
        guests use it to wire fold-embedded neighbours
        (:mod:`repro.core.ring`).  With a ``dep_map`` there are no
        virtual boundaries — every source must be a real column.

        ``col_label`` relabels columns for the *program* (initial
        values, database identity, the ``i`` passed to ``compute``):
        ring simulation places ring node ``k`` at some array column
        ``j``, and the guest semantics must follow ``k``, not ``j``.

        ``faults`` is an optional :class:`~repro.netsim.faults.FaultPlan`
        to inject during the run; a plan with an effect inside the
        horizon turns on the fault machinery of :meth:`run` (``policy``
        tunes detection/recovery, ``reassign`` maps a dead-position set
        to a reduced :class:`Assignment` — default:
        :func:`~repro.core.assignment.survivor_assignment`).  An empty
        or effect-free plan runs bit-identical to no plan.

        ``telemetry`` is an optional
        :class:`~repro.telemetry.timeline.MetricsTimeline` to fill with
        per-step counters, fault marks and one record per pebble.
        :meth:`run` has one event loop for every mode; the timeline only
        observes it (a ``None`` check per recording site), so results
        are identical with or without one.

        ``exec_policy`` selects the issue discipline
        (:class:`~repro.core.racing.ExecPolicy` or a name string).
        With ``racing`` each external column subscribes to up to
        ``fanout`` nearest owners; deliveries are first-wins with
        losers cancelled at the source or in flight.  Value digests
        stay identical to the single-issue run — only timing, message
        counts and the step-latency tail change.
        """
        if assignment.n != host.n:
            raise ValueError(
                f"assignment is for {assignment.n} positions, host has {host.n}"
            )
        from repro.core.killing import validate_steps

        steps = validate_steps(steps)
        assignment.validate()
        self.host = host
        self.assignment = assignment
        self.program = program
        self.T = steps
        self.fabric = host.fabric(bandwidth)
        self.m = assignment.m
        self.dep_map = dep_map
        self.col_label = col_label or (lambda c: c)
        self.telemetry = telemetry
        self.multicast = multicast
        self.exec_policy = resolve_policy(exec_policy)
        self._racing = self.exec_policy.racing and self.exec_policy.fanout > 1
        if self._racing and multicast:
            raise ValueError(
                "racing and multicast are mutually exclusive: a multicast "
                "stream shares one message among subscribers, so there is "
                "no per-subscriber replica race to cancel"
            )
        self._step_done = None
        self._cancelled = 0
        self._raced_wins = 0
        self._raced_losses = 0
        self._raced: set[tuple[int, int]] = set()
        self._tie_seed = tie_seed
        self._make_rank()
        self.faults = faults
        self.policy = policy or RecoveryPolicy()
        self.reassign = reassign
        self._epoch = 0
        if faults is not None and not faults.is_empty:
            # Compile first: a non-empty plan can still be effect-free
            # (every event at/after the declared horizon) and then takes
            # the plain fault-free loop, bit-identical to no plan.
            tables = faults.compile(host)
            self._faulty = not tables.is_effect_free
        else:
            tables = None
            self._faulty = False
        if self._faulty:
            if dep_map is not None and tables.crash_times:
                raise ValueError(
                    "node-crash injection supports the standard array "
                    "dependency structure only (dep_map must be None); "
                    "link-level faults are fine"
                )
            self._fault_tables = tables
            self.fabric.attach_faults(self._fault_tables)
        else:
            self._fault_tables = None
        if dep_map is not None:
            for c in range(1, self.m + 1):
                if c not in dep_map:
                    raise ValueError(f"dep_map missing column {c}")
                for src in dep_map[c]:
                    if not 1 <= src <= self.m:
                        raise ValueError(
                            f"dep_map[{c}] source {src} outside 1..{self.m}"
                        )
        self._build_state()

    def _make_rank(self) -> None:
        # Optional scheduling jitter: permute the within-row column
        # preference.  Correctness must not depend on scheduling order
        # (any work-conserving order simulates the guest exactly);
        # tests sweep seeds to prove it.  None = natural column order.
        if self._tie_seed is None:
            self._rank = None
        else:
            import numpy as _np

            perm = _np.random.default_rng(self._tie_seed).permutation(self.m + 1)
            self._rank = {c: int(perm[c]) for c in range(1, self.m + 1)}

    def _deps(self, c: int) -> tuple[int, int]:
        """Lateral source columns of ``c`` (left-like, right-like)."""
        if self.dep_map is None:
            return (c - 1, c + 1)
        return self.dep_map[c]

    def _build_state(self) -> None:
        T, m = self.T, self.m
        prog = self.program
        self.used = self.assignment.used_positions()
        self.own_range: dict[int, tuple[int, int]] = {}
        self.vals: dict[int, dict[int, list]] = {}
        self.done: dict[int, dict[int, int]] = {}
        self.dbs: dict[int, dict[int, Database]] = {}
        self.ext: dict[int, dict[int, list]] = {}  # col -> [t_known, values]
        self.busy: dict[int, bool] = {}
        self.subscribers: dict[tuple[int, int], list[int]] = {}

        owners = self.assignment.owners()
        label = self.col_label
        self._raced = set()
        fanout = self.exec_policy.fanout if self._racing else 1
        for p in self.used:
            lo, hi = self.assignment.ranges[p]
            self.own_range[p] = (lo, hi)
            self.busy[p] = False
            pv: dict[int, list] = {}
            pd: dict[int, int] = {}
            pdb: dict[int, Database] = {}
            for c in range(lo, hi + 1):
                col_vals = [0] * (T + 1)
                col_vals[0] = initial_value(label(c))
                pv[c] = col_vals
                pd[c] = 0
                pdb[c] = Database(label(c), prog.init_state(label(c)))
            self.vals[p] = pv
            self.done[p] = pd
            self.dbs[p] = pdb
            needed = sorted(
                {
                    src
                    for c in range(lo, hi + 1)
                    for src in self._deps(c)
                    if 1 <= src <= m and not (lo <= src <= hi)
                }
            )
            pext: dict[int, list] = {}
            for c in needed:
                ext_vals = [0] * (T + 1)
                ext_vals[0] = initial_value(label(c))
                pext[c] = [0, ext_vals]
                candidates = owners[c]
                if fanout > 1 and len(candidates) > 1:
                    # Racing: subscribe to the ``fanout`` nearest owners;
                    # their streams race and the first delivery wins.
                    near = sorted(
                        candidates,
                        key=lambda q: (self.host.distance(p, q), abs(q - p), q),
                    )[:fanout]
                    for q in near:
                        self.subscribers.setdefault((q, c), []).append(p)
                    self._raced.add((p, c))
                else:
                    q = min(
                        candidates,
                        key=lambda q: (self.host.distance(p, q), abs(q - p), q),
                    )
                    self.subscribers.setdefault((q, c), []).append(p)
            self.ext[p] = pext

    # -- knowledge ------------------------------------------------------
    def _value(self, p: int, c: int, t: int) -> int:
        if c == 0:
            return boundary_value(BOUNDARY_LEFT, t)
        if c == self.m + 1:
            return boundary_value(BOUNDARY_RIGHT, t)
        pv = self.vals[p]
        if c in pv:
            return pv[c][t]
        return self.ext[p][c][1][t]

    # -- engine ----------------------------------------------------------
    def _try_start(self, p: int, now: int, queue: EventQueue) -> None:
        if self.busy[p]:
            return
        # Hot loop (profiled at ~75% of executor time): the readiness
        # check and _deps are inlined and locals bound once per call.
        T = self.T
        m = self.m
        pd = self.done[p]
        ext = self.ext[p]
        rank = self._rank
        dep_map = self.dep_map
        best_t = T + 1
        best_c = -1
        best_r = -1
        for c, dt in pd.items():
            t = dt + 1
            if t > T:
                continue
            r = rank[c] if rank is not None else c
            if t > best_t or (t == best_t and r >= best_r):
                continue
            if dep_map is None:
                src_l = c - 1
                src_r = c + 1
            else:
                src_l, src_r = dep_map[c]
            tt = dt  # == t - 1
            if 1 <= src_l <= m:
                have = pd.get(src_l)
                if (have if have is not None else ext[src_l][0]) < tt:
                    continue
            if 1 <= src_r <= m:
                have = pd.get(src_r)
                if (have if have is not None else ext[src_r][0]) < tt:
                    continue
            best_t, best_c, best_r = t, c, r
        if best_c < 0:
            return
        t, c = best_t, best_c
        src_l, src_r = self._deps(c)
        left = self._value(p, src_l, t - 1)
        up = self.vals[p][c][t - 1]
        right = self._value(p, src_r, t - 1)
        db = self.dbs[p][c]
        value, update = self.program.compute(
            self.col_label(c), t, db.state, left, up, right
        )
        db.apply(self.program, update)
        self.vals[p][c][t] = value
        self.busy[p] = True
        queue.push(now + 1, _DONE, (p, c, t, self._epoch))

    def run(self) -> ExecResult:
        """Execute the assignment: the executor's one event loop.

        Every mode runs this loop.  Telemetry, multicast and racing
        branch on locals bound once per run; what only a fault run
        needs is gated by ``faulty`` (a plan with an effect inside the
        horizon):

        * scripted ``_CRASH`` events and mid-run reconfiguration, whose
          epoch bump discards every event still in flight;
        * per-stream stall detection and retry (``_CHECK``/``_REQ``)
          and a no-progress watchdog (``_WATCH``) that turns a wedged
          schedule into :class:`SimulationDeadlock`;
        * lossy hops (``hop_faulty`` may return ``LOST``), tolerated
          delivery gaps, and a stop at the last pebble that abandons
          in-flight relays.

        A fault-free run treats an out-of-order delivery as an
        invariant error and relays every message to its destination,
        so its counters match the dense tier bit for bit.

        Racing deliveries are first-wins: the next in-order pebble
        advances the watermark; a duplicate is a losing replica's
        answer, value-checked against the winner and counted as a raced
        loss.  Following "Low Latency via Redundancy", a pebble the
        subscriber is already past is cancelled at the source (never
        injected) and at every relay hop, so abandoned messages stop
        consuming link slots.
        """
        stats = SimStats()
        queue = EventQueue()
        T = self.T
        tl = self.telemetry
        faulty = self._faulty
        racing = self._racing
        if tl is not None:
            tl.meta.setdefault("engine", "greedy")
        if faulty:
            self._dead: set[int] = set()
            self._fault_log: list[str] = []
            self._streams: dict[tuple[int, int], list] = {}
            stats.faults_injected = len(self.faults.events)
            # column -> live positions holding a replica (recovery sources)
            self._holders = {
                c: set(ps) for c, ps in self.assignment.owners().items()
            }
        remaining = sum(len(self.done[p]) for p in self.used) * T

        if T == 0 or remaining == 0:
            return self._finish(stats, 0)

        sd = self._step_done = [0] * (T + 1)
        if tl is not None:
            tl.spans.begin("epoch", 0, track="epochs", epoch=0)
        if faulty:
            for pos, t_crash in sorted(self._fault_tables.crash_times.items()):
                queue.push(t_crash, _CRASH, pos)
        for p in self.used:
            self._try_start(p, 0, queue)
        progress = 0
        if faulty:
            self._init_streams(0, queue)
            queue.push(self._watch_window(), _WATCH, progress)

        # Hot loop: everything touched per event is bound to a local once
        # (attribute lookups profiled as a double-digit share of runtime)
        # and rebound after a reconfiguration; the counters accumulate in
        # plain ints and are written back to ``stats`` after the loop.
        host = self.host
        policy = self.policy
        fabric = self.fabric
        hop = fabric.hop_faulty if faulty else fabric.hop
        delays = fabric.link_delays
        busy, done, vals, ext = self.busy, self.done, self.vals, self.ext
        raced = self._raced
        subscribers_get = self.subscribers.get
        try_start = self._try_start
        push = queue.push
        pop = queue.pop
        multicast = self.multicast
        epoch = self._epoch
        makespan = 0
        n_pebbles = n_messages = n_lost = 0
        n_cancelled = n_wins = n_losses = 0
        while queue:
            ev = pop()
            now = ev.time
            kind = ev.kind
            if kind == _DONE:
                p, c, t, ep = ev.data
                if ep != epoch:
                    continue  # pre-reconfiguration work, discarded
                busy[p] = False
                done[p][c] = t
                n_pebbles += 1
                remaining -= 1
                progress += 1
                if tl is not None:
                    tl.pebble(now, p, c, t)
                if now > makespan:
                    makespan = now
                if now > sd[t]:
                    sd[t] = now
                subs = subscribers_get((p, c))
                if subs:
                    value = vals[p][c][t]
                    if multicast:
                        # One stream per direction; intermediate
                        # subscribers peel their copy off as it passes.
                        left = tuple(sorted((d for d in subs if d < p), reverse=True))
                        right = tuple(sorted(d for d in subs if d > p))
                        sends = [targets for targets in (left, right) if targets]
                    else:
                        sends = [(dst,) for dst in subs]
                    for targets in sends:
                        dst = targets[0]
                        if racing and ext[dst][c][0] >= t:
                            # The race for (c, t) is over: cancel at the
                            # source, never consuming a link slot.
                            n_cancelled += 1
                            if tl is not None:
                                tl.cancel(now)
                            continue
                        n_messages += 1
                        if tl is not None:
                            tl.message(now)
                        step = 1 if dst > p else -1
                        arr = hop(p, step, now)
                        if arr is LOST:
                            n_lost += 1
                            if tl is not None:
                                tl.send(now, now)
                                tl.drop(now)
                            continue
                        if tl is not None:
                            link = p if step == 1 else p - 1
                            tl.send(now if faulty else arr - delays[link], arr)
                        push(arr, _MSG, (p + step, targets, c, t, value, epoch))
                if faulty and remaining == 0:
                    break
                try_start(p, now, queue)
            elif kind == _MSG:
                pos, targets, c, t, value, ep = ev.data
                if ep != epoch:
                    continue
                dst = targets[0]
                if pos == dst:
                    e = ext[pos][c]
                    if t == e[0] + 1:
                        e[1][t] = value
                        e[0] = t
                        progress += 1
                        if racing and (pos, c) in raced:
                            n_wins += 1
                        if tl is not None:
                            tl.deliver(now)
                        try_start(pos, now, queue)
                    elif racing and t <= e[0]:
                        # A losing replica's answer arrived end to end:
                        # it must agree with the winner (the
                        # digest-consistency check of the race).
                        if e[1][t] != value:
                            raise AssertionError(
                                f"raced replicas disagree on ({c},{t}) at "
                                f"{pos}: winner {e[1][t]!r} vs loser {value!r}"
                            )
                        n_losses += 1
                    elif not faulty:  # pragma: no cover - invariant guard
                        raise AssertionError(
                            f"out-of-order delivery of ({c},{t}) at {pos}: "
                            f"have {e[0]}"
                        )
                    # A fault run ignores replayed duplicates and the gap
                    # behind a lost predecessor; a retry fills it.
                    targets = targets[1:]
                    if not targets:
                        continue
                    dst = targets[0]
                if racing and ext[dst][c][0] >= t:
                    # Cancelled in flight: the destination is past this
                    # pebble, stop relaying it.
                    n_cancelled += 1
                    if tl is not None:
                        tl.cancel(now)
                    continue
                step = 1 if dst > pos else -1
                arr = hop(pos, step, now)
                if arr is LOST:
                    n_lost += 1
                    if tl is not None:
                        tl.send(now, now)
                        tl.drop(now)
                    continue
                if tl is not None:
                    link = pos if step == 1 else pos - 1
                    tl.send(now if faulty else arr - delays[link], arr)
                push(arr, _MSG, (pos + step, targets, c, t, value, epoch))
            elif kind == _CRASH:
                pos = ev.data
                if pos in self._dead:
                    continue
                self._dead.add(pos)
                stats.crashed_nodes += 1
                self._fault_log.append(f"t={now} crash node {pos}")
                if tl is not None:
                    tl.fault(now, "crash", f"node {pos}")
                for holders in self._holders.values():
                    holders.discard(pos)
                if self.assignment.ranges[pos] is None:
                    continue  # relay-only node: no databases lost
                remaining = self._reconfigure(now, queue, stats)
                epoch = self._epoch
                busy, done, vals, ext = self.busy, self.done, self.vals, self.ext
                raced = self._raced
                subscribers_get = self.subscribers.get
            elif kind == _RESUME:
                if ev.data != epoch:
                    continue
                # Copies complete now: the sources must have survived
                # the whole restart window.
                missing = [
                    c for c in range(1, self.m + 1) if not self._holders.get(c)
                ]
                if missing:
                    raise self._deadlock(
                        "no replica of a needed database interval survived "
                        f"the restart window: columns {missing[:10]}"
                        f"{'...' if len(missing) > 10 else ''}"
                    )
                self._holders = {
                    c: set(ps) - self._dead
                    for c, ps in self._pending_holders.items()
                }
                for p in self.used:
                    try_start(p, now, queue)
                self._init_streams(now, queue)
            elif kind == _CHECK:
                p, c, ep = ev.data
                if ep != epoch or p in self._dead:
                    continue
                e = ext.get(p, {}).get(c)
                stream = self._streams.get((p, c))
                if e is None or stream is None or e[0] >= T:
                    continue  # stream gone or complete
                provider, attempts, retries, last_t = stream
                if e[0] > last_t:  # progressing normally
                    stream[3] = e[0]
                    push(now + self._stream_timeout(p, provider), _CHECK, (p, c, ep))
                    continue
                if retries >= policy.max_retries:
                    raise self._deadlock(
                        f"stream {provider}->{p} for column {c} stalled at "
                        f"t={e[0]} after {retries} retries"
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
                candidates.sort(key=lambda q: (host.distance(p, q), abs(q - p), q))
                stream[1] = attempts + 1
                q2 = candidates[attempts % len(candidates)]
                if q2 != provider:
                    old = subscribers_get((provider, c))
                    if old and p in old:
                        old.remove(p)
                    self.subscribers.setdefault((q2, c), []).append(p)
                    stream[0] = q2
                self._fault_log.append(
                    f"t={now} retry: {p} re-requests column {c} (past t={e[0]}) "
                    f"from {q2}"
                )
                if tl is not None:
                    tl.fault(now, "retry", f"{p} col {c} from {q2}")
                push(now + max(1, host.distance(p, q2)), _REQ, (q2, p, c, e[0], ep))
                push(now + self._stream_timeout(p, q2), _CHECK, (p, c, ep))
            elif kind == _REQ:
                q, p, c, from_t, ep = ev.data
                if ep != epoch or q in self._dead:
                    continue
                have = done.get(q, {}).get(c)
                if have is None or have <= from_t:
                    # Nothing undelivered at the provider: the stream was
                    # merely slow, not faulty — no retry budget consumed.
                    continue
                stream = self._streams.get((p, c))
                if stream is not None:
                    stream[2] += 1
                stats.retries += 1
                step = 1 if p > q else -1
                col_vals = vals[q][c]
                count = have - from_t
                if not self._fault_tables.has_link_faults():
                    # Whole-stream replay with no link faults scripted:
                    # every per-pebble fault check is a no-op, so the
                    # batched injection is exactly equivalent.
                    n_messages += count
                    if tl is not None:
                        tl.message(now, count)
                    arrivals = fabric.hop_many(q, step, now, count)
                    if tl is not None:
                        for arr in arrivals:
                            tl.send(now, arr)
                    for t, arr in zip(range(from_t + 1, have + 1), arrivals):
                        push(arr, _MSG, (q + step, (p,), c, t, col_vals[t], ep))
                else:
                    for t in range(from_t + 1, have + 1):
                        n_messages += 1
                        if tl is not None:
                            tl.message(now)
                        arr = hop(q, step, now)
                        if arr is LOST:
                            n_lost += 1
                            if tl is not None:
                                tl.send(now, now)
                                tl.drop(now)
                        else:
                            if tl is not None:
                                tl.send(now, arr)
                            push(arr, _MSG, (q + step, (p,), c, t, col_vals[t], ep))
            else:  # _WATCH
                if remaining and progress == ev.data:
                    raise self._deadlock("no progress for a full watchdog window")
                if remaining:
                    push(now + self._watch_window(), _WATCH, progress)

        stats.pebbles = n_pebbles
        stats.messages = n_messages
        stats.lost_messages = n_lost
        self._cancelled = n_cancelled
        self._raced_wins = n_wins
        self._raced_losses = n_losses
        if remaining:
            raise self._deadlock(f"{remaining} pebbles never computed")
        if tl is not None:
            tl.spans.close_all(makespan)
        return self._finish(stats, makespan)

    # -- fault-aware engine ----------------------------------------------
    def _deadlock(self, message: str) -> SimulationDeadlock:
        """Build a :class:`SimulationDeadlock` with full diagnostics."""
        T = self.T
        pending = [
            (p, c, self.done[p][c])
            for p in self.used
            for c in self.done[p]
            if self.done[p][c] < T
        ]
        undelivered = [
            (p, c, e[0])
            for p in self.used
            for c, e in self.ext[p].items()
            if e[0] < T
        ]
        return SimulationDeadlock(
            message,
            pending=pending,
            undelivered=undelivered,
            fault_log=list(getattr(self, "_fault_log", ())),
        )

    def _watch_window(self) -> int:
        """No-progress watchdog period: generously longer than the
        slowest legitimate stream timeout, so it only fires on runs
        that are genuinely wedged (guaranteeing termination)."""
        base = self.policy.timeout(self.host.total_delay)
        return max(32, int(self.policy.watchdog_factor * base))

    def _init_streams(self, now: int, queue: EventQueue) -> None:
        """(Re)build the stall-detection records: one per subscription
        stream, each with a pending ``_CHECK`` event."""
        ep = self._epoch
        policy = self.policy
        self._streams = {}
        provider_of: dict[tuple[int, int], int] = {}
        if self._racing:
            # Raced columns have several providers; the stall record
            # watches the *primary* (nearest) one, deterministically —
            # dict overwrite order would pick an arbitrary replica.
            host = self.host
            providers: dict[tuple[int, int], list[int]] = {}
            for (q, c), subs in self.subscribers.items():
                for p in subs:
                    providers.setdefault((p, c), []).append(q)
            for (p, c), qs in providers.items():
                provider_of[(p, c)] = min(
                    qs, key=lambda q: (host.distance(p, q), abs(q - p), q)
                )
        else:
            for (q, c), subs in self.subscribers.items():
                for p in subs:
                    provider_of[(p, c)] = q
        for (p, c), q in sorted(provider_of.items()):
            # [provider, attempts, retries consumed, watermark at last check]
            self._streams[(p, c)] = [q, 0, 0, self.ext[p][c][0]]
            queue.push(now + self._stream_timeout(p, q), _CHECK, (p, c, ep))

    def _stream_timeout(self, p: int, q: int) -> int:
        """Stall deadline for the stream ``q -> p``: transit time plus
        the provider's production cadence (it round-robins ``load``
        columns, so one pebble of any single column every ~``load``
        steps is normal, not a stall)."""
        return self.policy.timeout(
            self.host.distance(p, q) + self.assignment.load()
        )

    def _reconfigure(self, now: int, queue: EventQueue, stats: SimStats) -> int:
        """Mid-run recovery after a database-holding node crashed.

        Re-runs killing/labelling on the survivors (via ``reassign``),
        checks every surviving guest column still has a live replica to
        clone from, then restarts the epoch: fresh databases, reduced
        guest ``1..m'``, execution resuming after ``restart_penalty``
        host steps.  Returns the new remaining-pebble count.
        """
        old_m = self.m
        reassign = self.reassign or partial(
            survivor_assignment, self.host, block=self.assignment.block
        )
        try:
            assignment = reassign(frozenset(self._dead))
        except ValueError as exc:
            raise self._deadlock(f"reconfiguration impossible: {exc}") from exc
        # Databases are data, not code: a column can only be re-hosted by
        # copying a surviving replica.  No live copy => unrecoverable.
        missing = [c for c in range(1, assignment.m + 1) if not self._holders.get(c)]
        if missing:
            raise self._deadlock(
                "no replica of a needed database interval survives: columns "
                f"{missing[:10]}{'...' if len(missing) > 10 else ''}"
            )
        stats.recoveries += 1
        if assignment.m < old_m:
            stats.columns_lost += old_m - assignment.m
        self._epoch += 1
        self.assignment = assignment
        self.m = assignment.m
        self._make_rank()
        self._build_state()
        # The new owners copy their intervals from the surviving
        # replicas *during* the restart window; they only become
        # holders at _RESUME (and the sources must stay alive until
        # then) — a correlated crash inside the window can still
        # destroy the last copy.
        self._pending_holders = assignment.owners()
        self._streams = {}
        penalty = self.policy.restart_penalty
        if penalty is None:
            penalty = self.host.total_delay
        self._fault_log.append(
            f"t={now} recovery: epoch {self._epoch}, m {old_m}->{self.m}, "
            f"resume at t={now + penalty}"
        )
        if self.telemetry is not None:
            tl = self.telemetry
            tl.fault(now, "recovery", f"epoch {self._epoch}: m {old_m}->{self.m}")
            # Close the crashed epoch, mark the restart window, open the
            # next epoch where execution resumes.
            tl.spans.close_all(now)
            tl.spans.begin("recovery", now, track="epochs")
            tl.spans.end(now + penalty)
            tl.spans.begin(
                "epoch", now + penalty, track="epochs", epoch=self._epoch
            )
        queue.push(now + penalty, _RESUME, self._epoch)
        return sum(len(self.done[p]) for p in self.used) * self.T

    def _finish(self, stats: SimStats, makespan: int) -> ExecResult:
        stats.makespan = makespan
        stats.pebble_hops = self.fabric.total_injections
        stats.procs_used = len(self.used)
        stats.redundant = stats.pebbles - self.m * self.T
        if self._step_done is not None:
            stats.record_step_latency(
                latencies_from_completions(self._step_done)
            )
        if self._racing:
            stats.extras["cancelled_messages"] = self._cancelled
            stats.extras["raced_wins"] = self._raced_wins
            stats.extras["raced_losses"] = self._raced_losses
        result = ExecResult(stats, self.T, self.assignment)
        for p in self.used:
            for c, col_vals in self.vals[p].items():
                result.value_digests[(p, c)] = fold_s(col_vals[1:])
                result.replicas[(p, c)] = self.dbs[p][c]
        return result


def run_assignment(
    host: HostArray,
    assignment: Assignment,
    program: Program,
    steps: int,
    bandwidth: int | None = None,
    engine: str = "auto",
    telemetry=None,
) -> ExecResult:
    """Convenience wrapper: resolve the tier and run the assignment.

    ``engine`` follows the usual ``auto``/``dense``/``greedy`` rule
    (fault-free runs resolve dense; results are bit-identical either
    way); ``telemetry`` attaches a
    :class:`~repro.telemetry.timeline.MetricsTimeline` on both tiers.
    """
    from repro.core.pipeline import run_pipeline

    return run_pipeline(
        host, assignment, program, steps, bandwidth, engine=engine,
        telemetry=telemetry, verify=False,
    ).exec_result
