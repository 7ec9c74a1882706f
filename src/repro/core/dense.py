"""Dense execution tier: one timing skeleton for fault-free and faulted runs.

:class:`DenseExecutor` runs the same simulation semantics as
:class:`~repro.core.executor.GreedyExecutor` — same assignment, same
greedy ``(t, column)`` scheduling rule, same pipelined-link timing model
— restructured as a replay of integer state:

* **values and timing are decoupled.**  No scheduling decision ever
  reads a pebble *value* (the greedy pick is by ``(t, c)``, link slots
  are assigned by injection time, faults act on times), and every
  replica of column ``c`` computes exactly the guest's pebble values.
  The dense tier therefore computes all values/digests once with the
  row-vectorised guest reference (``m`` columns per numpy op instead of
  one scalar ``mix4`` per replica pebble) and runs a separate *timing
  skeleton* that moves only integers.
* **heap-keyed event buckets.**  Events live in per-time buckets keyed
  by a min-heap of bucket times.  Every push lands at or after the time
  being processed, so popping times in ascending order and each bucket
  in append order replays the greedy heap's ``(time, seq)`` order
  exactly — no per-event tuple comparisons, no ``Event`` allocation,
  and no walk over empty stretches of time.
* **array-shaped per-processor state.**  Each position keeps one flat
  *watermark array* ``W``: its own columns' completed rows first, then
  one slot per subscribed external column, then a virtual slot pinned
  to ``T`` for the array boundaries.  Column ``i``'s two lateral
  sources are precomputed indices ``sl[i]``/``sr[i]`` into ``W`` — the
  line adjacency and a relabelled-guest ``dep_map`` (rings) become the
  *same* ready check, ``W[sl[i]] >= W[i] <= W[sr[i]]``.  Wide positions
  (``k >= _VEC_MIN_COLS`` own columns) scan for the greedy pick with
  one vectorised numpy pass instead of a Python loop; ``argmin`` over
  the masked watermarks reproduces the scalar ``(t, column)``
  tie-breaking exactly.
* **flat link state.**  Each directed link is two integers (current
  slot, pebbles in that slot) in preallocated lists, and one ``hop``
  applies the :class:`~repro.netsim.links.LinkPipe` slot rule to them
  for every injection.

**Faults only add boundaries.**  These control arrays stay apart from
the value payloads, and a fault plan acts on the control side alone.
:class:`~repro.core.dense_faults.FaultedDenseExecutor` compiles its plan
into boundary times (crashes, outage/jitter window edges, drop arm
times); the same loop then also schedules crash, stream-check and
watchdog events, consults the fault tables on faulty directed links,
snapshots its state at every boundary, and hands the fault events to
the subclass's recovery handlers.  A fault-free run is the
zero-boundary case: none of those events is ever scheduled, and the
loop keeps the greedy engine's fault-free conventions — every in-flight
relay runs to its destination, an out-of-order delivery raises
``AssertionError``, telemetry stamps a send at its link slot, and
checkpoints have kind ``"dense"``.

Because the skeleton replays the exact event order, the result is
**bit-identical** to the greedy engine: same makespan, same per-replica
pebble counts, same message/pebble-hop counters, same value digests and
database replicas.  ``tests/test_dense.py`` asserts this differentially
over the e1/e3/e5 parameter grids, over ring guests (``dep_map`` /
``col_label`` from :mod:`repro.core.ring`) and over graph hosts run
through the Fact-3 embedding (whose per-assignment route delays are
exactly the flat ``link_delays`` array of the embedded
:class:`~repro.machine.host.HostArray`); ``tests/test_dense_faults.py``
does the same under fault plans.

Only tracing, multicast streams, scheduling jitter (``tie_seed``) and
redundant-issue racing still take the greedy engine;
:func:`resolve_engine` encodes that selection rule for the
``engine="auto"`` front-ends.  Telemetry is supported on both tiers: an
attached :class:`~repro.telemetry.timeline.MetricsTimeline` is fed
inline, call for call like the greedy loop (the only feed that sees
drops), and costs one ``None`` check per site when detached.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush

import numpy as np

from repro.core.assignment import Assignment
from repro.core.checkpoint import ExecutorCheckpoint
from repro.delta import DeltaUnsupported
from repro.machine.database import Database
from repro.machine.guest import GuestArray
from repro.machine.host import HostArray
from repro.machine.mixing import mix2_v
from repro.machine.programs import Program
from repro.netsim.faults import LOST
from repro.netsim.stats import SimStats, latencies_from_completions

#: Engine names accepted by the simulation front-ends.
ENGINES = ("auto", "dense", "greedy")

_FOLD_SEED = 0x243F6A8885A308D3  # fold_s seed (see repro.machine.mixing)

#: Own-column count above which the ready scan switches to the numpy
#: path (one vectorised pass over the watermark array).  Below it the
#: scalar loop wins on constant factors.
_VEC_MIN_COLS = 32

# Bucket-event kinds (the greedy engine's).  Only a faulted run
# schedules the last five.
_DONE = 0
_MSG = 1
_CRASH = 2
_RESUME = 3
_CHECK = 4
_REQ = 5
_WATCH = 6


def resolve_engine(
    engine: str,
    *,
    trace=None,
    multicast: bool = False,
    tie_seed=None,
    exec_policy=None,
) -> str:
    """Pick the execution tier for one simulation.

    ``auto`` selects ``dense`` exactly when the run needs none of the
    greedy-only machinery; explicitly asking for ``dense`` with an
    incompatible feature is an error (the caller asked for something
    the dense tier cannot honour), while ``auto`` falls back silently.

    Relabelled guests (``dep_map``/``col_label``, i.e. rings) are *not*
    a fallback reason: the dense skeleton resolves arbitrary dependency
    maps through the same watermark indices as the line adjacency.
    Neither are fault plans: faulted runs take the segmented
    :class:`~repro.core.dense_faults.FaultedDenseExecutor` tier (dense
    between fault boundaries, bit-identical to greedy).  The fallback
    reasons are tracing, multicast streams, scheduling jitter
    (``tie_seed``) and redundant-issue racing (``exec_policy``): raced
    subscriptions make delivery order value-dependent on which replica
    wins, which the dense skeleton's single-stream watermarks cannot
    express.  The
    *stealing* half of an :class:`~repro.core.racing.ExecPolicy` never
    forces greedy — it is a pre-execution assignment rebalance both
    tiers consume as-is.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    if engine == "greedy":
        return "greedy"
    reasons = []
    if trace is not None:
        reasons.append("tracing")
    if multicast:
        reasons.append("multicast streams")
    if tie_seed is not None:
        reasons.append("scheduling jitter")
    if exec_policy is not None:
        from repro.core.racing import resolve_policy

        resolved = resolve_policy(exec_policy)
        if resolved.racing and resolved.fanout > 1:
            reasons.append("redundant-issue racing")
    if not reasons:
        return "dense"
    if engine == "dense":
        raise ValueError(
            f"engine='dense' cannot honour {', '.join(reasons)}; "
            "use engine='auto' (falls back) or engine='greedy'"
        )
    return "greedy"


class DenseExecutor:
    """Dense-tier executor (see module docstring).

    Construction mirrors :class:`~repro.core.executor.GreedyExecutor`
    for the supported subset — including ``dep_map``/``col_label``
    relabelled guests — and :meth:`run` returns the same
    :class:`~repro.core.executor.ExecResult`.  This class runs the
    fault-free case; :class:`~repro.core.dense_faults.FaultedDenseExecutor`
    adds a fault plan to the same loop.
    """

    __slots__ = (
        "host",
        "assignment",
        "program",
        "T",
        "bandwidth",
        "m",
        "used",
        "subscribers",
        "telemetry",
        "dep_map",
        "col_label",
        "_relabelled",
        "_ext_cols",
        "checkpoint_stride",
        "checkpoints",
        "first_top_t",
        "_resume_from",
        "_layout",
        "_epoch",
        "_dead",
        "_fault_log",
        "_streams",
        "_holders",
        "_reassign_dead",
    )

    #: Whether a fault plan has an effect inside the horizon (set by
    #: the faulted subclass); False is the zero-boundary case.
    _faulty = False

    def __init__(
        self,
        host: HostArray,
        assignment: Assignment,
        program: Program,
        steps: int,
        bandwidth: int | None = None,
        dep_map: dict[int, tuple[int, int]] | None = None,
        col_label=None,
        telemetry=None,
        checkpoint_stride: int | None = None,
    ) -> None:
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
        self.bandwidth = (
            host.default_bandwidth() if bandwidth is None else bandwidth
        )
        self.m = assignment.m
        self.used = assignment.used_positions()
        self.dep_map = dep_map
        self.col_label = col_label or (lambda c: c)
        self._relabelled = dep_map is not None or col_label is not None
        if dep_map is not None:
            for c in range(1, self.m + 1):
                if c not in dep_map:
                    raise ValueError(f"dep_map missing column {c}")
                for src in dep_map[c]:
                    if not 1 <= src <= self.m:
                        raise ValueError(
                            f"dep_map[{c}] source {src} outside 1..{self.m}"
                        )
        # Optional MetricsTimeline, fed inline by the timing loop.
        self.telemetry = telemetry
        if checkpoint_stride is not None and checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")
        # Periodic full snapshots of the timing skeleton: one
        # ExecutorCheckpoint each time the loop clock crosses a stride
        # mark.  None = no captures (zero overhead on the hot path).
        self.checkpoint_stride = checkpoint_stride
        self.checkpoints: list = []
        # First host step at which any position's *own* watermark
        # reached T — the divergence bound for horizon-extension deltas
        # (no scheduling decision can consult "watermark == T?" before
        # it).  Filled by the timing loop.
        self.first_top_t: int | None = None
        self._resume_from = None
        self._build_subscriptions()

    def restore(self, checkpoint) -> "DenseExecutor":
        """Arm this (freshly constructed) executor to resume mid-run.

        The next :meth:`run` reconstitutes the snapshot's watermark
        arrays, link-slot state, fault state and counters, seeds the
        event buckets with the pending events, and replays only the
        suffix — finishing bit-identically to an uninterrupted run,
        provided the checkpoint's prefix is valid for this executor's
        config (the caller's contract; :mod:`repro.delta` derives it
        from blast-radius rules).  Horizon *extensions* are supported
        when the snapshot predates ``first_top``; shrinks are not.
        Returns ``self`` for chaining.
        """
        expected = "faulted" if self._faulty else "dense"
        if checkpoint.kind != expected:
            # Signalled as DeltaUnsupported (not ValueError): a fault
            # edit can legitimately flip a config between the faulted
            # and effect-free paths, whose snapshots are incompatible —
            # the delta layer should fall back to a full recompute.
            raise DeltaUnsupported(
                f"cannot restore a {checkpoint.kind!r} checkpoint into "
                f"{type(self).__name__} (expects {expected!r})"
            )
        if checkpoint.steps > self.T:
            raise ValueError(
                f"cannot restore a T={checkpoint.steps} checkpoint into a "
                f"shorter T={self.T} run"
            )
        if checkpoint.steps != self.T and checkpoint.first_top is not None:
            raise ValueError(
                "checkpoint is past the horizon-extension divergence point "
                f"(first_top={checkpoint.first_top})"
            )
        if self.telemetry is not None and checkpoint.telemetry is None:
            raise ValueError(
                "cannot resume with telemetry attached: the checkpoint was "
                "captured without a timeline snapshot"
            )
        self._resume_from = checkpoint
        return self

    def _deps(self, c: int) -> tuple[int, int]:
        """Lateral source columns of ``c`` (left-like, right-like)."""
        if self.dep_map is None:
            return (c - 1, c + 1)
        return self.dep_map[c]

    def _build_subscriptions(self) -> None:
        """Same nearest-owner subscription rule (and list order) as
        ``GreedyExecutor._build_state``."""
        m = self.m
        host = self.host
        owners = self.assignment.owners()
        subscribers: dict[tuple[int, int], list[int]] = {}
        ext_cols: dict[int, list[int]] = {}
        for p in self.used:
            lo, hi = self.assignment.ranges[p]
            needed = sorted(
                {
                    src
                    for c in range(lo, hi + 1)
                    for src in self._deps(c)
                    if 1 <= src <= m and not (lo <= src <= hi)
                }
            )
            ext_cols[p] = needed
            for c in needed:
                candidates = owners[c]
                q = min(
                    candidates,
                    key=lambda q: (host.distance(p, q), abs(q - p), q),
                )
                subscribers.setdefault((q, c), []).append(p)
        self.subscribers = subscribers
        self._ext_cols = ext_cols

    def _build_layout(self) -> None:
        """(Re)build the per-position watermark arrays for the current
        assignment into ``self._layout``.

        The tuple is ``(W_of, busy, lo_of, k_of, ext_idx, sl_of, sr_of,
        el_of, er_of, vec)``, each indexed by host position.  ``W_of[p]``
        lays out the k own columns' completed rows, then one watermark
        per subscribed external column (sorted; ``ext_idx[p]`` maps a
        column to its slot), then a virtual slot pinned to ``T`` for
        the array boundaries.  ``sl_of``/``sr_of[p][i]`` index the two
        lateral sources of own column i into that same array, so line
        adjacency and dep_map wiring share one ready check; the line
        fast path reads only ``el_of``/``er_of``, the slots of the
        left/right external columns (or the virtual slot).  Positions
        with ``vec[p]`` hold numpy arrays for the vectorised scan.
        """
        T = self.T
        n = self.host.n
        dep_map = self.dep_map
        lo_of = [0] * n
        k_of = [0] * n
        W_of: list = [None] * n
        sl_of: list = [None] * n
        sr_of: list = [None] * n
        el_of = [0] * n
        er_of = [0] * n
        ext_idx: list = [None] * n
        vec = [False] * n
        busy = [False] * n
        for p in self.used:
            lo, hi = self.assignment.ranges[p]
            k = hi - lo + 1
            lo_of[p] = lo
            k_of[p] = k
            ecols = self._ext_cols[p]
            e = len(ecols)
            idx = {c: k + j for j, c in enumerate(ecols)}
            ext_idx[p] = idx
            virt = k + e
            w = [0] * (k + e) + [T]
            sl = [0] * k
            sr = [0] * k
            for i in range(k):
                c = lo + i
                a, b = dep_map[c] if dep_map is not None else (c - 1, c + 1)
                sl[i] = a - lo if lo <= a <= hi else idx.get(a, virt)
                sr[i] = b - lo if lo <= b <= hi else idx.get(b, virt)
            el_of[p] = idx.get(lo - 1, virt)
            er_of[p] = idx.get(hi + 1, virt)
            if k >= _VEC_MIN_COLS:
                w = np.array(w, dtype=np.int64)
                sl = np.asarray(sl, dtype=np.intp)
                sr = np.asarray(sr, dtype=np.intp)
                vec[p] = True
            W_of[p] = w
            sl_of[p] = sl
            sr_of[p] = sr
        self._layout = (
            W_of, busy, lo_of, k_of, ext_idx, sl_of, sr_of, el_of, er_of, vec
        )

    # -- values (computed once, vectorised) -----------------------------
    def _guest_values(self):
        """Per-column value folds, update digests and final states.

        Returns ``(value_folds, update_digests, final_states)`` — each a
        length-``m`` sequence indexed by column-1.  Every replica that
        finishes reproduces exactly these values (that is what
        :mod:`repro.core.verify` checks), so one reference-style pass
        serves all replicas.
        """
        if self._relabelled:
            return self._guest_values_relabelled()
        m, T, prog = self.m, self.T, self.program
        guest = GuestArray(m, prog)
        if prog.supports_vector:
            grid = guest.boundary_grid(T)
            states = prog.init_state_vec(m)
            # Database digest chain: seed tag_s(0xDB, col) then one
            # mix2 per update — vectorised across columns per row.
            from repro.machine.guest import _DB_SEED

            db_digests = mix2_v(
                np.uint64(_DB_SEED), np.arange(1, m + 1, dtype=np.uint64)
            )
            folds = np.full(m, np.uint64(_FOLD_SEED), dtype=np.uint64)
            for t in range(1, T + 1):
                prev = grid[t - 1]
                values, updates = prog.compute_row_vec(
                    t, states, prev[0:m], prev[1 : m + 1], prev[2 : m + 2]
                )
                grid[t, 1 : m + 1] = values
                states = prog.apply_vec(states, updates)
                db_digests = mix2_v(db_digests, updates)
                folds = mix2_v(folds, values)
            return (
                [int(v) for v in folds],
                [int(d) for d in db_digests],
                [int(s) for s in np.asarray(states, dtype=np.uint64)],
            )
        return self._guest_values_scalar()

    def _guest_values_relabelled(self):
        """The relabelled-guest (``dep_map``/``col_label``) value pass.

        Column ``c`` runs program identity ``col_label(c)`` and reads
        its lateral sources through ``dep_map`` — ring simulations wire
        fold-embedded neighbours this way.  No program's ``compute``
        depends on the column index except through its per-column
        initial state, so the recurrence vectorises with fancy-indexed
        gathers and label-permuted initial states whenever the labels
        stay inside ``1..m`` (rings: a permutation).
        """
        m, T, prog = self.m, self.T, self.program
        label = self.col_label
        labels = [label(c) for c in range(1, m + 1)]
        dep_map = self.dep_map
        if (
            prog.supports_vector
            and dep_map is not None
            and all(1 <= lb <= m for lb in labels)
        ):
            from repro.machine.guest import _DB_SEED
            from repro.machine.pebbles import initial_value

            lab_idx = np.array(labels, dtype=np.intp) - 1
            lab_u = np.array(labels, dtype=np.uint64)
            dep_l = np.array(
                [dep_map[c][0] - 1 for c in range(1, m + 1)], dtype=np.intp
            )
            dep_r = np.array(
                [dep_map[c][1] - 1 for c in range(1, m + 1)], dtype=np.intp
            )
            states = prog.init_state_vec(m)[lab_idx]
            db_digests = mix2_v(np.uint64(_DB_SEED), lab_u)
            folds = np.full(m, np.uint64(_FOLD_SEED), dtype=np.uint64)
            prev = np.array([initial_value(lb) for lb in labels], dtype=np.uint64)
            for t in range(1, T + 1):
                values, updates = prog.compute_row_vec(
                    t, states, prev[dep_l], prev, prev[dep_r]
                )
                states = prog.apply_vec(states, updates)
                db_digests = mix2_v(db_digests, updates)
                folds = mix2_v(folds, values)
                prev = values
            return (
                [int(v) for v in folds],
                [int(d) for d in db_digests],
                [int(s) for s in np.asarray(states, dtype=np.uint64)],
            )
        return self._guest_values_scalar()

    def _guest_values_scalar(self):
        """Scalar fallback (structured database state or labels outside
        ``1..m``): one direct guest execution — still one compute per
        pebble total, instead of one per *replica* pebble."""
        m, T, prog = self.m, self.T, self.program
        from repro.machine.mixing import mix2_s
        from repro.machine.pebbles import (
            BOUNDARY_LEFT,
            BOUNDARY_RIGHT,
            boundary_value,
            initial_value,
        )

        label = self.col_label
        labels = [label(c) for c in range(1, m + 1)]
        deps = self._deps
        dbs = [Database(lb, prog.init_state(lb)) for lb in labels]
        row = [initial_value(lb) for lb in labels]
        folds = [_FOLD_SEED] * m
        for t in range(1, T + 1):
            left_b = boundary_value(BOUNDARY_LEFT, t - 1)
            right_b = boundary_value(BOUNDARY_RIGHT, t - 1)
            new_row = [0] * m
            pending = [0] * m
            for i in range(m):
                src_l, src_r = deps(i + 1)
                left = row[src_l - 1] if 1 <= src_l <= m else (
                    left_b if src_l < 1 else right_b
                )
                right = row[src_r - 1] if 1 <= src_r <= m else (
                    left_b if src_r < 1 else right_b
                )
                value, update = prog.compute(
                    labels[i], t, dbs[i].state, left, row[i], right
                )
                new_row[i] = value
                pending[i] = update
                folds[i] = mix2_s(folds[i], value)
            for i in range(m):
                dbs[i].apply(prog, pending[i])
            row = new_row
        return (
            folds,
            [db.digest for db in dbs],
            [db.state for db in dbs],
        )

    # -- timing skeleton -------------------------------------------------
    def _simulate_timing(self, stats: SimStats) -> int:
        """The tier's one timing loop: replay the greedy event order on
        flat integer state.

        Returns the makespan and fills ``stats``' counters.  A faulted
        run (:attr:`_faulty`) additionally schedules crash, stream-check
        and watchdog events, whose handlers live on
        :class:`~repro.core.dense_faults.FaultedDenseExecutor`; a
        zero-penalty ``_RESUME`` is the one push into the bucket being
        iterated, which is exactly the heap's tie-break.
        """
        T = self.T
        bw = self.bandwidth
        delays = self.host.link_delays
        tl = self.telemetry
        ck = self._resume_from
        faulty = self._faulty
        tables = self._fault_tables if faulty else None
        self._epoch = epoch = 0
        self._dead: set[int] = set()
        self._fault_log: list[str] = []
        self._streams: dict[tuple[int, int], list] = {}
        # column -> live positions holding a replica (recovery sources)
        self._holders: dict[int, set[int]] = {}
        self._reassign_dead = None
        if faulty:
            stats.faults_injected = len(self.faults.events)
            self._holders = {
                c: set(ps) for c, ps in self.assignment.owners().items()
            }
        self._build_layout()
        (W_of, busy, lo_of, k_of, ext_idx,
         sl_of, sr_of, el_of, er_of, vec) = self._layout
        remaining = sum(k_of[p] for p in self.used) * T
        if not remaining:
            return 0
        if tl is not None:
            tl.meta.setdefault("engine", "dense")
            if ck is None:
                tl.spans.begin("epoch", 0, track="epochs", epoch=0)
            else:
                # The snapshot carries the prefix's telemetry verbatim,
                # including the span left open at capture time.
                tl.load_snapshot(ck.telemetry)

        line = self.dep_map is None
        subscribers_get = self.subscribers.get
        # Directed-link occupancy: the LinkPipe slot rule's state as
        # flat integer lists per direction (busy-slot time, pebbles in
        # that slot).  Link j joins positions j, j+1.
        n_links = self.host.n - 1
        r_slot = [-1] * n_links
        r_used = [0] * n_links
        l_slot = [-1] * n_links
        l_used = [0] * n_links
        injections = 0
        # Only faulty directed links consult the fault tables and clamp
        # arrivals monotone (a clean pipe's arrivals already are).
        faulty_dirs = tables.faulty_directions() if faulty else set()
        link_outcome = tables.link_outcome if faulty else None
        last_out: dict[tuple[int, int], int] = {}

        bucket_map: dict[int, list[tuple]] = {}
        times: list[int] = []
        makespan = 0
        n_pebbles = n_messages = n_lost = n_retries = progress = 0
        first_top: int | None = None
        # Row-completion times (max over every epoch's replicas, the
        # greedy convention): step_done[t] = host step the last pebble
        # of guest row t finished.  Consecutive diffs are the per-step
        # latencies.
        step_done = [0] * (T + 1)

        def push(t: int, item: tuple) -> None:
            b = bucket_map.get(t)
            if b is None:
                bucket_map[t] = [item]
                heappush(times, t)
            else:
                b.append(item)

        def hop(pos: int, dst: int, c: int, t: int, now: int) -> None:
            """Inject pebble ``(c, t)`` at ``pos`` one link toward
            ``dst``; push its arrival unless a fault loses it.  The slot
            is consumed (and counted) even when the pebble is lost."""
            nonlocal injections, n_lost
            if dst > pos:
                j = pos
                step = 1
                slots, used = r_slot, r_used
            else:
                j = pos - 1
                step = -1
                slots, used = l_slot, l_used
            slot = slots[j]
            if now > slot:
                slot = now
                used[j] = 1
            elif used[j] < bw:
                used[j] += 1
            else:
                slot += 1
                used[j] = 1
            slots[j] = slot
            injections += 1
            arr = slot + delays[j]
            if faulty_dirs and (j, step) in faulty_dirs:
                outcome = link_outcome(j, step, now)
                if outcome is LOST:
                    n_lost += 1
                    if tl is not None:
                        tl.send(now, now)
                        tl.drop(now)
                    return
                arr += outcome
                prev = last_out.get((j, step), 0)
                if arr < prev:
                    arr = prev
                else:
                    last_out[(j, step)] = arr
            if tl is not None:
                tl.send(now if faulty else slot, arr)
            push(arr, (_MSG, pos + step, dst, c, t, epoch))

        def try_start(p: int, now: int) -> None:
            if busy[p]:
                return
            w = W_of[p]
            if vec[p]:
                # Batched ready scan: mask the non-ready columns to T
                # (every ready column's watermark is < T), take the
                # first argmin.  First-min semantics == the scalar
                # loop's (smallest t, then smallest column) pick.
                own = w[: k_of[p]]
                ready = (
                    (own < T)
                    & (w[sl_of[p]] >= own)
                    & (w[sr_of[p]] >= own)
                )
                tm = np.where(ready, own, T)
                best_i = int(tm.argmin())
                wt = int(tm[best_i])
                if wt >= T:
                    return
                best_t = wt + 1
            elif line:
                # Line adjacency: own column i depends on own i-1/i+1
                # except at the range edges, which read the external
                # (or virtual) watermark slots directly.
                k1 = k_of[p] - 1
                eli = el_of[p]
                eri = er_of[p]
                best_t = T + 1
                best_i = -1
                for i in range(k1 + 1):
                    wt = w[i]
                    t = wt + 1
                    if t > T or t >= best_t:
                        continue
                    if i > 0:
                        if w[i - 1] < wt:
                            continue
                    elif w[eli] < wt:
                        continue
                    if i < k1:
                        if w[i + 1] < wt:
                            continue
                    elif w[eri] < wt:
                        continue
                    best_t = t
                    best_i = i
                if best_i < 0:
                    return
            else:
                sl = sl_of[p]
                sr = sr_of[p]
                best_t = T + 1
                best_i = -1
                for i in range(k_of[p]):
                    wt = w[i]
                    t = wt + 1
                    if t > T or t >= best_t:
                        continue
                    if w[sl[i]] < wt or w[sr[i]] < wt:
                        continue
                    best_t = t
                    best_i = i
                if best_i < 0:
                    return
            busy[p] = True
            push(now + 1, (_DONE, p, best_i, best_t, epoch))

        def capture(at: int, label: str) -> None:
            """Snapshot the full loop state with processed times < at."""
            self.checkpoints.append(
                ExecutorCheckpoint(
                    time=at,
                    epoch=epoch,
                    label=label,
                    remaining=remaining,
                    makespan=makespan,
                    progress=progress,
                    pebbles=n_pebbles,
                    messages=n_messages,
                    injections=injections,
                    lost_messages=n_lost,
                    retries=n_retries,
                    watermarks={
                        p: [int(x) for x in W_of[p]] for p in self.used
                    },
                    busy={p: busy[p] for p in self.used},
                    link_state=[
                        list(r_slot), list(r_used), list(l_slot), list(l_used)
                    ],
                    dead=set(self._dead),
                    streams={k: list(v) for k, v in self._streams.items()},
                    steps=T,
                    kind="faulted" if faulty else "dense",
                    first_top=first_top,
                    events=[
                        (t, list(bucket_map[t])) for t in sorted(bucket_map)
                    ],
                    subscribers={
                        k: list(v) for k, v in self.subscribers.items()
                    },
                    holders={c: set(ps) for c, ps in self._holders.items()},
                    last_out=dict(last_out),
                    reassign_dead=(
                        None
                        if self._reassign_dead is None
                        else list(self._reassign_dead)
                    ),
                    fault_log=list(self._fault_log),
                    drops_consumed=tables.drops_consumed() if faulty else [],
                    counters={
                        "crashed_nodes": stats.crashed_nodes,
                        "recoveries": stats.recoveries,
                        "columns_lost": stats.columns_lost,
                    },
                    telemetry=None if tl is None else tl.snapshot(),
                    step_done=list(step_done),
                )
            )

        boundaries = tables.boundaries() if faulty else []
        if ck is None:
            # Setup pushes in the greedy engine's sequence order:
            # scripted crashes (sorted by position), initial computes
            # (used order, landing at t=1), stream checks, watchdog.
            if faulty:
                for pos, t_crash in sorted(tables.crash_times.items()):
                    push(t_crash, (_CRASH, pos))
            for p in self.used:
                try_start(p, 0)
            if faulty:
                self._init_streams(0, push)
                push(self._watch_window(), (_WATCH, 0))
            b_idx = 0
        else:
            # Resume: overwrite the freshly built state with the
            # checkpointed prefix and seed the pending events in their
            # captured append order.
            self._epoch = epoch = ck.epoch
            self._dead = set(ck.dead)
            if ck.reassign_dead is not None:
                self._adopt(self._reassign(ck.reassign_dead), ck.reassign_dead)
                (W_of, busy, lo_of, k_of, ext_idx,
                 sl_of, sr_of, el_of, er_of, vec) = self._layout
            # Retry re-subscriptions mutate the provider lists in
            # place, so the snapshot's lists are authoritative over the
            # rebuilt ones.
            self.subscribers = {k: list(v) for k, v in ck.subscribers.items()}
            subscribers_get = self.subscribers.get
            self._holders = {c: set(ps) for c, ps in ck.holders.items()}
            self._fault_log = list(ck.fault_log)
            self._streams = {k: list(v) for k, v in ck.streams.items()}
            for p in self.used:
                # The last slot is the virtual boundary watermark,
                # pinned to *this* run's T (horizon extensions re-pin).
                saved = ck.watermarks[p]
                W_of[p][: len(saved) - 1] = saved[:-1]
                busy[p] = ck.busy[p]
            r_slot[:], r_used[:], l_slot[:], l_used[:] = ck.link_state
            last_out.update(ck.last_out)
            injections = ck.injections
            n_pebbles = ck.pebbles
            n_messages = ck.messages
            n_lost = ck.lost_messages
            n_retries = ck.retries
            progress = ck.progress
            makespan = ck.makespan
            first_top = ck.first_top
            step_done[: len(ck.step_done)] = ck.step_done
            for name, value in ck.counters.items():
                setattr(stats, name, value)
            # Re-base pending work onto this run's horizon: every used
            # column gained (T - ck.steps) rows relative to the capture.
            remaining = ck.remaining + sum(k_of[p] for p in self.used) * (
                T - ck.steps
            )
            # Scripted crashes are re-read from *this* run's plan (a
            # fault edit may have moved them) and pushed first, so they
            # sit at their bucket fronts exactly as in a fresh run.
            if faulty:
                tables.consume_drops(ck.drops_consumed)
                for pos, t_crash in sorted(tables.crash_times.items()):
                    if t_crash >= ck.time:
                        push(t_crash, (_CRASH, pos))
            for t, evs in ck.events:
                for ev in evs:
                    if ev[0] != _CRASH:
                        push(t, ev)
            b_idx = bisect_right(boundaries, ck.time)
        n_bounds = len(boundaries)

        stride = self.checkpoint_stride
        start = 0 if ck is None else ck.time
        next_mark = None if stride is None else stride * (start // stride + 1)
        pending_resume = False
        while times:
            now = heappop(times)
            while b_idx < n_bounds and boundaries[b_idx] <= now:
                # State is unchanged since the last processed event, so
                # capturing here (first event at/after the boundary) is
                # the state *at* the boundary time recorded.
                capture(boundaries[b_idx], "fault-boundary")
                b_idx += 1
            if pending_resume:
                # Deferred from the _RESUME event so the snapshot's
                # pending buckets are whole (the resume bucket itself
                # was mid-iteration at the time).
                capture(now, "resume")
                pending_resume = False
            if next_mark is not None and now >= next_mark:
                capture(now, "stride")
                next_mark = stride * (now // stride + 1)
            bucket = bucket_map[now]
            for ev in bucket:
                kind = ev[0]
                if kind == _DONE:
                    _, p, i, t, ep = ev
                    if ep != epoch:
                        continue  # pre-reconfiguration work, discarded
                    busy[p] = False
                    W_of[p][i] = t
                    n_pebbles += 1
                    remaining -= 1
                    progress += 1
                    if now > makespan:
                        makespan = now
                    if now > step_done[t]:
                        step_done[t] = now
                    if t == T and first_top is None:
                        first_top = now
                    c = lo_of[p] + i
                    if tl is not None:
                        tl.pebble(now, p, c, t)
                    subs = subscribers_get((p, c))
                    if subs:
                        n_messages += len(subs)
                        if tl is not None:
                            tl.message(now, len(subs))
                        for dst in subs:
                            hop(p, dst, c, t, now)
                    if faulty and not remaining:
                        # A fault run stops at its last pebble,
                        # abandoning in-flight relays (greedy does too).
                        times.clear()
                        break
                    try_start(p, now)
                elif kind == _MSG:
                    _, pos, dst, c, t, ep = ev
                    if ep != epoch:
                        continue
                    if pos != dst:
                        hop(pos, dst, c, t, now)
                        continue
                    w = W_of[pos]
                    wi = ext_idx[pos][c]
                    if t == w[wi] + 1:
                        w[wi] = t
                        progress += 1
                        if tl is not None:
                            tl.deliver(now)
                        try_start(pos, now)
                    elif not faulty:  # pragma: no cover - invariant guard
                        raise AssertionError(
                            f"out-of-order delivery of ({c},{t}) at "
                            f"{pos}: have {w[wi]}"
                        )
                    # A fault run ignores replayed duplicates and the
                    # gap behind a lost predecessor; a retry fills it.
                elif kind == _CRASH:
                    left = self._crash(ev[1], now, stats, push)
                    if left is not None:
                        # A new epoch: rebind what the reassignment rebuilt.
                        remaining = left
                        epoch = self._epoch
                        (W_of, busy, lo_of, k_of, ext_idx,
                         sl_of, sr_of, el_of, er_of, vec) = self._layout
                        subscribers_get = self.subscribers.get
                elif kind == _RESUME:
                    if ev[1] != epoch:
                        continue
                    self._resume(now, push, try_start)
                    pending_resume = True
                elif kind == _CHECK:
                    self._check_stream(ev[1], ev[2], ev[3], now, push)
                elif kind == _REQ:
                    # A retry request reached provider q: replay the
                    # pebbles of column c that p is missing.
                    _, q, p, c, from_t, ep = ev
                    if ep != epoch or q in self._dead:
                        continue
                    lo = lo_of[q]
                    if ext_idx[q] is None or not lo <= c < lo + k_of[q]:
                        continue
                    have = int(W_of[q][c - lo])
                    if have <= from_t:
                        # Merely slow, not faulty: no retry consumed.
                        continue
                    stream = self._streams.get((p, c))
                    if stream is not None:
                        stream[2] += 1
                    n_retries += 1
                    n_messages += have - from_t
                    if tl is not None:
                        tl.message(now, have - from_t)
                    for t in range(from_t + 1, have + 1):
                        hop(q, p, c, t, now)
                else:  # _WATCH
                    if remaining and progress == ev[1]:
                        raise self._deadlock(
                            "no progress for a full watchdog window"
                        )
                    if remaining:
                        push(now + self._watch_window(), (_WATCH, progress))
            del bucket_map[now]

        stats.pebbles = n_pebbles
        stats.messages = n_messages
        stats.lost_messages = n_lost
        stats.retries = n_retries
        stats.pebble_hops = injections
        if remaining:
            if not faulty:  # pragma: no cover - the skeleton cannot wedge
                raise RuntimeError(f"{remaining} pebbles never computed")
            raise self._deadlock(f"{remaining} pebbles never computed")
        if tl is not None:
            tl.spans.close_all(makespan)
        self.first_top_t = first_top
        stats.record_step_latency(latencies_from_completions(step_done))
        return makespan

    def _execute(self):
        """Run the timing skeleton, then assemble the result.

        Values come from the *final* epoch's guest: an epoch restart
        re-derives every database from scratch and the run only
        completes when the final epoch finishes all ``T`` rows of its
        (possibly reduced) ``m`` columns, so one value pass over that
        guest reproduces every digest and replica the greedy engine
        accumulates scalar-wise.
        """
        from repro.core.executor import ExecResult

        stats = SimStats()
        stats.makespan = self._simulate_timing(stats)
        stats.procs_used = len(self.used)
        stats.redundant = stats.pebbles - self.m * self.T
        result = ExecResult(stats, self.T, self.assignment)
        folds, db_digests, states = self._guest_values()
        T = self.T
        label = self.col_label
        for p in self.used:
            lo, hi = self.assignment.ranges[p]
            for c in range(lo, hi + 1):
                result.value_digests[(p, c)] = folds[c - 1]
                state = states[c - 1]
                # Programs apply() functionally, but keep replicas from
                # aliasing one container object all the same.
                if isinstance(state, dict):
                    state = dict(state)
                elif isinstance(state, list):
                    state = list(state)
                result.replicas[(p, c)] = Database(
                    label(c), state, T, db_digests[c - 1]
                )
        return result

    def run(self):
        """Execute; returns an :class:`~repro.core.executor.ExecResult`
        bit-identical to the greedy engine's."""
        return self._execute()


def build_executor(
    engine: str,
    host: HostArray,
    assignment: Assignment,
    program: Program,
    steps: int,
    bandwidth: int | None = None,
    checkpoint_stride: int | None = None,
    **greedy_kwargs,
):
    """Resolve the tier and construct the matching executor.

    ``greedy_kwargs`` are the feature knobs (``faults``, ``policy``,
    ``trace``, ...).  Tracing, multicast, ``tie_seed`` and racing force
    (or, under ``engine='auto'``, silently select) the greedy engine.
    ``telemetry``, ``dep_map``/``col_label`` and fault plans do not:
    both tiers support an attached
    :class:`~repro.telemetry.timeline.MetricsTimeline` and relabelled
    (ring) guests, and a non-empty ``faults`` plan on the dense tier
    constructs the segmented
    :class:`~repro.core.dense_faults.FaultedDenseExecutor`.
    ``checkpoint_stride`` reaches both dense tiers; the greedy engine
    takes no checkpoints.
    """
    from repro.core.executor import GreedyExecutor

    resolved = resolve_engine(
        engine,
        trace=greedy_kwargs.get("trace"),
        multicast=greedy_kwargs.get("multicast", False),
        tie_seed=greedy_kwargs.get("tie_seed"),
        exec_policy=greedy_kwargs.get("exec_policy"),
    )
    if resolved == "greedy":
        return GreedyExecutor(
            host, assignment, program, steps, bandwidth, **greedy_kwargs
        )
    dense_kwargs = dict(
        dep_map=greedy_kwargs.get("dep_map"),
        col_label=greedy_kwargs.get("col_label"),
        telemetry=greedy_kwargs.get("telemetry"),
        checkpoint_stride=checkpoint_stride,
    )
    faults = greedy_kwargs.get("faults")
    if faults is not None and not faults.is_empty:
        from repro.core.dense_faults import FaultedDenseExecutor

        return FaultedDenseExecutor(
            host, assignment, program, steps, bandwidth,
            faults=faults,
            policy=greedy_kwargs.get("policy"),
            reassign=greedy_kwargs.get("reassign"),
            **dense_kwargs,
        )
    return DenseExecutor(host, assignment, program, steps, bandwidth, **dense_kwargs)
