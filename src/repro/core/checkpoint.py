"""Executor checkpoints: complete integer snapshots of a dense run.

An :class:`ExecutorCheckpoint` freezes everything the dense timing
skeleton needs to resume a run mid-flight and finish **bit-identically**
to the uninterrupted run: watermark arrays, per-position busy flags,
directed-link slot state, the pending event buckets (in their exact
append order — the event order *is* the bit-identity contract), stream
records, subscriber lists, replica holder sets, the per-directed-link
monotone arrival clamp, consumed one-shot drops, and every counter.

The dense tier has one timing loop and one capture path, so every
checkpoint carries the same fields; a fault-free run is the
zero-boundary case and leaves the fault state empty.  Captures happen

* on a fixed time stride (``checkpoint_stride``), on every run;
* at every fault boundary crossed and at each epoch resume, on a
  :class:`~repro.core.dense_faults.FaultedDenseExecutor` run.

``kind`` records which case captured the snapshot (``"dense"`` or
``"faulted"``), and a run restores only its own kind.  Restoring goes
through ``executor.restore(checkpoint)`` — construct a fresh executor
for the (possibly *edited*) config, hand it a checkpoint whose prefix
is still valid, and :meth:`run` replays only the suffix.  That
replay-only-the-suffix move is the delta layer of :mod:`repro.delta` /
:class:`repro.runner.SweepRunner`; the blast-radius rules there
guarantee the restored prefix is identical between the old and edited
configs.

The snapshot is plain integers/strings end to end, so
:meth:`ExecutorCheckpoint.to_json` / :meth:`from_json` round-trip it
losslessly through the sweep cache's JSON sidecar files.  The JSON form
carries a :data:`LAYOUT` version; a blob written under any other layout
(or none) is rejected as :class:`~repro.delta.DeltaUnsupported`, so a
stale sidecar costs a full recompute instead of a mis-replayed suffix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.delta import DeltaUnsupported

#: Version of the JSON layout (fields and pending-event tuples).  Bump
#: it whenever either changes.
LAYOUT = 2


@dataclass
class ExecutorCheckpoint:
    """A complete integer snapshot of a dense-tier run at one time.

    ``kind`` says which case captured it (``"dense"`` fault-free,
    ``"faulted"`` with a fault plan); ``steps`` records the capturing
    run's guest horizon ``T`` so a restore under a horizon *extension*
    can re-base ``remaining``.  ``events`` holds every pending bucket as
    ``(time, [event tuples...])`` in bucket append order — replaying
    them reproduces the greedy engine's ``(time, seq)`` order exactly.
    """

    time: int
    epoch: int
    label: str
    remaining: int
    makespan: int
    progress: int
    pebbles: int
    messages: int
    injections: int
    lost_messages: int
    retries: int
    #: position -> list of watermarks (own columns, ext slots, virtual).
    watermarks: dict[int, list[int]] = field(default_factory=dict)
    busy: dict[int, bool] = field(default_factory=dict)
    #: flat per-directed-link slot state [r_slot, r_used, l_slot, l_used].
    link_state: list[list[int]] = field(default_factory=list)
    dead: set[int] = field(default_factory=set)
    #: (subscriber, column) -> [provider, attempts, retries, last_t].
    streams: dict[tuple[int, int], list] = field(default_factory=dict)
    #: Guest horizon ``T`` of the capturing run.
    steps: int = 0
    #: Capturing case: "dense" (fault-free) or "faulted".
    kind: str = "faulted"
    #: First host step at which any own watermark reached ``steps``
    #: (None if that had not happened yet at capture time) — the
    #: divergence bound for horizon-extension deltas.
    first_top: int | None = None
    #: Pending events: [(bucket time, [event tuples in append order])],
    #: sorted by bucket time.
    events: list = field(default_factory=list)
    #: Subscription lists ((provider, column) -> [subs]); a fault run's
    #: retries mutate them, so a restore takes them from here.
    subscribers: dict = field(default_factory=dict)
    #: column -> surviving replica holder positions.
    holders: dict = field(default_factory=dict)
    #: (link, direction) -> last clamped arrival on a faulty link.
    last_out: dict = field(default_factory=dict)
    #: The dead-set frozen into the *current* assignment at the last
    #: reconfigure (None while still on the original assignment);
    #: replaying ``reassign(frozenset(reassign_dead))`` reconstructs it.
    reassign_dead: list | None = None
    fault_log: list = field(default_factory=list)
    #: [[link, direction, n]] — one-shot drops consumed before ``time``.
    drops_consumed: list = field(default_factory=list)
    #: Fault/recovery SimStats counters at capture time
    #: (crashed_nodes, recoveries, columns_lost).
    counters: dict = field(default_factory=dict)
    #: MetricsTimeline snapshot at capture time (only when the capturing
    #: run had a timeline attached); restoring *with* telemetry
    #: requires it.
    telemetry: dict | None = None
    #: Row-completion times at capture (``step_done[t]`` = host step row
    #: ``t``'s last pebble finished, 0 if not yet) — the per-step
    #: latency prefix a resume must inherit.
    step_done: list = field(default_factory=list)

    def summary(self) -> dict:
        """Headline numbers (JSON-ready; arrays omitted)."""
        return {
            "time": self.time,
            "epoch": self.epoch,
            "label": self.label,
            "remaining": self.remaining,
            "pebbles": self.pebbles,
            "messages": self.messages,
            "lost_messages": self.lost_messages,
            "retries": self.retries,
            "dead": sorted(self.dead),
        }

    # -- JSON round-trip -------------------------------------------------
    def to_json(self) -> dict:
        """Lossless plain-JSON form (tuple keys flattened to lists)."""
        return {
            "layout": LAYOUT,
            "time": self.time,
            "epoch": self.epoch,
            "label": self.label,
            "remaining": self.remaining,
            "makespan": self.makespan,
            "progress": self.progress,
            "pebbles": self.pebbles,
            "messages": self.messages,
            "injections": self.injections,
            "lost_messages": self.lost_messages,
            "retries": self.retries,
            "watermarks": [[p, list(w)] for p, w in self.watermarks.items()],
            "busy": [[p, bool(b)] for p, b in self.busy.items()],
            "link_state": [list(row) for row in self.link_state],
            "dead": sorted(self.dead),
            "streams": [
                [p, c, list(v)] for (p, c), v in self.streams.items()
            ],
            "steps": self.steps,
            "kind": self.kind,
            "first_top": self.first_top,
            "events": [
                [t, [list(ev) for ev in evs]] for t, evs in self.events
            ],
            "subscribers": [
                [q, c, list(v)] for (q, c), v in self.subscribers.items()
            ],
            "holders": [[c, sorted(ps)] for c, ps in self.holders.items()],
            "last_out": [[j, d, t] for (j, d), t in self.last_out.items()],
            "reassign_dead": (
                None if self.reassign_dead is None else sorted(self.reassign_dead)
            ),
            "fault_log": list(self.fault_log),
            "drops_consumed": [list(row) for row in self.drops_consumed],
            "counters": dict(self.counters),
            "telemetry": self.telemetry,
            "step_done": list(self.step_done),
        }

    @classmethod
    def from_json(cls, blob: dict) -> "ExecutorCheckpoint":
        """Rebuild the in-memory snapshot from :meth:`to_json` output.

        Raises :class:`~repro.delta.DeltaUnsupported` when ``blob`` was
        written under a different (or no) :data:`LAYOUT`.
        """
        if blob.get("layout") != LAYOUT:
            raise DeltaUnsupported(
                f"checkpoint layout {blob.get('layout')!r} is not the "
                f"current layout {LAYOUT}"
            )
        return cls(
            time=blob["time"],
            epoch=blob["epoch"],
            label=blob["label"],
            remaining=blob["remaining"],
            makespan=blob["makespan"],
            progress=blob["progress"],
            pebbles=blob["pebbles"],
            messages=blob["messages"],
            injections=blob["injections"],
            lost_messages=blob["lost_messages"],
            retries=blob["retries"],
            watermarks={p: list(w) for p, w in blob["watermarks"]},
            busy={p: bool(b) for p, b in blob["busy"]},
            link_state=[list(row) for row in blob["link_state"]],
            dead=set(blob["dead"]),
            streams={(p, c): list(v) for p, c, v in blob["streams"]},
            steps=blob["steps"],
            kind=blob["kind"],
            first_top=blob["first_top"],
            events=[
                (t, [tuple(ev) for ev in evs]) for t, evs in blob["events"]
            ],
            subscribers={(q, c): list(v) for q, c, v in blob["subscribers"]},
            holders={c: set(ps) for c, ps in blob["holders"]},
            last_out={(j, d): t for j, d, t in blob["last_out"]},
            reassign_dead=blob["reassign_dead"],
            fault_log=list(blob["fault_log"]),
            drops_consumed=[list(row) for row in blob["drops_consumed"]],
            counters=dict(blob["counters"]),
            telemetry=blob["telemetry"],
            step_done=blob["step_done"],
        )
