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
zero-boundary case and leaves the fault state empty.  Only a run given
a ``checkpoint_stride`` captures anything; with one, captures happen

* on that fixed time stride, on every run;
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

Every table in the snapshot holds only integers, so
:meth:`ExecutorCheckpoint.to_json` / :meth:`from_json` round-trip it
losslessly through the sweep cache's JSON sidecar files.  Layout 3
packs each integer table into columns ``[width, count, base64]``:
``count`` signed little-endian integers of the narrowest ``width`` (1,
2, 4 or 8 bytes) that holds them all.  A ragged table is a ``len``
column plus one flat ``val`` column, keyed by a ``key`` column (tuple
keys interleaved).  Scalars and the small fault-state fields stay plain
JSON.  A blob written under any other :data:`LAYOUT` (or none), or one
that cannot be decoded, is rejected as
:class:`~repro.delta.DeltaUnsupported`, so a stale or corrupt sidecar
costs a full recompute instead of a mis-replayed suffix.
"""

from __future__ import annotations

import base64
import struct
from dataclasses import dataclass, field
from itertools import chain

from repro.delta import DeltaUnsupported

#: Version of the JSON layout (fields, column encoding and pending-event
#: tuples).  Bump it whenever any of them changes.
LAYOUT = 3

#: Column width in bytes -> its signed ``struct`` code, narrowest first.
_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
#: Integer scalars kept as plain JSON numbers.
_INTS = (
    "time", "epoch", "remaining", "makespan", "progress", "pebbles",
    "messages", "injections", "lost_messages", "retries", "steps",
)


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

    # -- JSON round-trip -------------------------------------------------
    def to_json(self) -> dict:
        """Lossless layout-3 JSON form, integer tables as packed columns.

        Raises ``ValueError`` when an integer does not fit in int64.
        """
        ev = self.events
        return {
            "layout": LAYOUT,
            "label": self.label,
            "kind": self.kind,
            "first_top": self.first_top,
            **{name: getattr(self, name) for name in _INTS},
            "watermarks": _table(self.watermarks, self.watermarks.values()),
            "busy": {
                "key": _pack(self.busy),
                "val": _pack(self.busy.values()),
            },
            "link_state": _rows(self.link_state),
            "streams": _table(chain(*self.streams), self.streams.values()),
            "events": {
                "time": _pack(t for t, _ in ev),
                "count": _pack(len(evs) for _, evs in ev),
                **_rows([e for _, evs in ev for e in evs]),
            },
            "subscribers": _table(
                chain(*self.subscribers), self.subscribers.values()
            ),
            "holders": _table(
                self.holders, [sorted(ps) for ps in self.holders.values()]
            ),
            "step_done": _pack(self.step_done),
            "dead": sorted(self.dead),
            "last_out": [[j, d, t] for (j, d), t in self.last_out.items()],
            "reassign_dead": (
                None if self.reassign_dead is None else sorted(self.reassign_dead)
            ),
            "fault_log": list(self.fault_log),
            "drops_consumed": [list(row) for row in self.drops_consumed],
            "counters": dict(self.counters),
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "ExecutorCheckpoint":
        """Rebuild the in-memory snapshot from :meth:`to_json` output.

        Raises :class:`~repro.delta.DeltaUnsupported` when ``blob`` was
        written under a different (or no) :data:`LAYOUT`, or cannot be
        decoded: a missing or mistyped field, bad base64, an unknown
        width, or a column whose length disagrees with its table.
        """
        layout = blob.get("layout") if isinstance(blob, dict) else None
        if layout != LAYOUT:
            raise DeltaUnsupported(
                f"checkpoint layout {layout!r} is not the current "
                f"layout {LAYOUT}"
            )
        try:
            ints = {name: blob[name] for name in _INTS}
            first_top = blob["first_top"]
            if any(type(v) is not int for v in ints.values()) or not (
                first_top is None or type(first_top) is int
            ):
                raise TypeError("a scalar field is not an integer")
            busy, ev = blob["busy"], blob["events"]
            flags = map(bool, _unpack(busy["val"]))
            events = _split(_unrows(ev, tuple), _unpack(ev["count"]))
            return cls(
                **ints,
                label=blob["label"],
                kind=blob["kind"],
                first_top=first_top,
                watermarks=_untable(blob["watermarks"]),
                busy=dict(zip(_unpack(busy["key"]), flags, strict=True)),
                link_state=_unrows(blob["link_state"]),
                dead=set(blob["dead"]),
                streams=_untable(blob["streams"], pairs=True),
                events=list(zip(_unpack(ev["time"]), events, strict=True)),
                subscribers=_untable(blob["subscribers"], pairs=True),
                holders=_untable(blob["holders"], kind=set),
                last_out={(j, d): t for j, d, t in blob["last_out"]},
                reassign_dead=blob["reassign_dead"],
                fault_log=list(blob["fault_log"]),
                drops_consumed=[list(row) for row in blob["drops_consumed"]],
                counters=dict(blob["counters"]),
                telemetry=blob["telemetry"],
                step_done=list(_unpack(blob["step_done"])),
            )
        except (KeyError, TypeError, ValueError, struct.error) as exc:
            raise DeltaUnsupported(
                f"undecodable checkpoint blob: {exc!r}"
            ) from exc


# -- packed columns --------------------------------------------------------


def _pack(values) -> list:
    """The integers of ``values`` as one column ``[width, count, base64]``:
    signed little-endian, at the narrowest width that holds them all
    (``struct`` range-checks every value at each width tried)."""
    values = list(values)
    for width, code in _CODES.items():
        try:
            data = struct.pack(f"<{len(values)}{code}", *values)
        except struct.error:
            continue
        return [width, len(values), base64.b64encode(data).decode("ascii")]
    raise ValueError("checkpoint column holds a value outside int64")


def _unpack(column) -> tuple[int, ...]:
    """The integers of one :func:`_pack` column."""
    width, count, text = column
    data = base64.b64decode(text, validate=True)
    return struct.unpack(f"<{count}{_CODES[width]}", data)


def _rows(rows) -> dict:
    """A ragged table: a length column plus one flat value column."""
    return {"len": _pack(map(len, rows)), "val": _pack(chain(*rows))}


def _table(keys, rows) -> dict:
    """A ragged table keyed by ``keys`` (tuple keys interleaved)."""
    return {"key": _pack(keys), **_rows(rows)}


def _split(values, lengths) -> list:
    """Cut ``values`` into consecutive rows of ``lengths``."""
    end = 0
    # Each slice's start is read before the walrus moves ``end`` on.
    rows = [values[end:(end := end + n)] for n in lengths]
    if end != len(values) or min(lengths, default=0) < 0:
        raise ValueError("length column does not match its values")
    return rows


def _unrows(table: dict, kind=list) -> list:
    """The rows of a :func:`_rows` table, each a ``kind`` (list, tuple
    or set)."""
    values = _unpack(table["val"])
    if kind is list:
        values = list(values)
    rows = _split(values, _unpack(table["len"]))
    return rows if kind in (list, tuple) else list(map(kind, rows))


def _untable(table: dict, pairs: bool = False, kind=list) -> dict:
    """The dict of a :func:`_table` table (2-tuple keys when ``pairs``)."""
    keys = _unpack(table["key"])
    if pairs:
        keys = zip(keys[::2], keys[1::2], strict=True)
    return dict(zip(keys, _unrows(table, kind), strict=True))
