"""Chrome ``trace_event`` export for simulation runs.

Turns a run's :class:`~repro.telemetry.timeline.MetricsTimeline` (its
pebble records, per-step counters and fault marks) and any
:class:`~repro.telemetry.spans.SpanLog` spans into the JSON Object
Format consumed by ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev): a ``{"traceEvents": [...]}`` document of
``"X"`` (complete), ``"i"`` (instant), ``"C"`` (counter) and ``"M"``
(metadata) events.

Simulated host steps are mapped to trace microseconds at
:data:`TS_SCALE` µs/step, so one host step renders as 1 ms and a
10k-step run spans 10 s of trace time — comfortable zoom range in
either viewer.  Layout:

* one thread row per host position, holding its pebble computations
  (``"X"``, duration = 1 step);
* one thread row per span track (``epoch``/``recovery``/... intervals);
* counter tracks for the timeline series (computation, link occupancy,
  message flow);
* instant markers for fault/recovery events.

Events are emitted sorted by timestamp (metadata first), which both
viewers require for well-formed nesting.
"""

from __future__ import annotations

import json

#: Trace microseconds per simulated host step (1 step == 1 ms on screen).
TS_SCALE = 1000

#: Timeline series exported as counter tracks, grouped by counter name.
_COUNTER_TRACKS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("computation", ("pebbles", "redundant")),
    ("link occupancy", ("in_flight",)),
    ("message flow", ("messages", "deliveries", "lost")),
)


def chrome_events(timeline=None, spans=None, label: str = "run") -> list[dict]:
    """Build the ``traceEvents`` list from whichever artifacts exist.

    Either of ``timeline`` / ``spans`` may be ``None``.  A timeline
    contributes its pebble rows, fault marks and counter tracks; when
    ``spans`` is omitted, the timeline's span log is exported.
    """
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "ts": 0,
            "args": {"name": f"repro {label}"},
        }
    ]
    body: list[dict] = []
    named_threads: dict[int, str] = {}

    if timeline is not None:
        for time, pos, col, row in timeline.records:
            body.append(
                {
                    "ph": "X",
                    "name": f"pebble c{col} r{row}",
                    "cat": "pebble",
                    "pid": 0,
                    "tid": pos,
                    "ts": (time - 1) * TS_SCALE,
                    "dur": TS_SCALE,
                    "args": {"column": col, "row": row},
                }
            )
            if pos not in named_threads:
                named_threads[pos] = f"position {pos}"

    if spans is None and timeline is not None:
        spans = timeline.spans
    if spans is not None:
        # Span tracks live on high tids so they sort below the positions.
        track_tid: dict[str, int] = {}
        for s in spans:
            tid = track_tid.setdefault(s.track, 1_000_000 + len(track_tid))
            named_threads.setdefault(tid, f"spans: {s.track}")
            end = s.end if s.end is not None else s.start
            body.append(
                {
                    "ph": "X",
                    "name": s.name,
                    "cat": "span",
                    "pid": 0,
                    "tid": tid,
                    "ts": s.start * TS_SCALE,
                    "dur": (end - s.start) * TS_SCALE,
                    "args": dict(s.args),
                }
            )

    if timeline is not None:
        for time, kind, detail in timeline.faults:
            body.append(
                {
                    "ph": "i",
                    "name": kind,
                    "cat": "fault",
                    "pid": 0,
                    "tid": 0,
                    "ts": time * TS_SCALE,
                    "s": "g",
                    "args": {"detail": detail},
                }
            )

        for track, names in _COUNTER_TRACKS:
            series = {name: timeline.series(name) for name in names}
            horizon = max((len(v) for v in series.values()), default=0)
            for t in range(horizon):
                args = {name: series[name][t] for name in names if t < len(series[name])}
                if any(args.values()) or t == 0:
                    body.append(
                        {
                            "ph": "C",
                            "name": track,
                            "pid": 0,
                            "tid": 0,
                            "ts": t * TS_SCALE,
                            "args": args,
                        }
                    )

    for tid in sorted(named_threads):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "ts": 0,
                "args": {"name": named_threads[tid]},
            }
        )
    body.sort(key=lambda e: (e["ts"], e["ph"], e["tid"]))
    events.extend(body)
    return events


def to_chrome_trace(timeline=None, spans=None, label: str = "run") -> dict:
    """The full JSON-Object-Format document (``traceEvents`` + metadata)."""
    return {
        "traceEvents": chrome_events(timeline=timeline, spans=spans, label=label),
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": f"{TS_SCALE} us per simulated host step"},
    }


def write_chrome_trace(path, timeline=None, spans=None, label: str = "run") -> dict:
    """Write the trace document to ``path``; returns the document."""
    doc = to_chrome_trace(timeline=timeline, spans=spans, label=label)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc
