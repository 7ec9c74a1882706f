"""Outside-in tracer for the layer ledger.

:class:`Tracer` times calls into a program's public callables without
editing the program: on entry it replaces each declared ``(module or
class, attribute)`` with a wrapper that records a wall-clock span, and
on exit it puts every original back.  A module-level function is also
re-bound wherever another loaded module imported it by name (``from
repro.core.verify import verify_execution`` binds a second reference
that patching ``repro.core.verify`` alone would miss).

Each span records its name, start and end (``perf_counter_ns``), its
parent span, its thread and an optional request id.  The current span
lives in a :class:`contextvars.ContextVar`, so spans nest per asyncio
task as well as per thread: a task inherits the span that was current
when it was created, and a span that starts on a worker thread (whose
context starts empty) is the root of its own tree on that thread.

Spans are kept in memory; :meth:`Tracer.self_times` folds them into
per-name self time (a span's duration minus its children's), and
:meth:`Tracer.write` writes the Chrome ``trace_event`` file once, at
the end.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

_current: contextvars.ContextVar = contextvars.ContextVar("ledger_span", default=None)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "rid", "counts")

    def __init__(self, sid: int, name: str, parent, rid) -> None:
        self.id = sid
        self.name = name
        self.parent = parent
        self.rid = rid
        self.thread = threading.get_ident()
        self.counts: dict | None = None
        self.start = time.perf_counter_ns()
        self.end = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is a module or a class and ``attr`` the attribute to
    replace.  ``harvest(result, args, kwargs)`` may return counts taken
    from public result fields; ``tag(args, kwargs)`` may return a
    request id for the span.
    """

    owner: object
    attr: str
    harvest: Callable | None = None
    tag: Callable | None = None

    @property
    def name(self) -> str:
        if inspect.ismodule(self.owner):
            module, prefix = self.owner.__name__, ""
        else:
            module, prefix = self.owner.__module__, self.owner.__qualname__ + "."
        return f"{module.partition('.')[2] or module}.{prefix}{self.attr}"


class Tracer:
    """Context manager that wraps ``targets`` while active."""

    def __init__(self, targets) -> None:
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, target: Target) -> None:
        raw = vars(target.owner)[target.attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, target))
        else:
            wrapped = self._wrap(raw, target)
        self._patches.append((target.owner, target.attr, raw))
        setattr(target.owner, target.attr, wrapped)
        if inspect.ismodule(target.owner):
            for module in list(sys.modules.values()):
                names = getattr(module, "__dict__", None)
                if module is target.owner or not isinstance(names, dict):
                    continue
                for name, value in list(names.items()):
                    if value is raw:
                        self._patches.append((module, name, raw))
                        setattr(module, name, wrapped)

    def _wrap(self, fn, target: Target):
        name, harvest, tag = target.name, target.harvest, target.tag
        open_, close = self._open, self._close

        if inspect.isasyncgenfunction(fn):

            @functools.wraps(fn)
            async def agen_wrapper(*args, **kwargs):
                span, parent = open_(name, tag, args, kwargs)
                inner = fn(*args, **kwargs)
                try:
                    async for item in inner:
                        yield item
                finally:
                    try:
                        await inner.aclose()
                    finally:
                        close(span, parent)

            return agen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, parent = open_(name, tag, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span, parent)
            if harvest is not None:
                span.counts = harvest(result, args, kwargs)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------
    def _open(self, name: str, tag, args, kwargs) -> tuple[Span, Span | None]:
        parent = _current.get()
        rid = tag(args, kwargs) if tag is not None else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(next(self._ids), name, parent.id if parent else None, rid)
        _current.set(span)
        return span, parent

    def _close(self, span: Span, parent: Span | None) -> None:
        span.end = time.perf_counter_ns()
        # set(), not a token reset: an async generator may be finalised
        # in another context than the one that opened its span.
        _current.set(parent)
        self.spans.append(span)

    @contextmanager
    def root(self, name: str, rid=None):
        """A span around benchmark code (one workload operation)."""
        span, parent = self._open(name, None, (), {})
        if rid is not None:
            span.rid = rid
        try:
            yield span
        finally:
            self._close(span, parent)

    def link_requests(self, root_name: str) -> int:
        """Adopt parentless spans into the ``root_name`` span sharing
        their request id (a server task is not created from the client
        task that sent the request, so context cannot link them).
        Returns how many spans were adopted."""
        roots = {s.rid: s.id for s in self.spans if s.name == root_name}
        linked = 0
        for span in self.spans:
            if span.parent is None and span.name != root_name and span.rid in roots:
                span.parent = roots[span.rid]
                linked += 1
        return linked

    # -- views --------------------------------------------------------------
    def self_times(self) -> dict[str, int]:
        """Per-name self time in ns: duration minus children's."""
        child_ns: dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] = child_ns.get(span.parent, 0) + span.duration
        out: dict[str, int] = {}
        for span in self.spans:
            own = span.duration - child_ns.get(span.id, 0)
            out[span.name] = out.get(span.name, 0) + own
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def counts(self) -> dict[str, dict[str, float]]:
        """Per-name sums of the harvested counts."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.counts:
                acc = out.setdefault(span.name, {})
                for key, value in span.counts.items():
                    acc[key] = acc.get(key, 0) + value
        return out

    def chrome_events(self) -> list[dict]:
        """Complete (``"X"``) events in wall-clock µs from the first span."""
        if not self.spans:
            return []
        t0 = min(s.start for s in self.spans)
        tids: dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(span.thread, len(tids))
            args = {"id": span.id, "parent": span.parent}
            if span.rid is not None:
                args["rid"] = span.rid
            if span.counts:
                args.update(span.counts)
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "pid": 0,
                    "tid": tid,
                    "ts": (span.start - t0) / 1e3,
                    "dur": span.duration / 1e3,
                    "args": args,
                }
            )
        return events

    def write(self, path) -> None:
        """Write the Chrome ``trace_event`` document to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.chrome_events()}, fh)
