"""JSON-lines TCP transport for :class:`SimulationService`.

One request per line, one event per line back — the dumbest protocol
that still demonstrates the service end-to-end (``nc``-debuggable, no
dependencies).  Request object::

    {"id": "r1", "task": "overlap_point", "config": {"n": 32},
     "version": "1",        # optional, defaults to the service version
     "client": "alice",     # optional, admission-control identity
     "stream": true}        # optional: send progress events, not just
                            # the terminal one

Every response line echoes the request ``id`` and carries an ``event``
field — the lifecycle events of :meth:`SimulationService.stream` plus
``error`` for malformed requests (bad JSON, a line that is not a JSON
object, unknown task name).  The task registry
(:data:`repro.service.tasks.TASKS`) is the allow-list; nothing else is
callable over the wire.

Requests on one connection are served sequentially (responses stay
ordered); concurrency — and therefore coalescing and backpressure —
comes from concurrent connections.  :func:`request` is the matching
one-shot client used by ``repro client`` and the docs examples.
"""

from __future__ import annotations

import asyncio
import json

from repro.service.core import TERMINAL_EVENTS, SimulationService
from repro.service.tasks import get_task


def _send(writer: asyncio.StreamWriter, obj: dict) -> None:
    writer.write((json.dumps(obj, sort_keys=True) + "\n").encode())


async def _serve_request(
    service: SimulationService, writer, req: dict, default_client: str
) -> None:
    rid = req.get("id")
    client = str(req.get("client") or default_client)
    want_stream = bool(req.get("stream"))
    try:
        fn = get_task(str(req.get("task")))
    except KeyError as exc:
        _send(writer, {"id": rid, "event": "error", "error": str(exc)})
        return
    config = req.get("config") or {}
    if not isinstance(config, dict):
        _send(writer, {"id": rid, "event": "error", "error": "config must be an object"})
        return
    version = req.get("version")
    async for event in service.stream(
        fn, config, client=client, version=str(version) if version else None
    ):
        if want_stream or event["event"] in TERMINAL_EVENTS:
            _send(writer, {"id": rid, **event})
            await writer.drain()


async def _handle(service: SimulationService, reader, writer) -> None:
    peer = writer.get_extra_info("peername")
    default_client = f"{peer[0]}:{peer[1]}" if peer else "tcp"
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                req = json.loads(line)
            except json.JSONDecodeError as exc:
                _send(writer, {"event": "error", "error": f"bad request JSON: {exc}"})
                await writer.drain()
                continue
            if not isinstance(req, dict):
                _send(writer, {"event": "error", "error": "request must be a JSON object"})
                await writer.drain()
                continue
            await _serve_request(service, writer, req, default_client)
    except (ConnectionResetError, BrokenPipeError):
        pass  # client went away mid-response; the service side is fine
    except asyncio.CancelledError:
        # Event-loop teardown cancels live connection handlers; exit
        # cleanly so asyncio's stream machinery doesn't log a phantom
        # "exception in callback" for the cancelled task.
        pass
    finally:
        writer.close()


async def start_server(
    service: SimulationService, host: str = "127.0.0.1", port: int = 0
):
    """Start serving; returns the :class:`asyncio.Server`.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.sockets[0].getsockname()[1]``.
    """
    return await asyncio.start_server(
        lambda r, w: _handle(service, r, w), host, port
    )


async def request(host: str, port: int, payload: dict) -> list[dict]:
    """One-shot client: send ``payload``, collect events to terminal.

    Returns every event line received for the request (at least the
    terminal one; all lifecycle events when ``payload["stream"]``).
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        _send(writer, payload)
        await writer.drain()
        events: list[dict] = []
        while True:
            line = await reader.readline()
            if not line:
                break
            event = json.loads(line)
            events.append(event)
            if event.get("event") in TERMINAL_EVENTS or event.get("event") == "error":
                break
        return events
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
