"""`SimulationService`: the asyncio front-end over :class:`SweepRunner`.

The paper hides network latency by replicating *state* so every request
finds an answer nearby; this layer applies the same idea at the serving
tier.  A long-lived service fields simulation requests from many
concurrent clients, and most of them should never reach a worker
process:

1. **memory** — an in-memory :class:`~repro.service.lru.LRUCache` of
   serialised results sits above the JSON disk cache; repeat requests
   are served in microseconds without touching the event loop's
   executor, the disk, or the pool.
2. **coalescing** — duplicate requests *in flight* (same content hash)
   join the one execution instead of queueing their own; every waiter
   gets the same bytes when it lands.
3. **runner tiers** — everything else goes through
   :meth:`SweepRunner.submit`, which itself resolves disk hits, delta
   suffix replays, and full computes.

Admission control keeps the service responsive under overload: at most
``max_queue`` requests may be admitted at once and each client name may
hold at most ``per_client`` of them; excess requests are shed
immediately with a typed :class:`ServiceOverloaded` (reason
``queue_full`` or ``client_limit``) rather than queueing unboundedly.
``max_concurrency`` bounds how many admitted requests execute
simultaneously (the rest wait, which is what the queue-depth gauge
measures).

Request lifecycle, cancellation, and fairness semantics are documented
in ``docs/ARCHITECTURE.md``; every request is accounted in exactly one
:class:`~repro.telemetry.service.ServiceMetrics` bucket.
"""

from __future__ import annotations

import asyncio
import json

from repro.runner import SweepRunner
from repro.service.lru import LRUCache
from repro.service.tasks import get_task
from repro.telemetry.service import ServiceMetrics

#: events that end a :meth:`SimulationService.stream` generator
TERMINAL_EVENTS = ("done", "shed", "failed", "cancelled")


class ServiceOverloaded(RuntimeError):
    """Request shed by admission control.

    ``reason`` is ``"queue_full"`` (the service-wide admission bound is
    reached) or ``"client_limit"`` (this client name already holds its
    per-client share); ``detail`` is a human-readable elaboration.
    Shedding is immediate — an overloaded service answers *no* in
    microseconds instead of parking the request on an unbounded queue.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        msg = f"service overloaded ({reason})"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)
        self.reason = reason
        self.detail = detail


class _InFlight:
    """One admitted execution plus everyone waiting on it."""

    __slots__ = ("key", "task", "waiters", "sinks", "origin", "dying")

    def __init__(self, key: str) -> None:
        self.key = key
        self.task: asyncio.Task | None = None
        self.waiters = 0
        #: event callbacks of every request riding this execution
        self.sinks: list = []
        #: runner ticket origin ("cache" / "delta" / "compute"), set at
        #: dispatch
        self.origin: str | None = None
        #: set when the last waiter cancelled — late arrivals must not
        #: join a dying execution
        self.dying = False


class SimulationService:
    """Serve simulation requests with caching, coalescing, backpressure.

    Parameters
    ----------
    runner:
        The :class:`~repro.runner.SweepRunner` to execute on (shared
        disk cache, worker pool, profile).  Defaults to a cache-less
        inline runner — tests and demos pass a configured one.
    lru_entries:
        Capacity of the in-memory result LRU (serialised JSON text).
    max_queue:
        Admission bound: at most this many requests admitted
        (queued + executing) at once; excess is shed (``queue_full``).
    max_concurrency:
        Admitted requests executing simultaneously; the rest wait.
    per_client:
        Admitted requests a single client name may hold; excess is shed
        (``client_limit``) so one chatty client cannot starve the rest.
    version:
        Default task version for cache keying (overridable per request).
    metrics:
        A :class:`~repro.telemetry.service.ServiceMetrics` to record
        into (default: a fresh one on :attr:`metrics`).

    ``lru_entries``, ``max_queue``, ``max_concurrency`` and
    ``per_client`` must be at least 1 (``ValueError`` otherwise): at 0
    the service would shed or stall every request.
    """

    def __init__(
        self,
        runner: SweepRunner | None = None,
        *,
        lru_entries: int = 512,
        max_queue: int = 32,
        max_concurrency: int = 4,
        per_client: int = 8,
        version: str = "1",
        metrics: ServiceMetrics | None = None,
    ) -> None:
        for name, value in (
            ("max_queue", max_queue),
            ("max_concurrency", max_concurrency),
            ("per_client", per_client),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.runner = runner if runner is not None else SweepRunner()
        self.memory = LRUCache(lru_entries)
        self.max_queue = max_queue
        self.per_client = per_client
        self.version = version
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._sem = asyncio.Semaphore(max_concurrency)
        self._inflight: dict[str, _InFlight] = {}
        self._admitted = 0
        self._executing = 0
        self._clients: dict[str, int] = {}

    # -- public entry points ----------------------------------------------
    async def submit(
        self,
        task,
        config: dict,
        *,
        client: str = "default",
        version: str | None = None,
        on_event=None,
    ):
        """Serve one request; returns the result dict.

        ``task`` is a registered task name or a runner-compatible
        callable.  Raises :class:`ServiceOverloaded` when shed,
        propagates task exceptions, and honours ``asyncio`` cancellation
        (a cancelled sole waiter abandons the execution; the compute
        still completes in the worker and lands in the cache).
        ``on_event`` receives the same progress events :meth:`stream`
        yields (minus the terminal one).
        """
        emit = on_event if on_event is not None else _drop
        return await self._request(task, config, client, version, emit)

    async def stream(
        self,
        task,
        config: dict,
        *,
        client: str = "default",
        version: str | None = None,
    ):
        """Async generator of request-lifecycle events.

        Yields ``{"event": ...}`` dicts (``accepted``, ``cache_hit``,
        ``coalesced``, ``queued``, ``started``) and exactly one terminal
        event — ``done`` (with ``result``), ``shed`` (with ``reason``),
        ``failed`` (with ``error``) or ``cancelled`` — then ends.
        Request-level outcomes never raise out of the generator; closing
        it early (``aclose`` / breaking out of the loop) cancels the
        request like any other waiter.
        """
        queue: asyncio.Queue = asyncio.Queue()
        task_ = asyncio.ensure_future(
            self._request(task, config, client, version, queue.put_nowait)
        )

        def _terminal(t: asyncio.Task) -> None:
            if t.cancelled():
                queue.put_nowait({"event": "cancelled"})
                return
            exc = t.exception()
            if exc is None:
                queue.put_nowait({"event": "done", "result": t.result()})
            elif isinstance(exc, ServiceOverloaded):
                queue.put_nowait(
                    {"event": "shed", "reason": exc.reason, "detail": exc.detail}
                )
            else:
                queue.put_nowait(
                    {"event": "failed", "error": f"{type(exc).__name__}: {exc}"}
                )

        task_.add_done_callback(_terminal)
        try:
            while True:
                event = await queue.get()
                yield event
                if event["event"] in TERMINAL_EVENTS:
                    return
        finally:
            if not task_.done():
                task_.cancel()
            try:
                await task_
            except BaseException:  # noqa: BLE001 - outcome already reported
                pass

    async def close(self) -> None:
        """Cancel every in-flight execution and wait for the accounting
        to settle (dispatched worker computes still run to completion in
        the background and land in the disk cache)."""
        tasks = [fl.task for fl in list(self._inflight.values()) if fl.task]
        for t in tasks:
            t.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- request lifecycle ------------------------------------------------
    async def _request(self, task, config, client, version, emit):
        """The whole lifecycle of one request; counts exactly one
        metrics bucket (served tier / shed / cancelled / failed)."""
        m = self.metrics
        m.requests += 1
        t0 = m.clock()
        try:
            fn = get_task(task) if isinstance(task, str) else task
            key, cfg = self.runner.prepare(
                fn, config, version=version or self.version
            )
            span = m.begin_span("request", key=key[:12], client=client)
            try:
                tier, result = await self._serve(
                    fn, cfg, key, client, version or self.version, emit
                )
            finally:
                m.end_span(span)
            m.serve_request(tier, m.clock() - t0)
            if isinstance(result, dict):
                samples = result.get("step_latency_samples")
                if samples:
                    m.note_step_latency(samples)
            return result
        except asyncio.CancelledError:
            m.cancelled += 1
            raise
        except ServiceOverloaded as exc:
            m.shed_request(exc.reason)
            raise
        except Exception:
            m.failed += 1
            raise

    async def _serve(self, fn, cfg, key, client, version, emit):
        """Route one prepared request through the serving tiers.

        Synchronous up to the first ``await`` — under ``asyncio.gather``
        every duplicate's memory lookup, coalesce check, and admission
        decision runs before any execution makes progress, which makes
        coalescing deterministic.
        """
        m = self.metrics
        emit({"event": "accepted", "key": key})

        # Tier 1: in-memory LRU. Stores serialised text, decoded per
        # hit — byte-identical to a disk hit and immune to clients
        # mutating a shared response object.
        text = self.memory.get(key)
        if text is not None:
            emit({"event": "cache_hit", "tier": "memory"})
            return "memory", json.loads(text)

        # Tier 2: coalesce onto an identical in-flight execution.
        fl = self._inflight.get(key)
        if fl is not None and not fl.dying:
            emit({"event": "coalesced", "waiters": fl.waiters + 1})
            fl.sinks.append(emit)
            return "coalesced", await self._join(fl)

        # Admission control — shed before committing any resources.
        if self._admitted >= self.max_queue:
            raise ServiceOverloaded(
                "queue_full",
                f"{self._admitted} requests admitted (max_queue={self.max_queue})",
            )
        held = self._clients.get(client, 0)
        if held >= self.per_client:
            raise ServiceOverloaded(
                "client_limit",
                f"client {client!r} holds {held} requests (per_client={self.per_client})",
            )

        # Leader: admit, dispatch the (shared) execution task, wait.
        self._admitted += 1
        self._clients[client] = held + 1
        fl = _InFlight(key)
        fl.sinks.append(emit)
        fl.task = asyncio.ensure_future(self._execute(fl, fn, cfg, key, client, version))
        self._inflight[key] = fl
        m.note_queue_depth(self._admitted - self._executing)
        emit({"event": "queued", "depth": self._admitted - self._executing})
        result = await self._join(fl)
        return fl.origin or "compute", result

    async def _join(self, fl: _InFlight):
        """Wait on a shared execution without owning it.

        ``shield`` keeps one waiter's cancellation from killing the
        execution other waiters still need; only when the *last* waiter
        cancels is the execution itself cancelled (and marked dying so
        late duplicates start fresh instead of joining a corpse).
        """
        fl.waiters += 1
        try:
            return await asyncio.shield(fl.task)
        finally:
            fl.waiters -= 1
            if fl.waiters == 0 and not fl.task.done():
                fl.dying = True
                fl.task.cancel()

    async def _execute(self, fl: _InFlight, fn, cfg, key, client, version):
        """The one execution task behind an admitted request.

        Runs as its own ``asyncio.Task`` (not in any client's
        coroutine) so accounting and cleanup happen exactly once no
        matter which waiters come and go.  The admission slot is charged
        to the leader's client name for the execution's whole lifetime.
        """
        m = self.metrics
        try:
            async with self._sem:
                self._executing += 1
                m.note_queue_depth(self._admitted - self._executing)
                span = m.begin_span("execute", key=key[:12])
                ticket = None
                try:
                    ticket = self.runner.submit(fn, cfg, version=version)
                    fl.origin = ticket.origin
                    m.count_execution(ticket.origin)
                    self._broadcast(fl, {"event": "started", "origin": ticket.origin})
                    if ticket.origin == "cache":
                        self._broadcast(fl, {"event": "cache_hit", "tier": "disk"})
                    result = await asyncio.wrap_future(ticket.future)
                    self.memory.put(key, json.dumps(result, sort_keys=True))
                    return result
                except asyncio.CancelledError:
                    # Every waiter gave up. Release the ticket (running
                    # worker computes finish anyway and land in the disk
                    # cache) and move the execution to the abandoned
                    # bucket so the profile cross-check stays exact.
                    if ticket is not None:
                        ticket.cancel()
                        if ticket.origin == "delta":
                            m.exec_delta -= 1
                            m.exec_abandoned += 1
                        elif ticket.origin == "compute":
                            m.exec_compute -= 1
                            m.exec_abandoned += 1
                    raise
                finally:
                    m.end_span(span, origin=fl.origin)
                    self._executing -= 1
        finally:
            if self._inflight.get(key) is fl:
                del self._inflight[key]
            self._admitted -= 1
            held = self._clients.get(client, 1) - 1
            if held > 0:
                self._clients[client] = held
            else:
                self._clients.pop(client, None)
            m.note_queue_depth(self._admitted - self._executing)

    def _broadcast(self, fl: _InFlight, event: dict) -> None:
        for sink in fl.sinks:
            try:
                sink(event)
            except Exception:  # noqa: BLE001 - a dead sink must not kill the run
                pass


def _drop(event: dict) -> None:
    """Default no-op event sink for :meth:`SimulationService.submit`."""
