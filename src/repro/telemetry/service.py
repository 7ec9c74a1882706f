"""Service-level telemetry: request counters, latency percentiles, spans.

:class:`~repro.service.SimulationService` serves many concurrent
requests; its questions are *fleet* questions rather than per-run ones:
how deep is the queue, how many requests were coalesced onto one
execution, how many were shed, and what do the latency percentiles look
like per serving tier.  :class:`ServiceMetrics` is the ledger:

* **counters** — every request ends in exactly one bucket: served (by
  tier: ``memory`` / ``cache`` / ``delta`` / ``compute`` /
  ``coalesced``), shed (``queue_full`` / ``client_limit``), cancelled,
  or failed.  :meth:`ServiceMetrics.reconcile` asserts the ledger sums
  and cross-checks the execution-level counters against a
  :class:`~repro.telemetry.profile.SweepProfile` — the service layer's
  analogue of :meth:`MetricsTimeline.reconcile`.
* **latencies** — per-tier request latency lists with p50/p99 views
  (:func:`percentile`), feeding ``benchmarks/bench_service.py``.
* **spans** — one wall-clock ``request`` span per admitted request and
  an ``execute`` span around the runner dispatch, as plain
  :class:`~repro.telemetry.spans.Span` records managed by explicit
  handles (concurrent requests overlap, so the :class:`SpanLog`
  LIFO ``begin``/``end`` discipline cannot be used); :meth:`span_log`
  packs them into a ``SpanLog`` for the Chrome trace exporter.
"""

from __future__ import annotations

import time

# Shared implementation: the same linear-interpolation quantile serves
# SimStats step-latency reporting, MetricsTimeline and this ledger.
# Re-exported here because service callers historically imported it
# from this module.
from repro.netsim.stats import dist_summary, percentile  # noqa: F401
from repro.telemetry.spans import Span, SpanLog


class ServiceMetrics:
    """Counters, latency samples and spans for one service instance."""

    def __init__(self, clock=None) -> None:
        self.clock = clock or time.perf_counter
        #: total requests accepted into :meth:`SimulationService.submit`
        #: / ``stream`` (before any admission decision)
        self.requests = 0
        #: completed requests by serving tier; every completed request
        #: lands in exactly one bucket
        self.served: dict[str, int] = {
            "memory": 0,     # in-memory LRU hit (never queued)
            "cache": 0,      # disk SweepCache hit (queued, no compute)
            "delta": 0,      # checkpoint suffix replay
            "compute": 0,    # full recompute
            "coalesced": 0,  # joined another request's execution
        }
        #: load-shed requests by reason
        self.shed: dict[str, int] = {"queue_full": 0, "client_limit": 0}
        self.cancelled = 0
        self.failed = 0
        #: executions dispatched to the runner, by ticket origin —
        #: these reconcile with the runner's ``SweepProfile``
        self.exec_cache = 0
        self.exec_delta = 0
        self.exec_compute = 0
        #: executions whose every waiter cancelled before completion
        #: (the compute still finishes and lands in the cache)
        self.exec_abandoned = 0
        #: admitted-but-not-executing requests, sampled at transitions
        self.queue_depth = 0
        self.queue_depth_peak = 0
        #: serving tier -> request latency samples (seconds)
        self.latencies: dict[str, list[float]] = {}
        #: simulated per-step latency samples harvested from served
        #: results (host steps, not wall seconds) — the service-level
        #: view of the executor tail-latency distribution
        self.step_latency_samples: list = []
        #: request/execute spans (wall-clock, explicit handles)
        self.spans: list[Span] = []

    # -- recording (called by SimulationService) --------------------------
    def note_queue_depth(self, depth: int) -> None:
        self.queue_depth = depth
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def shed_request(self, reason: str) -> None:
        self.shed[reason] = self.shed.get(reason, 0) + 1

    def serve_request(self, tier: str, latency_s: float) -> None:
        self.served[tier] = self.served.get(tier, 0) + 1
        self.latencies.setdefault(tier, []).append(latency_s)

    def note_step_latency(self, samples) -> None:
        """Fold a served result's per-step latency samples into the
        fleet distribution (see :meth:`step_latency_summary`)."""
        self.step_latency_samples.extend(samples)

    def count_execution(self, origin: str) -> None:
        if origin == "cache":
            self.exec_cache += 1
        elif origin == "delta":
            self.exec_delta += 1
        else:
            self.exec_compute += 1

    def begin_span(self, name: str, **args) -> Span:
        span = Span(name, self.clock(), track="service", args=args)
        self.spans.append(span)
        return span

    def end_span(self, span: Span, **args) -> Span:
        if span.end is None:
            span.end = self.clock()
        span.args.update(args)
        return span

    # -- views ------------------------------------------------------------
    @property
    def completed(self) -> int:
        return sum(self.served.values())

    def latency_summary(self) -> dict[str, dict]:
        """Per-tier ``{count, p50_ms, p95_ms, p99_ms}`` (milliseconds)."""
        out = {}
        for tier, samples in sorted(self.latencies.items()):
            out[tier] = {
                "count": len(samples),
                "p50_ms": round(1e3 * percentile(samples, 0.50), 4),
                "p95_ms": round(1e3 * percentile(samples, 0.95), 4),
                "p99_ms": round(1e3 * percentile(samples, 0.99), 4),
            }
        return out

    def step_latency_summary(self) -> dict | None:
        """``{count, mean, p50, p95, p99}`` of harvested per-step
        latencies (simulated host steps), ``None`` before any result
        carried a distribution."""
        if not self.step_latency_samples:
            return None
        return dist_summary(self.step_latency_samples)

    def span_log(self) -> SpanLog:
        """The spans packed into a :class:`SpanLog` (for Chrome export)."""
        log = SpanLog(clock=self.clock)
        log.spans = list(self.spans)
        return log

    def reconcile(self, profile=None) -> dict:
        """Check the request ledger (and, optionally, the runner profile).

        Raises :class:`ValueError` naming the first mismatch; returns
        the totals on success.  Two families of invariants:

        * **ledger** — every request ends in exactly one bucket:
          ``requests == served + shed + cancelled + failed``;
        * **runner cross-check** (with ``profile``, the
          :class:`~repro.telemetry.profile.SweepProfile` of the
          runner the service submits to, used by *only* this service)
          — disk hits seen by the service equal the profile's cache
          hits, and ``exec_delta + exec_compute + exec_abandoned``
          equal its misses.  Valid on a quiescent service: an
          execution every waiter abandoned moves from its origin's
          ``exec_*`` counter to ``exec_abandoned``, so the cross-check
          still holds.
        """
        total = self.completed + sum(self.shed.values()) + self.cancelled + self.failed
        if total != self.requests:
            raise ValueError(
                f"request ledger does not sum: {self.requests} requests vs "
                f"{self.completed} served + {sum(self.shed.values())} shed + "
                f"{self.cancelled} cancelled + {self.failed} failed = {total}"
            )
        if profile is not None:
            if self.exec_cache != profile.cache_hits:
                raise ValueError(
                    f"disk-hit mismatch: service saw {self.exec_cache} "
                    f"cache-origin tickets, runner profile recorded "
                    f"{profile.cache_hits} cache hits"
                )
            misses = self.exec_delta + self.exec_compute + self.exec_abandoned
            if misses != profile.cache_misses:
                raise ValueError(
                    f"miss mismatch: service dispatched {misses} "
                    f"delta/compute/abandoned executions, runner profile "
                    f"recorded {profile.cache_misses} cache misses"
                )
        return {
            "requests": self.requests,
            "served": dict(self.served),
            "shed": dict(self.shed),
            "cancelled": self.cancelled,
            "failed": self.failed,
        }

    def as_dict(self) -> dict:
        """JSON-ready dump."""
        return {
            "requests": self.requests,
            "served": dict(self.served),
            "shed": dict(self.shed),
            "cancelled": self.cancelled,
            "failed": self.failed,
            "executions": {
                "cache": self.exec_cache,
                "delta": self.exec_delta,
                "compute": self.exec_compute,
                "abandoned": self.exec_abandoned,
            },
            "queue_depth": self.queue_depth,
            "queue_depth_peak": self.queue_depth_peak,
            "latency": self.latency_summary(),
            "step_latency": self.step_latency_summary(),
            "spans": len(self.spans),
        }


def format_service_metrics(metrics) -> str:
    """Human-readable multi-line summary (CLI ``repro serve`` output).

    Accepts a :class:`ServiceMetrics` or its :meth:`ServiceMetrics.as_dict`
    form.
    """
    if isinstance(metrics, ServiceMetrics):
        metrics = metrics.as_dict()
    served = metrics.get("served", {})
    shed = metrics.get("shed", {})
    execs = metrics.get("executions", {})
    lines = [
        f"service metrics: {metrics.get('requests', 0)} request(s), "
        f"{sum(served.values())} served, {sum(shed.values())} shed, "
        f"{metrics.get('cancelled', 0)} cancelled, "
        f"{metrics.get('failed', 0)} failed"
    ]
    tier_txt = ", ".join(
        f"{tier} {count}" for tier, count in served.items() if count
    )
    if tier_txt:
        lines.append(f"  served by: {tier_txt}")
    if any(shed.values()):
        lines.append(
            "  shed: "
            + ", ".join(f"{r} {c}" for r, c in shed.items() if c)
        )
    lines.append(
        f"  executions: {execs.get('compute', 0)} compute, "
        f"{execs.get('delta', 0)} delta replay, "
        f"{execs.get('cache', 0)} disk hit, "
        f"{execs.get('abandoned', 0)} abandoned; "
        f"queue depth peak {metrics.get('queue_depth_peak', 0)}"
    )
    for tier, rec in metrics.get("latency", {}).items():
        p95 = rec.get("p95_ms")
        p95_txt = f", p95 {p95:.3f}ms" if p95 is not None else ""
        lines.append(
            f"  {tier}: {rec['count']} request(s), "
            f"p50 {rec['p50_ms']:.3f}ms{p95_txt}, p99 {rec['p99_ms']:.3f}ms"
        )
    steps = metrics.get("step_latency")
    if steps:
        lines.append(
            f"  step latency: {steps['count']} step(s), "
            f"p50 {steps['p50']}, p95 {steps['p95']}, p99 {steps['p99']} "
            "(host steps)"
        )
    return "\n".join(lines)
