"""Observability layer: step-level metrics, spans, traces, profiles.

The paper's claims are about *where time goes* — how much of a run's
slowdown is link delay, how much is bandwidth serialisation, how much
is redundant recomputation.  End-of-run aggregates
(:class:`~repro.netsim.stats.SimStats`) answer "how slow"; this package
answers "why":

:mod:`repro.telemetry.timeline`
    :class:`MetricsTimeline` — the one record of a run, fed by both
    execution tiers while it is in flight: per-step counters (pebbles
    computed, redundant recomputations, messages launched/delivered,
    link injections and in-flight occupancy, lost messages),
    fault/recovery marks, and one ``(t, pos, col, row)`` record per
    pebble (wavefront, utilisation, space-time diagram).  The per-step
    series **sum to the run's final ``SimStats``** — enforced by
    :meth:`MetricsTimeline.reconcile` and ``tests/test_telemetry.py``.

:mod:`repro.telemetry.spans`
    :class:`SpanLog` — named begin/end intervals (``epoch``,
    ``recovery``, ``run``) in simulated time, or wall-clock spans via
    the ``with log.span("phase"):`` context manager.

:mod:`repro.telemetry.chrome`
    Export a run (pebble records + timeline counters + spans) as Chrome
    ``trace_event`` JSON, loadable in ``chrome://tracing`` or Perfetto
    (https://ui.perfetto.dev).

:mod:`repro.telemetry.profile`
    :class:`SweepProfile` — wall-clock attribution for
    :class:`~repro.runner.SweepRunner` sweeps: per-worker/per-chunk
    time, cache-hit vs recompute split.

:mod:`repro.telemetry.service`
    :class:`ServiceMetrics` — request-level counters, latency
    percentiles, and per-request/execute spans for
    :class:`~repro.service.SimulationService`; reconciles its
    execution counters against the runner's :class:`SweepProfile`.

Telemetry is strictly opt-in and observational: with no
:class:`MetricsTimeline` attached, both tiers skip each recording site
on one ``None`` check, and an attached timeline never alters event
order or the resolved tier — results stay bit-identical either way
(``benchmarks/bench_telemetry.py`` is the overhead gate).
"""

from repro.telemetry.chrome import chrome_events, to_chrome_trace, write_chrome_trace
from repro.telemetry.profile import SweepProfile, format_profile
from repro.telemetry.service import ServiceMetrics, format_service_metrics, percentile
from repro.telemetry.spans import Span, SpanLog
from repro.telemetry.timeline import MetricsTimeline

__all__ = [
    "MetricsTimeline",
    "ServiceMetrics",
    "Span",
    "SpanLog",
    "SweepProfile",
    "format_profile",
    "format_service_metrics",
    "percentile",
    "chrome_events",
    "to_chrome_trace",
    "write_chrome_trace",
]
