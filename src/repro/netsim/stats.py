"""Run statistics shared by all executors.

A single mutable :class:`SimStats` instance is threaded through a run
and summarises everything the analysis layer needs: how long the run
took (``makespan``), how much computation happened (``pebbles``, with
``redundant`` counting recomputations beyond the first), and how much
communication happened (``messages`` end-to-end, ``pebble_hops`` per
link traversal).

The module is also the home of the shared percentile helpers: the
single :func:`percentile` implementation used by step-latency
reporting here, by :class:`~repro.telemetry.timeline.MetricsTimeline`
and by :class:`~repro.telemetry.service.ServiceMetrics`, plus the
*distribution extras* convention — an extras value shaped
``{"__dist__": True, "samples": [...]}`` that :meth:`SimStats.as_dict`
renders as its percentile summary instead of the raw samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def percentile(values, q: float):
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated.

    ``None`` on an empty sequence — a latency you never measured is not
    zero, and the benchmark gates must fail loudly on it.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    vs = sorted(values)
    if not vs:
        return None
    pos = (len(vs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return vs[lo] + (vs[hi] - vs[lo]) * (pos - lo)


def make_dist(samples) -> dict:
    """Wrap raw samples as a distribution-valued extras entry.

    The marker tells :meth:`SimStats.as_dict` to report the entry's
    ``{count, mean, p50, p95, p99}`` summary, not its samples.
    """
    return {"__dist__": True, "samples": list(samples)}


def is_dist(value) -> bool:
    """Whether ``value`` is a distribution-valued extras entry."""
    return isinstance(value, dict) and value.get("__dist__") is True


def dist_summary(samples) -> dict:
    """``{count, mean, p50, p95, p99}`` view of a sample list.

    All fields ``None``-free only when samples exist; an empty
    distribution reports ``count=0`` and ``None`` percentiles so a
    missing measurement can never masquerade as a zero latency.
    """
    samples = list(samples)
    n = len(samples)
    return {
        "count": n,
        "mean": (sum(samples) / n) if n else None,
        "p50": percentile(samples, 0.50),
        "p95": percentile(samples, 0.95),
        "p99": percentile(samples, 0.99),
    }


def latencies_from_completions(step_done) -> list[int]:
    """Per-step latencies from a row-completion-time array.

    ``step_done[t]`` is the time the *last* pebble of guest row ``t``
    finished (``step_done[0] == 0``: the inputs are free).  The list of
    consecutive differences is the per-step latency distribution whose
    tail (p95/p99) the racing/stealing policies target; its sum is the
    makespan, so mean step latency equals the classic slowdown.
    """
    return [
        step_done[t] - step_done[t - 1] for t in range(1, len(step_done))
    ]


@dataclass
class SimStats:
    """Counters for one simulation run."""

    makespan: int = 0
    pebbles: int = 0
    redundant: int = 0
    messages: int = 0
    pebble_hops: int = 0
    idle_steps: int = 0
    procs_used: int = 0
    # Fault/recovery counters (all zero on a fault-free run).
    faults_injected: int = 0
    lost_messages: int = 0
    retries: int = 0
    recoveries: int = 0
    columns_lost: int = 0
    crashed_nodes: int = 0
    extras: dict = field(default_factory=dict)

    def slowdown(self, guest_steps: int) -> float:
        """Host steps per guest step: the paper's central metric."""
        if guest_steps <= 0:
            raise ValueError("guest_steps must be positive")
        return self.makespan / guest_steps

    def record_step_latency(self, samples) -> "SimStats":
        """Attach the per-step latency distribution of this run.

        Stored as a distribution extras entry: :meth:`step_latency_samples`
        returns the raw samples, and :meth:`step_latency_summary` and
        :meth:`as_dict` render the percentile view.  Returns ``self``
        for chaining.
        """
        self.extras["step_latency"] = make_dist(samples)
        return self

    def step_latency_samples(self) -> list:
        """Raw per-step latency samples (empty when never recorded)."""
        dist = self.extras.get("step_latency")
        return list(dist["samples"]) if is_dist(dist) else []

    def step_latency_summary(self) -> dict | None:
        """``{count, mean, p50, p95, p99}`` of the step latencies, or
        ``None`` when the run recorded no distribution."""
        dist = self.extras.get("step_latency")
        if not is_dist(dist):
            return None
        return dist_summary(dist["samples"])

    def as_dict(self) -> dict:
        """Plain-dict view for report tables.

        Distribution extras are rendered as their percentile summary —
        report tables want ``{count, mean, p50, p95, p99}``, not ten
        thousand raw samples (which stay available on :attr:`extras`).
        """
        extras = {
            key: dist_summary(value["samples"]) if is_dist(value) else value
            for key, value in self.extras.items()
        }
        return {
            "makespan": self.makespan,
            "pebbles": self.pebbles,
            "redundant": self.redundant,
            "messages": self.messages,
            "pebble_hops": self.pebble_hops,
            "idle_steps": self.idle_steps,
            "procs_used": self.procs_used,
            "faults_injected": self.faults_injected,
            "lost_messages": self.lost_messages,
            "retries": self.retries,
            "recoveries": self.recoveries,
            "columns_lost": self.columns_lost,
            "crashed_nodes": self.crashed_nodes,
            **extras,
        }
