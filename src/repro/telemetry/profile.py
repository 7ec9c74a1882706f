"""Wall-clock profiling for :class:`~repro.runner.SweepRunner` sweeps.

A :class:`SweepProfile` attributes where a sweep's real time went:

* **per worker / per chunk** — each pool worker reports its pid and the
  wall seconds it spent computing each chunk of configs, so imbalance
  (one straggler worker) is visible instead of averaged away;
* **cache hit vs recompute** — how many configs were served from the
  content-hash cache, how many missed it (served by a delta suffix
  replay or a full compute), and how long the cache lookups themselves
  took.

Profiles are purely observational: the runner records into one whether
or not anyone reads it, but only when constructed with
``SweepRunner(profile=True)`` (or ``--telemetry`` on the CLI) — the
default path allocates nothing and times nothing.  One profile
accumulates across every ``map()`` and ``submit()`` call a runner
serves, matching how experiments issue several sweeps per run.
"""

from __future__ import annotations

from repro.netsim.stats import dist_summary


class SweepProfile:
    """Accumulated wall-time attribution for one runner's sweeps."""

    def __init__(self) -> None:
        #: one entry per ``map()`` call: n_configs, walls, pool facts
        self.maps: list[dict] = []
        #: one entry per worker chunk: {"pid", "configs", "wall_s"}
        self.chunks: list[dict] = []
        self.cache_hits = 0
        #: configs the disk cache did not serve (delta replays included)
        self.cache_misses = 0
        self.cache_lookup_s = 0.0
        #: wall seconds computing configs inline (workers == 1 path)
        self.inline_s = 0.0
        #: configs served by checkpoint suffix-replay (repro.delta)
        self.delta_hits = 0
        #: matched delta jobs that fell back to a full recompute
        self.delta_fallbacks = 0
        #: replayed fraction of the run's makespan, one per delta hit
        self.delta_replayed: list[float] = []
        #: simulated per-step latency samples harvested from result rows
        #: that carry a ``step_latency_samples`` column (host steps, not
        #: wall seconds) — the sweep-level latency distribution
        self.step_latency_samples: list = []

    # -- recording (called by SweepRunner) -------------------------------
    def record_chunk(self, pid: int, configs: int, wall_s: float) -> None:
        self.chunks.append({"pid": pid, "configs": configs, "wall_s": wall_s})

    def record_cache(self, hits: int, misses: int, lookup_s: float) -> None:
        self.cache_hits += hits
        self.cache_misses += misses
        self.cache_lookup_s += lookup_s

    def record_inline(self, wall_s: float) -> None:
        self.inline_s += wall_s

    def record_delta(
        self, hits: int, fallbacks: int, replayed_fraction: float | None
    ) -> None:
        self.delta_hits += hits
        self.delta_fallbacks += fallbacks
        if replayed_fraction is not None:
            self.delta_replayed.append(replayed_fraction)

    def record_step_latency(self, samples) -> None:
        """Fold one result's per-step latency samples into the sweep
        distribution (concatenation — percentiles are computed over the
        union, matching the ``SimStats`` dist-merge rule)."""
        self.step_latency_samples.extend(samples)

    def record_map(
        self,
        n_configs: int,
        wall_s: float,
        workers: int,
        chunk_size: int = 0,
        pool_reused: bool = False,
    ) -> None:
        self.maps.append(
            {
                "configs": n_configs,
                "wall_s": wall_s,
                "workers": workers,
                "chunk_size": chunk_size,
                "pool_reused": pool_reused,
            }
        )

    # -- views -----------------------------------------------------------
    @property
    def total_wall_s(self) -> float:
        """Parent-side wall seconds across all ``map()`` calls."""
        return sum(m["wall_s"] for m in self.maps)

    @property
    def compute_s(self) -> float:
        """Worker-side (or inline) wall seconds spent computing configs."""
        return sum(c["wall_s"] for c in self.chunks) + self.inline_s

    def per_worker(self) -> dict[int, dict]:
        """pid -> {"chunks", "configs", "wall_s"} aggregation."""
        out: dict[int, dict] = {}
        for c in self.chunks:
            agg = out.setdefault(c["pid"], {"chunks": 0, "configs": 0, "wall_s": 0.0})
            agg["chunks"] += 1
            agg["configs"] += c["configs"]
            agg["wall_s"] += c["wall_s"]
        return out

    def as_dict(self) -> dict:
        """JSON-ready dump."""
        return {
            "maps": [dict(m) for m in self.maps],
            "total_wall_s": round(self.total_wall_s, 6),
            "compute_s": round(self.compute_s, 6),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "lookup_s": round(self.cache_lookup_s, 6),
            },
            "delta": {
                "hits": self.delta_hits,
                "fallbacks": self.delta_fallbacks,
                "mean_replayed_fraction": (
                    round(
                        sum(self.delta_replayed) / len(self.delta_replayed), 4
                    )
                    if self.delta_replayed
                    else None
                ),
            },
            "workers": {
                str(pid): {
                    "chunks": agg["chunks"],
                    "configs": agg["configs"],
                    "wall_s": round(agg["wall_s"], 6),
                }
                for pid, agg in sorted(self.per_worker().items())
            },
            "step_latency": (
                dist_summary(self.step_latency_samples)
                if self.step_latency_samples
                else None
            ),
        }


def format_profile(profile) -> str:
    """Human-readable multi-line summary for CLI output.

    Accepts a :class:`SweepProfile` or its :meth:`SweepProfile.as_dict`
    form (the shape :class:`~repro.experiments.base.ExperimentResult`
    carries).
    """
    if isinstance(profile, SweepProfile):
        profile = profile.as_dict()
    maps = profile.get("maps", [])
    cache = profile.get("cache", {})
    workers = profile.get("workers", {})
    n_maps = len(maps)
    n_configs = sum(m["configs"] for m in maps)
    lines = [
        f"sweep profile: {n_maps} sweep(s), {n_configs} config(s), "
        f"{profile.get('total_wall_s', 0.0):.3f}s wall"
    ]
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    delta = profile.get("delta", {})
    if hits + misses:
        pct = 100.0 * hits / (hits + misses)
        lines.append(
            f"  cache: {hits} hit / {misses - delta.get('hits', 0)} recompute "
            f"({pct:.0f}% hit rate, {cache.get('lookup_s', 0.0) * 1000:.1f}ms lookup)"
        )
    if delta.get("hits") or delta.get("fallbacks"):
        frac = delta.get("mean_replayed_fraction")
        frac_txt = f", {100.0 * frac:.0f}% of run replayed" if frac else ""
        lines.append(
            f"  delta: {delta.get('hits', 0)} suffix replay(s), "
            f"{delta.get('fallbacks', 0)} fallback(s){frac_txt}"
        )
    compute_s = profile.get("compute_s", 0.0)
    if compute_s and not workers:
        lines.append(f"  inline compute: {compute_s:.3f}s")
    if workers:
        reused = sum(1 for m in maps if m.get("pool_reused"))
        lines.append(
            f"  pool: {len(workers)} worker(s), {compute_s:.3f}s total compute, "
            f"pool reused on {reused}/{n_maps} sweep(s)"
        )
        for pid in sorted(workers, key=int):
            agg = workers[pid]
            lines.append(
                f"    pid {pid}: {agg['chunks']} chunk(s), "
                f"{agg['configs']} config(s), {agg['wall_s']:.3f}s"
            )
    steps = profile.get("step_latency")
    if steps:
        lines.append(
            f"  step latency: {steps['count']} step(s), "
            f"p50 {steps['p50']}, p95 {steps['p95']}, p99 {steps['p99']} "
            "(host steps)"
        )
    return "\n".join(lines)
