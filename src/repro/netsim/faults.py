"""Deterministic fault injection for the discrete-event simulator.

A :class:`FaultPlan` is a *seeded, fully reproducible* schedule of
infrastructure faults to inject into a run:

* **node crashes** — a workstation dies at time ``t``: it stops
  computing and its database replicas are destroyed (its network
  interface keeps relaying, matching the ``forced_dead`` convention of
  :func:`repro.core.killing.kill_and_label`);
* **link outages** — a link is down for a window ``[t, t+duration)``
  (or permanently): every pebble injected while it is down is *lost*;
* **delay jitter** — a link's delay is inflated by ``extra`` steps for
  a window (congestion spikes, rerouting);
* **message drops** — a one-shot glitch: the first pebble injected
  into a directed link at or after ``t`` vanishes.

Plans are either scripted (chain the builder methods) or generated
from a seeded ``numpy`` RNG (:meth:`FaultPlan.random`).  Two runs of
the same plan on the same host are bit-identical: all fault decisions
are functions of ``(plan, link, direction, injection time)`` and the
per-run consumption state lives in the :class:`FaultTables` compiled
freshly for each run, never in the plan itself.

The executors consume plans through :meth:`FaultPlan.compile`, which
indexes events per directed link; a send into a dead or glitching link
returns the :data:`LOST` sentinel instead of an arrival time (see
:meth:`repro.netsim.fabric.LineFabric.hop_faulty`).  Recovery policy —
how aggressively the executor retries and what a mid-run
reconfiguration costs — is bundled in :class:`RecoveryPolicy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class _Lost:
    """Singleton sentinel: the message entered a dead/glitching link."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "LOST"


#: Returned by fault-aware injection instead of an arrival time.
LOST = _Lost()

NODE_CRASH = "node_crash"
LINK_DOWN = "link_down"
LINK_JITTER = "link_jitter"
MSG_DROP = "msg_drop"

_KINDS = (NODE_CRASH, LINK_DOWN, LINK_JITTER, MSG_DROP)


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    ``target`` is a host position for :data:`NODE_CRASH` and a link
    index (link ``j`` joins array positions ``j`` and ``j+1``) for the
    link kinds.  ``duration`` is the outage/jitter window length
    (``None`` = permanent), ``extra`` the jitter delay inflation, and
    ``direction`` restricts a link fault to one direction (``+1``
    right, ``-1`` left, ``None`` both).
    """

    kind: str
    time: int
    target: int
    duration: int | None = None
    extra: int = 0
    direction: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {_KINDS}")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.duration is not None and self.duration < 1:
            raise ValueError(f"fault duration must be >= 1, got {self.duration}")
        if self.kind == LINK_JITTER and self.extra < 1:
            raise ValueError(f"jitter extra delay must be >= 1, got {self.extra}")
        if self.direction not in (None, 1, -1):
            raise ValueError(f"direction must be +1, -1 or None, got {self.direction}")

    def describe(self) -> str:
        """One-line human-readable form (used in deadlock diagnostics)."""
        if self.kind == NODE_CRASH:
            return f"t={self.time} crash node {self.target}"
        window = "permanent" if self.duration is None else f"for {self.duration}"
        side = "" if self.direction is None else f" dir {self.direction:+d}"
        if self.kind == LINK_JITTER:
            return f"t={self.time} jitter +{self.extra} link {self.target}{side} {window}"
        if self.kind == MSG_DROP:
            return f"t={self.time} drop on link {self.target}{side}"
        return f"t={self.time} outage link {self.target}{side} {window}"


_INF = float("inf")


class FaultTables:
    """Per-run compiled view of a plan (owns the consumption state).

    Built by :meth:`FaultPlan.compile`; one instance per run so a plan
    can be replayed any number of times with identical outcomes.
    """

    def __init__(self, plan: "FaultPlan", n: int) -> None:
        self.plan = plan
        self.crash_times: dict[int, int] = {}
        self._outages: dict[tuple[int, int], list[tuple[int, float]]] = {}
        self._jitters: dict[tuple[int, int], list[tuple[int, float, int]]] = {}
        self._drops: dict[tuple[int, int], list[int]] = {}
        n_links = n - 1  # linear array: link j joins positions j, j+1
        horizon = plan.horizon
        for ev in plan.events:
            if horizon is not None and ev.time >= horizon:
                # Declared outside the run window: validated but inert.
                self._validate_target(ev, n, n_links)
                continue
            if ev.kind == LINK_JITTER and ev.extra <= 0:
                # Defensive: a zero-extra jitter window is a no-op.
                self._validate_target(ev, n, n_links)
                continue
            if ev.kind == NODE_CRASH:
                if not 0 <= ev.target < n:
                    raise ValueError(
                        f"crash target {ev.target} outside host 0..{n - 1}"
                    )
                prev = self.crash_times.get(ev.target)
                if prev is None or ev.time < prev:
                    self.crash_times[ev.target] = ev.time
                continue
            if not 0 <= ev.target < n_links:
                raise ValueError(
                    f"link target {ev.target} outside links 0..{n_links - 1}"
                )
            dirs = (1, -1) if ev.direction is None else (ev.direction,)
            end = _INF if ev.duration is None else ev.time + ev.duration
            for d in dirs:
                key = (ev.target, d)
                if ev.kind == LINK_DOWN:
                    self._outages.setdefault(key, []).append((ev.time, end))
                elif ev.kind == LINK_JITTER:
                    self._jitters.setdefault(key, []).append((ev.time, end, ev.extra))
                else:  # MSG_DROP
                    self._drops.setdefault(key, []).append(ev.time)
        for times in self._drops.values():
            times.sort()
        # Compiled drop counts, frozen before any consumption: the
        # difference against the live lists is the per-link number of
        # one-shot drops the run has eaten (checkpointed for restore).
        self._drops_total = {key: len(times) for key, times in self._drops.items()}

    @staticmethod
    def _validate_target(ev: FaultEvent, n: int, n_links: int) -> None:
        """Range-check a filtered (inert) event so bad targets still fail."""
        if ev.kind == NODE_CRASH:
            if not 0 <= ev.target < n:
                raise ValueError(f"crash target {ev.target} outside host 0..{n - 1}")
        elif not 0 <= ev.target < n_links:
            raise ValueError(
                f"link target {ev.target} outside links 0..{n_links - 1}"
            )

    @property
    def is_effect_free(self) -> bool:
        """True when the compiled tables can never alter a run.

        A non-empty plan can still compile to nothing — every event at
        or after the plan's declared horizon, or jitter windows that add
        zero extra delay.  Both engines treat such tables exactly like
        an empty plan, so effect-free runs stay on the fast path.
        """
        return not (
            self.crash_times or self._outages or self._jitters or self._drops
        )

    def link_outcome(self, link: int, direction: int, t: int):
        """Fate of a pebble injected into ``(link, direction)`` at ``t``:
        :data:`LOST`, or the extra delay (>= 0) to add to its arrival."""
        key = (link, direction)
        for t0, t1 in self._outages.get(key, ()):
            if t0 <= t < t1:
                return LOST
        drops = self._drops.get(key)
        if drops and drops[0] <= t:
            # One-shot: the first injection at/after the glitch eats it.
            drops.pop(0)
            return LOST
        extra = 0
        for t0, t1, e in self._jitters.get(key, ()):
            if t0 <= t < t1:
                extra += e
        return extra

    def has_link_faults(self) -> bool:
        """Whether any link-level fault is scripted."""
        return bool(self._outages or self._jitters or self._drops)

    def faulty_directions(self) -> set[tuple[int, int]]:
        """Directed links ``(link, direction)`` with any scripted fault.

        Injections on every other directed link can never be lost or
        inflated, so an executor may take a fault-check-free fast path
        for them (the faulted dense tier does).
        """
        return set(self._outages) | set(self._jitters) | set(self._drops)

    def drops_consumed(self) -> list[list[int]]:
        """How many one-shot drops each directed link has eaten so far.

        Returned as ``[[link, direction, count]]`` rows (sorted, only
        links with consumption) — the checkpoint-friendly complement of
        :meth:`consume_drops`.
        """
        out = []
        for key in sorted(self._drops_total):
            used = self._drops_total[key] - len(self._drops.get(key, ()))
            if used:
                out.append([key[0], key[1], used])
        return out

    def consume_drops(self, consumed: list) -> None:
        """Replay a :meth:`drops_consumed` record onto fresh tables.

        Sound during checkpoint restore because one-shot drops are
        consumed earliest-armed-first and the restored prefix consumed
        exactly the same injections; rows for drops the (possibly
        edited) plan no longer scripts are ignored.
        """
        for link, direction, count in consumed:
            times = self._drops.get((link, direction))
            if times:
                del times[: min(count, len(times))]

    def boundaries(self) -> list[int]:
        """Sorted unique times where the fault environment changes.

        These are the segment boundaries of the faulted dense tier:
        crash times, outage/jitter window opens and (finite) closes,
        and one-shot drop arm times.  Between consecutive boundaries
        the compiled tables are time-invariant (modulo drop
        consumption), so an executor may replay the stretch with the
        fault-free vectorised skeleton and checkpoint at each edge.
        """
        times: set[int] = set(self.crash_times.values())
        for windows in self._outages.values():
            for t0, t1 in windows:
                times.add(t0)
                if t1 != _INF:
                    times.add(int(t1))
        for windows in self._jitters.values():
            for t0, t1, _e in windows:
                times.add(t0)
                if t1 != _INF:
                    times.add(int(t1))
        for drops in self._drops.values():
            times.update(drops)
        return sorted(times)


@dataclass
class FaultPlan:
    """A scripted or randomly generated fault schedule.

    The plan itself is immutable state + builder sugar; all per-run
    bookkeeping lives in the :class:`FaultTables` returned by
    :meth:`compile`.
    """

    events: list[FaultEvent] = field(default_factory=list)
    seed: int | None = None
    #: Declared run window: events at/after ``horizon`` are treated as
    #: no-ops when the plan is compiled (see :meth:`declare_horizon`).
    horizon: int | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def empty(cls) -> "FaultPlan":
        """A plan with no events (bit-identical to running fault-free)."""
        return cls([])

    def declare_horizon(self, horizon: int) -> "FaultPlan":
        """Declare the run window ``[0, horizon)`` (chainable).

        Compiling the plan then drops every event scheduled at or after
        ``horizon``: the caller asserts those events fall outside the
        run and must not perturb it (even if the faulted run itself
        overshoots the declared window).  A plan whose events are *all*
        filtered compiles to effect-free tables and both engines treat
        it exactly like an empty plan.
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = horizon
        return self

    def crash(self, position: int, time: int) -> "FaultPlan":
        """Script a node crash (chainable)."""
        self.events.append(FaultEvent(NODE_CRASH, time, position))
        return self

    def link_down(
        self, link: int, time: int, duration: int | None = None,
        direction: int | None = None,
    ) -> "FaultPlan":
        """Script a link outage (``duration=None`` = permanent)."""
        self.events.append(
            FaultEvent(LINK_DOWN, time, link, duration, direction=direction)
        )
        return self

    def jitter(
        self, link: int, time: int, duration: int, extra: int,
        direction: int | None = None,
    ) -> "FaultPlan":
        """Script a delay spike of ``extra`` steps on a link."""
        self.events.append(
            FaultEvent(LINK_JITTER, time, link, duration, extra, direction)
        )
        return self

    def drop(self, link: int, time: int, direction: int = 1) -> "FaultPlan":
        """Script a one-shot message drop on a directed link."""
        self.events.append(FaultEvent(MSG_DROP, time, link, direction=direction))
        return self

    @classmethod
    def random(
        cls,
        n: int,
        seed: int,
        horizon: int,
        node_crash_rate: float = 0.0,
        link_outage_rate: float = 0.0,
        jitter_rate: float = 0.0,
        drop_rate: float = 0.0,
        mean_outage: int = 16,
        max_jitter: int = 8,
    ) -> "FaultPlan":
        """Generate a plan for an ``n``-position array host from a
        seeded RNG.  Each rate is the per-node (or per-link) probability
        of suffering one fault somewhere in ``[0, horizon)``; the same
        ``(n, seed, horizon, rates)`` always yields the same plan.
        """
        import numpy as np

        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        rates = {
            "node_crash_rate": node_crash_rate,
            "link_outage_rate": link_outage_rate,
            "jitter_rate": jitter_rate,
            "drop_rate": drop_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        rng = np.random.default_rng(seed)
        plan = cls([], seed=seed, horizon=horizon)
        n_links = max(0, n - 1)
        for p in range(n):
            if rng.random() < node_crash_rate:
                plan.crash(p, int(rng.integers(0, horizon)))
        for j in range(n_links):
            if rng.random() < link_outage_rate:
                t = int(rng.integers(0, horizon))
                dur = 1 + int(rng.poisson(max(1, mean_outage)))
                plan.link_down(j, t, dur)
            if rng.random() < jitter_rate:
                t = int(rng.integers(0, horizon))
                dur = 1 + int(rng.poisson(max(1, mean_outage)))
                extra = 1 + int(rng.integers(0, max(1, max_jitter)))
                plan.jitter(j, t, dur, extra)
            if rng.random() < drop_rate:
                plan.drop(
                    j, int(rng.integers(0, horizon)),
                    direction=1 if rng.random() < 0.5 else -1,
                )
        plan.sort()
        return plan

    # -- views ----------------------------------------------------------
    def sort(self) -> "FaultPlan":
        """Order events by time (stable; builder order breaks ties)."""
        self.events.sort(key=lambda ev: ev.time)
        return self

    @property
    def is_empty(self) -> bool:
        """True when the plan schedules nothing."""
        return not self.events

    def crash_positions(self) -> set[int]:
        """Host positions with a scripted crash."""
        return {ev.target for ev in self.events if ev.kind == NODE_CRASH}

    def counts(self) -> dict[str, int]:
        """Event count per fault kind."""
        out = {k: 0 for k in _KINDS}
        for ev in self.events:
            out[ev.kind] += 1
        return out

    def describe(self) -> str:
        """Multi-line listing of every event (diagnostics, CLI)."""
        if not self.events:
            return "(no faults)"
        return "\n".join(ev.describe() for ev in sorted(self.events, key=lambda e: e.time))

    def to_spec(self) -> dict:
        """Plain-JSON form of the plan (structured sweep-config key).

        The spec is the delta layer's view of a plan: sweep configs
        carry it instead of the object so cached entries can be diffed
        field-by-field (see ``repro.delta.fault_events_rule``).
        :meth:`from_spec` inverts it exactly.
        """
        return {
            "events": [
                {
                    "kind": ev.kind,
                    "time": ev.time,
                    "target": ev.target,
                    "duration": ev.duration,
                    "extra": ev.extra,
                    "direction": ev.direction,
                }
                for ev in self.events
            ],
            "seed": self.seed,
            "horizon": self.horizon,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_spec` output."""
        events = [
            FaultEvent(
                kind=e["kind"],
                time=e["time"],
                target=e["target"],
                duration=e.get("duration"),
                extra=e.get("extra", 0),
                direction=e.get("direction"),
            )
            for e in spec.get("events", [])
        ]
        return cls(events, seed=spec.get("seed"), horizon=spec.get("horizon"))

    def compile(self, host) -> FaultTables:
        """Validate against ``host`` and build fresh per-run tables."""
        return FaultTables(self, host.n)

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the executor's detection/recovery machinery.

    ``retry_factor``
        A subscription stream is declared stalled when no new pebble
        arrived within ``retry_factor * route_delay(subscriber,
        provider)`` steps; the subscriber then re-requests the missing
        suffix from a (possibly different) surviving replica.
    ``max_retries``
        Re-requests per stream before the executor gives up and raises
        :class:`~repro.core.executor.SimulationDeadlock` (a permanently
        partitioned link genuinely cannot be retried around).
    ``restart_penalty``
        Host steps charged for one mid-run reconfiguration (stage 1-3
        re-labelling plus redistributing database checkpoints along the
        array).  ``None`` = the host's total link delay, i.e. one full
        end-to-end broadcast.
    ``watchdog_factor``
        The no-progress watchdog fires every ``watchdog_factor *
        max(timeouts)`` steps; a full window without any pebble
        progress anywhere means the run is wedged and raises
        ``SimulationDeadlock`` instead of spinning forever.
    """

    retry_factor: float = 4.0
    max_retries: int = 32
    restart_penalty: int | None = None
    watchdog_factor: float = 8.0

    def __post_init__(self) -> None:
        if self.retry_factor <= 0:
            raise ValueError("retry_factor must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.restart_penalty is not None and self.restart_penalty < 0:
            raise ValueError("restart_penalty must be >= 0")
        if self.watchdog_factor < 1:
            raise ValueError("watchdog_factor must be >= 1")

    def timeout(self, route_delay: int) -> int:
        """Stall deadline for a stream whose route delay is given."""
        return max(4, int(math.ceil(self.retry_factor * max(1, route_delay))))
