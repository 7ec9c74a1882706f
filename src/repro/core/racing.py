"""Execution policies: redundant-issue racing and work stealing.

OVERLAP hides latency with replicated *state* — overlapping database
copies.  The policies here hide tail latency with replicated
*requests* and task migration, the mechanisms of "Low Latency via
Redundancy" and "A new analysis of Work Stealing with latency"
(PAPERS.md):

* **racing** — a position that needs an external boundary column
  subscribes to up to ``fanout`` nearest replica owners instead of
  one.  Every replica issues each step; the first digest-consistent
  answer wins (advances the watermark) and the losers are cancelled —
  at the source when the subscriber is already past the pebble, and at
  every relay hop otherwise, so abandoned messages stop consuming link
  slots.  Both tiers run the race: the dense tier
  (:class:`~repro.core.dense.DenseExecutor`) replays the cancellation
  rule of the reference engine
  (:meth:`~repro.core.executor.GreedyExecutor.run`) bit for bit.
* **stealing** — a deterministic, seeded pre-execution rebalance of
  the assignment: idle/underloaded hosts steal queued guest columns
  from overloaded or jitter-degraded neighbours
  (:func:`repro.core.assignment.steal_rebalance`).  Because the
  rebalance is a pure function of ``(assignment, host, faults, seed)``
  it is bit-identical at any sweep worker count, and the rebalanced
  assignment runs on *any* engine, dense included.

Both compose: ``"racing+stealing"`` rebalances first, then races the
replicated columns of the rebalanced assignment.

The front-ends (:func:`~repro.core.overlap.simulate_overlap`,
:func:`~repro.core.ring.simulate_ring`,
:func:`~repro.core.composed.simulate_composed` and their graph-host
variants) accept these via ``policy=`` — a name string or an
:class:`ExecPolicy`.  Recovery knobs
(:class:`~repro.netsim.faults.RecoveryPolicy`) go to ``recovery=``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default replication factor of a raced subscription: the nearest two
#: owners.  More copies chase diminishing returns while doubling the
#: bandwidth bill — the redundancy sweet-spot both cited papers chart.
DEFAULT_FANOUT = 2


@dataclass(frozen=True)
class ExecPolicy:
    """How an execution issues work across replicated columns.

    ``racing``
        Subscribe to up to ``fanout`` owners per external column and
        take the first consistent delivery.
    ``stealing``
        Apply :func:`~repro.core.assignment.steal_rebalance` before
        building the executor (seeded by ``steal_seed``).
    """

    racing: bool = False
    stealing: bool = False
    fanout: int = DEFAULT_FANOUT
    steal_seed: int = 0

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if self.steal_seed < 0:
            raise ValueError(f"steal_seed must be >= 0, got {self.steal_seed}")

    @property
    def name(self) -> str:
        """Canonical policy name (``repro run --policy`` vocabulary)."""
        parts = []
        if self.racing:
            parts.append("racing")
        if self.stealing:
            parts.append("stealing")
        return "+".join(parts) or "single"

    @property
    def is_single(self) -> bool:
        """True for the default single-issue, static-assignment policy."""
        return not (self.racing or self.stealing)


#: The default policy: single-issue, static assignment — bit-identical
#: to every run the codebase produced before policies existed.
SINGLE = ExecPolicy()

#: Name -> policy for the string forms the CLI and configs use.
POLICIES = {
    "single": SINGLE,
    "racing": ExecPolicy(racing=True),
    "stealing": ExecPolicy(stealing=True),
    "racing+stealing": ExecPolicy(racing=True, stealing=True),
    "stealing+racing": ExecPolicy(racing=True, stealing=True),
}


def resolve_policy(spec) -> ExecPolicy:
    """Coerce ``None`` / a name string / an :class:`ExecPolicy`.

    ``None`` means the default single-issue policy.  Strings accept the
    :data:`POLICIES` vocabulary.
    """
    if spec is None:
        return SINGLE
    if isinstance(spec, ExecPolicy):
        return spec
    if isinstance(spec, str):
        try:
            return POLICIES[spec.strip().lower()]
        except KeyError:
            raise ValueError(
                f"unknown execution policy {spec!r}; "
                f"known: {sorted(set(POLICIES))}"
            ) from None
    raise TypeError(
        f"policy must be None, a name string or an ExecPolicy, got "
        f"{type(spec).__name__} (recovery knobs go to recovery=)"
    )

