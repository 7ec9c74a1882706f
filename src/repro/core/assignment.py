"""The recursive overlapped database assignment (Section 3.2).

OVERLAP assigns databases ``b_1 .. b_{n'}`` to the live processors so
that (a) every database has at least one copy, (b) each live processor
holds a contiguous range of columns with load O(1) (times the block
factor ``beta`` for the work-efficient variant of Section 3.3), and
(c) sibling intervals *overlap* by ``m_{k+1}`` databases — the
redundant computation that hides latency.

Implementation note: the paper's labels are integers because it assumes
exact powers of two; here labels are real numbers, so the assignment
distributes *real* database intervals down the tree (child splits
recreate the paper's ``m_{k+1}`` overlap exactly) and integer columns
are read off at the leaves: a leaf with real interval ``[a, b)`` owns
every column whose unit segment intersects ``[a, b)``.  This yields
load <= 2 base columns per processor (instead of the paper's exactly 1)
and guarantees full coverage with overlap at every split boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.killing import KillingResult, kill_and_label


@dataclass
class Assignment:
    """A contiguous column range per host position.

    ``ranges[p]`` is ``(lo, hi)`` inclusive in 1-indexed guest columns,
    or ``None`` for positions with no databases (dead processors, or
    relays).  ``m`` is the guest size (number of columns).
    """

    ranges: list[tuple[int, int] | None]
    m: int
    block: int = 1
    _owners: dict[int, list[int]] | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        """Number of host positions."""
        return len(self.ranges)

    def load(self) -> int:
        """Maximum number of columns held by any processor."""
        return max(
            (hi - lo + 1 for r in self.ranges if r is not None for lo, hi in [r]),
            default=0,
        )

    def total_copies(self) -> int:
        """Sum of all column copies (>= m; the excess is redundancy)."""
        return sum(hi - lo + 1 for r in self.ranges if r is not None for lo, hi in [r])

    def redundancy(self) -> float:
        """Average copies per column."""
        return self.total_copies() / self.m if self.m else 0.0

    def owners(self) -> dict[int, list[int]]:
        """Map column -> sorted list of owning positions (cached)."""
        if self._owners is None:
            owners: dict[int, list[int]] = {}
            for p, r in enumerate(self.ranges):
                if r is None:
                    continue
                lo, hi = r
                for c in range(lo, hi + 1):
                    owners.setdefault(c, []).append(p)
            self._owners = owners
        return self._owners

    def validate(self) -> None:
        """Check coverage (every column 1..m owned) and sane ranges."""
        for p, r in enumerate(self.ranges):
            if r is None:
                continue
            lo, hi = r
            if not (1 <= lo <= hi <= self.m):
                raise ValueError(f"position {p} has bad range {r} for m={self.m}")
        owners = self.owners()
        missing = [c for c in range(1, self.m + 1) if c not in owners]
        if missing:
            raise ValueError(
                f"columns with no owner: {missing[:10]}{'...' if len(missing) > 10 else ''}"
            )

    def used_positions(self) -> list[int]:
        """Positions that hold at least one column."""
        return [p for p, r in enumerate(self.ranges) if r is not None]


def assign_databases(
    killing: KillingResult, block: int = 1, min_copies: int = 1
) -> Assignment:
    """Distribute databases down the labelled tree.

    ``block`` is the work-efficiency factor ``beta`` of Section 3.3:
    every base column is expanded into ``beta`` consecutive guest
    columns, so the guest has ``n' * beta`` processors and the load is
    ``O(beta)``.

    ``min_copies`` widens each live processor's range over a window of
    its nearest neighbours until every column has at least that many
    replicas (load stays O(``min_copies``)).  The tree already overlaps
    sibling intervals, but single-copy stretches remain; fault-tolerant
    runs pass ``min_copies=2`` so that one mid-run crash never destroys
    the last replica of a database interval.
    """
    if block < 1:
        raise ValueError("block factor must be >= 1")
    if min_copies < 1:
        raise ValueError("min_copies must be >= 1")
    tree, params = killing.tree, killing.params
    if tree.root.removed or killing.n_prime < 1:
        raise ValueError(
            "killing left no usable processors "
            f"(root label {killing.root_label:.3f}); host too small or c too large"
        )

    n_prime = killing.n_prime
    base: dict[int, tuple[int, int]] = {}  # position -> base-column range

    # Distribute real intervals [start, start + width) top-down.
    tree.root.db_start = 0.0
    tree.root.db_width = float(n_prime)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.removed:
            continue
        start, width = node.db_start, node.db_width
        if node.is_leaf:
            lo = int(math.floor(start)) + 1
            hi = int(math.ceil(start + width))
            lo = max(1, min(lo, n_prime))
            hi = max(1, min(hi, n_prime))
            base[node.lo] = (lo, hi)
            continue
        kids = node.live_children()
        if len(kids) == 1:
            # Paper: the single child inherits the full range.
            kids[0].db_start = start
            kids[0].db_width = width
            stack.append(kids[0])
            continue
        left, right = kids
        x1, x2 = left.label3, right.label3
        # Children take their own labels (clipped to the parent width,
        # which only binds at the root where the label was floored).
        # Since x1 + x2 = label3 + m_{k+1} >= width + m_{k+1}, the two
        # child intervals overlap by ~m_{k+1} and jointly cover the
        # parent interval — the paper's redundant-assignment rule.
        left.db_start = start
        left.db_width = min(x1, width)
        right.db_width = min(x2, width)
        right.db_start = start + width - right.db_width
        stack.append(left)
        stack.append(right)

    if min_copies > 1:
        base = _widen_for_copies(base, min_copies)
    ranges: list[tuple[int, int] | None] = [None] * killing.host.n
    for p, (lo, hi) in base.items():
        ranges[p] = ((lo - 1) * block + 1, hi * block)
    asg = Assignment(ranges, n_prime * block, block)
    asg.validate()
    return asg


def survivor_assignment(
    host, dead, block: int = 1, c: float = 4.0, forced_dead=(), min_copies: int = 1
) -> Assignment:
    """The reduced assignment after the positions in ``dead`` crashed.

    Re-runs OVERLAP's killing stages with ``dead`` (plus the workstations
    ``forced_dead`` before the run) forced dead; at least two copies keep
    the reduced assignment tolerant to the *next* crash.
    """
    killing = kill_and_label(host, c, forced_dead=set(forced_dead) | set(dead))
    return assign_databases(killing, block, min_copies=max(2, min_copies))


def steal_rebalance(
    assignment: Assignment,
    host,
    faults=None,
    seed: int = 0,
    max_moves: int | None = None,
) -> tuple[Assignment, list[dict]]:
    """Work-stealing rebalance: move end columns from overloaded (or
    jitter-degraded) victims to adjacent underloaded thieves.

    The "queue" a host works through is its column range — every owner
    recomputes all ``T`` rows of every column it holds — so a
    load-``k`` position takes ~``k`` host steps per guest row while a
    load-1 neighbour idles.  A *steal* transfers one end column from
    the heaviest victim to the adjacent thief whose range borders it:
    the thief's contiguous range grows by the column, the victim's
    shrinks, coverage is preserved because the thief now owns what the
    victim shed.

    Victim/thief selection is a pure, seeded function of the inputs:
    effective load weighs each position's column count by the scripted
    jitter pressure on its adjacent links (a
    :class:`~repro.netsim.faults.FaultPlan` marks degraded hosts), the
    best move maximises the victim-thief effective-load gap, and
    exact ties are broken by a :class:`random.Random` seeded with
    ``seed`` — bit-identical at any sweep worker count, on every
    machine.  Moves are only committed while they strictly shrink the
    victim's effective load below the pre-move maximum, so the
    rebalanced assignment is never more imbalanced than the input
    (``max_moves`` defaults to ``2 * n``).

    Returns ``(rebalanced assignment, move log)``; the move log rows
    are ``{"column", "victim", "thief"}`` in commit order.  With no
    profitable move the original assignment object is returned
    untouched (and the log is empty), so single-policy runs are
    byte-identical.
    """
    import random

    ranges: list[tuple[int, int] | None] = list(assignment.ranges)
    n = len(ranges)
    if max_moves is None:
        max_moves = 2 * n

    # Jitter pressure per position: total (extra * window) weight of
    # scripted jitter on the links adjacent to it.  A host whose links
    # are degraded drains its queue slower, so it is a better victim.
    pressure = [0.0] * n
    if faults is not None and not faults.is_empty:
        horizon = faults.horizon
        for ev in faults.events:
            if ev.kind != "link_jitter" or ev.extra <= 0:
                continue
            dur = ev.duration
            if dur is None:
                dur = horizon if horizon is not None else 64
            weight = float(ev.extra * dur)
            j = ev.target  # link j joins positions j and j+1
            if 0 <= j < n:
                pressure[j] += weight
            if 0 <= j + 1 < n:
                pressure[j + 1] += weight
    scale = max(pressure) or 1.0

    def eff(p: int) -> float:
        r = ranges[p]
        if r is None:
            return 0.0
        # Up to +100% load inflation for the most jitter-degraded host.
        return (r[1] - r[0] + 1) * (1.0 + pressure[p] / scale)

    rng = random.Random(seed)
    moves: list[dict] = []
    while len(moves) < max_moves:
        loads = {p: eff(p) for p in range(n) if ranges[p] is not None}
        peak = max(loads.values())
        candidates: list[tuple[float, int, int, int]] = []
        for v, lv in loads.items():
            lo, hi = ranges[v]
            if hi == lo:
                continue  # a victim must keep >= 1 column
            for c, want in ((lo, "hi"), (hi, "lo")):
                # The thief's range must border c so both stay contiguous.
                for q in loads:
                    if q == v or ranges[q] is None:
                        continue
                    qlo, qhi = ranges[q]
                    if (want == "hi" and qhi == c - 1) or (
                        want == "lo" and qlo == c + 1
                    ):
                        gap = lv - loads[q]
                        candidates.append((gap, c, v, q))
        if not candidates:
            break
        best_gap = max(c[0] for c in candidates)
        # A move only helps when the victim is strictly above the thief
        # by more than one transferred column's worth of work; at or
        # below that the steal just relocates the peak.
        if best_gap <= 1.0 + 1e-12:
            break
        best = sorted(
            c for c in candidates if abs(c[0] - best_gap) <= 1e-12
        )
        gap, c, v, q = best[rng.randrange(len(best))] if len(best) > 1 else best[0]
        vlo, vhi = ranges[v]
        qlo, qhi = ranges[q]
        ranges[v] = (vlo + 1, vhi) if c == vlo else (vlo, vhi - 1)
        ranges[q] = (min(qlo, c), max(qhi, c))
        if eff(v) >= peak and eff(q) >= peak:
            # Guard: never commit a move that fails to pull the pair
            # below the old peak (cannot trigger with the gap rule
            # above, but the invariant is cheap to keep explicit).
            ranges[v], ranges[q] = (vlo, vhi), (qlo, qhi)
            break
        moves.append({"column": c, "victim": v, "thief": q})
    if not moves:
        return assignment, []
    out = Assignment(ranges, assignment.m, assignment.block)
    out.validate()
    return out, moves


def _widen_for_copies(
    base: dict[int, tuple[int, int]], min_copies: int
) -> dict[int, tuple[int, int]]:
    """Widen each position's base range to the hull of the ranges of
    the ``min_copies - 1`` nearest live positions on each side.

    A column owned by live position ``j`` is then also owned by every
    live position within ``min_copies - 1`` hops of ``j``, so every
    column ends up with ``min(live, min_copies)`` or more replicas
    while the per-processor load stays O(``min_copies``).
    """
    used = sorted(base)
    w = min_copies - 1
    out: dict[int, tuple[int, int]] = {}
    for i, p in enumerate(used):
        window = used[max(0, i - w) : i + w + 1]
        out[p] = (
            min(base[q][0] for q in window),
            max(base[q][1] for q in window),
        )
    return out
