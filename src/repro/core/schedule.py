"""The explicit recursive schedule of Theorem 1.

The values ``s_t^(k)`` bound the time by which every pebble of row
``t`` inside a depth-``k`` box is computed, given that the boundary
pebbles arrive on schedule.  They are defined by the paper's three
rules:

1. ``s_1^(k_max) = w``  (``w = 1`` for load-1 OVERLAP; ``w = alpha *
   beta`` pebbles per processor for the work-efficient variant of
   Section 3.3);
2. ``s_t^(k) = s_t^(k+1) + D_k``             for ``1 <= t <= m_{k+1}``;
3. ``s_t^(k) = s_{t - m_{k+1}}^(k) + s_{m_{k+1}}^(k)``
   for ``m_{k+1} < t <= m_k``.

Rule 2 charges one inter-child boundary exchange (at most the interval
delay ``D_k``) per level; rule 3 stacks half-boxes in time.  Theorem 2
solves the recurrence ``s_{m_k}^(k) = 2 s_{m_{k+1}}^(k+1) + 2 D_k`` to
``s_{m_0}^(0) = O(d_ave n log^2 n)``, i.e. slowdown ``O(d_ave log^3 n)``.

This module materialises the table with integer box heights
``m_int(k) = max(1, floor(m_k))`` so the identities can be tested
directly and the F3 bench can print the box structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.killing import OverlapParams


@dataclass
class ScheduleTable:
    """Materialised ``s_t^(k)`` values.

    ``s[k][t]`` is defined for ``0 <= k <= k_max`` and
    ``1 <= t <= heights[k]``; index 0 is padding.
    """

    params: OverlapParams
    base_work: float
    s: list[list[float]]
    heights: list[int]

    @property
    def k_max(self) -> int:
        """Deepest recursion level."""
        return len(self.heights) - 1

    def value(self, k: int, t: int) -> float:
        """``s_t^(k)``."""
        if not 0 <= k <= self.k_max:
            raise IndexError(f"k={k} outside 0..{self.k_max}")
        if not 1 <= t <= self.heights[k]:
            raise IndexError(f"t={t} outside 1..{self.heights[k]} at depth {k}")
        return self.s[k][t]

    def makespan_bound(self) -> float:
        """``s_{m_0}^(0)`` — time to simulate the first ``m_0`` steps."""
        return self.s[0][self.heights[0]]

    def slowdown_bound(self) -> float:
        """Makespan bound per simulated guest step."""
        return self.makespan_bound() / self.heights[0]

    def closed_form_bound(self) -> float:
        """Theorem 2's closed form ``2^k s_{m_k}^(k) + 2 k D_0`` at
        ``k = k_max`` — an upper estimate of :meth:`makespan_bound`."""
        p = self.params
        k = self.k_max
        return (2**k) * self.s[k][self.heights[k]] + 2 * k * p.D(0)


def build_schedule(params: OverlapParams, base_work: float = 1.0) -> ScheduleTable:
    """Materialise the ``s_t^(k)`` table for ``params``."""
    if base_work < 1:
        raise ValueError("base work per row must be >= 1")
    k_max = params.k_max
    heights = [params.m_int(k) for k in range(k_max + 1)]
    s: list[list[float]] = [[] for _ in range(k_max + 1)]

    s[k_max] = [0.0, float(base_work)]
    for k in range(k_max - 1, -1, -1):
        mk = heights[k]
        m_child = heights[k + 1]
        Dk = params.D(k)
        row = [0.0] * (mk + 1)
        for t in range(1, min(m_child, mk) + 1):
            row[t] = s[k + 1][t] + Dk
        for t in range(m_child + 1, mk + 1):
            row[t] = row[t - m_child] + row[m_child]
        s[k] = row
    return ScheduleTable(params, base_work, s, heights)


def recurrence_residuals(table: ScheduleTable) -> list[float]:
    """Relative residuals of ``s_{m_k}^(k) = 2 s_{m_{k+1}}^(k+1) + 2 D_k``.

    With real-valued ``m_k`` the identity is exact; integer box heights
    introduce only rounding-level deviations (checked in tests).
    """
    out = []
    for k in range(table.k_max):
        lhs = table.s[k][table.heights[k]]
        rhs = 2 * table.s[k + 1][table.heights[k + 1]] + 2 * table.params.D(k)
        out.append(abs(lhs - rhs) / max(1.0, rhs))
    return out


def min_row_gap(table: ScheduleTable) -> float:
    """Smallest time gap between consecutive rows of the level-0 box.

    Expanding the rule-3 stacking, consecutive top-level rows are
    separated by at least ``s_1^(k)`` for some level ``k``, i.e. at
    least ``1 + D_{k_max - 1} + ... ``; this is the slack every
    processor has to learn its neighbours' previous-row pebbles.
    """
    # Materialise the level-0 row times by expanding the recursion:
    # rows of the top box are the rows of the k_max-level boxes stacked
    # with offsets; the table already encodes them as s_t^(0).
    row_times = [table.s[0][t] for t in range(1, table.heights[0] + 1)]
    if len(row_times) < 2:
        return float("inf")
    return min(b - a for a, b in zip(row_times, row_times[1:]))


def feasibility_report(killing, table: ScheduleTable) -> dict:
    """Check Theorem 1's physical preconditions computationally.

    1. **Interval-delay budgets** (used for the inter-child boundary
       exchange): every remaining depth-``k`` node's live-endpoint
       delay is at most ``D_k`` — guaranteed by Stage-1 killing, and
       re-verified here against the actual host.
    2. **Atomic-row slack**: the minimum top-level row gap must cover
       the worst intra-interval delay of any remaining depth-``k_max``
       node, so that the base case ("each processor computes one
       pebble per row") is realisable with real link delays.

    Returns a dict with the two margins (both must be >= 0 / True).
    """
    host = killing.host
    params = killing.params
    worst_violation = 0.0
    for node in killing.tree.all_nodes():
        if node.removed or node.size < 2:
            continue
        live = [p for p in range(node.lo, node.hi + 1) if killing.live[p]]
        if len(live) < 2:
            continue
        delay = host.distance(live[0], live[-1])
        excess = delay - params.D(node.depth)
        worst_violation = max(worst_violation, excess)

    k_atomic = min(params.k_max, killing.tree.height)
    atomic_delay = 0
    for node in killing.tree.nodes_at_depth(k_atomic):
        if node.removed:
            continue
        live = [p for p in range(node.lo, node.hi + 1) if killing.live[p]]
        if len(live) >= 2:
            atomic_delay = max(atomic_delay, host.distance(live[0], live[-1]))
    gap = min_row_gap(table)
    return {
        "interval_budgets_hold": worst_violation <= 0,
        "worst_budget_excess": worst_violation,
        "min_row_gap": gap,
        "max_atomic_interval_delay": atomic_delay,
        "atomic_rows_feasible": gap >= atomic_delay,
    }


def theorem2_bound(params: OverlapParams, base_work: float = 1.0) -> float:
    """Theorem 2's analytic bound on ``s_{m_0}^(0)``:
    ``n / (c lg) * base_work + 2 c d_ave n lg^2``."""
    p = params
    return (p.n / (p.c * p.lg)) * base_work + 2 * p.c * p.d_ave * p.n * p.lg**2


def row_deadlines(table: ScheduleTable, steps: int) -> list[float]:
    """Theorem 1's deadline for every guest row ``1..steps``.

    OVERLAP simulates in rounds of ``m_0`` rows; row ``t`` of round
    ``r`` must be fully computed by ``r * s_{m_0}^(0) + s_tau^(0)``
    (the round restarts the recursion with the previous round's final
    row as the new row 0).
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    m0 = table.heights[0]
    round_len = table.s[0][m0]
    out = []
    for t in range(1, steps + 1):
        r, tau = divmod(t - 1, m0)
        out.append(r * round_len + table.s[0][tau + 1])
    return out


def check_row_deadlines(
    table: ScheduleTable, completion_times: dict[int, int]
) -> dict:
    """Compare measured row-completion times (e.g.
    :meth:`~repro.telemetry.timeline.MetricsTimeline.row_completion_times`
    of a run's timeline) against Theorem 1's deadlines.

    Returns the worst margin (``deadline - measured``; negative means a
    row *beat* its deadline is false — it missed it) and whether every
    row met its deadline — the executable content of Theorems 1-3.
    """
    steps = max(completion_times, default=0)
    deadlines = row_deadlines(table, steps)
    worst_margin = float("inf")
    misses = []
    for t in sorted(completion_times):
        margin = deadlines[t - 1] - completion_times[t]
        worst_margin = min(worst_margin, margin)
        if margin < 0:
            misses.append(t)
    return {
        "rows": steps,
        "all_rows_met_deadline": not misses,
        "missed_rows": misses,
        "worst_margin": worst_margin,
    }
