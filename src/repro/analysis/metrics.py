"""Derived metrics over simulation results.

Small pure functions so they are usable from benches, tests and the
examples without dragging executor types around.
"""

from __future__ import annotations

import math


def slowdown(makespan: float, guest_steps: int) -> float:
    """Host steps per guest step — the paper's central quantity."""
    if guest_steps <= 0:
        raise ValueError("guest_steps must be positive")
    return makespan / guest_steps


def efficiency(guest_work: float, makespan: float, processors: int) -> float:
    """Useful guest work per host processor-step.

    A simulation is *work preserving* when this is bounded below by a
    constant as the system scales (Koch et al. [7]'s notion, used
    throughout the paper).
    """
    if makespan <= 0 or processors <= 0:
        raise ValueError("makespan and processors must be positive")
    return guest_work / (makespan * processors)


def normalized_slowdown(slowdown_value: float, d: float, exponent: float = 0.5) -> float:
    """``slowdown / d^exponent`` — flat iff the bound's shape holds."""
    if d <= 0:
        raise ValueError("d must be positive")
    return slowdown_value / d**exponent


def polylog(n: int, power: int = 3) -> float:
    """``log2(n)^power`` with the log floored at 1."""
    return max(1.0, math.log2(max(2, n))) ** power


def advantage(baseline_slowdown: float, overlap_slowdown: float) -> float:
    """How many times faster OVERLAP is than a baseline."""
    if overlap_slowdown <= 0:
        raise ValueError("overlap slowdown must be positive")
    return baseline_slowdown / overlap_slowdown


def degradation(faulty_slowdown: float, clean_slowdown: float) -> float:
    """Degraded-mode slowdown relative to the fault-free run of the
    same host (1.0 == faults cost nothing)."""
    if clean_slowdown <= 0:
        raise ValueError("clean slowdown must be positive")
    return faulty_slowdown / clean_slowdown


def survival_fraction(m_surviving: int, m_initial: int) -> float:
    """Fraction of the guest that survived mid-run crashes."""
    if m_initial <= 0:
        raise ValueError("initial guest size must be positive")
    if not 0 <= m_surviving <= m_initial:
        raise ValueError(
            f"surviving guest {m_surviving} outside 0..{m_initial}"
        )
    return m_surviving / m_initial
