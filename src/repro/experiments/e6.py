"""E6 — Theorems 7-8: 2-D guests on linear hosts.

Sweeps both cases of Theorem 7 (one column per processor; column
blocks with redundant wedge recomputation), verifying every run
bit-for-bit, and composes with a measured OVERLAP factor for the
Theorem-8 form.
"""

from __future__ import annotations

import math

from repro.core.overlap import simulate_overlap
from repro.core.ndim import (
    simulate_2d_on_uniform_array,
    theorem8_slowdown_estimate,
    twodim_slowdown_estimate,
)
from repro.experiments.base import ExperimentResult
from repro.machine.host import HostArray


def run(quick: bool = True, engine: str = "auto") -> ExperimentResult:
    """Run the 2-D sweeps."""
    configs = (
        [  # (m, n_procs, d) spanning case 1 (g=1) and case 2 (g>1)
            (8, 8, 2),
            (12, 12, 4),
            (12, 6, 4),
            (12, 4, 8),
            (16, 4, 16),
        ]
        if quick
        else [(8, 8, 2), (16, 16, 4), (16, 8, 4), (16, 4, 8), (24, 6, 16), (32, 4, 32)]
    )
    rows = []
    for m, n0, d in configs:
        g = math.ceil(m / n0)
        steps = 2 * g if g > 1 else 4
        res = simulate_2d_on_uniform_array(m, n0, d, steps=steps)
        est = twodim_slowdown_estimate(m, n0, d)
        rows.append(
            {
                "m x m": f"{m}x{m}",
                "n0": n0,
                "d": d,
                "case": 1 if g == 1 else 2,
                "g": g,
                "slowdown": round(res.slowdown, 1),
                "thm7 estimate": round(est, 1),
                "redundancy": round(res.pebbles / (m * m * steps), 2),
                "verified": res.verified,
            }
        )

    # Theorem 8: compose a measured case-1 run with a measured OVERLAP
    # factor for simulating the intermediate array on a real host.
    m, n0, d_ave = (12, 12, 4) if quick else (16, 16, 4)
    t7 = simulate_2d_on_uniform_array(m, n0, d_ave, steps=4)
    host = HostArray.uniform(n0 * 2, d_ave)
    ov = simulate_overlap(host, steps=8, verify=False, engine=engine)
    composed = t7.slowdown * ov.slowdown
    return ExperimentResult(
        "E6",
        "Theorems 7-8 - m x m guest arrays on linear hosts",
        rows,
        summary={
            "all verified": all(r["verified"] for r in rows),
            "case-2 redundancy <= 3x (paper's factor)": all(
                r["redundancy"] <= 3.2 for r in rows
            ),
            "thm8 composed slowdown (measured t7 x overlap)": round(composed, 1),
            "thm8 analytic form": round(theorem8_slowdown_estimate(m, d_ave), 1),
        },
    )
