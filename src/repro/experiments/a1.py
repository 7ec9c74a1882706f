"""A1 — ablation: the host/guest bandwidth assumption.

The paper assumes host links carry ``log n`` pebbles per step and notes
that bandwidth 1 costs up to an extra ``log n`` factor.  Where does the
assumption actually bite?  Two regimes:

* **1-D OVERLAP boundary streams** are thin — a supplier emits a given
  column's pebble only once per ~load steps — so per-link offered load
  is below 1 pebble/step and the measured slowdown is *insensitive* to
  bandwidth.  (A finding, not a bug: the paper's remark after Theorem 2
  says the guest's own bandwidth suffices for these streams.)
* **Bulk column exchanges** (Theorem 7's 2-D simulation ships whole
  ``m``-cell columns per guest step; Theorem 4 ships ``q``-pebble
  column groups per round) are burst traffic: the transit term is
  ``d + ceil(P/bw) - 1``, so bandwidth 1 visibly inflates the slowdown
  and ``bw = log n`` recovers most of it.
"""

from __future__ import annotations

import math

from repro.core.overlap import simulate_overlap
from repro.core.ndim import simulate_2d_on_uniform_array
from repro.experiments.base import ExperimentResult
from repro.machine.host import HostArray


def run(quick: bool = True, engine: str = "auto") -> ExperimentResult:
    """Run both bandwidth sweeps."""
    n = 96 if quick else 160
    steps = 16 if quick else 24
    delays = [1] * (n - 1)
    delays[n // 2 - 1] = 256
    host = HostArray(delays)
    lg = max(1, math.ceil(math.log2(n)))

    m2d, d2d = (24, 8) if quick else (48, 16)
    lg2 = max(1, math.ceil(math.log2(m2d)))

    rows = []
    one_d = {}
    two_d = {}
    for bw in [1, 2, lg, 4 * lg]:
        ov = simulate_overlap(
            host, steps=steps, block=8, bandwidth=bw, verify=False, engine=engine
        )
        td = simulate_2d_on_uniform_array(
            m2d, m2d, d2d, steps=4, bandwidth=bw, verify=False
        )
        one_d[bw] = ov.slowdown
        two_d[bw] = td.slowdown
        rows.append(
            {
                "bandwidth": bw,
                "is log n": bw == lg,
                "1-D OVERLAP slowdown": round(ov.slowdown, 2),
                "2-D bulk slowdown": round(td.slowdown, 2),
            }
        )

    thin_ratio = one_d[1] / one_d[lg]
    bulk_ratio = two_d[1] / two_d[lg]
    gap_recovered = (two_d[1] - two_d[lg]) / max(1e-9, two_d[1] - two_d[4 * lg])
    return ExperimentResult(
        "A1",
        "Ablation - host bandwidth (the paper's log n assumption)",
        rows,
        summary={
            "log n": lg,
            "1-D streams: bw=1 penalty (thin traffic, ~1.0)": round(thin_ratio, 2),
            "2-D bulk: bw=1 penalty (paper: <= ~log n)": round(bulk_ratio, 2),
            "bulk penalty real but within log n": 1.05 <= bulk_ratio <= lg,
            "share of bw=1 gap that bw=log n recovers": round(gap_recovered, 2),
            "log n recovers most of the bulk gap": gap_recovered >= 0.7,
        },
    )
