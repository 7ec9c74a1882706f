#!/usr/bin/env python
"""Emulating a 2-D stencil machine on a linear host (Section 5).

A 16x16 unit-delay guest array runs a stencil-with-local-store program
(every cell mixes its neighbourhood into a local database each step —
think relaxation sweeps that journal into per-cell state).  The host is
a linear array with uniform link delay; we sweep the processor count to
cross from case 1 of Theorem 7 (one guest column per host processor)
into case 2 (column blocks with redundant wedge recomputation).

Run:  python examples/stencil2d_emulation.py
"""

from repro.analysis.report import print_kv, print_table
from repro.core.ndim import simulate_2d_on_uniform_array, twodim_slowdown_estimate


def main() -> None:
    m, d = 16, 6
    print_kv(
        {
            "guest": f"{m}x{m} array, unit delays",
            "host link delay": d,
            "program": "stencil-nd (database model)",
        },
        title="Setup",
    )

    rows = []
    for n0 in (16, 8, 4, 2):
        res = simulate_2d_on_uniform_array(m, n0, d, steps=2 * max(1, m // n0))
        rows.append(
            {
                "host procs": n0,
                "cols/proc g": res.g,
                "case": 1 if res.g == 1 else 2,
                "slowdown": round(res.slowdown, 1),
                "thm7 estimate": round(twodim_slowdown_estimate(m, n0, d), 1),
                "redundant work": f"{res.pebbles / (m * m * res.steps):.2f}x",
                "verified": res.verified,
            }
        )
    print_table(rows, title="Theorem 7 sweep (case 1 -> case 2)")

    print(
        "\nFewer processors mean bigger column blocks: each batch "
        "recomputes a shrinking halo wedge (up to ~3x work, the paper's "
        "factor) so the long links are crossed once per g steps instead "
        "of every step. All runs verified cell-by-cell against the "
        "direct 2-D execution."
    )


if __name__ == "__main__":
    main()
