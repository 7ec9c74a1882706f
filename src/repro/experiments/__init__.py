"""Experiment harness: one module per paper item (theorem or figure).

Every experiment exposes ``run(quick: bool = True) -> ExperimentResult``
returning printable rows plus a summary of the shape checks.
``benchmarks/bench_claims.py`` gates them: one case per registered id
runs it in quick mode, rewrites ``results/<id>.txt`` and asserts its
shape checks.  ``python -m repro run <id>`` runs one standalone;
EXPERIMENTS.md records their output.

Experiment ids (see DESIGN.md section 4):

=====  ==============================================================
 id    paper item
=====  ==============================================================
 e1    Theorem 2 — OVERLAP slowdown ``O(d_ave log^3 n)``
 e2    Theorem 3 — work-efficient blocked variant
 e3    Theorem 4 — ``sqrt(d)`` on uniform-delay hosts
 e4    Theorem 5 — composed ``sqrt(d_ave) polylog``
 e5    Theorem 6 + Section 4 — general hosts, clique-chain example
 e6    Theorems 7-8 — 2-D guests
 e7    Theorem 9 — one-copy lower bound on H1
 e8    Theorem 10 — two-copy lower bound on H2
 e9    baseline comparison / crossover (Section 1 claims)
 e10   Lemmas 1-4 — killing and labelling invariants
 f1    Figure 1 — pebble dependency cones
 f2    Figure 2 — interval tree and kill pattern
 f3    Figure 3 — recursive box structure
 f4    Figure 4 — trapezium phase accounting
 f5    Figure 5 — H2 level-k box census
 f6    Figure 6 — zigzag dependency path
 a1    ablation — host bandwidth (the ``log n`` assumption)
 a2    ablation — the constant ``c`` of killing and labelling
 a3    ablation — dataflow vs database redundancy ([2])
 a4    ablation — multicast boundary streams
 r1    robustness — slowdown vs mid-run fault rate
 w1    tail latency — execution policy vs link-jitter intensity
 x1    Section 7 — open questions: delay variance, rings
 x2    Section 5 — Theorem 8 in D dimensions
 x3    calibration — measured constants of the bounds
 x4    planner — block-factor recommendation vs measured
 x5    delta — incremental re-simulation after one-knob edits
=====  ==============================================================
"""

from repro.experiments.base import (
    ExperimentResult,
    experiment_titles,
    get_experiment,
    list_experiments,
    run_experiment,
)

__all__ = [
    "ExperimentResult",
    "experiment_titles",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]
