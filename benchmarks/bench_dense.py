#!/usr/bin/env python
"""Per-topology dense-vs-greedy engine benchmark.

The dense tier started as a line-host fast path; it now also covers
ring guests (arbitrary ``dep_map`` wiring through the watermark
skeleton) and graph hosts (the Fact-3 embedding precomputes every
route delay into the induced array's flat ``link_delays``).  This
script measures each topology separately so a regression in one
coverage class cannot hide behind another:

* **line** — an OVERLAP block assignment on a random-delay array
  (the original fast path, plus the vectorised ready-scan);
* **ring** — the folded ring ``dep_map``/``col_label`` reduction of
  :mod:`repro.core.ring` on the same class of array host;
* **graph** — a mesh host reduced to an array by
  :func:`repro.topology.embedding.embed_linear_array`;
* **faulted** — the same three topologies under a scripted
  :class:`~repro.netsim.faults.FaultPlan`: the segmented
  :class:`~repro.core.dense_faults.FaultedDenseExecutor` (vectorised
  replay between fault boundaries) against the greedy engine's
  event-by-event fault path.

Setup (host, killing, assignment, dep_map, embedding) is built once
outside the timers; each timed pass constructs and runs one executor —
fresh construction matters on faulted workloads, where compiled fault
tables hold one-shot drop state — so the ratio isolates the engines
themselves.  Wall times are the median of three passes after a
warm-up.  Both tiers are bit-identical (tests/test_dense.py and
tests/test_dense_faults.py; the faulted timer also re-asserts stats
equality inline); this records what the dense tier buys.

Results go to ``BENCH_dense.json`` (``--out`` to override)::

    PYTHONPATH=src python benchmarks/bench_dense.py --smoke

The script gates the ratios it has just measured and exits 1 on a
miss: dense >= 3x greedy on every fault-free section and >= 2x on every
faulted one.  ``--smoke`` shrinks the workloads for CI and stamps
``"smoke": true`` into every section.  Full runs also require the line
section >= 6.26x and both of its engines >= 20,000 steps/sec; smoke
runs skip those two floors, because small workloads blunt the
vectorisation advantage and their absolute rates are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import numpy as np

from repro.core.assignment import assign_databases
from repro.core.baselines import spread_assignment
from repro.core.dense import DenseExecutor
from repro.core.dense_faults import FaultedDenseExecutor
from repro.core.executor import GreedyExecutor
from repro.core.killing import kill_and_label
from repro.core.ring import ring_dep_map
from repro.machine.host import HostArray
from repro.machine.programs import get_program
from repro.netsim.faults import FaultPlan
from repro.topology.delays import scale_to_average, uniform_delays
from repro.topology.embedding import embed_linear_array
from repro.topology.generators import mesh_host

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Full-run line floor: 10% under the 6.96x the line section once
# recorded, allowing for machine-to-machine noise.
MIN_LINE_OVER_GREEDY = 6.26
# Coarse floor for full-run line throughput of either engine: an order
# of magnitude under the measured dense rate, so it only trips on
# catastrophic hot-path regressions, not machine-to-machine noise.
MIN_STEPS_PER_SEC = 20_000.0


def _bench_host(n: int, d_target: float, seed: int) -> HostArray:
    rng = np.random.default_rng(seed)
    return HostArray(scale_to_average(uniform_delays(n - 1, rng, 1, 8), d_target))


def _time_engines(
    host: HostArray,
    assignment,
    steps: int,
    repeats: int,
    smoke: bool,
    **kwargs,
) -> dict:
    """Median-of-``repeats`` wall time for each engine on one workload."""
    program = get_program("counter")
    out: dict = {"n": host.n, "m": assignment.m, "steps": steps}
    for name, cls in (("greedy", GreedyExecutor), ("dense", DenseExecutor)):
        cls(host, assignment, program, steps, **kwargs).run()  # warm-up
        walls = []
        pebbles = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = cls(host, assignment, program, steps, **kwargs).run()
            walls.append(time.perf_counter() - t0)
            pebbles = res.stats.pebbles
        wall = statistics.median(walls)
        out[name] = {
            "pebbles": pebbles,
            "median_wall_s": round(wall, 4),
            "steps_per_sec": round(pebbles / wall, 1),
        }
    out["dense_over_greedy"] = round(
        out["dense"]["steps_per_sec"] / out["greedy"]["steps_per_sec"], 2
    )
    out["smoke"] = smoke
    return out


def _time_faulted_engines(
    host: HostArray,
    assignment,
    steps: int,
    plan: FaultPlan,
    repeats: int,
    smoke: bool,
    **kwargs,
) -> dict:
    """Faulted twin of :func:`_time_engines`.

    Each pass constructs a fresh executor (the compiled fault tables
    own one-shot drop consumption, so they cannot be reused), and the
    two engines' :class:`SimStats` are asserted equal so a timing run
    can never drift from the bit-identity contract unnoticed.
    """
    program = get_program("counter")
    out: dict = {
        "n": host.n,
        "m": assignment.m,
        "steps": steps,
        "fault_events": len(plan.events),
    }
    stats_seen: dict = {}
    for name, cls in (("greedy", GreedyExecutor), ("dense", FaultedDenseExecutor)):
        cls(host, assignment, program, steps, faults=plan, **kwargs).run()
        walls = []
        pebbles = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = cls(
                host, assignment, program, steps, faults=plan, **kwargs
            ).run()
            walls.append(time.perf_counter() - t0)
            pebbles = res.stats.pebbles
            stats_seen[name] = dict(res.stats.__dict__)
        wall = statistics.median(walls)
        out[name] = {
            "pebbles": pebbles,
            "median_wall_s": round(wall, 4),
            "steps_per_sec": round(pebbles / wall, 1),
        }
    if stats_seen["dense"] != stats_seen["greedy"]:
        diff = {
            k: (stats_seen["greedy"][k], stats_seen["dense"][k])
            for k in stats_seen["greedy"]
            if stats_seen["greedy"][k] != stats_seen["dense"][k]
        }
        raise AssertionError(f"faulted engines diverged: {diff}")
    out["dense_over_greedy"] = round(
        out["dense"]["steps_per_sec"] / out["greedy"]["steps_per_sec"], 2
    )
    out["smoke"] = smoke
    return out


def bench_line(n: int, steps: int, repeats: int = 3, smoke: bool = False) -> dict:
    """The original fast path: OVERLAP block assignment on an array."""
    host = _bench_host(n, 8, seed=0)
    assignment = assign_databases(kill_and_label(host), block=2)
    return _time_engines(host, assignment, steps, repeats, smoke)


def bench_ring(n: int, steps: int, repeats: int = 3, smoke: bool = False) -> dict:
    """The folded-ring reduction: dep_map wiring, relabelled columns."""
    host = _bench_host(n, 8, seed=1)
    m = host.n
    dep_map, node_of_col = ring_dep_map(m)
    label = lambda col: node_of_col[col] + 1  # noqa: E731 - tiny adapter
    assignment = spread_assignment(host.n, m)
    return _time_engines(
        host, assignment, steps, repeats, smoke,
        dep_map=dep_map, col_label=label,
    )


def bench_graph(
    rows: int, cols: int, steps: int, repeats: int = 3, smoke: bool = False
) -> dict:
    """A mesh host reduced to an array by the Fact-3 embedding."""
    rng = np.random.default_rng(2)
    n_links = 2 * rows * cols - rows - cols
    host = mesh_host(rows, cols, uniform_delays(n_links, rng, 1, 6))
    array = embed_linear_array(host).host_array(name=f"embed({host.name})")
    assignment = assign_databases(kill_and_label(array), block=2)
    out = _time_engines(array, assignment, steps, repeats, smoke)
    out["host"] = host.name
    return out


def bench_faulted_line(
    n: int, steps: int, repeats: int = 3, smoke: bool = False
) -> dict:
    """Full fault mix (crashes, outages, jitter, drops) on an array
    with ``min_copies=2`` replication."""
    host = _bench_host(n, 8, seed=3)
    assignment = assign_databases(kill_and_label(host), block=2, min_copies=2)
    plan = FaultPlan.random(
        host.n,
        seed=11,
        horizon=steps * 24,
        node_crash_rate=0.02,
        link_outage_rate=0.04,
        jitter_rate=0.06,
        drop_rate=0.06,
    )
    return _time_faulted_engines(host, assignment, steps, plan, repeats, smoke)


def bench_faulted_ring(
    n: int, steps: int, repeats: int = 3, smoke: bool = False
) -> dict:
    """Link-level faults through the folded-ring ``dep_map`` wiring
    (node crashes are rejected on relabelled guests)."""
    host = _bench_host(n, 8, seed=4)
    m = host.n
    dep_map, node_of_col = ring_dep_map(m)
    label = lambda col: node_of_col[col] + 1  # noqa: E731 - tiny adapter
    assignment = spread_assignment(host.n, m)
    plan = FaultPlan.random(
        host.n,
        seed=12,
        horizon=steps * 24,
        link_outage_rate=0.04,
        jitter_rate=0.06,
        drop_rate=0.06,
    )
    return _time_faulted_engines(
        host, assignment, steps, plan, repeats, smoke,
        dep_map=dep_map, col_label=label,
    )


def bench_faulted_graph(
    rows: int, cols: int, steps: int, repeats: int = 3, smoke: bool = False
) -> dict:
    """Full fault mix on an embedded mesh (targets in embedded-array
    coordinates), ``min_copies=2``."""
    rng = np.random.default_rng(5)
    n_links = 2 * rows * cols - rows - cols
    host = mesh_host(rows, cols, uniform_delays(n_links, rng, 1, 6))
    array = embed_linear_array(host).host_array(name=f"embed({host.name})")
    assignment = assign_databases(kill_and_label(array), block=2, min_copies=2)
    plan = FaultPlan.random(
        array.n,
        seed=13,
        horizon=steps * 24,
        node_crash_rate=0.02,
        link_outage_rate=0.04,
        jitter_rate=0.06,
        drop_rate=0.06,
    )
    out = _time_faulted_engines(array, assignment, steps, plan, repeats, smoke)
    out["host"] = host.name
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized workloads")
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_dense.json"),
        help="output JSON path (default: repo-root BENCH_dense.json)",
    )
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    if args.smoke:
        line_cfg = {"n": 96, "steps": 12}
        ring_cfg = {"n": 96, "steps": 12}
        graph_cfg = {"rows": 6, "cols": 6, "steps": 8}
    else:
        line_cfg = {"n": 192, "steps": 24}
        ring_cfg = {"n": 192, "steps": 24}
        graph_cfg = {"rows": 10, "cols": 10, "steps": 12}

    print(f"[bench_dense] cpus={cpus} smoke={args.smoke}")
    sections: dict = {}
    for name, fn, cfg in (
        ("line", bench_line, line_cfg),
        ("ring", bench_ring, ring_cfg),
        ("graph", bench_graph, graph_cfg),
    ):
        rec = fn(smoke=args.smoke, **cfg)
        sections[name] = rec
        print(
            f"[bench_dense] {name}: greedy {rec['greedy']['steps_per_sec']:,} "
            f"vs dense {rec['dense']['steps_per_sec']:,} steps/sec "
            f"-> dense {rec['dense_over_greedy']}x faster"
        )

    faulted: dict = {"smoke": args.smoke}
    for name, fn, cfg in (
        ("line", bench_faulted_line, line_cfg),
        ("ring", bench_faulted_ring, ring_cfg),
        ("graph", bench_faulted_graph, graph_cfg),
    ):
        rec = fn(smoke=args.smoke, **cfg)
        faulted[name] = rec
        print(
            f"[bench_dense] faulted/{name}: greedy "
            f"{rec['greedy']['steps_per_sec']:,} vs segmented dense "
            f"{rec['dense']['steps_per_sec']:,} steps/sec "
            f"-> dense {rec['dense_over_greedy']}x faster "
            f"({rec['fault_events']} fault events)"
        )
    sections["faulted"] = faulted

    payload = {
        "bench": "dense",
        "smoke": args.smoke,
        "cpus": cpus,
        "python": sys.version.split()[0],
        "sections": sections,
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_dense] wrote {out}")

    failed = False
    for name, rec in sections.items():
        if name == "faulted":
            continue
        floor = MIN_LINE_OVER_GREEDY if name == "line" and not args.smoke else 3.0
        if rec["dense_over_greedy"] < floor:
            print(
                f"[bench_dense] FAIL: {name} section only "
                f"{rec['dense_over_greedy']}x greedy (< {floor}x)",
                file=sys.stderr,
            )
            failed = True
    for name in ("line", "ring", "graph"):
        rec = sections["faulted"][name]
        if rec["dense_over_greedy"] < 2.0:
            print(
                f"[bench_dense] FAIL: faulted/{name} section only "
                f"{rec['dense_over_greedy']}x greedy (< 2x)",
                file=sys.stderr,
            )
            failed = True
    if not args.smoke:
        for engine in ("greedy", "dense"):
            sps = sections["line"][engine]["steps_per_sec"]
            if sps < MIN_STEPS_PER_SEC:
                print(
                    f"[bench_dense] FAIL: line/{engine}: {sps:,.0f} steps/sec "
                    f"< floor {MIN_STEPS_PER_SEC:,.0f}",
                    file=sys.stderr,
                )
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
