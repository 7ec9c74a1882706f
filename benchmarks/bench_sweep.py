#!/usr/bin/env python
"""Sweep-engine and executor throughput benchmark.

A standalone script (the experiment claims are gated by
``bench_claims.py``) that measures:

* **sweep throughput** — one grid of OVERLAP configs run through
  :class:`repro.runner.SweepRunner` serially and with worker
  processes (cache off for both); reports configs/sec and the
  parallel-over-serial speedup, plus the chunking/pool-reuse facts
  the parallel path relies on;
* **executor steps/sec** — one fixed single simulation through the
  public front-end, reporting pebbles computed per wall-clock second.

The dense-over-greedy engine ratio is measured and gated by
``bench_dense.py``.  All wall times are the median of three timed
passes after a warm-up pass, so one scheduler hiccup cannot fake a
regression (or hide one).

Results go to ``BENCH_sweep.json`` (``--out`` to override)::

    PYTHONPATH=src python benchmarks/bench_sweep.py --smoke

The script gates the numbers it has just measured and exits 1 on a
miss.  ``--smoke`` shrinks the grid for CI and stamps ``"smoke": true``
into every record; the executor's absolute steps/sec floor applies only
to full runs, because steps/sec from a smoke grid is not comparable to
the full workload.  The speedup assertion only applies when the
machine actually has >= 4 CPUs *and* at least as many CPUs as workers —
an oversubscribed or single-core runner cannot parallelise
compute-bound work, so its sweep section is smoke-tagged and the
comparison skipped (the numbers are still recorded honestly).
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

from repro.core.overlap import simulate_overlap
from repro.machine.host import HostArray
from repro.runner import SweepRunner
from repro.topology.delays import scale_to_average, uniform_delays

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Coarse floor for full-run executor throughput: an order of magnitude
# under the measured dense rate, so it only trips on catastrophic
# hot-path regressions, not machine-to-machine noise.
MIN_STEPS_PER_SEC = 20_000.0


def _bench_host(n: int, d_target: float, seed: int) -> HostArray:
    rng = np.random.default_rng(seed)
    return HostArray(scale_to_average(uniform_delays(n - 1, rng, 1, 8), d_target))


def _median(walls: list[float]) -> float:
    return statistics.median(walls)


def _sweep_task(cfg: dict) -> dict:
    """One sweep grid point: a full OVERLAP simulation.

    The ``seed`` key is injected by the runner's seeding contract
    (``seed_key="seed"``), so the grid also exercises deterministic
    content-derived seeding.
    """
    host = _bench_host(cfg["n"], cfg["d"], cfg["seed"] % (2**32))
    res = simulate_overlap(host, steps=cfg["steps"], block=2, verify=False)
    return {
        "slowdown": res.slowdown,
        "pebbles": res.exec_result.stats.pebbles,
        "makespan": res.exec_result.stats.makespan,
    }


def bench_executor(
    n: int, steps: int, repeats: int = 3, engine: str = "auto", smoke: bool = False
) -> dict:
    """Median-of-``repeats`` front-end throughput (after a warm-up)."""
    host = _bench_host(n, 8, seed=0)
    simulate_overlap(
        host, steps=max(4, steps // 4), block=2, verify=False, engine=engine
    )  # warm-up
    walls = []
    pebbles = 0
    resolved = engine
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = simulate_overlap(host, steps=steps, block=2, verify=False, engine=engine)
        walls.append(time.perf_counter() - t0)
        pebbles = res.exec_result.stats.pebbles
        resolved = res.engine
    wall = _median(walls)
    return {
        "n": n,
        "steps": steps,
        "engine": resolved,
        "pebbles": pebbles,
        "median_wall_s": round(wall, 4),
        "best_wall_s": round(min(walls), 4),
        "steps_per_sec": round(pebbles / wall, 1),
        "smoke": smoke,
    }


def bench_sweep(
    n_configs: int,
    n: int,
    steps: int,
    workers: int,
    repeats: int = 3,
    smoke: bool = False,
) -> dict:
    """Serial vs parallel throughput over one config grid (cache off).

    One full warm-up pass per runner first: it pulls every import into
    the worker processes and spawns the persistent pool, so the timed
    passes measure steady-state throughput — the regime experiment
    sweeps actually run in — rather than one-time process start-up.
    """
    configs = [
        {"n": n, "steps": steps, "d": d}
        for d in [1, 2, 4, 8] * ((n_configs + 3) // 4)
    ][:n_configs]

    serial = SweepRunner(workers=1)
    parallel = SweepRunner(workers=workers)

    serial_results = serial.map(_sweep_task, configs, seed_key="seed")  # warm-up
    parallel_results = parallel.map(_sweep_task, configs, seed_key="seed")  # warm-up
    if serial_results != parallel_results:
        raise AssertionError("parallel sweep results differ from serial — determinism bug")

    serial_walls = []
    for _ in range(repeats):
        serial.map(_sweep_task, configs, seed_key="seed")
        serial_walls.append(serial.last_elapsed)
    parallel_walls = []
    for _ in range(repeats):
        parallel.map(_sweep_task, configs, seed_key="seed")
        parallel_walls.append(parallel.last_elapsed)

    serial_s = _median(serial_walls)
    parallel_s = _median(parallel_walls)
    return {
        "configs": len(configs),
        "workers": workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "serial_throughput": round(len(configs) / serial_s, 3),
        "parallel_throughput": round(len(configs) / parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "chunk_size": parallel.last_chunk_size,
        "pool_reuse": parallel.last_pool_reused,
        "results_identical": True,
        "smoke": smoke,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized grid")
    parser.add_argument("--workers", type=int, default=4, help="parallel worker count")
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_sweep.json"),
        help="output JSON path (default: repo-root BENCH_sweep.json)",
    )
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    if args.smoke:
        exec_cfg = {"n": 96, "steps": 12}
        sweep_cfg = {"n_configs": 8, "n": 96, "steps": 12}
    else:
        exec_cfg = {"n": 192, "steps": 24}
        sweep_cfg = {"n_configs": 16, "n": 128, "steps": 16}

    print(f"[bench_sweep] cpus={cpus} workers={args.workers} smoke={args.smoke}")
    executor = bench_executor(smoke=args.smoke, **exec_cfg)
    print(
        f"[bench_sweep] executor ({executor['engine']}): {executor['pebbles']} "
        f"pebbles in {executor['median_wall_s']}s (median) -> "
        f"{executor['steps_per_sec']:,} steps/sec"
    )
    # A machine with fewer CPUs than workers cannot demonstrate the
    # parallel speedup; record the numbers but smoke-tag the section so
    # the speedup gate below skips the comparison.
    sweep_smoke = args.smoke or cpus < args.workers
    sweep_res = bench_sweep(workers=args.workers, smoke=sweep_smoke, **sweep_cfg)
    print(
        f"[bench_sweep] sweep: serial {sweep_res['serial_s']}s, "
        f"{args.workers} workers {sweep_res['parallel_s']}s "
        f"-> speedup {sweep_res['speedup']}x "
        f"(chunk={sweep_res['chunk_size']}, pool_reuse={sweep_res['pool_reuse']})"
    )

    payload = {
        "bench": "sweep",
        "smoke": args.smoke,
        "cpus": cpus,
        "python": sys.version.split()[0],
        "executor": executor,
        "sweep": sweep_res,
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_sweep] wrote {out}")

    failed = False
    if not args.smoke and executor["steps_per_sec"] < MIN_STEPS_PER_SEC:
        print(
            f"[bench_sweep] FAIL: executor: {executor['steps_per_sec']:,.0f} "
            f"steps/sec < floor {MIN_STEPS_PER_SEC:,.0f}",
            file=sys.stderr,
        )
        failed = True
    if (
        cpus >= 4
        and args.workers >= 4
        and not sweep_res["smoke"]
        and sweep_res["speedup"] < 2.0
    ):
        print(
            f"[bench_sweep] FAIL: speedup {sweep_res['speedup']}x < 2x "
            f"on a {cpus}-cpu machine",
            file=sys.stderr,
        )
        failed = True
    if cpus < 4:
        print(
            f"[bench_sweep] note: only {cpus} cpu(s) visible — speedup gate "
            "skipped (parallelism cannot beat the hardware)"
        )
    elif cpus < args.workers:
        print(
            f"[bench_sweep] note: {cpus} cpu(s) < {args.workers} workers — "
            "sweep section smoke-tagged, speedup gate skipped"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
