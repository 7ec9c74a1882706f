#!/usr/bin/env python
"""Delta-driven sweep benchmark: suffix replay vs full recompute.

The workload is the incremental re-simulation scenario of
``repro.experiments.x5``: a faulted run whose sweep config carries the
fault-plan spec and recovery-policy knobs in structured form, plus a
one-knob edit grid (late fault-event shifts, ``restart_penalty``
tweaks, horizon extensions).  One base entry is seeded into a sweep
cache with its checkpoint sidecar; the timed passes then map the edit
grid

* **delta** — against a copy of the seeded cache, so every edit
  restores a checkpoint from the cached neighbour and replays only the
  suffix (``SweepRunner(delta=True)``, the default);
* **full** — against an empty cache with ``delta=False``, the plain
  miss path.

Each timed pass starts from a pristine cache copy (a delta hit writes
the edited config back as a regular entry, so reusing a cache would
time plain hits, not replays).  Wall times are the median of three
passes; the two passes' row lists are asserted equal element-by-element
so a timing run can never drift from the bit-identity contract
unnoticed (tests/test_delta.py gates the same contract per checkpoint).

Results go to ``BENCH_delta.json`` (``--out`` to override)::

    PYTHONPATH=src python benchmarks/bench_delta.py --smoke

The script gates the numbers it has just measured and exits 1 on a
miss: delta replay >= 2x full recompute, with every edit served by a
replay.  ``--smoke`` shrinks the workload for CI, stamps
``"smoke": true`` and relaxes the speedup floor to 1.2x (tiny runs
spend comparatively more time in cache IO than in replay), but still
requires zero fallbacks.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.core.checkpoint import LAYOUT  # noqa: E402
from repro.core.overlap import simulate_overlap  # noqa: E402
from repro.experiments.x5 import _edit_point  # noqa: E402
from repro.machine.host import HostArray  # noqa: E402
from repro.netsim.faults import FaultPlan  # noqa: E402
from repro.runner import SweepRunner  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def bench_base(n: int, steps: int) -> dict:
    """A base config whose faults land *late* in the run.

    ``repro.experiments.x5.base_config`` guesses its horizon, which
    puts the scripted faults mid-run; for the benchmark we probe the
    fault-free makespan first and script delay-jitter spikes around
    90% of it (no crashes, outages or drops: their recovery/retry
    tails stretch the run ~30% past the fault times, which would make
    every "suffix" a third of the run).  A one-knob edit then
    invalidates only the final ~10% of the run, which is what the
    incremental-edit loop looks like in practice: late-run what-ifs
    against a settled prefix.
    """
    host = HostArray.uniform(n)
    probe = simulate_overlap(host, steps=steps, min_copies=2, verify=False)
    mk = probe.exec_result.stats.makespan
    mid = max(2, n // 2)
    plan = (
        FaultPlan.empty()
        .jitter(mid, int(mk * 0.88), duration=2, extra=1)
        .jitter(min(n - 2, mid + 2), int(mk * 0.90), duration=2, extra=2)
        .jitter(max(0, mid - 3), int(mk * 0.92), duration=2, extra=1)
        .declare_horizon(max(4 * mk, 64))
    )
    return {
        "n": n,
        "steps": steps,
        "faults": plan.to_spec(),
        "policy": {
            "retry_factor": 4.0,
            "max_retries": 32,
            "restart_penalty": 8,
            "watchdog_factor": 8.0,
        },
        "verify": False,
    }


def one_knob_grid(base: dict, k: int) -> list[dict]:
    """``k`` edits of ``base`` moving the latest fault event later by
    1..k steps — the canonical "nudge one knob, re-sweep" loop.  Every
    edit's blast radius is the (late) event time, so only a short
    suffix needs replaying."""
    out = []
    for i in range(1, k + 1):
        cfg = json.loads(json.dumps(base))
        ev = max(cfg["faults"]["events"], key=lambda e: e["time"])
        ev["time"] += i
        out.append(cfg)
    return out


def _timed_maps(make_runner, edits: list[dict], repeats: int):
    """Median wall seconds mapping ``edits`` through fresh runners.

    ``make_runner(i)`` must return a runner whose cache state is
    pristine for repeat ``i`` — timing is only meaningful on the first
    encounter with each config.
    """
    walls, rows, last = [], None, None
    for i in range(repeats):
        runner = make_runner(i)
        t0 = time.perf_counter()
        got = runner.map(_edit_point, edits)
        walls.append(time.perf_counter() - t0)
        if rows is None:
            rows = got
        elif got != rows:
            raise AssertionError("benchmark repeats disagree")
        last = runner
    return statistics.median(walls), rows, last


def bench_one_knob(
    n: int, steps: int, k: int, repeats: int = 3, smoke: bool = False
) -> dict:
    base = bench_base(n, steps)
    edits = one_knob_grid(base, k)

    with tempfile.TemporaryDirectory(prefix="bench_delta_") as tmp:
        tmp = pathlib.Path(tmp)
        seed_root = tmp / "seed"
        seeder = SweepRunner(cache_dir=str(seed_root), delta=True)
        t0 = time.perf_counter()
        seeder.map(_edit_point, [base])
        seed_wall = time.perf_counter() - t0
        seed_key, _ = seeder.prepare(_edit_point, base)
        seed_sidecar_bytes = seeder.cache._ckpt_path(seed_key).stat().st_size
        seed_snapshots = len(seeder.cache.load_checkpoints(seed_key))

        def fresh_delta(i: int) -> SweepRunner:
            work = tmp / f"delta{i}"
            shutil.copytree(seed_root, work)
            return SweepRunner(cache_dir=str(work), delta=True)

        def fresh_full(i: int) -> SweepRunner:
            # The full-recompute *miss path*: delta stays enabled (so
            # the run captures checkpoints and writes sidecars, exactly
            # like the delta pass's bookkeeping) but the cache is empty
            # — there is no neighbour to replay from.
            return SweepRunner(cache_dir=str(tmp / f"full{i}"), delta=True)

        delta_wall, delta_rows, delta_runner = _timed_maps(
            fresh_delta, edits, repeats
        )
        full_wall, full_rows, _ = _timed_maps(fresh_full, edits, repeats)

    if delta_rows != full_rows:
        raise AssertionError(
            "delta replay diverged from full recompute:\n"
            f"{json.dumps(delta_rows, indent=1)}\nvs\n"
            f"{json.dumps(full_rows, indent=1)}"
        )
    frac = delta_runner.last_replayed_fraction
    return {
        "n": n,
        "steps": steps,
        "grid": k,
        "base_makespan": delta_rows[0]["makespan"],
        "seed_wall_s": round(seed_wall, 4),
        "delta_wall_s": round(delta_wall, 4),
        "full_wall_s": round(full_wall, 4),
        "speedup": round(full_wall / delta_wall, 2),
        "delta_hits": delta_runner.last_delta_hits,
        "delta_fallbacks": delta_runner.last_delta_fallbacks,
        "replayed_fraction": None if frac is None else round(frac, 4),
        "results_identical": True,
        "checkpoint_layout": LAYOUT,
        "seed_sidecar_bytes": seed_sidecar_bytes,
        "seed_snapshots": seed_snapshots,
        "smoke": smoke,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized workload")
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_delta.json"),
        help="output JSON path (default: repo-root BENCH_delta.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        cfg = {"n": 48, "steps": 32, "k": 4}
    else:
        # Large enough that simulation dominates the per-config fixed
        # costs (setup, digesting, cache IO) the replay cannot shrink.
        cfg = {"n": 192, "steps": 96, "k": 6}

    print(f"[bench_delta] one-knob grid smoke={args.smoke} {cfg}")
    rec = bench_one_knob(smoke=args.smoke, **cfg)
    frac = rec["replayed_fraction"]
    print(
        f"[bench_delta] full {rec['full_wall_s']}s vs delta "
        f"{rec['delta_wall_s']}s -> {rec['speedup']}x speedup "
        f"({rec['delta_hits']} replays, {rec['delta_fallbacks']} fallbacks, "
        f"{'n/a' if frac is None else f'{100 * frac:.0f}%'} of run replayed)"
    )
    print(
        f"[bench_delta] checkpoint layout {rec['checkpoint_layout']}: seeded "
        f"sidecar {rec['seed_sidecar_bytes']:,} bytes, "
        f"{rec['seed_snapshots']} snapshots"
    )

    payload = {
        "bench": "delta",
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "sections": {"one_knob": rec},
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_delta] wrote {out}")

    failed = False
    floor = 1.2 if args.smoke else 2.0
    if rec["speedup"] < floor:
        print(
            f"[bench_delta] FAIL: only {rec['speedup']}x over full "
            f"recompute (< {floor}x)",
            file=sys.stderr,
        )
        failed = True
    if rec["delta_hits"] < cfg["k"] or rec["delta_fallbacks"]:
        print(
            f"[bench_delta] FAIL: {rec['delta_hits']}/{cfg['k']} replays, "
            f"{rec['delta_fallbacks']} fallbacks (expected all hits, none)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
