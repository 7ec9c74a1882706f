#!/usr/bin/env python
"""Service benchmark: request latency, throughput, coalescing identity.

Drives a real :class:`repro.service.SimulationService` (in-process —
the TCP framing is not what's being measured) through the request mix
the service exists for:

* **cold pass** — every distinct config submitted once against an
  empty cache: the full-compute miss path; per-request wall latencies.
* **warm passes** — the same configs re-submitted for several rounds:
  every request is an in-memory LRU hit; these latencies are the
  "serving is essentially free" claim, gated as ``hit_speedup_p50``
  (cache-hit p50 must be >= 20x cheaper than a cold miss).
* **sustained throughput** — several concurrent clients replaying the
  warm config set; total requests / wall = ``requests_per_sec``.
* **coalescing identity** — one fresh config submitted by many
  concurrent clients must run **once** (``coalesced_executions``) and
  every response, plus an independent submission on a separate fresh
  service, must serialise to identical bytes (``results_identical``).

Results go to ``BENCH_service.json`` (``--out`` to override)::

    PYTHONPATH=src python benchmarks/bench_service.py --smoke

``--smoke`` shrinks the simulated configs for CI and stamps
``"smoke": true``.  The script gates the numbers it has just measured
and exits 1 on a miss; the latency *ratio* and identity gates apply
smoke or not (both sides of the ratio shrink together).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.runner import SweepRunner, shutdown_pool  # noqa: E402
from repro.service import SimulationService  # noqa: E402
from repro.service.tasks import overlap_point  # noqa: E402
from repro.telemetry.service import percentile  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: cache-hit p50 must beat a cold-miss p50 by at least this factor
MIN_HIT_SPEEDUP = 20.0


def grid(n: int, steps: int, count: int) -> list[dict]:
    """``count`` distinct configs (the ``rep`` nonce varies the hash)."""
    return [
        {"n": n, "steps": steps, "verify": False, "rep": i}
        for i in range(count)
    ]


def _fresh_service(root: pathlib.Path, name: str) -> SimulationService:
    return SimulationService(
        SweepRunner(cache_dir=root / name, profile=True),
        max_queue=64,
        max_concurrency=4,
        per_client=64,
    )


async def _timed_submits(service, configs, client: str) -> list[float]:
    """Sequential submissions; per-request wall seconds."""
    out = []
    for cfg in configs:
        t0 = time.perf_counter()
        await service.submit(overlap_point, cfg, client=client)
        out.append(time.perf_counter() - t0)
    return out


async def bench(n: int, steps: int, count: int, rounds: int, clients: int, smoke: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_service_") as tmp:
        root = pathlib.Path(tmp)
        service = _fresh_service(root, "main")
        configs = grid(n, steps, count)

        # Cold pass: every request a full compute.
        misses = await _timed_submits(service, configs, "cold")
        assert service.metrics.served["compute"] == count

        # Warm passes: every request an in-memory hit.
        hits: list[float] = []
        for r in range(rounds):
            hits.extend(await _timed_submits(service, configs, f"warm-{r}"))
        assert service.metrics.served["memory"] == count * rounds

        # Sustained throughput: concurrent clients replaying the warm set.
        async def one_client(ci: int) -> int:
            done = 0
            for _ in range(rounds):
                for cfg in configs:
                    await service.submit(overlap_point, cfg, client=f"c{ci}")
                    done += 1
            return done

        t0 = time.perf_counter()
        totals = await asyncio.gather(*(one_client(i) for i in range(clients)))
        sustained_wall = time.perf_counter() - t0
        sustained_requests = sum(totals)

        # Coalescing: one fresh config, many concurrent duplicates.
        waiters = 8
        fresh = {"n": n, "steps": steps, "verify": False, "rep": "coalesce"}
        before = service.metrics.exec_compute
        coalesced = await asyncio.gather(
            *(
                service.submit(overlap_point, dict(fresh), client=f"w{i}")
                for i in range(waiters)
            )
        )
        executions = service.metrics.exec_compute - before

        # Independent submission on a separate service + cache.
        other = _fresh_service(root, "independent")
        independent = await other.submit(overlap_point, dict(fresh))
        blobs = {json.dumps(r, sort_keys=True) for r in coalesced}
        blobs.add(json.dumps(independent, sort_keys=True))
        identical = len(blobs) == 1

        service.metrics.reconcile(service.runner.profile)
        await service.close()
        await other.close()

    miss_p50 = percentile(misses, 0.50)
    hit_p50 = percentile(hits, 0.50)
    return {
        "n": n,
        "steps": steps,
        "distinct_configs": count,
        "warm_rounds": rounds,
        "clients": clients,
        "requests": count + count * rounds + sustained_requests + waiters,
        "miss_p50_ms": round(1e3 * miss_p50, 4),
        "miss_p99_ms": round(1e3 * percentile(misses, 0.99), 4),
        "hit_p50_ms": round(1e3 * hit_p50, 4),
        "hit_p99_ms": round(1e3 * percentile(hits, 0.99), 4),
        "hit_speedup_p50": round(miss_p50 / hit_p50, 1),
        "requests_per_sec": round(sustained_requests / sustained_wall, 1),
        "coalesced_waiters": waiters,
        "coalesced_executions": executions,
        "results_identical": identical,
        "smoke": smoke,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized workload")
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_service.json"),
        help="output JSON path (default: repo-root BENCH_service.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        cfg = {"n": 32, "steps": 8, "count": 6, "rounds": 3, "clients": 4}
    else:
        # Big enough that a cold miss is unambiguously simulation-bound;
        # the hit path cost is constant either way.
        cfg = {"n": 96, "steps": 24, "count": 12, "rounds": 5, "clients": 8}

    print(f"[bench_service] smoke={args.smoke} {cfg}")
    rec = asyncio.run(bench(smoke=args.smoke, **cfg))
    shutdown_pool()
    print(
        f"[bench_service] miss p50 {rec['miss_p50_ms']}ms vs hit p50 "
        f"{rec['hit_p50_ms']}ms -> {rec['hit_speedup_p50']}x; "
        f"{rec['requests_per_sec']} req/s sustained; "
        f"{rec['coalesced_waiters']} waiters -> "
        f"{rec['coalesced_executions']} execution(s)"
    )

    payload = {
        "bench": "service",
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "sections": {"service": rec},
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_service] wrote {out}")

    failed = False
    if rec["hit_speedup_p50"] < MIN_HIT_SPEEDUP:
        print(
            f"[bench_service] FAIL: cache-hit p50 only "
            f"{rec['hit_speedup_p50']}x cheaper than a cold miss "
            f"(< {MIN_HIT_SPEEDUP}x)",
            file=sys.stderr,
        )
        failed = True
    if rec["coalesced_executions"] != 1:
        print(
            f"[bench_service] FAIL: {rec['coalesced_waiters']} duplicate "
            f"submissions ran {rec['coalesced_executions']} executions "
            "(expected exactly 1)",
            file=sys.stderr,
        )
        failed = True
    if not rec["results_identical"]:
        print(
            "[bench_service] FAIL: coalesced and independent submissions "
            "returned different bytes",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
