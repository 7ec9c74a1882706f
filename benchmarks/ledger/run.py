#!/usr/bin/env python3
"""Layer-ledger benchmark: four workloads, end-to-end and per-layer metrics.

One workload, as the benchmark contract runs it (the last stdout line
is the JSON result)::

    python3 benchmarks/ledger/run.py --workload line-verified --seed 1 --seconds 15 --trace 0

Every workload, each in its own subprocess, with a result file for
``compare.py``::

    python3 benchmarks/ledger/run.py --seed 1 --out result-1.json

``--trace 0`` measures the end-to-end metrics with no tracing: set-up
time is the median of several fresh-process set-ups, then one process
runs the workload's closed loop for ``--seconds``.  ``--trace 1`` runs
the loop untraced for half the time, then replays the same operations
on fresh state under :class:`trace.Tracer` and reports the per-layer
ledger; both passes must return byte-identical outputs.  Either run
exits non-zero if a correctness check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(1, str(SRC))

import trace as ledger_trace  # noqa: E402  (benchmarks/ledger/trace.py)
import workloads  # noqa: E402

#: fresh-process set-ups per --trace 0 run (the measuring process is one)
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

#: name -> unit; emitted by every --trace 0 run (defined in README.md)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "sim_slowdown": "step/step",
}


# -- per-layer ledger ------------------------------------------------------------
def _replicas(result, args, kwargs):
    return {"replicas": result}


def _hits(result, args, kwargs):
    return {"hits": int(result is not None)}


def _pebbles(result, args, kwargs):
    return {"pebbles": result.stats.pebbles}


def _faulted(result, args, kwargs):
    stats = result.stats
    return {"pebbles": stats.pebbles, "retries": stats.retries, "recoveries": stats.recoveries}


def _greedy(result, args, kwargs):
    extras = result.stats.extras
    return {key: extras.get(key, 0) for key in ("raced_wins", "raced_losses", "cancelled_messages")}


def _mapped(result, args, kwargs):
    runner = args[0]
    frac = runner.last_replayed_fraction
    return {
        "configs": len(result),
        "hits": runner.last_hits,
        "delta_hits": runner.last_delta_hits,
        "delta_fallbacks": runner.last_delta_fallbacks,
        "replayed": frac or 0.0,
        "replays": int(frac is not None),
    }


def _candidates(result, args, kwargs):
    return {"candidates": len(result)}


def _request_ids():
    """Tag each ``stream`` call ``<client>#<n>``: the n-th request on
    that connection, which is also how the client names its span."""
    seen: dict[str, int] = {}

    def tag(args, kwargs):
        client = kwargs.get("client", "default")
        seen[client] = seen.get(client, -1) + 1
        return f"{client}#{seen[client]}"

    return tag


#: The wrapped public callables, as (module under ``repro``, class or
#: None, attribute, harvest); the layer table in README.md groups them.
LAYERS = (
    ("core.dense", "DenseExecutor", "__init__", None),
    ("core.dense", "DenseExecutor", "run", _pebbles),
    ("core.verify", None, "verify_execution", _replicas),
    ("machine.guest", "GuestArray", "run_reference", None),
    ("machine.guest", "GuestRing", "run_reference_full", None),
    ("core.ring", None, "verify_ring_execution", _replicas),
    ("core.killing", None, "kill_and_label", None),
    ("core.assignment", None, "assign_databases", None),
    ("core.dense_faults", "FaultedDenseExecutor", "run", _faulted),
    ("core.executor", "GreedyExecutor", "run", _greedy),
    ("core.checkpoint", "ExecutorCheckpoint", "to_json", None),
    ("core.checkpoint", "ExecutorCheckpoint", "from_json", None),
    ("topology.embedding", None, "embed_linear_array", None),
    ("runner", "SweepRunner", "prepare", None),
    ("runner", "SweepRunner", "submit", None),
    ("runner", "SweepRunner", "map", _mapped),
    ("runner", "SweepCache", "get", _hits),
    ("runner", "SweepCache", "put", None),
    ("runner", "SweepCache", "delta_candidates", _candidates),
    ("runner", "SweepCache", "load_checkpoints", None),
    ("service.core", "SimulationService", "stream", None),
    ("service.lru", "LRUCache", "get", _hits),
    ("service.lru", "LRUCache", "put", None),
)
#: the front-ends, whose self time is reported summed as ``frontend.glue``
GLUE_LAYERS = (
    ("core.overlap", None, "simulate_overlap", None),
    ("core.overlap", None, "simulate_overlap_on_graph", None),
    ("core.ring", None, "simulate_ring", None),
    ("core.composed", None, "simulate_composed", None),
)


def _name(module: str, owner: str | None, attr: str, harvest=None) -> str:
    return ".".join(part for part in (module, owner, attr) if part)


LAYER_CALLABLES = tuple(_name(*layer) for layer in LAYERS)
GLUE = tuple(_name(*layer) for layer in GLUE_LAYERS)


def layer_targets() -> list:
    """A :class:`trace.Target` for every layer in ``LAYERS`` and
    ``GLUE_LAYERS``; ``stream`` spans are tagged with request ids."""
    targets = []
    for module, owner, attr, harvest in LAYERS + GLUE_LAYERS:
        mod = importlib.import_module(f"repro.{module}")
        tag = _request_ids() if (owner, attr) == ("SimulationService", "stream") else None
        targets.append(ledger_trace.Target(getattr(mod, owner) if owner else mod, attr, harvest, tag))
    return targets


_STREAM = "service.core.SimulationService.stream"

#: name -> unit; emitted by every --trace 1 run
PER_LAYER = {
    **{f"{name}.{stat}": unit for name in LAYER_CALLABLES
       for stat, unit in (("self_ms", "ms"), ("calls", "count"))},
    "core.dense.DenseExecutor.run.pebbles": "count",
    "core.verify.verify_execution.replicas": "count",
    "core.ring.verify_ring_execution.replicas": "count",
    "core.dense_faults.FaultedDenseExecutor.run.retries": "count",
    "core.dense_faults.FaultedDenseExecutor.run.recoveries": "count",
    "core.executor.GreedyExecutor.run.raced_win_frac": "ratio",
    "core.executor.GreedyExecutor.run.cancelled_messages": "count",
    "runner.SweepRunner.map.hit_frac": "ratio",
    "runner.SweepRunner.map.delta_hits": "count",
    "runner.SweepRunner.map.delta_fallbacks": "count",
    "runner.SweepRunner.map.replayed_fraction": "ratio",
    "runner.SweepCache.get.hit_frac": "ratio",
    "runner.SweepCache.delta_candidates.candidates": "count",
    f"{_STREAM}.served_memory_frac": "ratio",
    f"{_STREAM}.served_disk_frac": "ratio",
    f"{_STREAM}.served_compute_frac": "ratio",
    f"{_STREAM}.queue_depth_peak": "count",
    "service.lru.LRUCache.get.hit_frac": "ratio",
    "service.transport.self_ms": "ms",
    "frontend.glue.self_ms": "ms",
    "frontend.glue.calls": "count",
    "ledger.unattributed_frac": "ratio",
    "ledger.trace_overhead_frac": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, ops: int, linked: int, layer_counts: dict) -> dict:
    """Per-operation ledger values, every name in :data:`PER_LAYER`
    except the overhead (which needs the untraced pass)."""
    self_ns, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts()
    out: dict[str, float] = {}
    for name in LAYER_CALLABLES:
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / ops
        out[f"{name}.calls"] = calls.get(name, 0) / ops

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    for name, key in (("core.dense.DenseExecutor.run", "pebbles"),
                      ("core.verify.verify_execution", "replicas"),
                      ("core.ring.verify_ring_execution", "replicas"),
                      ("core.dense_faults.FaultedDenseExecutor.run", "retries"),
                      ("core.dense_faults.FaultedDenseExecutor.run", "recoveries"),
                      ("core.executor.GreedyExecutor.run", "cancelled_messages"),
                      ("runner.SweepRunner.map", "delta_hits"),
                      ("runner.SweepRunner.map", "delta_fallbacks"),
                      ("runner.SweepCache.delta_candidates", "candidates")):
        out[f"{name}.{key}"] = count(name, key) / ops
    greedy = "core.executor.GreedyExecutor.run"
    wins = count(greedy, "raced_wins")
    out[f"{greedy}.raced_win_frac"] = _ratio(wins, wins + count(greedy, "raced_losses"))
    mapped = "runner.SweepRunner.map"
    out[f"{mapped}.hit_frac"] = _ratio(count(mapped, "hits"), count(mapped, "configs"))
    out[f"{mapped}.replayed_fraction"] = _ratio(count(mapped, "replayed"), count(mapped, "replays"))
    for name in ("runner.SweepCache.get", "service.lru.LRUCache.get"):
        out[f"{name}.hit_frac"] = _ratio(count(name, "hits"), calls.get(name, 0))
    for key in ("served_memory_frac", "served_disk_frac", "served_compute_frac", "queue_depth_peak"):
        out[f"{_STREAM}.{key}"] = layer_counts.get(key, 0)
    root_self = self_ns.get("op", 0)
    out["service.transport.self_ms"] = root_self / 1e6 / ops if linked else 0.0
    out["frontend.glue.self_ms"] = sum(self_ns.get(n, 0) for n in GLUE) / 1e6 / ops
    out["frontend.glue.calls"] = sum(calls.get(n, 0) for n in GLUE) / ops
    root_ns = sum(s.duration for s in tracer.spans if s.name == "op")
    out["ledger.unattributed_frac"] = _ratio(root_self, root_ns)
    return out


# -- measuring -------------------------------------------------------------------
def _set_up(workload) -> float:
    t0 = time.perf_counter()
    workload.start()
    workload.warm_up()
    return time.perf_counter() - t0


def _slowdowns(ops) -> tuple[float, bool]:
    """Mean slowdown over distinct inputs, and whether every repeat of
    an input reported the same slowdown."""
    seen: dict[str, float] = {}
    stable = True
    for op in ops:
        if op.slowdown is None:
            continue
        first = seen.setdefault(op.input_id, op.slowdown)
        stable &= first == op.slowdown
    return (statistics.fmean(seen.values()) if seen else 0.0), stable


def _latency(values: list[float]) -> dict:
    """Median and the highest of p90/p95/p99 with at least ten samples
    beyond it, in ms, with the sample count."""
    out = {"n": len(values), "p50": 1e3 * statistics.median(values)}
    for q in (99, 95, 90):
        if len(values) * (100 - q) >= 1000:
            out[f"p{q}"] = 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]
            break
    return out


def _detail(ops, wall: float) -> dict:
    """Latency per kind of operation and overall (tails are printed,
    not bounded: see README.md), and simulated throughput."""
    kinds: dict[str, list[float]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op.latency)
    out = {f"{kind}_ms": _latency(lat) for kind, lat in sorted(kinds.items())}
    out["all_ms"] = _latency([op.latency for op in ops])
    pebbles = sum(op.pebbles for op in ops)
    if pebbles:
        out["pebbles_per_s"] = pebbles / wall
    return out


def measure(name: str, inputs: dict, workdir: pathlib.Path, seconds: float, trace: bool,
            trace_dir: pathlib.Path | None) -> dict:
    """The measuring process: set up, run the loop, check the outputs."""
    cls = workloads.WORKLOADS[name]
    work = cls(inputs, workdir / "untraced")
    setup = _set_up(work)
    work.fill()
    t0 = time.perf_counter()
    lanes = work.run(deadline=t0 + (seconds / 2 if trace else seconds))
    wall = time.perf_counter() - t0
    checks = work.checks(lanes)
    work.close()
    ops = [op for lane in lanes for op in lane]
    slowdown, stable = _slowdowns(ops)
    checks["every input repeats its simulated slowdown"] = stable
    record = {
        "setup_s": setup,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "checks": checks,
    }
    lat = [op.latency for op in ops]
    metrics = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": work.ops_per_s(lanes, wall),
        "op_ms_p50": 1e3 * statistics.median(lat),
        "sim_slowdown": slowdown,
    }
    record["detail"] = _detail(ops, wall)
    if not trace:
        record["metrics"] = metrics
        return record

    traced = cls(inputs, workdir / "traced")
    _set_up(traced)
    traced.fill()
    tracer = ledger_trace.Tracer(layer_targets())
    with tracer:
        t0 = time.perf_counter()
        traced_lanes = traced.run(quota=[len(lane) for lane in lanes], root=tracer.root)
        traced_wall = time.perf_counter() - t0
    linked = tracer.link_requests("op")
    checks.update({f"traced: {k}": v for k, v in traced.checks(traced_lanes).items()})
    layer_counts = traced.layer_counts()
    traced.close()
    checks["traced outputs identical to untraced"] = (
        [h.hexdigest() for h in traced.hashes] == [h.hexdigest() for h in work.hashes]
    )
    traced_ops = [op for lane in traced_lanes for op in lane]
    record["attempted"] += len(traced_ops)
    record["failed"] += sum(not op.ok for op in traced_ops)
    ledger = layer_metrics(tracer, len(ops), linked, layer_counts)
    ledger["ledger.trace_overhead_frac"] = (
        metrics["ops_per_s"] / traced.ops_per_s(traced_lanes, traced_wall) - 1
    )
    record["metrics"] = ledger
    record["detail"]["untraced"] = metrics
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{name}-trace.json")
    return record


# -- processes -------------------------------------------------------------------
def _probe(kind: str, args, workdir: pathlib.Path) -> dict:
    """Run this script as a fresh ``--probe`` process; its last stdout
    line is a JSON object."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--probe", kind,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--trace-dir", args.trace_dir]
    timeout = PROBE_TIMEOUT_S + (3 * args.seconds if kind == "measure" else 0)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} probe failed ({done.returncode}):\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_main(args) -> int:
    workdir = pathlib.Path(args.workdir)
    inputs = json.loads((workdir / "inputs.json").read_text())
    if args.probe == "setup":
        work = workloads.WORKLOADS[args.workload](inputs, workdir / f"setup-{os.getpid()}")
        setup = _set_up(work)
        work.close()
        print(json.dumps({"setup_s": setup}))
        return 0
    record = measure(args.workload, inputs, workdir, args.seconds, bool(args.trace),
                     pathlib.Path(args.trace_dir))
    print(json.dumps(record))
    return 0


def run_workload(args) -> dict:
    """Generate inputs, time the set-ups, run the measuring process."""
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        inputs = workloads.generate(args.workload, args.seed)
        (workdir / "inputs.json").write_text(json.dumps(inputs))
        setups = [] if args.trace else [
            _probe("setup", args, workdir)["setup_s"] for _ in range(SETUP_PROBES - 1)
        ]
        record = _probe("measure", args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setups.append(record.pop("setup_s"))
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["detail"]["setup_samples_s"] = setups
    return record


def _report(name: str, record: dict, units: dict) -> dict:
    """Print the human-readable lines; return the contract's result."""
    correct = all(record["checks"].values()) and record["failed"] == 0
    print(f"== {name}: {record['attempted']} operations, {record['failed']} failed")
    for check, ok in record["checks"].items():
        print(f"   check {'ok  ' if ok else 'FAIL'} {check}")
    for metric, value in record["metrics"].items():
        print(f"   {metric:<58} {value:>14.6g} {units[metric]}")
    for key, value in record["detail"].items():
        print(f"   detail {key}: {json.dumps(value)}")
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in record["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, each in its own subprocess)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result(s) to this JSON file")
    parser.add_argument("--trace-dir", default=str(HERE / "out"),
                        help="where a --trace 1 run writes its Chrome trace (default: %(default)s)")
    parser.add_argument("--probe", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no program at {SRC / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.probe:
        return probe_main(args)
    units = PER_LAYER if args.trace else END_TO_END
    if args.workload is None:
        return run_all(args)

    result = _report(args.workload, run_workload(args), units)
    if args.out:
        _write_results(args, {args.workload: result})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own ``run.py --workload`` subprocess."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", args.trace_dir]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or done.returncode
        if done.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    if args.out:
        _write_results(args, results)
    return status


def _write_results(args, results: dict) -> None:
    payload = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "cpus": os.cpu_count(), "workloads": results}
    pathlib.Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
