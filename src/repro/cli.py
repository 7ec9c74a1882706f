"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------
``list``
    Show the experiment index (theorem/figure per id).
``run <id> [--full]``
    Run one experiment and print its paper-style table.
``all [--full] [--out DIR]``
    Run every experiment, print the tables, and write one text file per
    experiment (the inputs to EXPERIMENTS.md).
``trace [--preset NAME] [--engine TIER]``
    Run OVERLAP on a preset host with a timeline attached and print its
    summary and space-time diagram (``--trace-out`` writes a Chrome trace).
``serve [--port P | --demo]``
    Run the simulation service (asyncio front-end over the sweep
    engine): JSON-lines TCP server, or an in-process demo workload that
    prints the service metrics.
``client --task NAME --config JSON``
    One-shot client for a running ``repro serve``.
``info``
    Package / paper summary.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro import __version__
from repro.experiments import get_experiment, list_experiments, run_experiment
from repro.machine.programs import list_programs
from repro.runner import default_cache_dir
from repro.topology.presets import PRESETS

_TITLES = {
    "e1": "Theorem 2  - OVERLAP slowdown O(d_ave log^3 n)",
    "e2": "Theorem 3  - work-efficient blocked variant",
    "e3": "Theorem 4  - sqrt(d) on uniform-delay hosts",
    "e4": "Theorem 5  - composed sqrt(d_ave) polylog",
    "e5": "Theorem 6  - general hosts + Sec.4 clique chain",
    "e6": "Theorems 7-8 - 2-D guests on linear hosts",
    "e7": "Theorem 9  - one-copy lower bound (H1)",
    "e8": "Theorem 10 - two-copy lower bound (H2)",
    "e9": "Section 1  - baselines vs OVERLAP crossover",
    "e10": "Lemmas 1-4 - killing/labelling invariants",
    "f1": "Figure 1   - pebble dependencies",
    "f2": "Figure 2   - interval tree and kill pattern",
    "f3": "Figure 3   - recursive box structure",
    "f4": "Figure 4   - trapezium phase accounting",
    "f5": "Figure 5   - H2 box census",
    "f6": "Figure 6   - zigzag dependency path",
    "a1": "Ablation   - host bandwidth (the log n assumption)",
    "a2": "Ablation   - the constant c of killing/labelling",
    "a3": "Ablation   - dataflow vs database redundancy",
    "a4": "Ablation   - multicast boundary streams",
    "r1": "Robustness - slowdown vs mid-run fault rate",
    "w1": "Tail latency - execution policy vs link-jitter intensity",
    "x1": "Section 7  - open questions: delay variance, rings",
    "x2": "Section 5  - Theorem 8 in D dimensions",
    "x3": "Calibration - measured constants of the bounds",
    "x4": "Planner    - block-factor recommendation vs measured",
    "x5": "Delta      - incremental re-simulation after one-knob edits",
}


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiment index (paper item -> `repro run <id>`):")
    for exp_id in list_experiments():
        print(f"  {exp_id:<4} {_TITLES.get(exp_id, '')}")
    return 0


def _sweep_kwargs(args: argparse.Namespace) -> dict:
    """SweepRunner knobs shared by ``run`` and ``all``."""
    return {
        "workers": args.workers,
        "cache_dir": None if args.no_cache else default_cache_dir(),
        "progress": args.progress,
        "profile": args.telemetry,
        "delta": not args.no_delta,
        "cache_limit": args.cache_limit,
    }


def _print_profile(result) -> None:
    """Print the sweep profile attached by ``--telemetry`` (if any)."""
    if result.profile:
        from repro.telemetry.profile import format_profile

        print()
        print(format_profile(result.profile))


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        get_experiment(args.id)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    result = run_experiment(
        args.id, quick=not args.full, engine=args.engine,
        policy=args.policy, **_sweep_kwargs(args)
    )
    result.print()
    _print_profile(result)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    out = pathlib.Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    sweep_kwargs = _sweep_kwargs(args)
    for exp_id in list_experiments():
        result = run_experiment(
            exp_id, quick=not args.full, engine=args.engine,
            policy=args.policy, **sweep_kwargs
        )
        result.print()
        _print_profile(result)
        if out:
            (out / f"{exp_id}.txt").write_text(result.render() + "\n")
            if args.json:
                (out / f"{exp_id}.json").write_text(result.to_json() + "\n")
    if out:
        print(f"\nwrote {len(list_experiments())} result files to {out}/")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.executor import SimulationDeadlock
    from repro.core.overlap import simulate_overlap
    from repro.machine.host import HostArray
    from repro.machine.programs import get_program
    from repro.netsim.faults import FaultPlan
    from repro.telemetry import MetricsTimeline, write_chrome_trace
    from repro.topology.presets import get_preset

    host = get_preset(args.preset)
    if not isinstance(host, HostArray):
        print(f"preset {args.preset!r} is a graph host; trace needs an array", file=sys.stderr)
        return 2
    faults = None
    min_copies = 1
    if args.faults is not None:
        try:
            faults = FaultPlan.random(
                host.n,
                seed=args.faults,
                horizon=max(8, args.steps * 4),
                node_crash_rate=args.fault_rate,
                drop_rate=args.fault_rate / 2,
            )
        except ValueError as exc:
            print(f"bad fault plan: {exc}", file=sys.stderr)
            return 2
        min_copies = 2
        print(f"fault plan (seed {args.faults}, rate {args.fault_rate}):")
        print(faults.describe())
        print()
    timeline = MetricsTimeline()
    try:
        result = simulate_overlap(
            host, get_program(args.program), args.steps, block=args.block,
            faults=faults, min_copies=min_copies, engine=args.engine,
            telemetry=timeline,
        )
    except SimulationDeadlock as exc:
        print(f"SIMULATION DEADLOCK: {exc}", file=sys.stderr)
        return 1
    print(f"host: {host.name}  d_ave={host.d_ave:.2f}  d_max={host.d_max}")
    print(f"guest: {result.m} columns, block beta={args.block}, {args.steps} steps")
    for k, v in timeline.run_summary().items():
        print(f"  {k}: {v}")
    if timeline.faults:
        print("\nfault/recovery marks:")
        for t, kind, detail in timeline.faults:
            print(f"  t={t:>6} {kind}: {detail}")
    print("\nspace-time diagram (x: host position, y: time):")
    print(timeline.spacetime_ascii(host.n, width=72, height=18))
    if args.telemetry:
        print("\ntelemetry summary (per-step counters):")
        for k, v in timeline.summary().items():
            print(f"  {k}: {v}")
        timeline.reconcile(result.exec_result.stats)
        print("\n" + timeline.ascii_timeline(width=72, height=12))
    if args.trace_out:
        doc = write_chrome_trace(
            args.trace_out,
            timeline=timeline,
            label=f"{args.preset} beta={args.block} T={args.steps}",
        )
        print(
            f"\nwrote {len(doc['traceEvents'])} trace events to "
            f"{args.trace_out} (open in chrome://tracing or "
            "https://ui.perfetto.dev)"
        )
    print(f"\nslowdown: {result.slowdown:.1f}")
    return 0


def _service_from_args(args: argparse.Namespace):
    """Build the (runner, service) pair behind ``repro serve``."""
    from repro.runner import SweepRunner
    from repro.service import SimulationService

    runner = SweepRunner(
        workers=args.workers,
        cache_dir=None if args.no_cache else default_cache_dir(),
        profile=True,
        delta=not args.no_delta,
        cache_limit=args.cache_limit,
    )
    return SimulationService(
        runner,
        lru_entries=args.lru,
        max_queue=args.max_queue,
        max_concurrency=args.concurrency,
        per_client=args.per_client,
    )


async def _serve_forever(service, host: str, port: int) -> None:
    from repro.service import TASKS, start_server

    server = await start_server(service, host=host, port=port)
    addr = server.sockets[0].getsockname()
    print(
        f"repro service listening on {addr[0]}:{addr[1]} "
        f"(tasks: {', '.join(sorted(TASKS))}; ctrl-c to stop)"
    )
    async with server:
        await server.serve_forever()


async def _serve_demo(service, clients: int, requests: int) -> None:
    """In-process demo workload: ``clients`` concurrent clients issuing
    ``requests`` each, cycling a small config set so duplicates hit the
    memory tier and concurrent duplicates coalesce."""
    import asyncio

    from repro.service import ServiceOverloaded

    async def one_client(ci: int) -> None:
        for ri in range(requests):
            config = {"n": 24, "steps": 6, "rep": ri % 3}
            try:
                await service.submit(
                    "overlap_point", config, client=f"demo-{ci}"
                )
            except ServiceOverloaded:
                pass  # counted in the metrics summary

    await asyncio.gather(*(one_client(i) for i in range(clients)))
    await service.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runner import shutdown_pool
    from repro.telemetry.service import format_service_metrics

    service = _service_from_args(args)
    try:
        if args.demo:
            asyncio.run(_serve_demo(service, args.clients, args.requests))
        else:
            asyncio.run(_serve_forever(service, args.host, args.port))
    except KeyboardInterrupt:
        pass
    finally:
        shutdown_pool()
    print(format_service_metrics(service.metrics))
    if service.runner.profile is not None and not args.demo:
        from repro.telemetry.profile import format_profile

        print(format_profile(service.runner.profile))
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service import request

    try:
        config = json.loads(args.config)
    except json.JSONDecodeError as exc:
        print(f"--config must be a JSON object: {exc}", file=sys.stderr)
        return 2
    payload = {
        "id": "cli",
        "task": args.task,
        "config": config,
        "stream": args.stream,
    }
    if args.client:
        payload["client"] = args.client
    try:
        events = asyncio.run(request(args.host, args.port, payload))
    except OSError as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    for event in events:
        print(json.dumps(event, sort_keys=True))
    return 0 if events and events[-1].get("event") == "done" else 1


def _cmd_info(_args: argparse.Namespace) -> int:
    print(
        f"repro {__version__} - reproduction of Andrews, Leighton, Metaxas "
        "& Zhang,\n'Improved Methods for Hiding Latency in High Bandwidth "
        "Networks' (SPAA 1996).\n\n"
        "Core: algorithm OVERLAP - automatic latency hiding for the\n"
        "database model via interval-tree killing/labelling and redundant\n"
        "overlapped database replicas, on a from-scratch discrete-event\n"
        "network simulator.  See DESIGN.md and EXPERIMENTS.md."
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for the SPAA'96 latency-hiding paper",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the experiment index").set_defaults(
        func=_cmd_list
    )

    def add_sweep_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for parameter sweeps (default 1; "
            "the result table is identical at any worker count)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help=f"disable the sweep result cache ({default_cache_dir()}/)",
        )
        p.add_argument(
            "--no-delta",
            action="store_true",
            help="disable checkpoint suffix-replay for near-miss cached "
            "configs (delta-driven sweeps); every miss recomputes fully",
        )
        p.add_argument(
            "--cache-limit",
            type=_positive_int,
            default=None,
            metavar="N",
            help="bound the sweep cache to N entries (oldest evicted "
            "first; default unbounded)",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="print per-config sweep progress/ETA to stderr",
        )
        p.add_argument(
            "--engine",
            choices=("auto", "dense", "greedy"),
            default="auto",
            help="execution tier: auto and dense run the dense fast "
            "path (default), greedy runs the event-driven reference "
            "engine; results are bit-identical either way",
        )
        p.add_argument(
            "--policy",
            choices=(
                "single", "racing", "stealing", "racing+stealing",
            ),
            default=None,
            help="execution policy for policy-aware experiments (w1): "
            "single-issue (default), redundant-issue racing, work "
            "stealing, or both; other experiments ignore it",
        )
        p.add_argument(
            "--telemetry",
            action="store_true",
            help="profile the sweeps (wall time per worker/chunk, cache "
            "hit vs recompute) and print the attribution after the "
            "tables; results are unchanged",
        )

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("id", help="experiment id (e1..e10, f1..f6)")
    p_run.add_argument(
        "--full", action="store_true", help="bigger sweeps (slower, sharper shapes)"
    )
    add_sweep_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--full", action="store_true")
    p_all.add_argument("--out", help="directory for per-experiment text files")
    p_all.add_argument(
        "--json", action="store_true", help="also write <id>.json next to each .txt"
    )
    add_sweep_flags(p_all)
    p_all.set_defaults(func=_cmd_all)

    p_trace = sub.add_parser(
        "trace", help="run OVERLAP on a preset host and draw the space-time diagram"
    )
    p_trace.add_argument(
        "--preset",
        default="dialup-outlier",
        choices=sorted(PRESETS),
        help="host preset (campus, wan, dialup-outlier, mixed-now)",
    )
    p_trace.add_argument(
        "--block", type=_positive_int, default=8, help="block factor beta"
    )
    p_trace.add_argument(
        "--steps", type=_positive_int, default=24, help="guest steps"
    )
    p_trace.add_argument(
        "--program", default="counter", choices=list_programs(),
        help="guest program",
    )
    p_trace.add_argument(
        "--faults",
        type=int,
        default=None,
        metavar="SEED",
        help="inject a random FaultPlan with this seed (enables min_copies=2)",
    )
    p_trace.add_argument(
        "--fault-rate",
        type=float,
        default=0.1,
        help="per-node crash rate of the random plan (with --faults)",
    )
    p_trace.add_argument(
        "--engine",
        choices=("auto", "dense", "greedy"),
        default="auto",
        help="execution tier: auto and dense run the dense fast path "
        "(default), greedy runs the event-driven reference engine; the "
        "output is identical on every tier",
    )
    p_trace.add_argument(
        "--telemetry",
        action="store_true",
        help="also print the run's per-step counter summary and an ASCII "
        "activity timeline",
    )
    p_trace.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the run as Chrome trace_event JSON (open in "
        "chrome://tracing or Perfetto)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_serve = sub.add_parser(
        "serve", help="run the simulation service (JSON-lines TCP, or --demo)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=7996, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--demo",
        action="store_true",
        help="skip the TCP server: run an in-process demo workload "
        "(--clients x --requests, with duplicates) and print the "
        "service metrics",
    )
    p_serve.add_argument(
        "--clients", type=int, default=4, help="demo: concurrent clients"
    )
    p_serve.add_argument(
        "--requests", type=int, default=6, help="demo: requests per client"
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes behind the service (default 1)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true", help="disable the JSON disk cache"
    )
    p_serve.add_argument(
        "--no-delta",
        action="store_true",
        help="disable checkpoint suffix-replay for near-miss configs",
    )
    p_serve.add_argument(
        "--cache-limit",
        type=_positive_int,
        default=None,
        metavar="N",
        help="bound the disk cache to N entries",
    )
    p_serve.add_argument(
        "--lru",
        type=_positive_int,
        default=512,
        metavar="N",
        help="in-memory LRU capacity (serialised results)",
    )
    p_serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=32,
        metavar="N",
        help="admission bound: requests admitted at once before shedding",
    )
    p_serve.add_argument(
        "--concurrency",
        type=_positive_int,
        default=4,
        metavar="N",
        help="admitted requests executing simultaneously",
    )
    p_serve.add_argument(
        "--per-client",
        type=_positive_int,
        default=8,
        metavar="N",
        help="admitted requests one client name may hold",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client", help="one-shot client for a running `repro serve`"
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7996)
    p_client.add_argument(
        "--task", default="overlap_point", help="registered task name"
    )
    p_client.add_argument(
        "--config", default="{}", help='task config as JSON, e.g. \'{"n": 64}\''
    )
    p_client.add_argument(
        "--client", default=None, help="client name for admission control"
    )
    p_client.add_argument(
        "--stream",
        action="store_true",
        help="print lifecycle events as they arrive, not just the result",
    )
    p_client.set_defaults(func=_cmd_client)

    sub.add_parser("info", help="package summary").set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
