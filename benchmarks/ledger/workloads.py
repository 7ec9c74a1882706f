"""The ledger's four workloads: seeded inputs, set-up, operations, checks.

Inputs are generated here, from the benchmark seed, with the standard
library's :class:`random.Random`, and handed to the program as plain
data (link delays, fault-plan specs, configs), so they do not change
when the program's own generators do.  Two generation steps call the
program on purpose: faulted-line plans are screened by running them
once, so that a plan under which the model deadlocks (every replica of
a column lost) never becomes an input, and the sweep's late-fault
times are placed from a fault-free makespan.

Every workload is single-process: ``SweepRunner(workers=1)`` and at
most two client connections.  An *operation* is one call into a public
entry point: a ``simulate_*`` call, a service request, or a
``SweepRunner.map`` call.  :meth:`Workload.run` runs operations in a
closed loop, either until a deadline or for a fixed per-lane quota; the
traced pass replays the untraced pass's quota, so both see the same
inputs and must return the same outputs.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

LINE_N, LINE_STEPS, LINE_BLOCK, LINE_HOSTS = 192, 24, 2, 32
FAULT_VARIANTS, FAULT_STEPS = 8, 24
FAULT_RATES = {"crash": 0.02, "outage": 0.04, "jitter": 0.06, "drop": 0.06}
RACING_N, RACING_JITTER = 96, 0.2
MESH_ROWS = MESH_COLS = 10
SERVICE_LANES, SERVICE_LRU, SERVICE_CONCURRENCY = 2, 128, 2
SERVICE_P_NEW, SERVICE_MEAN_AGE, SERVICE_STEPS = 0.05, 64, 24
SERVICE_TASKS = (("overlap_point", 0.75), ("ring_point", 0.25))
SERVICE_NS, SERVICE_DELAYS = (32, 64, 96), (1, 2, 4)
SERVICE_FILL = 2000  # requests per lane before timing, to fill both cache tiers
SERVICE_HIT_SAMPLE = 4  # hits per lane re-computed without a cache
SWEEP_NS, SWEEP_STEPS, SWEEP_EDITS = (96, 128, 160), 48, 6
SWEEP_TEMPLATES, SWEEP_CACHE_LIMIT = 8, 64


@dataclass(slots=True)
class Op:
    """One operation as the caller saw it."""

    latency: float  # host seconds
    ok: bool
    kind: str
    pebbles: int = 0  # simulated pebbles in the returned result
    input_id: str | None = None  # identity of the simulated input
    slowdown: float | None = None  # simulated host steps per guest step
    done: float = 0.0  # perf_counter() at completion (service lanes only)


# -- seeded inputs -------------------------------------------------------------
def line_delays(rng: random.Random, n: int) -> list[int]:
    """``n - 1`` link delays uniform in ``[1, 8]``, rescaled to mean 8
    (the host class of ``benchmarks/bench_dense.py``)."""
    raw = [rng.randint(1, 8) for _ in range(n - 1)]
    ratio = 8 * len(raw) / sum(raw)
    return [max(1, round(d * ratio)) for d in raw]


def _poisson(rng: random.Random, lam: float) -> int:
    limit, k, p = math.exp(-lam), 0, rng.random()
    while p > limit:
        p *= rng.random()
        k += 1
    return k


def fault_spec(
    rng: random.Random,
    n: int,
    horizon: int,
    crash: float = 0.0,
    outage: float = 0.0,
    jitter: float = 0.0,
    drop: float = 0.0,
) -> dict:
    """A plan in ``FaultPlan.to_spec`` form with ``round(rate * n)``
    faults of each kind, on distinct random nodes or links, at random
    times in ``[0, horizon)``; outages and jitter spikes last
    ``1 + Poisson(16)`` steps and spikes add 1-8 steps, as in
    ``FaultPlan.random``.  Fixed counts (where ``FaultPlan.random`` draws
    one Bernoulli per node) keep the cost of a plan from varying with the
    seed more than its placement makes it."""
    events = []

    def event(kind, t, target, duration=None, extra=0, direction=None):
        events.append({"kind": kind, "time": t, "target": target,
                       "duration": duration, "extra": extra, "direction": direction})

    def targets(rate, count):
        return sorted(rng.sample(range(count), round(rate * count)))

    for p in targets(crash, n):
        event("node_crash", rng.randrange(horizon), p)
    for j in targets(outage, n - 1):
        event("link_down", rng.randrange(horizon), j, 1 + _poisson(rng, 16))
    for j in targets(jitter, n - 1):
        t = rng.randrange(horizon)
        event("link_jitter", t, j, 1 + _poisson(rng, 16), 1 + rng.randrange(8))
    for j in targets(drop, n - 1):
        event("msg_drop", rng.randrange(horizon), j, direction=rng.choice((1, -1)))
    events.sort(key=lambda e: e["time"])
    return {"events": events, "seed": None, "horizon": horizon}


def _deadlocks(delays: list[int], spec: dict) -> bool:
    from repro.core import overlap
    from repro.core.executor import SimulationDeadlock
    from repro.machine.host import HostArray
    from repro.netsim.faults import FaultPlan

    try:
        overlap.simulate_overlap(
            HostArray(delays), steps=FAULT_STEPS, block=LINE_BLOCK, min_copies=2,
            faults=FaultPlan.from_spec(spec), verify=False,
        )
    except SimulationDeadlock:
        return True
    return False


def _late_jitter_base(rng: random.Random, n: int, makespan: int) -> dict:
    """A base config in the style of ``bench_delta.bench_base``: three
    short jitter spikes near 90% of the fault-free makespan, so that a
    one-knob edit invalidates only a short suffix of the run."""
    mid = n // 2
    links = rng.sample(range(mid - 4, mid + 5), 3)
    events = sorted(
        (
            {"kind": "link_jitter", "time": int(makespan * frac) + rng.randrange(3),
             "target": link, "duration": 2, "extra": rng.randint(1, 2), "direction": None}
            for link, frac in zip(links, (0.88, 0.90, 0.92))
        ),
        key=lambda e: e["time"],
    )
    return {
        "n": n,
        "steps": SWEEP_STEPS,
        "faults": {"events": events, "seed": None, "horizon": max(4 * makespan, 64)},
        "policy": {"retry_factor": 4.0, "max_retries": 32, "restart_penalty": 8,
                   "watchdog_factor": 8.0},
        "verify": False,
    }


def generate(name: str, seed: int) -> dict:
    """The inputs of workload ``name`` for ``seed``, as plain JSON data."""
    rng = random.Random(seed)
    if name == "line-verified":
        return {"hosts": [line_delays(rng, LINE_N) for _ in range(LINE_HOSTS)]}
    if name == "faults-policies":
        horizon = FAULT_STEPS * 24
        mesh_links = 2 * MESH_ROWS * MESH_COLS - MESH_ROWS - MESH_COLS
        variants = []
        while len(variants) < FAULT_VARIANTS:
            line, plan = line_delays(rng, LINE_N), fault_spec(rng, LINE_N, horizon, **FAULT_RATES)
            if _deadlocks(line, plan):
                continue
            variants.append({
                "line": line,
                "plan": plan,
                "racing_line": line_delays(rng, RACING_N),
                "racing_plan": fault_spec(rng, RACING_N, horizon, jitter=RACING_JITTER),
                "ring": line_delays(rng, LINE_N),
                "mesh": [rng.randint(1, 6) for _ in range(mesh_links)],
                "composed": line_delays(rng, LINE_N),
            })
        return {"variants": variants}
    if name == "service-mixed":
        return {"lane_seeds": [rng.randrange(2**32) for _ in range(SERVICE_LANES)]}
    if name == "sweep-edits":
        from repro.core import overlap
        from repro.machine.host import HostArray

        makespans = {
            n: overlap.simulate_overlap(
                HostArray.uniform(n), steps=SWEEP_STEPS, min_copies=2, verify=False
            ).exec_result.stats.makespan
            for n in SWEEP_NS
        }
        ns = [SWEEP_NS[t % len(SWEEP_NS)] for t in range(SWEEP_TEMPLATES)]
        return {"bases": [_late_jitter_base(rng, n, makespans[n]) for n in ns]}
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


# -- workloads -----------------------------------------------------------------
def _digest(value_digests: dict) -> str:
    blob = json.dumps(sorted((list(k), v) for k, v in value_digests.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _no_span(name, rid=None):
    return nullcontext()


class Workload:
    """A closed loop of operations over ``lanes`` client lanes."""

    name = ""
    lanes = 1
    #: operations in one pass over every input; a run is whole passes
    cycle = 1

    def __init__(self, inputs: dict, workdir) -> None:
        self.inputs = inputs
        self.workdir = workdir
        #: sha256 over every operation's output, per lane
        self.hashes = [hashlib.sha256() for _ in range(self.lanes)]

    def start(self) -> None:
        """Construct the program objects the operations use."""

    def warm_up(self) -> None:
        """One operation of each kind the workload issues."""

    def fill(self) -> None:
        """Bring the program's caches to their steady state before the
        timed loop (not part of set-up: users do not pay it per run)."""

    def op(self, i: int) -> tuple[Op, str]:
        """Run operation ``i``; return its record and canonical output."""
        raise NotImplementedError

    def run(self, deadline=None, quota=None, root=_no_span) -> list[list[Op]]:
        """Whole passes until ``deadline``, or exactly ``quota[0]``
        operations; ``root`` opens a span around each."""
        ops: list[Op] = []
        clock = time.perf_counter
        while True:
            i = len(ops)
            if quota is not None:
                if i >= quota[0]:
                    break
            elif i and i % self.cycle == 0 and clock() >= deadline:
                break
            with root("op", rid=i):
                rec, output = self.op(i)
            self.hashes[0].update(output.encode() + b"\n")
            ops.append(rec)
        return [ops]

    def ops_per_s(self, lanes: list[list[Op]], wall: float) -> float:
        """Operations per host second, from each input's median latency
        (every input is visited once per pass, so a pass takes the sum
        of those medians); robust to bursts of load from other
        processes."""
        by_input: dict[str, list[float]] = {}
        for op in lanes[0]:
            by_input.setdefault(op.input_id, []).append(op.latency)
        return len(by_input) / sum(statistics.median(v) for v in by_input.values())

    def checks(self, lanes: list[list[Op]]) -> dict[str, bool]:
        """Correctness checks beyond each operation's own."""
        return {}

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counts read from public program state."""
        return {}

    def close(self) -> None:
        pass


def _timed(fn):
    t0 = time.perf_counter()
    res = fn()
    return res, time.perf_counter() - t0


def _sim_op(kind: str, input_id: str, call) -> tuple[Op, str]:
    res, dt = _timed(call)
    stats = res.exec_result.stats
    rec = Op(dt, res.verified, kind, stats.pebbles, input_id, stats.makespan / res.steps)
    output = json.dumps(
        [input_id, stats.makespan, stats.pebbles, res.verified, _digest(res.exec_result.value_digests)]
    )
    return rec, output


class LineVerified(Workload):
    """The canonical verified OVERLAP run, on random-delay lines."""

    name = "line-verified"
    cycle = LINE_HOSTS

    def start(self) -> None:
        from repro.core import overlap
        from repro.machine.host import HostArray

        # The module, not the function: a tracer re-binds the attribute.
        self.overlap = overlap
        self.hosts = [HostArray(d) for d in self.inputs["hosts"]]

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int):
        k = i % len(self.hosts)
        return _sim_op("line", f"host{k}", lambda: self.overlap.simulate_overlap(
            self.hosts[k], steps=LINE_STEPS, block=LINE_BLOCK, verify=True))


class FaultsPolicies(Workload):
    """Five front-end calls per cycle: the segmented-fault and greedy
    (racing) tiers and the non-line guests and hosts."""

    name = "faults-policies"
    kinds = ("faulted", "racing", "ring", "mesh", "composed")
    cycle = len(kinds) * FAULT_VARIANTS

    def start(self) -> None:
        from repro.core import composed, overlap, ring
        from repro.machine.host import HostArray
        from repro.netsim.faults import FaultPlan
        from repro.topology.generators import mesh_host

        def calls(v):
            line, plan = HostArray(v["line"]), FaultPlan.from_spec(v["plan"])
            racing, racing_plan = HostArray(v["racing_line"]), FaultPlan.from_spec(v["racing_plan"])
            ring_host, comp = HostArray(v["ring"]), HostArray(v["composed"])
            mesh = mesh_host(MESH_ROWS, MESH_COLS, v["mesh"])
            return (
                lambda: overlap.simulate_overlap(
                    line, steps=FAULT_STEPS, block=LINE_BLOCK, min_copies=2, faults=plan, verify=True),
                lambda: overlap.simulate_overlap(
                    racing, steps=FAULT_STEPS, min_copies=2, faults=racing_plan,
                    policy="racing", verify=True),
                lambda: ring.simulate_ring(ring_host, steps=FAULT_STEPS, verify=True),
                lambda: overlap.simulate_overlap_on_graph(mesh, steps=FAULT_STEPS, verify=True),
                lambda: composed.simulate_composed(comp, steps=FAULT_STEPS, verify=True),
            )

        self.calls = [calls(v) for v in self.inputs["variants"]]

    def warm_up(self) -> None:
        for j in range(len(self.kinds)):
            self.op(j)

    def op(self, i: int):
        rnd, j = divmod(i, len(self.kinds))
        v = rnd % len(self.calls)
        return _sim_op(self.kinds[j], f"{self.kinds[j]}{v}", self.calls[v][j])


class _RequestStream:
    """One lane's seeded request sequence: a new key with probability
    ``SERVICE_P_NEW``, else a re-request of an earlier key whose age (in
    keys) is exponential with mean ``SERVICE_MEAN_AGE`` (redrawn until it
    names an existing key), so recent keys dominate but the working set
    outgrows the LRU."""

    def __init__(self, seed: int, lane: int) -> None:
        self.rng = random.Random(seed)
        self.lane = lane
        self.keys: list[tuple[str, dict]] = []

    def next(self) -> tuple[str, dict, bool]:
        rng = self.rng
        if not self.keys or rng.random() < SERVICE_P_NEW:
            task = rng.choices([t for t, _ in SERVICE_TASKS], [w for _, w in SERVICE_TASKS])[0]
            config = {"n": rng.choice(SERVICE_NS), "delay": rng.choice(SERVICE_DELAYS),
                      "steps": SERVICE_STEPS, "rep": f"{self.lane}-{len(self.keys)}"}
            self.keys.append((task, config))
            return task, config, True
        age = len(self.keys)
        while age >= len(self.keys):
            age = int(rng.expovariate(1 / SERVICE_MEAN_AGE))
        task, config = self.keys[-1 - age]
        return task, config, False


class ServiceMixed(Workload):
    """Two closed-loop TCP clients of an in-process service: mostly
    cache hits split between the LRU and the disk tier, 5% misses."""

    name = "service-mixed"
    lanes = SERVICE_LANES

    def start(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())
        seeds = self.inputs["lane_seeds"]
        self.streams = [_RequestStream(seed, lane) for lane, seed in enumerate(seeds)]
        self.samples: list[list] = [[] for _ in seeds]
        self._sample_rngs = [random.Random(seed + 1) for seed in seeds]
        self._hits_seen = [0] * self.lanes

    async def _start(self) -> None:
        from repro.runner import SweepRunner
        from repro.service import SimulationService, net

        runner = SweepRunner(workers=1, cache_dir=str(self.workdir / "service"))
        self.service = SimulationService(
            runner, lru_entries=SERVICE_LRU, max_concurrency=SERVICE_CONCURRENCY
        )
        self.server = await net.start_server(self.service)
        port = self.server.sockets[0].getsockname()[1]
        self.conns = [await asyncio.open_connection("127.0.0.1", port) for _ in range(self.lanes)]

    async def _request(self, lane: int, task: str, config: dict) -> tuple[dict, bytes]:
        reader, writer = self.conns[lane]
        writer.write(json.dumps({"task": task, "config": config}).encode() + b"\n")
        await writer.drain()
        raw = await reader.readline()
        return json.loads(raw), raw

    def warm_up(self) -> None:
        for task, _ in SERVICE_TASKS:
            config = {"n": SERVICE_NS[0], "delay": 1, "steps": SERVICE_STEPS, "rep": "warm-up"}
            self.loop.run_until_complete(self._request(0, task, config))

    def fill(self) -> None:
        self.run(quota=[SERVICE_FILL] * self.lanes)
        self.hashes = [hashlib.sha256() for _ in range(self.lanes)]

    def run(self, deadline=None, quota=None, root=_no_span):
        async def both():
            return await asyncio.gather(
                *(self._lane(i, deadline, quota, root) for i in range(self.lanes))
            )

        return list(self.loop.run_until_complete(both()))

    async def _lane(self, lane: int, deadline, quota, root) -> list[Op]:
        client = "%s:%d" % self.conns[lane][1].get_extra_info("sockname")[:2]
        stream, ops = self.streams[lane], []
        clock = time.perf_counter
        while (len(ops) < quota[lane]) if quota is not None else (not ops or clock() < deadline):
            task, config, new = stream.next()
            with root("op", rid=f"{client}#{len(ops)}"):
                t0 = clock()
                event, raw = await self._request(lane, task, config)
                done = clock()
            self.hashes[lane].update(raw)
            result = event.get("result")
            ok = event.get("event") == "done" and isinstance(result, dict)
            rec = Op(done - t0, ok, "miss" if new else "hit", done=done)
            if ok:
                rec.pebbles = result["pebbles"]
                rec.input_id = f"{task}:{config['n']}:{config['delay']}"
                rec.slowdown = result["makespan"] / result["steps"]
                if not new:
                    self._sample_hit(lane, task, config, result)
            ops.append(rec)
        return ops

    def ops_per_s(self, lanes, wall):
        """Median over whole one-second windows of the requests
        completed in each; robust to bursts of load from other
        processes."""
        ops = [op for lane in lanes for op in lane]
        start = min(op.done - op.latency for op in ops)
        counts = [0] * int(max(op.done for op in ops) - start)
        for op in ops:
            k = int(op.done - start)
            if k < len(counts):
                counts[k] += 1
        return statistics.median(counts) if len(counts) >= 3 else len(ops) / wall

    def _sample_hit(self, lane: int, task: str, config: dict, result: dict) -> None:
        """Reservoir-sample hits for the post-run byte-identity check."""
        sample = self.samples[lane]
        self._hits_seen[lane] += 1
        item = (task, config, json.dumps(result, sort_keys=True))
        if len(sample) < SERVICE_HIT_SAMPLE:
            sample.append(item)
        else:
            k = self._sample_rngs[lane].randrange(self._hits_seen[lane])
            if k < SERVICE_HIT_SAMPLE:
                sample[k] = item

    def checks(self, lanes):
        from repro.runner import SweepRunner
        from repro.service.tasks import get_task

        fresh = SweepRunner(workers=1)
        same = all(
            json.dumps(fresh.map(get_task(task), [config])[0], sort_keys=True) == served
            for sample in self.samples
            for task, config, served in sample
        )
        return {"sampled hits byte-identical to an uncached compute": same}

    def layer_counts(self) -> dict[str, float]:
        m = self.service.metrics
        done = max(1, m.completed)
        return {
            "served_memory_frac": m.served["memory"] / done,
            "served_disk_frac": m.served["cache"] / done,
            "served_compute_frac": m.served["compute"] / done,
            "queue_depth_peak": m.queue_depth_peak,
        }

    def close(self) -> None:
        from repro.runner import shutdown_pool

        async def stop():
            for _, writer in self.conns:
                writer.close()
                await writer.wait_closed()
            self.server.close()
            await self.server.wait_closed()
            await self.service.close()

        try:
            self.loop.run_until_complete(stop())
        finally:
            self.loop.close()
            shutdown_pool()


class SweepEdits(Workload):
    """Rounds of: sweep a new faulted base, sweep six one-knob edits
    (served by delta suffix replay), re-sweep all seven (disk hits)."""

    name = "sweep-edits"
    cycle = 3 * SWEEP_TEMPLATES

    def start(self) -> None:
        from repro.experiments import x5
        from repro.runner import SweepRunner

        self.task = x5._edit_point
        self.runner = SweepRunner(
            workers=1, cache_dir=str(self.workdir / "sweep"), cache_limit=SWEEP_CACHE_LIMIT
        )
        self.pending: list = []
        self.first_round: list = []

    def round_configs(self, template: int, rep) -> list[dict]:
        """The base config and its edits, each moving the latest fault
        event ``k`` steps later; ``rep`` makes every round's keys new."""
        base = dict(self.inputs["bases"][template], rep=rep)
        configs = [base]
        for k in range(1, SWEEP_EDITS + 1):
            cfg = json.loads(json.dumps(base))
            max(cfg["faults"]["events"], key=lambda e: e["time"])["time"] += k
            configs.append(cfg)
        return configs

    def warm_up(self) -> None:
        configs = self.round_configs(0, "warm-up")
        for batch in (configs[:1], configs[1:], configs):
            self.runner.map(self.task, batch)

    def op(self, i: int):
        r, phase = divmod(i, 3)
        template = r % SWEEP_TEMPLATES
        configs = self.round_configs(template, r)
        batch = (configs[:1], configs[1:], configs)[phase]
        rows, dt = _timed(lambda: self.runner.map(self.task, batch))
        kind = ("base", "edits", "resweep")[phase]
        rec = Op(dt, True, kind, input_id=f"{kind}{template}")
        if phase < 2:
            self.pending += rows
            if r == 0:
                self.first_round += rows
            if phase == 0:
                rec.slowdown = rows[0]["makespan"] / rows[0]["steps"]
        else:
            # Every re-swept config is a disk hit and must return the
            # rows the compute and delta passes returned.
            rec.ok = rows == self.pending
            self.pending = []
        return rec, json.dumps(rows, sort_keys=True)

    def checks(self, lanes):
        from repro.runner import SweepRunner

        fresh = SweepRunner(workers=1, delta=False).map(self.task, self.round_configs(0, 0))
        return {"first round equals a delta=False recompute": self.first_round == fresh}


WORKLOADS = {cls.name: cls for cls in (LineVerified, FaultsPolicies, ServiceMixed, SweepEdits)}
