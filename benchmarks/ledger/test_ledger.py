"""Tests of the layer-ledger benchmark.

Run by path (the tier-1 suite collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import subprocess
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import trace as ledger_trace  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _plain(x):
    return x + 1


class _Thing:
    def method(self, x):
        return _plain(x) * 2

    @classmethod
    def build(cls):
        return cls()

    async def events(self, n):
        for i in range(n):
            yield i


def test_tracer_wraps_aliases_and_restores_every_attribute():
    module = types.ModuleType("fake_layer")
    module.plain = _plain
    alias = types.ModuleType("fake_caller")
    alias.plain = _plain  # as ``from fake_layer import plain`` would bind it
    sys.modules.update(fake_layer=module, fake_caller=alias)
    before = (module.plain, alias.plain, _Thing.__dict__["method"], _Thing.__dict__["build"],
              _Thing.__dict__["events"])
    targets = [
        ledger_trace.Target(module, "plain", harvest=lambda r, a, k: {"out": r}),
        ledger_trace.Target(_Thing, "method"),
        ledger_trace.Target(_Thing, "build"),
        ledger_trace.Target(_Thing, "events", tag=lambda a, k: f"req{a[1]}"),
    ]

    async def drain():
        return [i async for i in _Thing().events(3)]

    try:
        with ledger_trace.Tracer(targets) as tracer:
            assert alias.plain is module.plain is not before[0]
            with tracer.root("op"):
                assert _Thing.build().method(1) == 4
                assert alias.plain(2) == 3
            assert asyncio.run(drain()) == [0, 1, 2]
    finally:
        del sys.modules["fake_layer"], sys.modules["fake_caller"]
    after = (module.plain, alias.plain, _Thing.__dict__["method"], _Thing.__dict__["build"],
             _Thing.__dict__["events"])
    assert all(a is b for a, b in zip(before, after))

    plain, method, build, events = (t.name for t in targets)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    # ``method`` calls this module's own ``_plain`` binding, which is an
    # alias too, so ``plain`` runs twice: under ``method`` and under op.
    (op,) = by_name["op"]
    (method_span,) = by_name[method]
    assert sorted(s.parent for s in by_name[plain]) == sorted([op.id, method_span.id])
    assert method_span.parent == by_name[build][0].parent == op.id
    assert tracer.counts()[plain] == {"out": 5}
    (events_span,) = by_name[events]
    assert events_span.rid == "req3" and events_span.parent is None
    self_ns = tracer.self_times()
    children = sum(s.duration for s in tracer.spans if s.parent == op.id)
    assert self_ns["op"] == op.duration - children
    chrome = tracer.chrome_events()
    assert len(chrome) == len(tracer.spans) and all(e["ph"] == "X" for e in chrome)


def test_corrupted_result_trips_the_identity_check(monkeypatch, tmp_path):
    """Observation must not change a result: a tracer hook that alters
    one executor result makes the traced outputs differ."""
    from repro.core import dense

    def corrupt(result, args, kwargs):
        result.stats.makespan += 1
        return {}

    original = dense.DenseExecutor.run
    monkeypatch.setattr(
        run, "layer_targets", lambda: [ledger_trace.Target(dense.DenseExecutor, "run", corrupt)]
    )
    inputs = workloads.generate("line-verified", 0)
    record = run.measure("line-verified", inputs, tmp_path, 0.0, True, None)
    assert dense.DenseExecutor.run is original
    assert record["checks"]["traced outputs identical to untraced"] is False
    assert run._report("line-verified", record, run.PER_LAYER)["correct"] is False


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_the_benchmark_metrics(trace, tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--out", str(out), "--trace-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results = json.loads(out.read_text())["workloads"]
    assert sorted(results) == sorted(w["name"] for w in BENCHMARK["workloads"])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {m: v["unit"] for m, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in declared}, name
        if trace:
            assert (tmp_path / f"{name}-trace.json").is_file()
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_benchmark_json_matches_the_runner():
    assert BENCHMARK["command"][-1] == "benchmarks/ledger/run.py"
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [t.name for t in run.layer_targets()] == [*run.LAYER_CALLABLES, *run.GLUE]


def test_compare_flags_regressions_and_unresolved_spreads():
    lower = {"bound": 0.1, "better": "lower"}
    assert compare.verdict([10, 10, 10, 10], [10.5] * 4, lower)[0] == "ok"
    assert compare.verdict([10, 10, 10, 10], [12] * 4, lower)[0] == "REGRESSED"
    assert compare.verdict([8, 10, 12, 14], [12] * 4, lower)[0] == "unresolved"
    assert compare.verdict([8, 10, 12, 14], [7] * 4, lower)[0] == "better"
    higher = {"bound": 0.1, "better": "higher"}
    assert compare.verdict([10] * 4, [8] * 4, higher)[0] == "REGRESSED"
    assert compare.verdict([10] * 4, None, higher)[0] == "ok"
    assert compare.verdict([10] * 4, None, None)[0] == "-"
