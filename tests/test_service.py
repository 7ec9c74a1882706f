"""Service-layer tests: lifecycle, coalescing, backpressure, caching.

The service's contract is behavioural, so these tests drive real
asyncio schedules (``asyncio.run`` inside sync tests — the suite has no
asyncio plugin) against small in-process tasks:

* duplicate submissions resolve to **one** execution, byte-identical
  results everywhere (including vs an independent fresh service);
* client cancellation mid-run — of the sole waiter, and of the leader
  while a coalesced follower remains — never corrupts accounting;
* admission control sheds with typed reasons instead of queueing;
* the in-memory LRU stays consistent with the JSON disk cache (an
  evicted entry re-serves from disk with the same bytes);
* ``SweepRunner.submit`` reports the correct origin per serving tier,
  and :class:`ServiceMetrics` reconciles with the runner profile.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import time

import pytest

from repro.experiments.x5 import base_config, edit_grid, _edit_point
from repro.runner import SweepRunner, shutdown_pool
from repro.service import (
    LRUCache,
    ServiceOverloaded,
    SimulationService,
    get_task,
    request,
    start_server,
)

# ---------------------------------------------------------------------------
# tasks (module-level: the runner tags them by qualified name)

_CALLS = {"n": 0}


def _counting_task(cfg: dict) -> dict:
    """Counts real executions; sleeps long enough for duplicates to
    pile up behind the leader (workers=1 runs tasks on threads, and
    ``time.sleep`` releases the GIL)."""
    _CALLS["n"] += 1
    time.sleep(cfg.get("sleep", 0.05))
    return {"x": cfg["x"], "value": cfg["x"] * 2}


def _slow_task(cfg: dict) -> dict:
    time.sleep(cfg.get("sleep", 0.2))
    return {"x": cfg["x"]}


def _quick_task(cfg: dict) -> dict:
    return {"x": cfg["x"], "value": cfg["x"] + 1}


def _service(tmp_path, cache=True, **kw) -> SimulationService:
    runner = SweepRunner(
        cache_dir=tmp_path / "cache" if cache else None, profile=True
    )
    return SimulationService(runner, **kw)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


@pytest.fixture(autouse=True)
def _reset_calls():
    _CALLS["n"] = 0
    yield


# ---------------------------------------------------------------------------
# LRU unit behaviour


def test_lru_eviction_order_and_counters():
    lru = LRUCache(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # freshens a
    lru.put("c", 3)  # evicts b (LRU)
    assert lru.get("b") is None
    assert lru.get("a") == 1 and lru.get("c") == 3
    assert lru.stats() == {
        "entries": 2,
        "capacity": 2,
        "hits": 3,
        "misses": 1,
        "evictions": 1,
    }


def test_lru_rejects_zero_capacity():
    with pytest.raises(ValueError):
        LRUCache(0)


@pytest.mark.parametrize(
    "knob, value",
    [("max_concurrency", 0), ("max_concurrency", -1), ("max_queue", 0),
     ("per_client", 0)],
)
def test_service_rejects_limits_below_one(knob, value):
    with pytest.raises(ValueError, match=f"{knob} must be >= 1"):
        SimulationService(**{knob: value})


def test_lru_put_refresh_does_not_grow():
    lru = LRUCache(2)
    lru.put("a", 1)
    lru.put("a", 2)
    lru.put("b", 3)
    assert len(lru) == 2 and lru.get("a") == 2


# ---------------------------------------------------------------------------
# serving tiers and consistency


def test_compute_then_memory_hit(tmp_path):
    async def main():
        svc = _service(tmp_path)
        first = await svc.submit(_quick_task, {"x": 3})
        events = []
        second = await svc.submit(_quick_task, {"x": 3}, on_event=events.append)
        assert first == second == {"x": 3, "value": 4}
        assert _dump(first) == _dump(second)
        assert svc.metrics.served["compute"] == 1
        assert svc.metrics.served["memory"] == 1
        assert [e["event"] for e in events] == ["accepted", "cache_hit"]
        assert events[1]["tier"] == "memory"

    asyncio.run(main())


def test_lru_eviction_falls_back_to_disk_identically(tmp_path):
    """An entry evicted from the memory tier re-serves from the JSON
    disk cache with the same bytes (two-tier consistency)."""

    async def main():
        svc = _service(tmp_path, lru_entries=1)
        first = await svc.submit(_quick_task, {"x": 1})
        await svc.submit(_quick_task, {"x": 2})  # evicts x=1 from the LRU
        again = await svc.submit(_quick_task, {"x": 1})
        assert _dump(again) == _dump(first)
        assert svc.metrics.served["cache"] == 1  # disk tier, not memory
        assert svc.metrics.exec_cache == 1
        # and now it is back in memory
        final = await svc.submit(_quick_task, {"x": 1})
        assert _dump(final) == _dump(first)
        assert svc.metrics.served["memory"] == 1

    asyncio.run(main())


def test_memory_hit_is_immune_to_client_mutation(tmp_path):
    async def main():
        svc = _service(tmp_path, cache=False)
        first = await svc.submit(_quick_task, {"x": 5})
        first["value"] = "corrupted"
        second = await svc.submit(_quick_task, {"x": 5})
        assert second == {"x": 5, "value": 6}

    asyncio.run(main())


def test_duplicate_submissions_one_execution(tmp_path):
    async def main():
        svc = _service(tmp_path)
        results = await asyncio.gather(
            *(svc.submit(_counting_task, {"x": 7}) for _ in range(6))
        )
        blobs = {_dump(r) for r in results}
        assert len(blobs) == 1
        assert _CALLS["n"] == 1
        assert svc.metrics.served["compute"] == 1
        assert svc.metrics.served["coalesced"] == 5
        assert svc.metrics.exec_compute == 1

    asyncio.run(main())


def test_coalesced_and_independent_results_byte_identical(tmp_path):
    """A coalesced response must be indistinguishable from one computed
    independently on a fresh service (the bench gate's identity check)."""

    async def main():
        svc_a = _service(tmp_path / "a")
        coalesced = await asyncio.gather(
            *(svc_a.submit(_counting_task, {"x": 9}) for _ in range(4))
        )
        svc_b = _service(tmp_path / "b")
        independent = await svc_b.submit(_counting_task, {"x": 9})
        assert {_dump(r) for r in coalesced} == {_dump(independent)}
        assert _CALLS["n"] == 2  # one per service, not one per request

    asyncio.run(main())


# ---------------------------------------------------------------------------
# admission control / backpressure


def test_queue_full_sheds_with_reason(tmp_path):
    async def main():
        svc = _service(tmp_path, cache=False, max_queue=1)
        leader = asyncio.ensure_future(svc.submit(_slow_task, {"x": 1}))
        await asyncio.sleep(0)  # leader admits synchronously on first run
        with pytest.raises(ServiceOverloaded) as exc:
            await svc.submit(_slow_task, {"x": 2})
        assert exc.value.reason == "queue_full"
        assert svc.metrics.shed["queue_full"] == 1
        assert await leader == {"x": 1}
        # capacity freed: the same request is admitted now
        assert await svc.submit(_slow_task, {"x": 2, "sleep": 0.01}) == {"x": 2}

    asyncio.run(main())


def test_per_client_limit_sheds_but_other_clients_pass(tmp_path):
    async def main():
        svc = _service(tmp_path, cache=False, per_client=1)
        leader = asyncio.ensure_future(
            svc.submit(_slow_task, {"x": 1}, client="alice")
        )
        await asyncio.sleep(0)
        with pytest.raises(ServiceOverloaded) as exc:
            await svc.submit(_slow_task, {"x": 2}, client="alice")
        assert exc.value.reason == "client_limit"
        # a different client name is not blocked by alice's quota
        assert await svc.submit(
            _slow_task, {"x": 3, "sleep": 0.01}, client="bob"
        ) == {"x": 3}
        await leader

    asyncio.run(main())


def test_duplicates_coalesce_instead_of_shedding(tmp_path):
    """Admission counts executions, not requests: a duplicate joins the
    in-flight run even when the queue is otherwise full."""

    async def main():
        svc = _service(tmp_path, cache=False, max_queue=1)
        results = await asyncio.gather(
            *(svc.submit(_counting_task, {"x": 4}) for _ in range(5))
        )
        assert len({_dump(r) for r in results}) == 1
        assert _CALLS["n"] == 1
        assert sum(svc.metrics.shed.values()) == 0

    asyncio.run(main())


# ---------------------------------------------------------------------------
# cancellation


def test_sole_waiter_cancellation_abandons_execution(tmp_path):
    async def main():
        svc = _service(tmp_path, cache=False)
        t = asyncio.ensure_future(svc.submit(_slow_task, {"x": 1, "sleep": 0.3}))
        await asyncio.sleep(0.05)  # execution underway
        t.cancel()
        with pytest.raises(asyncio.CancelledError):
            await t
        for _ in range(100):  # cleanup settles via the execution task
            if not svc._inflight and svc._admitted == 0:
                break
            await asyncio.sleep(0.01)
        assert svc.metrics.cancelled == 1
        assert svc.metrics.exec_abandoned == 1
        assert svc.metrics.exec_compute == 0
        # the service still serves fresh requests afterwards
        assert await svc.submit(_slow_task, {"x": 2, "sleep": 0.01}) == {"x": 2}

    asyncio.run(main())


def test_leader_cancellation_keeps_follower_alive(tmp_path):
    async def main():
        svc = _service(tmp_path, cache=False)
        leader = asyncio.ensure_future(
            svc.submit(_counting_task, {"x": 2, "sleep": 0.2})
        )
        await asyncio.sleep(0)  # leader dispatches
        follower = asyncio.ensure_future(
            svc.submit(_counting_task, {"x": 2, "sleep": 0.2})
        )
        await asyncio.sleep(0.05)
        leader.cancel()
        with pytest.raises(asyncio.CancelledError):
            await leader
        assert await follower == {"x": 2, "value": 4}
        assert _CALLS["n"] == 1
        assert svc.metrics.cancelled == 1
        assert svc.metrics.served["coalesced"] == 1
        assert svc.metrics.exec_abandoned == 0  # execution was never orphaned

    asyncio.run(main())


# ---------------------------------------------------------------------------
# streaming


def test_stream_event_order_compute_and_memory(tmp_path):
    async def main():
        svc = _service(tmp_path)
        cold = [e async for e in svc.stream(_quick_task, {"x": 1})]
        assert [e["event"] for e in cold] == [
            "accepted",
            "queued",
            "started",
            "done",
        ]
        assert cold[-1]["result"] == {"x": 1, "value": 2}
        warm = [e async for e in svc.stream(_quick_task, {"x": 1})]
        assert [e["event"] for e in warm] == ["accepted", "cache_hit", "done"]
        assert warm[1]["tier"] == "memory"
        assert _dump(warm[-1]["result"]) == _dump(cold[-1]["result"])

    asyncio.run(main())


def test_stream_terminal_shed_event(tmp_path):
    async def main():
        # A one-slot queue held by a slow leader sheds the next request.
        svc = _service(tmp_path, cache=False, max_queue=1)
        leader = asyncio.ensure_future(svc.submit(_slow_task, {"x": 0}))
        await asyncio.sleep(0)
        events = [e async for e in svc.stream(_quick_task, {"x": 1})]
        assert events[-1]["event"] == "shed"
        assert events[-1]["reason"] == "queue_full"
        assert svc.metrics.shed["queue_full"] == 1
        await leader

    asyncio.run(main())


def test_stream_terminal_failed_event(tmp_path):
    async def main():
        svc = _service(tmp_path, cache=False)
        events = [e async for e in svc.stream("no_such_task", {})]
        assert events[-1]["event"] == "failed"
        assert "no_such_task" in events[-1]["error"]
        assert svc.metrics.failed == 1

    asyncio.run(main())


def test_stream_consumer_break_cancels_request(tmp_path):
    async def main():
        svc = _service(tmp_path, cache=False)
        gen = svc.stream(_slow_task, {"x": 1, "sleep": 0.3})
        async for event in gen:
            if event["event"] == "started":
                break
        await gen.aclose()
        for _ in range(100):
            if not svc._inflight and svc._admitted == 0:
                break
            await asyncio.sleep(0.01)
        assert svc.metrics.cancelled == 1

    asyncio.run(main())


# ---------------------------------------------------------------------------
# runner submit origins + metrics reconciliation


def test_runner_submit_origins_cache_and_compute(tmp_path):
    runner = SweepRunner(cache_dir=tmp_path / "c", profile=True)
    t1 = runner.submit(_quick_task, {"x": 1})
    assert t1.origin == "compute"
    assert t1.future.result(timeout=10) == {"x": 1, "value": 2}
    t2 = runner.submit(_quick_task, {"x": 1})
    assert t2.origin == "cache"
    assert t2.future.result(timeout=0) == {"x": 1, "value": 2}
    assert runner.profile.cache_hits == 1
    assert runner.profile.cache_misses == 1


def test_runner_submit_delta_origin_matches_recompute(tmp_path):
    base = base_config(n=16, steps=8)
    edit = edit_grid(base, k=2)[1]  # recovery-policy knob tweak
    runner = SweepRunner(cache_dir=tmp_path / "c")
    seed = runner.submit(_edit_point, base)
    assert seed.origin == "compute"
    seeded = seed.future.result(timeout=60)
    ticket = runner.submit(_edit_point, edit)
    assert ticket.origin == "delta"
    replayed = ticket.future.result(timeout=60)
    scratch = SweepRunner(cache_dir=tmp_path / "scratch", delta=False)
    full = scratch.submit(_edit_point, edit).future.result(timeout=60)
    assert _dump(replayed) == _dump(full)
    assert _dump(seeded) != _dump(replayed)  # the edit really changed it


def test_service_metrics_reconcile_with_runner_profile(tmp_path):
    async def main():
        svc = _service(tmp_path, max_queue=1)
        await svc.submit(_quick_task, {"x": 1})  # compute
        await svc.submit(_quick_task, {"x": 1})  # memory
        svc.memory.clear()
        await svc.submit(_quick_task, {"x": 1})  # disk cache
        await asyncio.gather(
            *(svc.submit(_counting_task, {"x": 2}) for _ in range(3))
        )  # one compute + two coalesced
        leader = asyncio.ensure_future(svc.submit(_slow_task, {"x": 3}))
        await asyncio.sleep(0)
        with pytest.raises(ServiceOverloaded):
            await svc.submit(_slow_task, {"x": 4})  # shed
        await leader
        totals = svc.metrics.reconcile(svc.runner.profile)
        assert totals["requests"] == 8
        assert svc.metrics.served == {
            "memory": 1,
            "cache": 1,
            "delta": 0,
            "compute": 3,
            "coalesced": 2,
        }
        # spans: one request span per non-shed request, one execute span
        # per admitted execution
        log = svc.metrics.span_log()
        assert len(log.named("request")) == 8
        assert len(log.named("execute")) == 4

    asyncio.run(main())


def test_reconcile_raises_on_tampered_ledger(tmp_path):
    async def main():
        svc = _service(tmp_path, cache=False)
        await svc.submit(_quick_task, {"x": 1})
        svc.metrics.requests += 1  # simulate a lost request
        with pytest.raises(ValueError, match="ledger"):
            svc.metrics.reconcile()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# TCP transport


def test_tcp_round_trip_and_unknown_task(tmp_path):
    async def main():
        svc = _service(tmp_path)
        server = await start_server(svc, port=0)
        port = server.sockets[0].getsockname()[1]
        payload = {
            "id": "r1",
            "task": "ring_point",
            "config": {"n": 16, "steps": 4},
            "stream": True,
        }
        events = await request("127.0.0.1", port, payload)
        assert [e["event"] for e in events] == [
            "accepted",
            "queued",
            "started",
            "done",
        ]
        assert all(e["id"] == "r1" for e in events)
        direct = await svc.submit(get_task("ring_point"), {"n": 16, "steps": 4})
        assert _dump(events[-1]["result"]) == _dump(direct)
        bad = await request(
            "127.0.0.1", port, {"id": "r2", "task": "nope", "config": {}}
        )
        assert bad[-1]["event"] == "error"
        assert "nope" in bad[-1]["error"]
        server.close()
        await server.wait_closed()

    asyncio.run(main())


def test_tcp_non_object_request_keeps_connection(tmp_path):
    async def main():
        svc = _service(tmp_path)
        server = await start_server(svc, port=0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        valid = {"id": "ok", "task": "ring_point", "config": {"n": 8, "steps": 2}}
        for line in ("[1, 2]", '"x"', "7", "null", _dump(valid)):
            writer.write((line + "\n").encode())
        await writer.drain()
        events = []
        for _ in range(5):
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            assert line, "server closed the connection"
            events.append(json.loads(line))
        assert [e["event"] for e in events] == ["error"] * 4 + ["done"]
        assert all(
            e["error"] == "request must be a JSON object" for e in events[:4]
        )
        assert events[-1]["id"] == "ok"
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()

    asyncio.run(main())


def test_tcp_client_disconnect_mid_request(tmp_path):
    """A client that resets its connection after ``accepted`` leaves
    nothing behind: its request settles in the ledger, a second
    connection asking for the same config is served, and no handler
    error reaches the event loop."""
    errors: list = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        svc = _service(tmp_path)
        server = await start_server(svc, port=0)
        port = server.sockets[0].getsockname()[1]
        config = {"n": 48, "steps": 8}
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        gone = {"id": "gone", "task": "overlap_point", "config": config, "stream": True}
        writer.write((_dump(gone) + "\n").encode())
        await writer.drain()
        first = json.loads(await asyncio.wait_for(reader.readline(), timeout=30))
        assert first["event"] == "accepted"
        # Hang up with a reset, not a FIN, so the server's next write fails.
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        writer.close()
        await writer.wait_closed()
        events = await request(
            "127.0.0.1", port, {"id": "again", "task": "overlap_point", "config": config}
        )
        assert events[-1]["event"] == "done"
        assert events[-1]["id"] == "again"
        for _ in range(500):
            if not svc._inflight and svc._admitted == 0:
                break
            await asyncio.sleep(0.01)
        totals = svc.metrics.reconcile(svc.runner.profile)
        assert totals["requests"] == 2
        server.close()
        await server.wait_closed()

    asyncio.run(main())
    assert errors == []


def teardown_module(_module) -> None:
    shutdown_pool()
