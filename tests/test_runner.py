"""SweepRunner: parallel fan-out, content-hash caching, seeding contract."""

import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.delta import DeltaSpec, delta_task
from repro.experiments import get_experiment, run_experiment, x5
from repro.runner import (
    SweepCache,
    SweepRunner,
    active_runner,
    canonical_json,
    config_hash,
    config_seed,
    shutdown_pool,
    sweep,
    using,
)
from repro.service.tasks import overlap_point


def _square(cfg: dict) -> dict:
    """Module-level so worker processes can import it by name."""
    return {"value": cfg["x"] * cfg["x"], "seed": cfg.get("seed")}


def _echo_seed(cfg: dict) -> dict:
    return {"seed": cfg["seed"]}


def _raise_on_two(cfg: dict) -> dict:
    if cfg["x"] == 2:
        raise RuntimeError("task fails on x == 2")
    return _square(cfg)


class TestHashingAndSeeding:
    def test_canonical_json_is_key_order_invariant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_canonical_json_rejects_non_json(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_config_hash_distinguishes_task_version_config(self):
        base = config_hash("t", "1", {"x": 1})
        assert config_hash("t", "1", {"x": 1}) == base
        assert config_hash("u", "1", {"x": 1}) != base
        assert config_hash("t", "2", {"x": 1}) != base
        assert config_hash("t", "1", {"x": 2}) != base

    def test_config_seed_deterministic_and_salted(self):
        cfg = {"n": 64, "d": 4}
        s = config_seed(cfg)
        assert s == config_seed(dict(reversed(list(cfg.items()))))
        assert 0 <= s < 2**63
        assert config_seed(cfg, salt="other") != s

    def test_seed_key_injected_only_when_missing(self):
        runner = SweepRunner()
        out = runner.map(_echo_seed, [{"x": 1}, {"x": 2, "seed": 7}], seed_key="seed")
        assert out[0]["seed"] == config_seed({"x": 1})
        assert out[1]["seed"] == 7


class TestSweepCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("ab" * 32, {"x": 1}, {"y": 2})
        assert cache.get("ab" * 32) == {"y": 2}
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        assert SweepCache(tmp_path).get("cd" * 32) is None

    def test_none_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepCache(tmp_path).put("ab" * 32, {}, None)

    def test_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("ab" * 32, {}, 1)
        cache.put("cd" * 32, {}, 2)
        assert cache.clear() == 2
        assert len(cache) == 0


class TestSweepRunner:
    def test_results_in_config_order(self):
        out = SweepRunner().map(_square, [{"x": x} for x in (3, 1, 2)])
        assert [r["value"] for r in out] == [9, 1, 4]

    def test_cache_hits_skip_recompute(self, tmp_path):
        configs = [{"x": x} for x in range(4)]
        runner = SweepRunner(cache_dir=tmp_path)
        first = runner.map(_square, configs)
        assert (runner.last_hits, runner.last_misses) == (0, 4)
        second = runner.map(_square, configs)
        assert (runner.last_hits, runner.last_misses) == (4, 0)
        assert first == second

    def test_version_busts_cache(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        runner.map(_square, [{"x": 1}], version="1")
        runner.map(_square, [{"x": 1}], version="2")
        assert runner.last_misses == 1

    def test_fresh_and_cached_results_identical(self, tmp_path):
        # JSON round-trip on miss means a cache hit is bit-identical.
        runner = SweepRunner(cache_dir=tmp_path)
        fresh = runner.map(_square, [{"x": 5}])
        cached = runner.map(_square, [{"x": 5}])
        assert json.dumps(fresh) == json.dumps(cached)

    def test_parallel_matches_serial(self):
        configs = [{"x": x} for x in range(6)]
        serial = SweepRunner(workers=1).map(_square, configs, seed_key="seed")
        parallel = SweepRunner(workers=4).map(_square, configs, seed_key="seed")
        assert serial == parallel

    def test_non_serialisable_result_fails_loudly(self):
        with pytest.raises(TypeError):
            SweepRunner().map(lambda cfg: object(), [{"x": 1}])

    def test_failing_config_keeps_what_finished_before_it(self, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        configs = [{"x": x} for x in range(4)]
        with pytest.raises(RuntimeError, match="x == 2"):
            runner.map(_raise_on_two, configs)
        stored = [
            runner.cache.get(runner.prepare(_raise_on_two, cfg)[0]) for cfg in configs
        ]
        assert stored == [_square(configs[0]), _square(configs[1]), None, None]


class TestCacheCollisions:
    """Cache keys are content hashes: key order must not matter,
    value differences must."""

    def test_nested_key_order_permutations_hash_identically(self):
        # Every insertion-order permutation, at every nesting level, is
        # the same config and must map to the same cache entry.
        import itertools

        inner = {"block": 2, "bw": 1, "copies": 3}
        outer_items = [("n", 64), ("d", 4), ("opts", None)]
        hashes = set()
        for inner_perm in itertools.permutations(inner.items()):
            for outer_perm in itertools.permutations(outer_items):
                cfg = {
                    k: (dict(inner_perm) if k == "opts" else v)
                    for k, v in outer_perm
                }
                hashes.add(config_hash("task", "1", cfg))
        assert len(hashes) == 1

    def test_nested_value_difference_changes_hash(self):
        base = {"n": 64, "opts": {"block": 2, "grid": [1, 2, 3]}}
        for mutant in (
            {"n": 64, "opts": {"block": 3, "grid": [1, 2, 3]}},
            {"n": 64, "opts": {"block": 2, "grid": [1, 2, 4]}},
            {"n": 64, "opts": {"block": 2, "grid": [1, 2]}},
            {"n": 65, "opts": {"block": 2, "grid": [1, 2, 3]}},
        ):
            assert config_hash("t", "1", mutant) != config_hash("t", "1", base)

    def test_key_order_permutation_is_a_cache_hit(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        runner.map(_square, [{"x": 2, "seed": 1}])
        runner.map(_square, [{"seed": 1, "x": 2}])
        assert (runner.last_hits, runner.last_misses) == (1, 0)
        assert len(runner.cache) == 1

    def test_differing_values_do_not_share_entries(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        out2 = runner.map(_square, [{"x": 2}])
        out3 = runner.map(_square, [{"x": 3}])
        assert runner.last_misses == 1  # no false hit on the second map
        assert out2[0]["value"] == 4 and out3[0]["value"] == 9
        assert len(runner.cache) == 2


class TestParallelPool:
    def test_pool_reused_and_chunked_across_maps(self):
        configs = [{"x": x} for x in range(8)]
        runner = SweepRunner(workers=2)
        first = runner.map(_square, configs, seed_key="seed")
        assert runner.last_chunk_size >= 1
        second = runner.map(_square, configs, seed_key="seed")
        assert runner.last_pool_reused
        assert first == second

    def test_serial_map_reports_no_chunking(self):
        runner = SweepRunner(workers=1)
        runner.map(_square, [{"x": 1}])
        assert runner.last_chunk_size == 0
        assert runner.last_pool_reused is False


def _exit_on_three(cfg: dict) -> dict:
    """Kills the worker process that runs ``x == 3``."""
    if cfg["x"] == 3:
        os._exit(1)
    return _square(cfg)


class TestDeadWorker:
    def teardown_method(self):
        shutdown_pool()

    def test_later_calls_get_a_fresh_pool(self):
        with pytest.raises(BrokenProcessPool):
            SweepRunner(workers=2).map(_exit_on_three, [{"x": x} for x in range(6)])
        runner = SweepRunner(workers=2)
        configs = [{"x": x} for x in range(4)]
        assert runner.map(_square, configs) == [_square(c) for c in configs]
        ticket = runner.submit(_square, {"x": 5})
        assert ticket.future.result(timeout=60) == _square({"x": 5})


class TestAmbientRunner:
    def test_default_is_serial_uncached(self):
        runner = active_runner()
        assert runner.workers == 1
        assert runner.cache is None

    def test_using_installs_and_restores(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        with using(runner):
            assert active_runner() is runner
            assert sweep(_square, [{"x": 2}])[0]["value"] == 4
        assert active_runner() is not runner

    def test_run_experiment_wires_the_runner(self, tmp_path):
        res = run_experiment("e3", quick=True, cache_dir=tmp_path)
        assert res.rows
        assert len(SweepCache(tmp_path)) > 0


class TestWorkerCountDeterminism:
    def test_e1_identical_at_any_worker_count(self):
        """Acceptance gate: e1 through SweepRunner with workers=4 is
        bit-for-bit identical to workers=1."""
        e1 = get_experiment("e1")
        with using(SweepRunner(workers=1)):
            serial = e1(quick=True)
        with using(SweepRunner(workers=4)):
            parallel = e1(quick=True)
        assert serial.to_json() == parallel.to_json()


def _nan_task(cfg: dict) -> dict:
    import math

    return {"rows": [{"ok": 1.0}, {"ok": 2.0}, {"ok": 3.0}, {"slowdown": math.nan}]}


class TestNonFiniteRejection:
    """NaN/Infinity have no canonical JSON form; the cache boundary
    rejects them loudly, naming the offending key path."""

    def test_canonical_json_rejects_nan_with_key_path(self):
        with pytest.raises(ValueError, match=r"\$\.rows\[3\]\.slowdown"):
            canonical_json({"rows": [1.0, 2.0, 3.0, {"slowdown": float("nan")}]})

    def test_canonical_json_rejects_infinity(self):
        with pytest.raises(ValueError, match=r"\$\.degradation"):
            canonical_json({"degradation": float("inf")})
        with pytest.raises(ValueError, match=r"\$\[1\]"):
            canonical_json([0.0, float("-inf")])

    def test_canonical_json_accepts_finite_floats(self):
        assert canonical_json({"x": 1.5}) == '{"x":1.5}'

    def test_inline_task_result_rejected(self):
        with pytest.raises(ValueError, match=r"\$\.rows\[3\]\.slowdown"):
            SweepRunner().map(_nan_task, [{"x": 1}])

    def test_parallel_task_result_rejected(self):
        with pytest.raises(ValueError, match=r"sweep task result"):
            SweepRunner(workers=2).map(_nan_task, [{"x": i} for i in range(4)])

    def test_cache_put_rejected(self, tmp_path):
        cache = SweepCache(tmp_path)
        with pytest.raises(ValueError, match=r"\$\.result\.v"):
            cache.put("ab" * 32, {"x": 1}, {"v": float("nan")})
        assert len(cache) == 0  # nothing half-written


class TestProgressMeter:
    """ETA must extrapolate from computed (non-cached) steps only, and
    the meter always terminates its line — even for an empty grid."""

    def _lines(self, stream):
        return stream.getvalue()

    def test_eta_ignores_cached_steps(self):
        import io

        from repro.runner import ProgressMeter

        meter = ProgressMeter(4, "t", io.StringIO())
        # A burst of instant cache hits must not fabricate an ETA.
        meter.step(cached=True)
        meter.step(cached=True)
        out = meter.stream.getvalue()
        assert "eta" not in out  # no computed step yet: no estimate
        meter.t0 -= 10.0  # pretend the first computed step took ~10s
        meter.step()
        eta_line = meter.stream.getvalue().split("\r")[-1]
        assert "eta" in eta_line
        # Per-step cost comes from the 1 computed step (~10s), not from
        # done=3 steps (~3.3s): the remaining step costs ~10s.
        eta = float(eta_line.split("eta ")[1].split("s")[0])
        assert eta > 5.0

    def test_empty_grid_writes_terminated_line(self):
        import io

        stream = io.StringIO()
        runner = SweepRunner(progress=True, stream=stream)
        assert runner.map(_square, []) == []
        out = stream.getvalue()
        assert out.endswith("\n")
        assert "0/0" in out

    def test_full_grid_still_terminates_line(self):
        import io

        stream = io.StringIO()
        SweepRunner(progress=True, stream=stream).map(_square, [{"x": 1}])
        assert stream.getvalue().endswith("\n")


def _capture_refused(*args):
    raise AssertionError("captured checkpoints that no cache will store")


@delta_task(DeltaSpec(rules={}, capture=_capture_refused, resume=_capture_refused))
def _delta_square(cfg: dict) -> dict:
    """Delta-aware task whose hooks fail: only a cached run may capture."""
    return _square(cfg)


def _overlap_stages() -> list[list[dict]]:
    return [[{"n": 16 + 4 * i, "steps": 6, "verify": True} for i in range(4)]]


def _edit_stages() -> list[list[dict]]:
    base = x5.base_config(n=16, steps=6)
    # Two bases so a parallel map sends captures through the pool; the
    # edits of the first are then served by delta suffix replay.
    return [[base, x5.base_config(n=20, steps=6)], x5.edit_grid(base, k=3)]


class TestOneRunPath:
    """``map`` and ``submit``, inline and on the pool, share one compute
    path: same results, same cache bytes, same capture rule."""

    def test_uncached_runs_skip_capture(self):
        runner = SweepRunner(workers=1)
        assert runner.map(_delta_square, [{"x": 3}]) == [{"value": 9, "seed": None}]
        ticket = runner.submit(_delta_square, {"x": 3})
        assert ticket.origin == "compute"
        assert ticket.future.result(timeout=60) == {"value": 9, "seed": None}

    @pytest.mark.parametrize(
        "fn, stages",
        [(overlap_point, _overlap_stages), (x5._edit_point, _edit_stages)],
        ids=["overlap_point", "edit_point"],
    )
    def test_map_and_submit_write_identical_caches(self, tmp_path, fn, stages):
        runs = {}
        for mode in ("map", "submit"):
            for workers in (1, 2):
                root = tmp_path / f"{mode}-{workers}"
                runner = SweepRunner(workers=workers, cache_dir=root, profile=True)
                results, delta_served = [], 0
                for configs in stages():
                    if mode == "map":
                        results.append(runner.map(fn, configs))
                        delta_served += runner.last_delta_hits
                    else:
                        tickets = [runner.submit(fn, cfg) for cfg in configs]
                        results.append([t.future.result(timeout=120) for t in tickets])
                        delta_served += sum(t.origin == "delta" for t in tickets)
                files = {
                    p.relative_to(root).as_posix(): p.read_bytes()
                    for p in sorted(root.rglob("*.json"))
                }
                prof = runner.profile
                counts = (
                    prof.cache_hits,
                    prof.cache_misses,
                    prof.delta_hits,
                    prof.delta_fallbacks,
                    len(prof.delta_replayed),
                )
                runs[mode, workers] = (results, files, delta_served, counts)
        first = runs["map", 1]
        for run in runs.values():
            assert run == first
        sidecars = [name for name in first[1] if name.endswith(".ckpt.json")]
        if fn is x5._edit_point:
            assert first[2] == 3  # every edit replayed a suffix
            assert len(sidecars) == 5  # two bases and three edits
            assert first[3] == (0, 5, 3, 0, 3)  # a replayed edit is a miss
        else:
            assert first[2] == 0 and not sidecars
