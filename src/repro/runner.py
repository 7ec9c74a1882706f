"""Parallel experiment-sweep engine.

Every experiment in this repository is, at heart, a map over a grid of
simulation configs — ``(host, c, block, bandwidth, seed, faults)``
points fed one by one to :func:`repro.core.overlap.simulate_overlap`
or a sibling.  The seed code ran those grids serially, so reproducing
the paper's scaling curves was wall-clock bound by a single core.
:class:`SweepRunner` fixes that:

* **parallel fan-out** — configs are distributed across worker
  *processes* (the work is pure Python compute, so threads would
  serialise on the GIL); results come back in config order, so a sweep
  is bit-for-bit identical at any worker count;
* **deterministic seeding** — :func:`config_seed` derives a stable
  64-bit seed from the *content* of a config (SHA-256 over its
  canonical JSON), so a config always runs with the same seed no matter
  which worker picks it up, in which order, on which machine;
* **result cache** — finished configs are stored as JSON keyed by a
  content hash of ``(task, version, config)``; re-running an identical
  sweep (across invocations, e.g. after editing one grid point) skips
  straight to the cached rows;
* **progress/ETA** — coarse per-config progress on stderr for the long
  ``--full`` sweeps.

Contract for task functions
---------------------------
A task is a **module-level function** taking one JSON-serialisable
``dict`` config and returning a JSON-serialisable result (rows of
scalars, typically).  Module-level matters for two reasons: worker
processes import the task by qualified name, and the cache keys results
by that name.  All randomness inside a task must derive from values in
the config (pass ``seed_key=...`` to have the runner inject a
content-derived seed) — that, plus the simulator's own determinism, is
what makes worker count irrelevant to the output.

Results are round-tripped through JSON even on a cache miss, so a
fresh run and a cache hit are indistinguishable (tuples become lists,
ints stay ints), and a task that returns something non-serialisable
fails loudly on the first run, not on the first cache hit.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import math
import os
import pathlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

#: Default cache location; override per-runner or with $REPRO_SWEEP_CACHE.
DEFAULT_CACHE_DIR = ".sweep_cache"

_SEED_MOD = 2**63

#: Target chunks per worker: small enough to batch away per-task IPC,
#: large enough that a slow chunk cannot leave workers idle at the tail.
_CHUNKS_PER_WORKER = 4


def _name_non_finite(value, path: str = "$") -> str | None:
    """Key path of the first non-finite float in ``value``, or None."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return path
        return None
    if isinstance(value, dict):
        for k, v in value.items():
            found = _name_non_finite(v, f"{path}.{k}")
            if found is not None:
                return found
        return None
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            found = _name_non_finite(v, f"{path}[{i}]")
            if found is not None:
                return found
    return None


def _reject_non_finite(value, where: str) -> None:
    """Raise a :class:`ValueError` naming the first NaN/Infinity path.

    Returns silently when ``value`` holds no non-finite float (the
    caller's original error was about something else — re-raise it).
    """
    path = _name_non_finite(value)
    if path is None:
        return
    raise ValueError(
        f"{where} contains a non-finite float at {path}: NaN/Infinity "
        "have no canonical JSON form (Python would emit non-standard "
        "tokens that happen to survive a local round-trip while other "
        "readers choke).  Encode the sentinel explicitly — e.g. the "
        'string "inf" — before returning it.'
    )


def canonical_json(value) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    The canonical form is the basis of both cache keys and derived
    seeds, so it must be stable across Python versions and platforms;
    plain ``json`` with sorted keys is.  Non-JSON types are a
    ``TypeError`` — configs are data, not objects.  Non-finite floats
    are a ``ValueError`` naming the offending key path: Python's
    ``NaN``/``Infinity`` tokens are not JSON, so letting them through
    would bake non-portable text into cache keys and stored results.
    """
    try:
        return json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError:
        _reject_non_finite(value, "value")
        raise  # some other encoding error (e.g. circular reference)


def config_hash(task: str, version: str, config: dict) -> str:
    """Content hash identifying one ``(task, version, config)`` run."""
    payload = canonical_json([task, version, config])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_seed(config: dict, salt: str = "") -> int:
    """Deterministic 63-bit seed derived from a config's content.

    The same config always yields the same seed — on every worker, in
    every process, on every machine — which is the seeding contract
    that makes parallel sweeps reproducible.  ``salt`` derives
    independent seed streams from the same config.
    """
    payload = canonical_json([salt, config])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MOD


class SweepCache:
    """Content-addressed JSON store for finished sweep configs.

    One file per config under ``root/<hh>/<hash>.json`` holding the
    config (for debuggability), its result and — for delta-aware tasks
    (:mod:`repro.delta`) — the task tag, the run's delta metadata and a
    manifest of the checkpoints captured during the run.  The
    checkpoint blobs themselves live in a ``<hash>.ckpt.json`` sidecar
    so plain cache reads never pay for them.  Writes are atomic-rename
    so a killed run never leaves a truncated entry, and a torn/corrupt
    entry found by :meth:`get` is deleted on sight so it cannot poison
    later sweeps.

    ``max_entries`` (default: unbounded) caps the number of *entries*;
    :meth:`put` evicts oldest-modified entries (and their sidecars)
    beyond the cap.
    """

    _SIDECAR = ".ckpt.json"

    def __init__(
        self, root: str | os.PathLike, max_entries: int | None = None
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = pathlib.Path(root)
        self.max_entries = max_entries

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def _ckpt_path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}{self._SIDECAR}"

    def _entry_files(self):
        """Entry files only (checkpoint sidecars excluded)."""
        if not self.root.exists():
            return
        for path in self.root.glob("*/*.json"):
            if not path.name.endswith(self._SIDECAR):
                yield path

    def get(self, key: str):
        """The cached result for ``key``, or ``None`` on a miss.

        (Tasks return rows/dicts, never bare ``None`` — the runner
        rejects a ``None`` result at ``put`` time to keep this
        unambiguous.)
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except OSError:
            return None
        except ValueError:
            # Torn or corrupt JSON (a crash mid-write predating the
            # atomic rename, disk corruption...): delete it so the bad
            # bytes cannot shadow a future recompute.
            path.unlink(missing_ok=True)
            self._ckpt_path(key).unlink(missing_ok=True)
            return None
        return entry.get("result")

    def put(
        self,
        key: str,
        config: dict,
        result,
        task: str | None = None,
        version: str | None = None,
        delta: dict | None = None,
    ) -> None:
        """Store ``result`` for ``key`` (atomic write).

        ``task``/``version`` tag the entry for delta-neighbour lookup;
        ``delta`` is ``{"meta": ..., "checkpoints": [blob, ...]}`` from
        a delta-aware run — the blobs go to the sidecar, their
        ``(time, label, epoch)`` manifest into the entry.
        """
        if result is None:
            raise ValueError("sweep tasks must not return None (reserved for cache misses)")
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"config": config, "result": result}
        if task is not None:
            entry["task"] = task
            entry["version"] = version
        if delta and delta.get("checkpoints"):
            entry["delta_meta"] = delta.get("meta") or {}
            entry["ckpt_manifest"] = [
                {
                    "time": b.get("time"),
                    "label": b.get("label"),
                    "epoch": b.get("epoch"),
                }
                for b in delta["checkpoints"]
            ]
            # Sidecar first: an entry whose manifest has no blobs yet
            # would claim restore points it cannot serve.
            self._write(
                self._ckpt_path(key),
                {"checkpoints": delta["checkpoints"]},
                "sweep cache checkpoint sidecar",
            )
        self._write(path, entry, "sweep cache entry")
        if self.max_entries is not None:
            self._evict()

    def _write(self, path: pathlib.Path, value, where: str) -> None:
        """Serialise ``value`` and atomically rename it into place."""
        try:
            text = json.dumps(value, allow_nan=False)
        except ValueError:
            _reject_non_finite(value, where)
            raise
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)

    def _evict(self) -> int:
        """Drop oldest-modified entries beyond ``max_entries``."""
        files = sorted(
            self._entry_files(), key=lambda p: (p.stat().st_mtime, p.name)
        )
        excess = len(files) - self.max_entries
        for victim in files[:excess] if excess > 0 else []:
            victim.unlink(missing_ok=True)
            victim.with_name(
                victim.name[: -len(".json")] + self._SIDECAR
            ).unlink(missing_ok=True)
        return max(0, excess)

    def delta_candidates(self, task: str, version: str) -> list[dict]:
        """Entries of ``task``/``version`` carrying a checkpoint
        manifest — the neighbour pool for delta matching.  Only keys
        with a sidecar are read, so mixed caches stay cheap to scan."""
        out = []
        if not self.root.exists():
            return out
        for side in sorted(self.root.glob(f"*/*{self._SIDECAR}")):
            key = side.name[: -len(self._SIDECAR)]
            try:
                with open(self._path(key), "r", encoding="utf-8") as fh:
                    entry = json.load(fh)
            except (OSError, ValueError):
                continue
            if entry.get("task") != task or entry.get("version") != version:
                continue
            manifest = entry.get("ckpt_manifest") or []
            config = entry.get("config")
            if not manifest or not isinstance(config, dict):
                continue
            out.append(
                {
                    "key": key,
                    "config": config,
                    "meta": entry.get("delta_meta") or {},
                    "manifest": manifest,
                }
            )
        return out

    def load_checkpoints(self, key: str) -> list:
        """Raw checkpoint blobs from ``key``'s sidecar ([] if none)."""
        try:
            with open(self._ckpt_path(key), "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return []
        blobs = data.get("checkpoints")
        return blobs if isinstance(blobs, list) else []

    def clear(self) -> int:
        """Delete every entry (and sidecar); returns entries removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob("*/*.json"):
            if not path.name.endswith(self._SIDECAR):
                removed += 1
            path.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_files())


# -- worker pool ---------------------------------------------------------
#
# PR 2 created a fresh ProcessPoolExecutor per map() call, so every
# sweep paid full worker spawn + `import repro` before the first config
# ran — on short grids that overhead exceeded the parallel win (the
# BENCH_sweep.json 0.9x "speedup").  The pool below is module-level and
# persistent: workers spawn once, import the simulator once (in the
# initializer, not lazily inside the first task), and are reused by
# every subsequent sweep in the process.

_pool = None
_pool_workers = 0

# Thread executor backing the awaitable submit path when there is no
# process pool to dispatch to (workers == 1) and for delta suffix
# replays (checkpoint blobs are parent-side; shipping them to workers
# costs more than the replay).  Threads serialise pure-Python compute
# on the GIL, but the point of `submit` is keeping the *caller* (an
# asyncio event loop) unblocked, not parallel speedup — `map` remains
# the parallel path.
_threads = None


def _get_threads():
    global _threads
    if _threads is None:
        from concurrent.futures import ThreadPoolExecutor

        _threads = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="sweep-submit"
        )
    return _threads


def _worker_init() -> None:
    """Pay the simulator import once per worker, at spawn time."""
    import repro.core.overlap  # noqa: F401


def _get_pool(workers: int):
    """The shared pool, recreated only when the worker count changes.

    Returns ``(pool, reused)`` — ``reused`` is False when this call had
    to (re)spawn workers.
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers == workers:
        return _pool, True
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
    from concurrent.futures import ProcessPoolExecutor

    _pool = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)
    _pool_workers = workers
    return _pool, False


def shutdown_pool() -> None:
    """Tear down the shared worker pool and submit threads (idempotent)."""
    global _pool, _pool_workers, _threads
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_workers = 0
    if _threads is not None:
        _threads.shutdown(wait=False, cancel_futures=True)
        _threads = None


atexit.register(shutdown_pool)


def _delta_payload(meta, checkpoints, prefix=()) -> dict:
    """The ``{"meta", "checkpoints"}`` payload :meth:`SweepCache.put`
    stores for a delta-aware run: its metadata, then ``prefix`` blobs
    (already JSON) followed by the run's own captures as JSON blobs."""
    return {
        "meta": meta or {},
        "checkpoints": [*prefix, *(c.to_json() for c in checkpoints)],
    }


def _run_config(fn: Callable[[dict], object], cfg: dict, capture: bool):
    """Run one config; returns ``(result, delta)``.

    With ``capture`` the delta-aware task's capture hook runs instead
    of the task and ``delta`` is its cache payload
    (:func:`_delta_payload`); otherwise ``delta`` is ``None``.  Callers
    capture only when a cache will store the payload.
    """
    if capture:
        oc = fn.__delta__.capture(cfg)
        result, delta = oc.result, _delta_payload(oc.meta, oc.checkpoints)
    else:
        result, delta = fn(cfg), None
    if result is None:
        raise ValueError(
            "sweep tasks must not return None (reserved for cache misses)"
        )
    return result, delta


def _run_chunk(fn: Callable[[dict], object], payload: str, capture: bool) -> str:
    """Run one chunk of configs in a worker (:func:`_run_config` each).

    Configs arrive as one compact JSON string and ``(result, delta)``
    outcomes leave the same way — a single pickled str each direction
    instead of one pickled dict per task, and the decode on the parent
    side doubles as the cache-equivalence JSON round-trip
    (:meth:`SweepRunner._normalise`).  The envelope also carries the
    worker's pid and the chunk's compute wall time, which the parent
    feeds to an attached :class:`~repro.telemetry.profile.SweepProfile`
    (two clock reads per *chunk*, so the un-profiled path pays nothing
    measurable).
    """
    t0 = time.perf_counter()
    out = [_run_config(fn, cfg, capture) for cfg in json.loads(payload)]
    envelope = {
        "outcomes": out,
        "pid": os.getpid(),
        "wall": time.perf_counter() - t0,
    }
    try:
        return json.dumps(envelope, allow_nan=False)
    except ValueError:
        _reject_non_finite(out, "sweep task result")
        raise
    except TypeError as exc:
        raise TypeError(
            f"sweep task returned a non-JSON-serialisable result: {exc}"
        ) from exc


def _match_delta(spec, cands: list[dict], cfg: dict):
    """Best ``(candidate, manifest_entry)`` neighbour for ``cfg``.

    A candidate matches when every differing key has a blast-radius
    rule that accepts the edit (:func:`repro.delta.earliest_affected`)
    and it holds a checkpoint strictly before the earliest affected
    time.  Among matches, the one whose restore point is latest wins
    (least replay); candidates arrive key-sorted, so ties are stable.
    Returns ``None`` when a full recompute is needed.
    """
    from repro.delta import earliest_affected

    best = None
    for cand in cands:
        affected, diff = earliest_affected(
            spec.rules, cand["config"], cfg, cand["meta"]
        )
        if affected is None or not diff:
            continue
        pick = None
        for cm in cand["manifest"]:
            t = cm.get("time")
            if isinstance(t, int) and 1 <= t < affected:
                if pick is None or t > pick["time"]:
                    pick = cm
        if pick is None:
            continue
        if best is None or pick["time"] > best[1]["time"]:
            best = (cand, pick)
    return best


class SubmitTicket:
    """Handle for one :meth:`SweepRunner.submit` request.

    ``future`` is a :class:`concurrent.futures.Future` resolving to the
    config's (JSON-round-tripped) result — awaitable from asyncio via
    ``asyncio.wrap_future``.  ``origin`` says how the request is being
    served: ``"cache"`` (disk hit, already resolved), ``"delta"``
    (matched a cached neighbour, replaying the suffix on a thread) or
    ``"compute"`` (full run on the pool, or a thread at workers == 1).
    """

    __slots__ = ("key", "origin", "future", "_inner")

    def __init__(self, key: str, origin: str, future, inner=None) -> None:
        self.key = key
        self.origin = origin
        self.future = future
        self._inner = inner

    def cancel(self) -> bool:
        """Best-effort cancel: true if any backing future was cancelled.

        Work already running in a worker cannot be interrupted; it runs
        to completion and its result still lands in the cache (so the
        abandoned compute is not wasted), but ``future`` is cancelled
        and nobody waits on it.
        """
        cancelled = self._inner.cancel() if self._inner is not None else False
        return self.future.cancel() or cancelled


def _chain_future(inner, outer, transform=None) -> None:
    """Resolve ``outer`` from ``inner``'s outcome (cancel-safe).

    ``transform`` runs on the inner result *before* ``outer`` resolves
    and runs even when ``outer`` was already cancelled — it carries the
    cache write, which must happen whether or not anyone still waits.
    """

    def _done(f) -> None:
        if f.cancelled():
            outer.cancel()
            return
        exc = f.exception()
        if exc is not None:
            if not outer.cancelled():
                outer.set_exception(exc)
            return
        try:
            value = f.result() if transform is None else transform(f.result())
        except BaseException as exc2:  # noqa: BLE001 - must reach the waiter
            if not outer.cancelled():
                outer.set_exception(exc2)
            return
        if not outer.cancelled():
            outer.set_result(value)

    inner.add_done_callback(_done)


class ProgressMeter:
    """Coarse per-config progress/ETA line on a stream.

    The ETA divides elapsed time by *computed* (non-cached) steps only:
    cache hits finish in microseconds, so counting them as work — as
    the first version did — made a warm-cache sweep's ETA wildly
    optimistic the moment the first real config started.  With no
    computed step yet there is no per-step cost to extrapolate, so no
    ETA is shown.

    An empty grid is announced as a complete ``0/0`` line (with its
    terminating newline) at construction — :meth:`step` never fires, so
    the line cannot come from there, and leaving the stream mid-line
    corrupts whatever the caller prints next.
    """

    def __init__(self, total: int, label: str, stream) -> None:
        self.total = total
        self.label = label
        self.stream = stream
        self.done = 0
        self.computed = 0
        self.t0 = time.perf_counter()
        if total == 0:
            self.stream.write(f"[sweep {label}] 0/0 elapsed 0.0s\n")
            self.stream.flush()

    def step(self, cached: bool = False, delta: bool = False) -> None:
        self.done += 1
        if not cached:
            self.computed += 1
        elapsed = time.perf_counter() - self.t0
        eta_txt = ""
        if self.done < self.total and self.computed:
            eta = elapsed / self.computed * (self.total - self.done)
            eta_txt = f" eta {eta:.1f}s"
        tag = " (cached)" if cached else " (delta)" if delta else ""
        self.stream.write(
            f"\r[sweep {self.label}] {self.done}/{self.total} "
            f"elapsed {elapsed:.1f}s{eta_txt}{tag}    "
        )
        if self.done == self.total:
            self.stream.write("\n")
        self.stream.flush()


class SweepRunner:
    """Fan a grid of configs across worker processes, with caching.

    Parameters
    ----------
    workers:
        Worker processes (``None`` or 1 = run inline, no pool).  The
        result of :meth:`map` is identical for every value — only the
        wall clock changes.
    cache_dir:
        Directory for the :class:`SweepCache` (``None`` disables
        caching entirely).
    progress:
        Emit per-config progress/ETA lines to ``stream`` (stderr).
    profile:
        Attach a :class:`~repro.telemetry.profile.SweepProfile` that
        accumulates wall-time attribution (per worker/chunk, cache-hit
        vs recompute) across every :meth:`map` call this runner serves;
        read it back from :attr:`profile`.  Off by default — the
        un-profiled path takes no extra clock reads.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        progress: bool = False,
        stream=None,
        profile: bool = False,
        delta: bool = True,
        delta_strict: bool = False,
        cache_limit: int | None = None,
    ) -> None:
        self.workers = max(1, int(workers or 1))
        self.cache = (
            SweepCache(cache_dir, max_entries=cache_limit)
            if cache_dir
            else None
        )
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        #: Use cached-neighbour checkpoints for delta-aware tasks
        #: (:mod:`repro.delta`); ``False`` forces full recomputes.
        self.delta = delta
        #: Raise instead of silently recomputing when a matched
        #: checkpoint cannot be restored (differential test mode).
        self.delta_strict = delta_strict
        if profile:
            from repro.telemetry.profile import SweepProfile

            self.profile: "SweepProfile | None" = SweepProfile()
        else:
            self.profile = None
        # Filled by the last map() call — cheap instrumentation for
        # benchmarks and tests.
        self.last_hits = 0
        self.last_misses = 0
        self.last_elapsed = 0.0
        self.last_chunk_size = 0  # 0 = last map() ran inline
        self.last_pool_reused = False
        self.last_delta_hits = 0
        self.last_delta_fallbacks = 0
        self.last_replayed_fraction: float | None = None

    def prepare(
        self,
        fn: Callable[[dict], object],
        config: dict,
        version: str = "1",
        seed_key: str | None = None,
    ) -> tuple[str, dict]:
        """``(cache key, seeded config copy)`` for one request.

        The single source of truth for the key/seed derivation shared
        by :meth:`map` and :meth:`submit` — callers that need the key
        *before* dispatch (the service layer's in-memory LRU and
        request coalescing) call this and then pass the returned config
        on, guaranteed to hash identically.
        """
        cfg = dict(config)
        if seed_key is not None and seed_key not in cfg:
            cfg[seed_key] = config_seed(cfg)
        tag = f"{fn.__module__}:{fn.__qualname__}"
        return config_hash(tag, version, cfg), cfg

    def submit(
        self,
        fn: Callable[[dict], object],
        config: dict,
        version: str = "1",
        seed_key: str | None = None,
    ) -> SubmitTicket:
        """Awaitable single-config path: never blocks the caller.

        Where :meth:`map` runs a whole grid and returns results,
        ``submit`` dispatches **one** config and immediately returns a
        :class:`SubmitTicket` whose ``future`` resolves to the result —
        the submit path a long-lived asyncio front-end
        (:class:`repro.service.SimulationService`) needs.  The full
        :meth:`map` semantics apply per config: cache lookup first
        (a hit returns an already-resolved ticket, ``origin="cache"``),
        then a delta-neighbour match for delta-aware tasks
        (``origin="delta"``, replayed on a thread), then a full compute
        (``origin="compute"``) on the persistent process pool when
        ``workers > 1``, else on a fallback thread.  Results are JSON
        round-tripped and written to the cache exactly as ``map``
        writes them, so the two paths share entries bit-for-bit.

        Cache writes and profile records run on the completing
        worker/callback thread; :class:`SweepCache` writes are
        atomic-rename, so concurrent submits are safe.  The per-map
        ``last_*`` instrumentation fields are **not** touched.
        """
        from concurrent.futures import Future

        key, cfg = self.prepare(fn, config, version, seed_key)
        tag = f"{fn.__module__}:{fn.__qualname__}"
        prof = self.profile
        t0 = time.perf_counter() if prof is not None else 0.0
        cached = self.cache.get(key) if self.cache is not None else None
        if prof is not None:
            prof.record_cache(
                int(cached is not None),
                int(cached is None),
                time.perf_counter() - t0,
            )
        out: Future = Future()
        if cached is not None:
            out.set_result(cached)
            return SubmitTicket(key, "cache", out)

        spec = getattr(fn, "__delta__", None)
        capture = spec is not None and self.cache is not None
        if capture and self.delta:
            cands = self.cache.delta_candidates(tag, version)
            match = _match_delta(spec, cands, cfg) if cands else None
            if match is not None:
                cand, ckm = match

                def _replay():
                    blobs = self.cache.load_checkpoints(cand["key"])
                    oc = self._replay_one(fn, cand, ckm, cfg, blobs)
                    self._store(key, cfg, oc["result"], oc["payload"], tag, version)
                    if prof is not None:
                        prof.record_delta(
                            int(oc["hit"]), int(not oc["hit"]), oc["frac"]
                        )
                    return oc["result"]

                inner = _get_threads().submit(_replay)
                _chain_future(inner, out)
                return SubmitTicket(key, "delta", out, inner)

        if self.workers > 1:
            pool, _ = _get_pool(self.workers)
            inner = pool.submit(_run_chunk, fn, canonical_json([cfg]), capture)

            def _stored(raw: str):
                envelope = json.loads(raw)
                result, delta = envelope["outcomes"][0]
                self._store(key, cfg, result, delta, tag, version)
                if prof is not None:
                    prof.record_chunk(envelope["pid"], 1, envelope["wall"])
                return result

            _chain_future(inner, out, _stored)
            return SubmitTicket(key, "compute", out, inner)

        def _compute():
            t1 = time.perf_counter()
            result, delta = self._run_inline(fn, cfg, capture)
            self._store(key, cfg, result, delta, tag, version)
            if prof is not None:
                prof.record_inline(time.perf_counter() - t1)
            return result

        inner = _get_threads().submit(_compute)
        _chain_future(inner, out)
        return SubmitTicket(key, "compute", out, inner)

    def map(
        self,
        fn: Callable[[dict], object],
        configs: Iterable[dict],
        version: str = "1",
        seed_key: str | None = None,
    ) -> list:
        """Run ``fn`` over ``configs``; results in config order.

        ``version`` is a cache-busting tag — bump it when the task's
        semantics change so stale entries are ignored.  ``seed_key``
        opts into the seeding contract: any config missing that key
        gets ``config_seed(config)`` injected under it before the task
        (or the cache) sees it.
        """
        tag = f"{fn.__module__}:{fn.__qualname__}"
        prepared = [self.prepare(fn, cfg, version, seed_key) for cfg in configs]
        keys = [key for key, _ in prepared]
        configs = [cfg for _, cfg in prepared]

        t0 = time.perf_counter()
        results: list = [None] * len(configs)
        pending: list[int] = []
        hits = 0
        prog = (
            ProgressMeter(len(configs), fn.__qualname__.lstrip("_"), self.stream)
            if self.progress
            else None
        )
        prof = self.profile
        lookup_t0 = time.perf_counter() if prof is not None else 0.0
        for i, key in enumerate(keys):
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[i] = cached
                hits += 1
                if prog:
                    prog.step(cached=True)
            else:
                pending.append(i)
        lookup_s = (
            time.perf_counter() - lookup_t0 if prof is not None else 0.0
        )

        self.last_chunk_size = 0
        self.last_pool_reused = False
        self.last_delta_hits = 0
        self.last_delta_fallbacks = 0
        self.last_replayed_fraction = None

        # Delta matching: a task carrying a DeltaSpec (repro.delta) can
        # satisfy a miss from a cached *neighbour* — an entry differing
        # only in delta-eligible keys — by restoring the latest
        # checkpoint strictly before the edit's blast radius and
        # replaying just the suffix.
        spec = getattr(fn, "__delta__", None)
        capture = spec is not None and self.cache is not None
        delta_jobs: dict[int, tuple[dict, dict]] = {}
        if capture and self.delta and pending:
            cands = self.cache.delta_candidates(tag, version)
            if cands:
                for i in pending:
                    match = _match_delta(spec, cands, configs[i])
                    if match is not None:
                        delta_jobs[i] = match
                pending = [i for i in pending if i not in delta_jobs]
        if delta_jobs:
            self._run_delta_jobs(
                fn, delta_jobs, configs, keys, results, tag, version, prog
            )

        if pending:
            deltas: dict[int, dict | None] = {}
            if self.workers == 1 or len(pending) == 1:
                inline_t0 = time.perf_counter() if prof is not None else 0.0
                for i in pending:
                    results[i], deltas[i] = self._run_inline(fn, configs[i], capture)
                    if prog:
                        prog.step()
                if prof is not None:
                    prof.record_inline(time.perf_counter() - inline_t0)
            else:
                from concurrent.futures import FIRST_COMPLETED, wait

                # Chunk size scales with the grid so a sweep issues
                # ~_CHUNKS_PER_WORKER chunks per worker regardless of
                # grid length (one task per submit was pure overhead).
                chunk = max(
                    1,
                    -(-len(pending) // (self.workers * _CHUNKS_PER_WORKER)),
                )
                self.last_chunk_size = chunk
                pool, reused = _get_pool(self.workers)
                self.last_pool_reused = reused
                futures = {}
                for start in range(0, len(pending), chunk):
                    idxs = pending[start : start + chunk]
                    payload = canonical_json([configs[i] for i in idxs])
                    futures[pool.submit(_run_chunk, fn, payload, capture)] = idxs
                not_done = set(futures)
                while not_done:
                    finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for fut in finished:
                        # The chunk runner already JSON round-tripped
                        # the outcomes, so the decode is the
                        # normalisation.
                        envelope = json.loads(fut.result())
                        for i, (res, delta) in zip(
                            futures[fut], envelope["outcomes"]
                        ):
                            results[i], deltas[i] = res, delta
                            if prog:
                                prog.step()
                        if prof is not None:
                            prof.record_chunk(
                                envelope["pid"],
                                len(futures[fut]),
                                envelope["wall"],
                            )
            for i in pending:
                self._store(keys[i], configs[i], results[i], deltas[i], tag, version)

        self.last_hits = hits
        self.last_misses = len(pending) + self.last_delta_fallbacks
        self.last_elapsed = time.perf_counter() - t0
        if prof is not None:
            prof.record_cache(hits, self.last_misses, lookup_s)
            prof.record_map(
                len(configs),
                self.last_elapsed,
                self.workers,
                self.last_chunk_size,
                self.last_pool_reused,
            )
            # Harvest per-step latency distributions from result rows
            # that carry them (hits, delta replays and recomputes alike
            # — the sweep distribution must not depend on cache state).
            for res in results:
                if isinstance(res, dict):
                    samples = res.get("step_latency_samples")
                    if samples:
                        prof.record_step_latency(samples)
        return results

    def _run_delta_jobs(
        self, fn, jobs, configs, keys, results, tag, version, prog
    ) -> None:
        """Execute matched delta jobs inline (suffix replays are cheap
        by construction; shipping checkpoint blobs to workers is not).

        Each job restores its matched checkpoint under the new config
        and replays the suffix; a checkpoint the executors decline
        (:class:`repro.delta.DeltaUnsupported`, or missing blobs) falls
        back to a full capture — or raises under ``delta_strict``.  The
        cached entry gets a *merged* checkpoint set: the base entry's
        blobs up to the restore point (still bit-valid for the new
        config — they precede the blast radius) plus the suffix's own
        captures, so the new entry serves future deltas as well as a
        fully recomputed one.
        """
        replayed: list[float] = []
        hits = 0
        fallbacks = 0
        # One-knob grids typically match every edit against the same
        # base entry; decode its sidecar once, not once per job.
        sidecars: dict[str, list] = {}
        for i in sorted(jobs):
            cand, ckm = jobs[i]
            if cand["key"] not in sidecars:
                sidecars[cand["key"]] = self.cache.load_checkpoints(cand["key"])
            oc = self._replay_one(fn, cand, ckm, configs[i], sidecars[cand["key"]])
            results[i] = oc["result"]
            if oc["hit"]:
                hits += 1
                if oc["frac"] is not None:
                    replayed.append(oc["frac"])
            else:
                fallbacks += 1
            self._store(keys[i], configs[i], results[i], oc["payload"], tag, version)
            if prog:
                prog.step(delta=oc["hit"])
        self.last_delta_hits = hits
        self.last_delta_fallbacks = fallbacks
        if replayed:
            self.last_replayed_fraction = sum(replayed) / len(replayed)
        if self.profile is not None:
            self.profile.record_delta(
                hits, fallbacks, self.last_replayed_fraction
            )

    def _replay_one(self, fn, cand, ckm, cfg: dict, blobs: list) -> dict:
        """Serve one matched delta job; shared by :meth:`map` and
        :meth:`submit`.

        Restores ``cand``'s checkpoint ``ckm`` under the edited config
        ``cfg`` and replays the suffix, falling back to a full capture
        when the checkpoint is unusable (missing blob, or the executor
        declines it) — or raising under ``delta_strict``.  Returns
        ``{"result", "payload", "hit", "frac"}``: the normalised
        result, the cache delta payload (the neighbour's still-valid
        prefix blobs merged with the suffix's own captures), whether a
        replay actually served it, and the replayed fraction of the
        run's makespan (``None`` on fallback or unknown makespan).
        """
        from repro.core.checkpoint import ExecutorCheckpoint
        from repro.delta import DeltaUnsupported

        blob = next(
            (
                b
                for b in blobs
                if b.get("time") == ckm.get("time")
                and b.get("label") == ckm.get("label")
            ),
            None,
        )
        out = None
        if blob is not None:
            try:
                out = fn.__delta__.resume(
                    dict(cfg), ExecutorCheckpoint.from_json(blob)
                )
            except DeltaUnsupported:
                out = None
        if out is None:
            if self.delta_strict:
                raise RuntimeError(
                    "delta-strict: full recompute fallback for config "
                    f"{cfg!r} (checkpoint t={ckm.get('time')} of "
                    f"entry {cand['key'][:12]} unusable)"
                )
            result, payload = self._run_inline(fn, cfg, True)
            return {"result": result, "payload": payload, "hit": False, "frac": None}
        out.resumed_at = ckm.get("time")
        result = self._normalise(out.result)
        prefix = [b for b in blobs if b.get("time", 0) <= out.resumed_at]
        payload = _delta_payload(
            self._normalise(out.meta or {}), out.checkpoints, prefix
        )
        frac = None
        makespan = payload["meta"].get("makespan")
        if isinstance(makespan, int) and makespan > 0:
            frac = max(0.0, min(1.0, (makespan - out.resumed_at) / makespan))
        return {"result": result, "payload": payload, "hit": True, "frac": frac}

    def _run_inline(self, fn, cfg: dict, capture: bool):
        """:func:`_run_config` in this process on a copy of ``cfg``, with
        the result and delta metadata JSON round-tripped as a worker's
        are (checkpoint blobs go to the cache as they are)."""
        result, delta = _run_config(fn, dict(cfg), capture)
        result = self._normalise(result)
        if delta is not None:
            delta["meta"] = self._normalise(delta["meta"])
        return result, delta

    def _store(self, key: str, cfg: dict, result, delta, tag, version) -> None:
        """Cache one computed result (no-op without a cache); a delta
        payload tags the entry with ``tag``/``version`` for neighbour
        lookup."""
        if self.cache is None:
            return
        if delta is None:
            self.cache.put(key, cfg, result)
        else:
            self.cache.put(
                key, cfg, result, task=tag, version=version, delta=delta
            )

    @staticmethod
    def _normalise(result):
        """JSON round-trip so fresh and cached results are identical."""
        if result is None:
            raise ValueError("sweep tasks must not return None (reserved for cache misses)")
        try:
            return json.loads(json.dumps(result, allow_nan=False))
        except ValueError:
            _reject_non_finite(result, "sweep task result")
            raise
        except TypeError as exc:
            raise TypeError(
                f"sweep task returned a non-JSON-serialisable result: {exc}"
            ) from exc


# -- ambient runner ------------------------------------------------------
#
# Experiments call the module-level :func:`sweep` helper; the CLI (or a
# test) installs a configured runner around the experiment with
# :func:`using`.  With nothing installed, sweeps run inline and
# uncached — library callers see plain serial behaviour unless they opt
# in.

_active: SweepRunner | None = None


def active_runner() -> SweepRunner:
    """The installed runner, or a fresh serial/uncached one."""
    return _active if _active is not None else SweepRunner()


@contextmanager
def using(runner: SweepRunner):
    """Install ``runner`` as the ambient sweep engine for a block."""
    global _active
    previous = _active
    _active = runner
    try:
        yield runner
    finally:
        _active = previous


def sweep(
    fn: Callable[[dict], object],
    configs: Iterable[dict] | Sequence[dict],
    version: str = "1",
    seed_key: str | None = None,
) -> list:
    """Run a config grid through the ambient :class:`SweepRunner`."""
    return active_runner().map(fn, configs, version=version, seed_key=seed_key)


def default_cache_dir() -> str:
    """Cache directory the CLI uses: ``$REPRO_SWEEP_CACHE`` if set,
    else ``.sweep_cache`` under the current directory."""
    return os.environ.get("REPRO_SWEEP_CACHE", DEFAULT_CACHE_DIR)
