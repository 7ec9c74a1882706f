"""Differential tests: checkpoint suffix-replay must be bit-identical
to full recompute.

Three layers, matching the delta stack:

* **executors** — ``DenseExecutor``/``FaultedDenseExecutor`` restored
  from any captured :class:`~repro.core.checkpoint.ExecutorCheckpoint`
  (including a JSON round-trip of the blob) must finish with the same
  stats, value digests and telemetry timelines as the uninterrupted
  run — and the same holds when the restore replays under an *extended*
  horizon, against a fresh run of that horizon;
* **blast-radius rules** — ``repro.delta``'s rules must bound each
  config edit by the earliest simulated time it can influence, and
  decline everything else;
* **runner** — ``SweepRunner`` serving a one-knob edit grid by suffix
  replay must produce exactly the rows a delta-disabled runner
  computes from scratch, with zero silent fallbacks.

The CI ``tests`` job fails when any test is skipped, so keep these
dependency-light and fast (the hypothesis property suite lives in
``tests/test_delta_props.py``).
"""

from __future__ import annotations

import base64
import json
import math
import os
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.checkpoint import ExecutorCheckpoint
from repro.core.dense import DenseExecutor
from repro.core.dense_faults import FaultedDenseExecutor
from repro.core.overlap import simulate_overlap, simulate_overlap_on_graph
from repro.core.ring import ring_dep_map
from repro.delta import (
    DeltaUnsupported,
    cosmetic_rule,
    earliest_affected,
    fault_events_rule,
    horizon_rule,
    policy_rule,
)
from repro.experiments.x5 import _edit_point, base_config, edit_grid
from repro.lower_bounds.audit import windowed_assignment
from repro.machine.host import HostArray
from repro.machine.programs import CounterProgram
from repro.netsim.faults import FaultPlan, RecoveryPolicy
from repro.runner import SweepCache, SweepRunner, config_hash, shutdown_pool
from repro.telemetry import MetricsTimeline
from repro.topology.delays import uniform_delays
from repro.topology.generators import mesh_host

# ---------------------------------------------------------------------------
# helpers


def _stats(res):
    return dict(res.exec_result.stats.__dict__)


def _tl_dict(timeline):
    d = timeline.as_dict()
    d.pop("meta", None)
    return d


def _roundtrip(ck: ExecutorCheckpoint) -> ExecutorCheckpoint:
    """The checkpoint as the cache would serve it: via JSON."""
    return ExecutorCheckpoint.from_json(json.loads(json.dumps(ck.to_json())))


def _faulted_config() -> dict:
    return base_config(n=16, steps=8)


def _run_faulted(
    cfg: dict, resume_from=None, stride=8, telemetry=None, policy=None
):
    return simulate_overlap(
        HostArray.uniform(cfg["n"]),
        steps=cfg["steps"],
        min_copies=2,
        faults=FaultPlan.from_spec(cfg["faults"]),
        recovery=RecoveryPolicy(**cfg["policy"]),
        verify=cfg["verify"],
        telemetry=telemetry,
        checkpoint_stride=stride,
        resume_from=resume_from,
        policy=policy,
    )


# Restore inputs: ``run(telemetry=None, resume_from=None)`` callables
# returning an object with ``exec_result`` and ``checkpoints``.  The
# faulted ones also take ``stride`` (default 8; None captures nothing).


def _line(telemetry=None, resume_from=None):
    return simulate_overlap(
        HostArray.uniform(16, delay=3),
        steps=8,
        engine="dense",
        telemetry=telemetry,
        checkpoint_stride=8 if resume_from is None else None,
        resume_from=resume_from,
    )


def _faulted_line(telemetry=None, resume_from=None, stride=8, policy=None):
    return _run_faulted(
        _faulted_config(),
        resume_from=resume_from,
        stride=stride,
        telemetry=telemetry,
        policy=policy,
    )


def _ring(faults=None):
    """A folded 16-ring (``ring_dep_map`` wiring, ``col_label``
    relabelling) on two-copy windows.  ``simulate_ring`` takes no
    ``resume_from``, so the executors are built directly."""
    host = HostArray([2, 1, 3, 1, 4, 2, 1, 3, 2, 1, 2, 3, 1, 2, 1])
    dep_map, node_of_col = ring_dep_map(16)
    assignment = windowed_assignment(16, 16, copies=2)

    def run(telemetry=None, resume_from=None, stride=8):
        kwargs = dict(
            dep_map=dep_map,
            col_label=lambda c: node_of_col[c] + 1,
            telemetry=telemetry,
            checkpoint_stride=stride,
        )
        if faults is None:
            ex = DenseExecutor(host, assignment, CounterProgram(), 8, **kwargs)
        else:
            ex = FaultedDenseExecutor(
                host, assignment, CounterProgram(), 8, faults=faults, **kwargs
            )
        if resume_from is not None:
            ex.restore(resume_from)
        return SimpleNamespace(exec_result=ex.run(), checkpoints=ex.checkpoints)

    return run


def _mesh(faults=None):
    """A 4x4 mesh embedded by ``simulate_overlap_on_graph``."""
    host = mesh_host(4, 4, uniform_delays(24, np.random.default_rng(5), 1, 6))

    def run(telemetry=None, resume_from=None, stride=8):
        return simulate_overlap_on_graph(
            host,
            steps=8,
            min_copies=2,
            faults=faults,
            telemetry=telemetry,
            checkpoint_stride=stride,
            resume_from=resume_from,
        )

    return run


DENSE_RESTORE_CASES = {"line": _line, "ring": _ring(), "mesh": _mesh()}
FAULTED_RESTORE_CASES = {
    "line": _faulted_line,
    # link faults only: node crashes need the plain array adjacency
    "ring": _ring(
        FaultPlan()
        .link_down(4, 30, 8)
        .jitter(7, 5, 20, 6)
        .drop(2, 12, direction=1)
        .drop(12, 5, direction=-1)
    ),
    "mesh": _mesh(
        FaultPlan().crash(5, 20).link_down(3, 10, 6).jitter(7, 4, 12, 3).drop(10, 15)
    ),
}


# ---------------------------------------------------------------------------
# executor capture -> restore


@pytest.mark.parametrize("case", list(DENSE_RESTORE_CASES))
def test_dense_restore_every_checkpoint_bit_identical(case):
    run = DENSE_RESTORE_CASES[case]
    tl = MetricsTimeline()
    base = run(telemetry=tl)
    assert base.checkpoints, "stride produced no checkpoints"
    for ck in base.checkpoints:
        tl2 = MetricsTimeline()
        res = run(telemetry=tl2, resume_from=_roundtrip(ck))
        assert _stats(res) == _stats(base), f"stats diverge from t={ck.time}"
        assert res.exec_result.value_digests == base.exec_result.value_digests
        assert _tl_dict(tl2) == _tl_dict(tl), f"telemetry diverges from t={ck.time}"


@pytest.mark.parametrize("case", list(FAULTED_RESTORE_CASES))
def test_faulted_restore_every_checkpoint_bit_identical(case):
    run = FAULTED_RESTORE_CASES[case]
    tl = MetricsTimeline()
    base = run(telemetry=tl)
    assert base.checkpoints, "faulted run captured no checkpoints"
    labels = {ck.label for ck in base.checkpoints}
    assert "fault-boundary" in labels and "stride" in labels
    for ck in base.checkpoints:
        tl2 = MetricsTimeline()
        res = run(resume_from=_roundtrip(ck), telemetry=tl2)
        assert _stats(res) == _stats(base), f"stats diverge from t={ck.time}"
        assert res.exec_result.value_digests == base.exec_result.value_digests
        assert _tl_dict(tl2) == _tl_dict(tl), f"telemetry diverges from t={ck.time}"


@pytest.mark.parametrize(
    "kind, case",
    [("dense", c) for c in DENSE_RESTORE_CASES]
    + [("faulted", c) for c in FAULTED_RESTORE_CASES],
)
def test_restore_every_checkpoint_keeps_pebble_records(kind, case):
    run = (DENSE_RESTORE_CASES if kind == "dense" else FAULTED_RESTORE_CASES)[case]
    tl = MetricsTimeline()
    base = run(telemetry=tl)
    assert tl.records and base.checkpoints
    for ck in base.checkpoints:
        tl2 = MetricsTimeline()
        run(telemetry=tl2, resume_from=_roundtrip(ck))
        assert tl2.records == tl.records, f"records diverge from t={ck.time}"
        assert tl2.faults == tl.faults, f"fault marks diverge from t={ck.time}"


def test_resumed_run_recaptures_usable_suffix_checkpoints():
    """A resumed run re-captures checkpoints past the restore point
    (so a delta hit can serve *further* deltas), and those recaptures
    are themselves valid restore points."""
    cfg = _faulted_config()
    base = _run_faulted(cfg)
    ck = base.checkpoints[0]
    res = _run_faulted(cfg, resume_from=_roundtrip(ck))
    times = [c.time for c in res.checkpoints]
    assert times and times == sorted(times)
    assert all(t > ck.time for t in times)
    again = _run_faulted(cfg, resume_from=_roundtrip(res.checkpoints[-1]))
    assert _stats(again) == _stats(base)
    assert again.exec_result.value_digests == base.exec_result.value_digests


def test_horizon_extension_restores_before_first_top():
    host = HostArray.uniform(16, delay=3)
    base = simulate_overlap(host, steps=8, engine="dense", checkpoint_stride=8)
    fresh = simulate_overlap(host, steps=10, engine="dense")
    assert base.first_top_t is not None
    usable = [ck for ck in base.checkpoints if ck.time < base.first_top_t]
    assert usable, "no checkpoint precedes first_top_t"
    for ck in usable:
        res = simulate_overlap(
            host, steps=10, engine="dense", resume_from=_roundtrip(ck)
        )
        assert _stats(res) == _stats(fresh)
        assert res.exec_result.value_digests == fresh.exec_result.value_digests


def test_greedy_engine_rejects_resume():
    host = HostArray.uniform(12, delay=2)
    base = simulate_overlap(host, steps=6, engine="dense", checkpoint_stride=8)
    with pytest.raises(DeltaUnsupported):
        simulate_overlap(
            host, steps=6, engine="greedy", resume_from=base.checkpoints[0]
        )


def test_checkpoint_kind_mismatch_rejected():
    host = HostArray.uniform(16, delay=2)
    dense_ck = simulate_overlap(
        host, steps=8, engine="dense", checkpoint_stride=8
    ).checkpoints[0]
    plan = FaultPlan.empty().crash(8, 10).declare_horizon(200)
    with pytest.raises(DeltaUnsupported):
        simulate_overlap(
            host,
            steps=8,
            min_copies=2,
            faults=plan,
            resume_from=dense_ck,
        )


def test_faulted_checkpoint_rejected_by_fault_free_run():
    host = HostArray.uniform(16, delay=2)
    plan = FaultPlan.empty().crash(8, 10).declare_horizon(200)
    faulted_ck = simulate_overlap(
        host, steps=8, min_copies=2, faults=plan, checkpoint_stride=8
    ).checkpoints[0]
    assert faulted_ck.kind == "faulted"
    with pytest.raises(DeltaUnsupported):
        simulate_overlap(
            host, steps=8, min_copies=2, engine="dense", resume_from=faulted_ck
        )


def test_fault_free_runs_capture_stride_checkpoints():
    host = HostArray.uniform(16, delay=3)
    res = simulate_overlap(host, steps=8, engine="dense", checkpoint_stride=8)
    times = [ck.time for ck in res.checkpoints]
    assert times == sorted(times)
    assert all(ck.label == "stride" for ck in res.checkpoints)
    assert all(ck.kind == "dense" for ck in res.checkpoints)
    # No stride -> no capture overhead, no checkpoints.
    bare = simulate_overlap(host, steps=8, engine="dense")
    assert bare.checkpoints == []


@pytest.mark.parametrize("case", [*FAULTED_RESTORE_CASES, "racing-line"])
def test_faulted_runs_capture_only_with_a_stride(case):
    """A faulted run given no stride captures nothing, not even at its
    fault boundaries or resumes, and ends exactly as the strided run."""
    if case == "racing-line":
        run = partial(_faulted_line, policy="racing")
    else:
        run = FAULTED_RESTORE_CASES[case]
    tl, bare_tl = MetricsTimeline(), MetricsTimeline()
    strided = run(telemetry=tl)
    bare = run(telemetry=bare_tl, stride=None)
    assert strided.checkpoints
    assert bare.checkpoints == []
    if case == "racing-line":
        assert strided.exec_result.stats.extras["raced_wins"] > 0
    assert _stats(bare) == _stats(strided)
    assert bare.exec_result.value_digests == strided.exec_result.value_digests
    assert bare.exec_result.replicas == strided.exec_result.replicas
    assert bare_tl.as_dict() == tl.as_dict()
    assert bare_tl.records == tl.records


# ---------------------------------------------------------------------------
# checkpoint JSON layout: packed integer columns


def _checkpoint(**fields) -> ExecutorCheckpoint:
    scalars = dict(
        time=9, epoch=1, label="stride", remaining=4, makespan=8,
        progress=5, pebbles=5, messages=3, injections=2, lost_messages=0,
        retries=0,
    )
    return ExecutorCheckpoint(**{**scalars, **fields})


def _assert_same_snapshot(got: ExecutorCheckpoint, want: ExecutorCheckpoint):
    """Field-by-field equality, dict key order and plain Python ints."""

    def ints_only(value, where):
        if isinstance(value, dict):
            for k, v in value.items():
                ints_only(k, where)
                ints_only(v, where)
        elif isinstance(value, (list, tuple, set)):
            for v in value:
                ints_only(v, where)
        else:
            assert type(value) in (int, bool), f"{where}: {type(value)}"

    assert got == want
    for name in ("watermarks", "busy", "streams", "subscribers", "holders"):
        assert list(getattr(got, name)) == list(getattr(want, name)), name
        ints_only(getattr(got, name), name)
    for name in ("link_state", "events", "step_done", "dead"):
        ints_only(getattr(got, name), name)
    assert all(type(b) is bool for b in got.busy.values())


EDGE_CHECKPOINTS = {
    "empty tables": _checkpoint(),
    "empty holder set and ragged rows": _checkpoint(
        watermarks={3: [1, 2, 9], 0: [], 2: [4]},
        busy={3: True, 0: False, 2: True},
        link_state=[[-1, 0, 5], [], [-1, -1], [7]],
        streams={(3, 1): [0, 1, 2, 3], (0, 5): [2, 0, 0, -1]},
        events=[(9, [(1, 0, 2, 3, 4, 1), (6, 0)]), (11, []), (12, [(2, 3)])],
        subscribers={(2, 7): [1, 3], (0, 0): []},
        holders={5: {2, 0, 1}, 1: set(), 3: {4}},
        step_done=[0, 3, 8],
        dead={4},
        reassign_dead=[4],
        last_out={(1, -1): 7},
    ),
    "int64 extremes": _checkpoint(
        watermarks={1: [2**63 - 1, -(2**63)], 0: [2**40]},
        link_state=[[-1] * 3, [2**31], [-(2**31) - 1], [2**15]],
        events=[(2**33, [(0, 2**62, -1)])],
        step_done=[0, 2**63 - 1],
    ),
}


@pytest.mark.parametrize("case", list(EDGE_CHECKPOINTS))
def test_layout_round_trip_at_the_edges(case):
    ck = EDGE_CHECKPOINTS[case]
    _assert_same_snapshot(_roundtrip(ck), ck)
    # Equal snapshots encode to equal bytes.
    again = json.dumps(_roundtrip(ck).to_json())
    assert again == json.dumps(ck.to_json())


def test_layout_round_trips_every_captured_snapshot():
    for run in (_faulted_line, DENSE_RESTORE_CASES["mesh"]):
        checkpoints = run().checkpoints
        assert checkpoints
        for ck in checkpoints:
            _assert_same_snapshot(_roundtrip(ck), ck)


@pytest.mark.parametrize(
    "values, width",
    [
        ([], 1),
        ([-1, 0, 127, -128], 1),
        ([128], 2),
        ([-129, 5], 2),
        ([2**15], 4),
        ([-(2**31)], 4),
        ([2**31], 8),
        ([-(2**63), 2**63 - 1], 8),
    ],
)
def test_layout_columns_take_the_narrowest_width(values, width):
    column = _checkpoint(step_done=values).to_json()["step_done"]
    assert column[:2] == [width, len(values)]
    assert _roundtrip(_checkpoint(step_done=values)).step_done == values


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
def test_layout_rejects_values_outside_int64(value):
    with pytest.raises(ValueError, match="int64"):
        _checkpoint(watermarks={0: [1, value]}).to_json()


def _blob_without_events(blob):
    del blob["events"]
    return blob


def _blob_with_truncated_column(blob):
    column = blob["watermarks"]["val"]
    column[2] = column[2][: len(column[2]) // 2]
    return blob


def _blob_with_bad_lengths(blob):
    # Flip the low bit of the first row length: the lengths no longer
    # sum to the number of values.
    column = blob["watermarks"]["len"]
    raw = bytearray(base64.b64decode(column[2]))
    raw[0] ^= 1
    column[2] = base64.b64encode(bytes(raw)).decode("ascii")
    return blob


#: Sidecar corruptions: each turns every checkpoint blob into one that
#: ``from_json`` must decline.
MALFORMED_BLOBS = {
    "missing field": _blob_without_events,
    "not an object": lambda blob: "not a checkpoint",
    "truncated column": _blob_with_truncated_column,
    "length mismatch": _blob_with_bad_lengths,
}


@pytest.mark.parametrize("case", list(MALFORMED_BLOBS))
def test_from_json_declines_malformed_blobs(case):
    ck = _faulted_line().checkpoints[-1]
    blob = MALFORMED_BLOBS[case](json.loads(json.dumps(ck.to_json())))
    with pytest.raises(DeltaUnsupported):
        ExecutorCheckpoint.from_json(blob)


@pytest.mark.parametrize(
    "field, value",
    [("time", "9"), ("first_top", 1.5), ("events", []), ("step_done", [1, 2])],
)
def test_from_json_declines_mistyped_fields(field, value):
    blob = _checkpoint().to_json()
    blob[field] = value
    with pytest.raises(DeltaUnsupported):
        ExecutorCheckpoint.from_json(blob)


# ---------------------------------------------------------------------------
# blast-radius rules


class TestRules:
    META = {"first_top_t": 40, "makespan": 100}

    def test_horizon_rule_extension_bounded_by_first_top(self):
        assert horizon_rule(8, 12, {}, {}, self.META) == 40

    def test_horizon_rule_declines_shrink_bool_and_missing_meta(self):
        assert horizon_rule(12, 8, {}, {}, self.META) is None
        assert horizon_rule(8, 8, {}, {}, self.META) is None
        assert horizon_rule(True, 2, {}, {}, self.META) is None
        assert horizon_rule(8, 12, {}, {}, {}) is None

    def test_fault_events_rule_moved_event(self):
        old = FaultPlan.empty().crash(3, 50).drop(1, 70).declare_horizon(200).to_spec()
        new = FaultPlan.empty().crash(3, 50).drop(1, 75).declare_horizon(200).to_spec()
        assert fault_events_rule(old, new, {}, {}, {}) == 70

    def test_fault_events_rule_identical_is_cosmetic(self):
        spec = FaultPlan.empty().crash(3, 50).declare_horizon(200).to_spec()
        assert fault_events_rule(spec, dict(spec), {}, {}, {}) == math.inf

    def test_fault_events_rule_declines_seed_horizon_reorder(self):
        a = FaultPlan.random(16, seed=1, horizon=64, node_crash_rate=0.2)
        b = FaultPlan.random(16, seed=2, horizon=64, node_crash_rate=0.2)
        assert fault_events_rule(a.to_spec(), b.to_spec(), {}, {}, {}) is None
        spec = a.to_spec()
        rehorizon = dict(spec, horizon=128)
        assert fault_events_rule(spec, rehorizon, {}, {}, {}) is None
        two = FaultPlan.empty().drop(1, 50).drop(2, 50).declare_horizon(99).to_spec()
        swapped = dict(two, events=list(reversed(two["events"])))
        assert fault_events_rule(two, swapped, {}, {}, {}) is None

    def test_policy_rule_bounded_by_first_fault(self):
        cfg = {"faults": FaultPlan.empty().crash(3, 33).drop(1, 60).declare_horizon(99).to_spec()}
        old = {"restart_penalty": 8, "max_retries": 32}
        new = {"restart_penalty": 12, "max_retries": 32}
        assert policy_rule(old, new, cfg, cfg, {}) == 33

    def test_policy_rule_declines_cadence_knobs(self):
        cfg = {"faults": FaultPlan.empty().crash(3, 33).declare_horizon(99).to_spec()}
        old = {"retry_factor": 4.0}
        new = {"retry_factor": 6.0}
        assert policy_rule(old, new, cfg, cfg, {}) is None

    def test_policy_rule_no_events_is_cosmetic(self):
        cfg = {"faults": {"events": [], "seed": None, "horizon": 99}}
        old = {"max_retries": 32}
        new = {"max_retries": 16}
        assert policy_rule(old, new, cfg, cfg, {}) == math.inf

    def test_cosmetic_rule(self):
        assert cosmetic_rule(1.0, 2.0, {}, {}, {}) == math.inf

    def test_earliest_affected_min_over_rules(self):
        rules = {"a": lambda *args: 30, "b": lambda *args: 50}
        old = {"a": 1, "b": 1, "c": 9}
        new = {"a": 2, "b": 2, "c": 9}
        affected, diff = earliest_affected(rules, old, new, {})
        assert affected == 30 and set(diff) == {"a", "b"}

    def test_earliest_affected_declines_unruled_and_mismatched_keys(self):
        rules = {"a": lambda *args: 30}
        assert earliest_affected(rules, {"a": 1, "z": 1}, {"a": 2, "z": 2}, {})[0] is None
        assert earliest_affected(rules, {"a": 1}, {"a": 1, "z": 2}, {}) == (None, ())


# ---------------------------------------------------------------------------
# runner: delta-served grids vs full recompute


def _tag() -> str:
    return f"{_edit_point.__module__}:{_edit_point.__qualname__}"


class TestDeltaRunner:
    def _seed(self, tmp_path, base):
        runner = SweepRunner(cache_dir=str(tmp_path / "delta"), delta=True)
        runner.map(_edit_point, [base])
        return runner

    def test_one_knob_grid_bit_identical(self, tmp_path):
        base = base_config(n=16, steps=8)
        edits = edit_grid(base, k=6)
        runner = self._seed(tmp_path, base)
        got = runner.map(_edit_point, edits)
        assert runner.last_delta_hits == len(edits)
        assert runner.last_delta_fallbacks == 0
        assert 0.0 < runner.last_replayed_fraction < 1.0
        ref = SweepRunner(cache_dir=str(tmp_path / "full"), delta=False)
        assert got == ref.map(_edit_point, edits)

    def test_resumed_entries_serve_later_deltas(self, tmp_path):
        base = base_config(n=16, steps=8)
        edits = edit_grid(base, k=3)
        runner = self._seed(tmp_path, base)
        runner.map(_edit_point, edits)
        again = []
        for cfg in edits:
            cfg = json.loads(json.dumps(cfg))
            ev = max(cfg["faults"]["events"], key=lambda e: e["time"])
            ev["time"] += 1
            again.append(cfg)
        got = runner.map(_edit_point, again)
        assert runner.last_delta_hits == len(again)
        ref = SweepRunner(cache_dir=str(tmp_path / "full"), delta=False)
        assert got == ref.map(_edit_point, again)

    def test_no_delta_disables_matching(self, tmp_path):
        base = base_config(n=16, steps=8)
        runner = SweepRunner(cache_dir=str(tmp_path), delta=False)
        runner.map(_edit_point, [base])
        runner.map(_edit_point, edit_grid(base, k=1))
        assert runner.last_delta_hits == 0
        assert runner.last_misses == 1

    def test_delta_strict_passes_on_clean_hits(self, tmp_path):
        """A clean sidecar serves every edit by replay, with no silent
        full-recompute fallback."""
        base = base_config(n=16, steps=8)
        runner = self._seed(tmp_path, base)
        runner.map(_edit_point, edit_grid(base, k=2))
        assert (runner.last_delta_hits, runner.last_delta_fallbacks) == (2, 0)

    def test_missing_blobs_fall_back_to_recompute(self, tmp_path):
        base = base_config(n=16, steps=8)
        edits = edit_grid(base, k=2)
        runner = self._seed(tmp_path, base)
        key = config_hash(_tag(), "1", base)
        # Tear the sidecar: the entry's manifest still advertises
        # restore points, but the blobs cannot be decoded.
        runner.cache._ckpt_path(key).write_text("{torn", encoding="utf-8")
        got = runner.map(_edit_point, edits)
        assert runner.last_delta_hits == 0
        assert runner.last_delta_fallbacks == len(edits)
        ref = SweepRunner(cache_dir=str(tmp_path / "full"), delta=False)
        assert got == ref.map(_edit_point, edits)

    def test_unversioned_blobs_fall_back_to_recompute(self, tmp_path):
        """A sidecar written under another checkpoint layout (here: no
        layout version at all) is declined, not mis-replayed."""
        base = base_config(n=16, steps=8)
        edits = edit_grid(base, k=2)
        runner = self._seed(tmp_path, base)
        path = runner.cache._ckpt_path(config_hash(_tag(), "1", base))
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        for blob in sidecar["checkpoints"]:
            del blob["layout"]
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        got = runner.map(_edit_point, edits)
        assert runner.last_delta_hits == 0
        assert runner.last_delta_fallbacks == len(edits)
        ref = SweepRunner(cache_dir=str(tmp_path / "full"), delta=False)
        assert got == ref.map(_edit_point, edits)

    @pytest.mark.parametrize("mode", ["map", "submit"])
    @pytest.mark.parametrize("case", list(MALFORMED_BLOBS))
    def test_malformed_blobs_fall_back_to_recompute(self, tmp_path, case, mode):
        """A sidecar whose blobs do not decode is declined and
        recomputed, never crashes the sweep."""
        base = base_config(n=16, steps=8)
        edits = edit_grid(base, k=2)
        runner = self._seed(tmp_path, base)
        path = runner.cache._ckpt_path(config_hash(_tag(), "1", base))
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        sidecar["checkpoints"] = [
            MALFORMED_BLOBS[case](blob) for blob in sidecar["checkpoints"]
        ]
        path.write_text(json.dumps(sidecar), encoding="utf-8")
        ref = SweepRunner(cache_dir=str(tmp_path / "full"), delta=False)
        want = ref.map(_edit_point, edits)
        if mode == "map":
            assert runner.map(_edit_point, edits) == want
            assert runner.last_delta_hits == 0
            assert runner.last_delta_fallbacks == len(edits)
        else:
            tickets = [runner.submit(_edit_point, cfg) for cfg in edits]
            assert [t.future.result(timeout=120) for t in tickets] == want

    def test_second_generation_delta_through_merged_sidecar(self, tmp_path):
        """An edit served from an entry that was itself a delta hit: its
        merged sidecar (the neighbour's prefix blobs passed through as
        they were, plus the suffix's own captures) restores cleanly."""

        def shifted(cfg, by):
            cfg = json.loads(json.dumps(cfg))
            ev = max(cfg["faults"]["events"], key=lambda e: e["time"])
            ev["time"] += by
            return cfg

        base = base_config(n=24, steps=10)
        edit_a, edit_b = shifted(base, 2), shifted(base, 3)
        runner = self._seed(tmp_path, base)
        runner.map(_edit_point, [edit_a])
        assert runner.last_delta_hits == 1
        key = config_hash(_tag(), "1", base)
        runner.cache._path(key).unlink()
        runner.cache._ckpt_path(key).unlink()
        got = runner.map(_edit_point, [edit_b])
        assert (runner.last_delta_hits, runner.last_delta_fallbacks) == (1, 0)
        ref = SweepRunner(cache_dir=str(tmp_path / "full"), delta=False)
        assert got == ref.map(_edit_point, [edit_b])

    def test_profile_records_delta(self, tmp_path):
        base = base_config(n=16, steps=8)
        runner = SweepRunner(
            cache_dir=str(tmp_path / "delta"), delta=True, profile=True
        )
        runner.map(_edit_point, [base])
        runner.map(_edit_point, edit_grid(base, k=2))
        delta = runner.profile.as_dict()["delta"]
        assert delta["hits"] == 2
        assert delta["fallbacks"] == 0
        assert 0.0 < delta["mean_replayed_fraction"] < 1.0


# ---------------------------------------------------------------------------
# sweep cache satellites: crash-safety + bounded size


class TestCacheDurability:
    def test_torn_entry_unlinked_on_get(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("ab" + "0" * 62, {"x": 1}, {"y": 2})
        path = cache._path("ab" + "0" * 62)
        path.write_text('{"config": {"x": 1}, "resu', encoding="utf-8")
        assert cache.get("ab" + "0" * 62) is None
        assert not path.exists(), "torn entry must be deleted on sight"
        assert cache.get("ab" + "0" * 62) is None  # and stay gone

    def test_put_leaves_no_tmp_files(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(
            "cd" + "0" * 62,
            {"x": 1},
            {"y": 2},
            task="t",
            version="1",
            delta={"meta": {}, "checkpoints": [{"time": 3, "label": "stride"}]},
        )
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
        assert leftovers == []
        assert cache.get("cd" + "0" * 62) == {"y": 2}

    def test_eviction_oldest_mtime_first(self, tmp_path):
        cache = SweepCache(tmp_path, max_entries=2)
        keys = [f"{i:02d}" + "0" * 62 for i in range(3)]
        for i, key in enumerate(keys[:2]):
            cache.put(key, {"i": i}, {"r": i})
            os.utime(cache._path(key), (1000 + i, 1000 + i))
        cache.put(keys[2], {"i": 2}, {"r": 2})
        assert cache.get(keys[0]) is None, "oldest entry must be evicted"
        assert cache.get(keys[1]) == {"r": 1}
        assert cache.get(keys[2]) == {"r": 2}
        assert len(cache) == 2

    def test_eviction_removes_sidecar_too(self, tmp_path):
        cache = SweepCache(tmp_path, max_entries=1)
        old = "ee" + "0" * 62
        cache.put(
            old,
            {"x": 1},
            {"y": 1},
            task="t",
            version="1",
            delta={"meta": {}, "checkpoints": [{"time": 3, "label": "stride"}]},
        )
        assert cache._ckpt_path(old).exists()
        os.utime(cache._path(old), (1000, 1000))
        cache.put("ff" + "0" * 62, {"x": 2}, {"y": 2})
        assert cache.get(old) is None
        assert not cache._ckpt_path(old).exists(), "sidecar must follow its entry"

    def test_len_and_clear_ignore_sidecars(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(
            "aa" + "0" * 62,
            {"x": 1},
            {"y": 1},
            task="t",
            version="1",
            delta={"meta": {}, "checkpoints": [{"time": 3, "label": "stride"}]},
        )
        cache.put("bb" + "0" * 62, {"x": 2}, {"y": 2})
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.load_checkpoints("aa" + "0" * 62) == []

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SweepCache(tmp_path, max_entries=0)

    def test_runner_wires_cache_limit(self, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path), cache_limit=7)
        assert runner.cache.max_entries == 7


# ---------------------------------------------------------------------------
# pool shutdown (atexit satellite)


def _double(cfg):
    return {"d": cfg["x"] * 2}


def test_shutdown_pool_idempotent_and_pool_recovers():
    shutdown_pool()
    shutdown_pool()  # second call must be a no-op, not an error
    runner = SweepRunner(workers=2)
    assert runner.map(_double, [{"x": 1}, {"x": 2}]) == [{"d": 2}, {"d": 4}]
    shutdown_pool()


def test_shutdown_pool_registered_atexit():
    import atexit

    import repro.runner as runner_mod

    # The module must register its pool teardown exactly once at import
    # time; re-importing must not stack more handlers.
    assert atexit.unregister(runner_mod.shutdown_pool) is None
    atexit.register(runner_mod.shutdown_pool)  # restore for this process
