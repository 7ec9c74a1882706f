"""Property-based checkpoint checks (hypothesis): capture -> JSON
round-trip -> restore is bit-identical to the uninterrupted run, for
random hosts, horizons, strides and fault plans.

These live apart from ``tests/test_delta.py`` because the CI
bench-smoke job runs that file without hypothesis installed (its
zero-skip differential gate would otherwise trip on the import).
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import ExecutorCheckpoint
from repro.core.overlap import simulate_overlap
from repro.machine.host import HostArray
from repro.netsim.faults import FaultPlan, RecoveryPolicy
from repro.telemetry import MetricsTimeline


def _stats(res):
    return dict(res.exec_result.stats.__dict__)


def _tl_dict(timeline):
    d = timeline.as_dict()
    d.pop("meta", None)
    return d


def _roundtrip(ck: ExecutorCheckpoint) -> ExecutorCheckpoint:
    return ExecutorCheckpoint.from_json(json.loads(json.dumps(ck.to_json())))


@st.composite
def host_steps_stride(draw):
    n = draw(st.integers(min_value=4, max_value=14))
    delays = draw(
        st.lists(
            st.integers(min_value=1, max_value=6), min_size=n - 1, max_size=n - 1
        )
    )
    steps = draw(st.integers(min_value=2, max_value=8))
    stride = draw(st.integers(min_value=2, max_value=24))
    return HostArray(delays), steps, stride


@given(host_steps_stride())
@settings(max_examples=25, deadline=None)
def test_dense_capture_restore_roundtrip(hss):
    host, steps, stride = hss
    tl = MetricsTimeline()
    base = simulate_overlap(
        host, steps=steps, engine="dense", telemetry=tl, checkpoint_stride=stride
    )
    for ck in base.checkpoints:
        tl2 = MetricsTimeline()
        res = simulate_overlap(
            host,
            steps=steps,
            engine="dense",
            telemetry=tl2,
            resume_from=_roundtrip(ck),
        )
        assert _stats(res) == _stats(base)
        assert res.exec_result.value_digests == base.exec_result.value_digests
        assert _tl_dict(tl2) == _tl_dict(tl)


@st.composite
def faulted_scenario(draw):
    n = draw(st.integers(min_value=6, max_value=14))
    steps = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    stride = draw(st.integers(min_value=4, max_value=32))
    plan = FaultPlan.random(
        n,
        seed=seed,
        horizon=12 * steps,
        node_crash_rate=draw(st.floats(min_value=0.0, max_value=0.25)),
        link_outage_rate=draw(st.floats(min_value=0.0, max_value=0.25)),
        jitter_rate=draw(st.floats(min_value=0.0, max_value=0.3)),
        drop_rate=draw(st.floats(min_value=0.0, max_value=0.2)),
    )
    return n, steps, plan, stride


@given(faulted_scenario())
@settings(max_examples=20, deadline=None)
def test_faulted_capture_restore_roundtrip(scenario):
    n, steps, plan, stride = scenario

    def run(resume_from=None, telemetry=None):
        return simulate_overlap(
            HostArray.uniform(n),
            steps=steps,
            min_copies=2,
            faults=plan,
            recovery=RecoveryPolicy(),
            verify=True,
            telemetry=telemetry,
            checkpoint_stride=stride,
            resume_from=resume_from,
        )

    tl = MetricsTimeline()
    base = run(telemetry=tl)
    for ck in base.checkpoints:
        tl2 = MetricsTimeline()
        res = run(resume_from=_roundtrip(ck), telemetry=tl2)
        assert _stats(res) == _stats(base), f"stats diverge from t={ck.time}"
        assert res.exec_result.value_digests == base.exec_result.value_digests
        assert _tl_dict(tl2) == _tl_dict(tl), f"telemetry diverges at t={ck.time}"
        # Suffix recaptures need not land at the base run's capture
        # times (a stride mark the base caught late may already be
        # behind the resume point), but they must all postdate the
        # restore point and be valid restore points themselves — the
        # merged-sidecar contract for second-generation deltas.
        times = [c.time for c in res.checkpoints]
        assert times == sorted(times)
        assert all(t > ck.time for t in times)
        if res.checkpoints:
            again = run(resume_from=_roundtrip(res.checkpoints[-1]))
            assert _stats(again) == _stats(base)
            assert (
                again.exec_result.value_digests
                == base.exec_result.value_digests
            )


@given(host_steps_stride(), st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_dense_horizon_extension_matches_fresh_run(hss, extra):
    """Restoring any checkpoint strictly before ``first_top_t`` under a
    longer horizon must reproduce the longer run exactly — the bound
    the ``steps`` blast-radius rule relies on."""
    host, steps, stride = hss
    base = simulate_overlap(
        host, steps=steps, engine="dense", checkpoint_stride=stride
    )
    fresh = simulate_overlap(host, steps=steps + extra, engine="dense")
    for ck in base.checkpoints:
        if base.first_top_t is None or ck.time >= base.first_top_t:
            continue
        res = simulate_overlap(
            host,
            steps=steps + extra,
            engine="dense",
            resume_from=_roundtrip(ck),
        )
        assert _stats(res) == _stats(fresh)
        assert res.exec_result.value_digests == fresh.exec_result.value_digests
