"""SimStats counters and derived metrics."""

import pytest

from repro.netsim.stats import SimStats


def test_slowdown():
    s = SimStats(makespan=120)
    assert s.slowdown(10) == 12.0
    with pytest.raises(ValueError):
        s.slowdown(0)


def test_as_dict_includes_extras():
    s = SimStats(makespan=4)
    s.extras["note"] = "x"
    d = s.as_dict()
    assert d["makespan"] == 4
    assert d["note"] == "x"


def test_merge_extras_dists_concatenate_not_add():
    # Distribution extras ({"__dist__": True, "samples"}) keep the raw
    # samples in order; the summary is computed over all of them.
    from repro.netsim.stats import make_dist

    a = SimStats()
    a.record_step_latency([3, 5, 4])
    assert a.step_latency_samples() == [3, 5, 4]
    assert a.extras["step_latency"] == make_dist([3, 5, 4])
    assert a.step_latency_summary()["count"] == 3
    assert a.step_latency_summary()["p50"] == 4


def test_as_dict_renders_dist_summary():
    s = SimStats(makespan=12)
    s.record_step_latency([4, 4, 4])
    d = s.as_dict()
    assert d["step_latency"] == {
        "count": 3,
        "mean": 4.0,
        "p50": 4,
        "p95": 4,
        "p99": 4,
    }


def test_percentile_helper_edges():
    from repro.netsim.stats import percentile

    assert percentile([], 0.5) is None
    assert percentile([7], 0.99) == 7
    assert percentile([1, 3], 0.5) == 2.0
    with pytest.raises(ValueError):
        percentile([1], 1.5)


def test_latencies_from_completions_sum_to_makespan():
    from repro.netsim.stats import latencies_from_completions

    lats = latencies_from_completions([0, 4, 6, 11])
    assert lats == [4, 2, 5]
    assert sum(lats) == 11
