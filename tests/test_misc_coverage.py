"""Small-surface coverage: helpers and accessors not hit elsewhere."""

import math

import pytest

from repro.analysis.metrics import advantage, polylog
from repro.analysis.report import print_kv
from repro.core.baselines import theoretical_overlap_advantage
from repro.core.composed import theorem5_bound
from repro.core.overlap import default_steps, work_efficient_block
from repro.core.schedule import build_schedule, theorem2_bound
from repro.core.killing import OverlapParams, kill_and_label
from repro.core.uniform import UniformResult, simulate_uniform
from repro.lower_bounds.h1 import expected_h1_bound
from repro.machine.host import HostArray
from repro.netsim.stats import SimStats


def test_polylog_and_advantage():
    assert polylog(1024, 2) == 100.0
    assert advantage(50, 5) == 10.0
    with pytest.raises(ValueError):
        advantage(50, 0)


def test_print_kv_with_iterable(capsys):
    print_kv([("a", 1), ("b", 2.5)])
    out = capsys.readouterr().out
    assert "a: 1" in out and "b: 2.50" in out


def test_theorem5_bound_formula():
    host = HostArray.uniform(64, 16)
    expected = 5 * math.sqrt(16) * 4 * 6**3
    assert theorem5_bound(host) == pytest.approx(expected)


def test_theorem2_bound_components():
    p = OverlapParams.for_host(HostArray.uniform(64, 2))
    b = theorem2_bound(p, base_work=1)
    assert b == pytest.approx(64 / (4 * 6) + 2 * 4 * 2 * 64 * 36)


def test_default_steps_floor():
    killing = kill_and_label(HostArray.uniform(16, 1))
    assert default_steps(killing) >= 4


def test_work_efficient_block_floors_at_one():
    host = HostArray.uniform(4, 1)
    assert work_efficient_block(host, polylog_exponent=0) >= 1


def test_uniform_result_accessors():
    res = simulate_uniform(4, 9, steps=6, verify=False)
    assert isinstance(res, UniformResult)
    assert res.d == 9
    assert res.bound() > 0
    assert res.normalized() == pytest.approx(res.slowdown / 3.0)


def test_theoretical_overlap_advantage_grows_with_dmax():
    a = theoretical_overlap_advantage(HostArray([1] * 31 + [64] + [1] * 31))
    b = theoretical_overlap_advantage(HostArray([1] * 31 + [1024] + [1] * 31))
    assert b > a


def test_expected_h1_bound():
    assert expected_h1_bound(100) == pytest.approx(5.0)


def test_simstats_extras_survive_as_dict():
    s = SimStats(makespan=3)
    s.extras["custom"] = 9
    assert s.as_dict()["custom"] == 9


def test_schedule_table_kmax_property():
    tab = build_schedule(OverlapParams.for_host(HostArray.uniform(256, 2)))
    assert tab.k_max == len(tab.heights) - 1


def test_overlap_result_summary_roundtrip():
    from repro.core.overlap import simulate_overlap

    res = simulate_overlap(HostArray.uniform(32, 2), steps=4, verify=False)
    s = res.summary()
    assert s["n"] == 32
    assert s["verified"] is False
    assert s["makespan"] == res.exec_result.stats.makespan


def test_host_graph_name_default():
    import networkx as nx

    from repro.machine.host import DELAY_ATTR, HostGraph

    g = nx.path_graph(3)
    nx.set_edge_attributes(g, 1, DELAY_ATTR)
    assert HostGraph(g).name == "host-graph"


def test_assignment_block_attribute():
    from repro.core.assignment import assign_databases

    killing = kill_and_label(HostArray.uniform(32, 1))
    asg = assign_databases(killing, block=3)
    assert asg.block == 3
    assert asg.m % 3 == 0
