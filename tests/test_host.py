"""HostArray / HostGraph descriptors."""

import networkx as nx
import pytest

from repro.machine.host import DELAY_ATTR, HostArray, HostGraph, delays_from_positions


class TestHostArray:
    def test_basic_stats(self):
        h = HostArray([1, 3, 8])
        assert h.n == 4
        assert h.d_ave == 4.0
        assert h.d_max == 8
        assert h.total_delay == 12

    def test_distance(self):
        h = HostArray([2, 5, 1])
        assert h.distance(0, 3) == 8
        assert h.distance(3, 1) == 6
        assert h.distance(2, 2) == 0

    def test_interval_delay(self):
        h = HostArray([2, 5, 1])
        assert h.interval_delay(1, 3) == 6

    def test_rejects_zero_delay(self):
        with pytest.raises(ValueError):
            HostArray([1, 0])

    def test_uniform_constructor(self):
        h = HostArray.uniform(5, 7)
        assert h.n == 5
        assert h.link_delays == [7, 7, 7, 7]

    def test_single_processor(self):
        h = HostArray.uniform(1)
        assert h.n == 1
        assert h.d_ave == 1.0
        assert h.d_max == 1

    def test_default_bandwidth_is_log2(self):
        assert HostArray.uniform(64).default_bandwidth() == 6
        assert HostArray.uniform(65).default_bandwidth() == 7
        assert HostArray.uniform(2).default_bandwidth() == 1

    def test_fabric_inherits_delays(self):
        h = HostArray([4, 9])
        f = h.fabric(bandwidth=2)
        assert f.link_delays == [4, 9]
        assert f.bandwidth == 2


class TestHostGraph:
    def make(self):
        g = nx.cycle_graph(6)
        nx.set_edge_attributes(g, 2, DELAY_ATTR)
        return HostGraph(g, "ring6")

    def test_stats(self):
        h = self.make()
        assert h.n == 6
        assert h.d_ave == 2.0
        assert h.d_max == 2
        assert h.max_degree == 2
        assert h.is_bounded_degree(2)

    def test_unbounded_degree_detected(self):
        g = nx.star_graph(7)
        nx.set_edge_attributes(g, 1, DELAY_ATTR)
        h = HostGraph(g, "star")
        assert h.max_degree == 7
        assert not h.is_bounded_degree(4)

    def test_rejects_disconnected(self):
        g = nx.Graph()
        g.add_edge(0, 1, **{DELAY_ATTR: 1})
        g.add_node(2)
        with pytest.raises(ValueError):
            HostGraph(g)

    def test_rejects_missing_delay(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            HostGraph(g)


def test_delays_from_positions():
    d = delays_from_positions([0.0, 1.2, 1.3, 9.0])
    assert d == [1, 1, 8]
