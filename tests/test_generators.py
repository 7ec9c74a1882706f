"""Host topology generators, including the adversarial constructions."""

import math

import networkx as nx
import pytest

from repro.machine.host import DELAY_ATTR
from repro.topology.generators import (
    clique_chain_host,
    h1_host,
    h2_host,
    hypercube_host,
    mesh_host,
    now_cluster_host,
    random_regular_host,
    ring_host,
    tree_host,
)


def test_ring_host():
    h = ring_host(8, [2] * 8)
    assert h.n == 8
    assert h.d_ave == 2.0
    assert h.max_degree == 2


def test_mesh_host():
    h = mesh_host(3, 4, [1] * 17)
    assert h.n == 12
    assert h.max_degree <= 4


def test_tree_host():
    h = tree_host(3, [1] * 14, branching=2)
    assert h.n == 15
    assert h.max_degree <= 3


def test_hypercube_host():
    h = hypercube_host(4, [1] * 32)
    assert h.n == 16
    assert h.max_degree == 4


def test_butterfly_structure():
    from repro.topology.generators import butterfly_host

    k = 3
    h = butterfly_host(k, [1] * (2 * k * 2**k))
    assert h.n == (k + 1) * 2**k
    assert h.max_degree <= 4
    assert nx.is_connected(h.graph)


def test_butterfly_validates():
    from repro.topology.generators import butterfly_host

    with pytest.raises(ValueError):
        butterfly_host(0, [])


def test_random_regular_connected_and_regular():
    h = random_regular_host(30, 3, [1] * 45, seed=1)
    assert h.n == 30
    degrees = {deg for _, deg in h.graph.degree}
    assert degrees == {3}


def test_delay_vector_length_checked():
    with pytest.raises(ValueError):
        ring_host(5, [1, 1])


class TestNowCluster:
    def test_structure(self):
        h = now_cluster_host(4, 5, intra_delay=1, inter_delay=50)
        assert h.n == 20
        delays = [d for _, _, d in h.graph.edges(data=DELAY_ATTR)]
        assert set(delays) == {1, 50}
        assert h.d_max == 50

    def test_bounded_degree(self):
        h = now_cluster_host(4, 6)
        assert h.is_bounded_degree(4)


class TestCliqueChain:
    def test_section4_parameters(self):
        # sqrt(n) cliques of sqrt(n) nodes, inter delay n.
        h = clique_chain_host(4, 4)
        assert h.n == 16
        assert h.d_max == 16
        # d_ave < 4 as the paper claims.
        assert h.d_ave < 4

    def test_unbounded_degree(self):
        h = clique_chain_host(3, 5)
        assert h.max_degree >= 4  # clique of 5 => degree >= 4

    def test_connected(self):
        h = clique_chain_host(5, 3)
        assert nx.is_connected(h.graph)


class TestH1:
    def test_delay_pattern(self):
        h = h1_host(64)
        r = 8
        assert h.n == 64
        for j, d in enumerate(h.link_delays, start=1):
            assert d == (r if j % r == 0 else 1)

    def test_constant_average_but_large_max(self):
        h = h1_host(400)
        assert h.d_ave < 2
        assert h.d_max == 20

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            h1_host(3)


class TestH2:
    def test_census_matches_closed_forms(self):
        h2 = h2_host(256)
        k, d = h2.level, h2.d
        delays = h2.array.link_delays
        assert sum(1 for x in delays if x == d) == 2**k
        unit = sum(1 for x in delays if x == 1)
        expected = k * 2**k * d / h2.log_n
        assert 0.5 * expected <= unit <= 2.5 * expected

    def test_constant_average_delay(self):
        for n in (64, 256, 1024):
            h2 = h2_host(n)
            assert h2.array.d_ave < 8

    def test_segments_cover_only_unit_links(self):
        h2 = h2_host(256)
        for seg in h2.segments:
            for pos in range(seg.start, seg.end):
                # links inside a segment are unit links
                assert h2.array.link_delays[pos] == 1

    def test_segment_of_lookup(self):
        h2 = h2_host(256)
        seg = h2.segments[0]
        assert h2.segment_of(seg.start) is seg
        assert h2.segment_of(seg.end) is seg
        # position 0 is a level-0 box endpoint, in no segment
        assert h2.segment_of(0) is None

    def test_segment_sizes_follow_levels(self):
        h2 = h2_host(1024)
        for seg in h2.segments:
            expected = max(1, math.ceil(2**seg.level * h2.d / h2.log_n))
            assert seg.size == expected

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            h2_host(8)
