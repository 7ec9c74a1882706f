"""Fact 3: the dilation-3 linear-array embedding."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.host import DELAY_ATTR
from repro.topology.embedding import embed_linear_array, tree_cube_order
from repro.topology.generators import (
    clique_chain_host,
    now_cluster_host,
    random_regular_host,
)


def check_order(tree, order):
    assert sorted(order) == sorted(tree.nodes())
    lengths = dict(nx.all_pairs_shortest_path_length(tree))
    for a, b in zip(order, order[1:]):
        assert lengths[a][b] <= 3, f"dilation violated between {a} and {b}"


def test_path_tree_order():
    t = nx.path_graph(10)
    check_order(t, tree_cube_order(t))


def test_star_tree_order():
    t = nx.star_graph(9)
    check_order(t, tree_cube_order(t))


def test_balanced_tree_order():
    t = nx.balanced_tree(2, 4)
    check_order(t, tree_cube_order(t))


def test_caterpillar_tree_order():
    t = nx.path_graph(8)
    for i in range(8):
        t.add_edge(i, 100 + i)
    check_order(t, tree_cube_order(t))


@given(st.integers(min_value=2, max_value=80), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_random_tree_order_property(n, seed):
    t = nx.random_labeled_tree(n, seed=seed)
    check_order(t, tree_cube_order(t))


def test_deep_path_no_recursion_limit():
    t = nx.path_graph(5000)
    order = tree_cube_order(t)
    assert len(order) == 5000


def test_singleton_and_edge_cases():
    g = nx.Graph()
    g.add_node(0)
    assert tree_cube_order(g) == [0]
    assert tree_cube_order(nx.Graph()) == []


def test_start_edge_respected():
    t = nx.path_graph(6)
    order = tree_cube_order(t, start_edge=(2, 3))
    assert order[0] == 2
    assert order[-1] == 3


def test_non_tree_rejected():
    g = nx.cycle_graph(4)
    with pytest.raises(ValueError):
        tree_cube_order(g)


def test_bad_start_edge_rejected():
    t = nx.path_graph(4)
    with pytest.raises(ValueError):
        tree_cube_order(t, start_edge=(0, 3))


class TestEmbedLinearArray:
    def test_now_cluster_dilation_and_delays(self):
        host = now_cluster_host(6, 6, intra_delay=1, inter_delay=40)
        emb = embed_linear_array(host)
        assert emb.n == host.n
        assert emb.dilation <= 3
        assert len(emb.link_delays) == host.n - 1
        assert all(d >= 1 for d in emb.link_delays)

    def test_bounded_degree_average_delay_preserved(self):
        # Paper: bounded degree delta => embedded array's average delay
        # is O(delta * d_ave).
        host = random_regular_host(64, 3, [2] * 96, seed=5)
        emb = embed_linear_array(host)
        arr = emb.host_array()
        assert arr.d_ave <= 3 * 3 * host.d_ave

    def test_congestion_bounded_on_bounded_degree(self):
        host = random_regular_host(64, 3, [1] * 96, seed=2)
        emb = embed_linear_array(host)
        assert emb.congestion <= 12  # O(delta^2) constant

    def test_position_map_inverse(self):
        host = now_cluster_host(3, 4)
        emb = embed_linear_array(host)
        pos = emb.position_of()
        for j, node in enumerate(emb.order):
            assert pos[node] == j

    def test_clique_chain_embeddable(self):
        host = clique_chain_host(3, 3)
        emb = embed_linear_array(host)
        assert emb.n == 9
        assert emb.dilation <= 3

    def test_bfs_tree_variant(self):
        host = now_cluster_host(3, 4)
        emb = embed_linear_array(host, use_mst=False)
        assert emb.dilation <= 3
        assert emb.n == host.n

    def test_raw_graph_accepted(self):
        g = nx.path_graph(5)
        nx.set_edge_attributes(g, 2, DELAY_ATTR)
        emb = embed_linear_array(g)
        assert emb.n == 5
