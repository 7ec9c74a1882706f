"""Fact 3: dilation-3 one-to-one embedding of a linear array into any
connected network.

The paper (citing Leighton [8, p. 470]) uses the classical result that
an ``n``-node linear array embeds one-to-one with dilation 3 in any
connected ``n``-node network.  The constructive form is Sekanina's
theorem: for every tree ``T`` and every edge ``(u, v)`` of ``T``, the
cube ``T^3`` has a Hamiltonian path from ``u`` to ``v``.  Ordering the
host nodes along that path embeds the array: consecutive array
positions are at tree distance <= 3, hence at host distance <= 3.

Construction (induction on the component of an unused tree edge
``(u, v)``):

* delete ``(u, v)``; let ``T_u``, ``T_v`` be the two components;
* pick ``u1``, an unused neighbour of ``u`` in ``T_u`` (if any), and
  ``v1``, an unused neighbour of ``v`` in ``T_v`` (if any);
* the path is ``HP(u, u1) ++ HP(v1, v)`` (or just ``[u]`` / ``[v]``
  when the component is a singleton).

All splice jumps have tree distance <= 3 (``u1 - u - v - v1``).  The
implementation is iterative (explicit task stack) so deep trees — e.g.
path-shaped spanning trees — do not hit the Python recursion limit.

The paper's remark that a bounded-degree host of average delay
``d_ave`` yields an embedded array of average delay ``O(d_ave)`` is
exposed via :attr:`ArrayEmbedding.link_delays` (computed along tree
paths) and checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from repro.machine.host import DELAY_ATTR, HostArray, HostGraph


def tree_cube_order(tree: nx.Graph, start_edge: tuple | None = None) -> list:
    """Hamiltonian-path ordering of ``tree``'s nodes in ``tree^3``.

    Returns the node list; consecutive nodes are at tree distance <= 3.
    ``start_edge`` fixes the initial edge (defaults to an arbitrary
    edge).  A single-node tree returns its one node.
    """
    n = tree.number_of_nodes()
    if n == 0:
        return []
    if n == 1:
        return list(tree.nodes())
    if not nx.is_tree(tree):
        raise ValueError("tree_cube_order requires a tree")

    # Mutable adjacency with O(1)-amortised "pick an unused neighbour".
    adj: dict[Hashable, set] = {v: set(tree[v]) for v in tree.nodes()}

    def use_edge(a, b) -> None:
        adj[a].discard(b)
        adj[b].discard(a)

    def pick(a):
        return next(iter(adj[a])) if adj[a] else None

    if start_edge is None:
        start_edge = next(iter(tree.edges()))
    u0, v0 = start_edge
    if not tree.has_edge(u0, v0):
        raise ValueError(f"start_edge {start_edge} is not a tree edge")

    order: list = []
    # Task stack: ("edge", a, b) emits the covering path of the current
    # component of edge (a,b) from a to b; ("emit", x) emits x.
    stack: list[tuple] = [("edge", u0, v0)]
    while stack:
        task = stack.pop()
        if task[0] == "emit":
            order.append(task[1])
            continue
        _, a, b = task
        use_edge(a, b)
        x = pick(a)
        y = pick(b)
        # Push in reverse so the a-side is emitted first.
        if y is None:
            stack.append(("emit", b))
        else:
            stack.append(("edge", y, b))
        if x is None:
            stack.append(("emit", a))
        else:
            stack.append(("edge", a, x))
    if len(order) != n:
        raise AssertionError(
            f"Hamiltonian construction covered {len(order)} of {n} nodes"
        )
    return order


@dataclass
class ArrayEmbedding:
    """A one-to-one embedding of an ``n``-array in a host graph.

    Attributes
    ----------
    order:
        ``order[j]`` is the host node at array position ``j``.
    link_delays:
        Delay of embedded array link ``j`` — the tree-path delay
        between ``order[j]`` and ``order[j+1]``.
    dilation:
        Maximum number of tree edges under any embedded link (<= 3).
    congestion:
        Maximum number of embedded links routed over a single host
        edge (a constant for bounded-degree hosts).
    """

    order: list
    link_delays: list[int]
    dilation: int
    congestion: int

    @property
    def n(self) -> int:
        """Number of embedded array positions."""
        return len(self.order)

    def host_array(self, name: str = "embedded-array") -> HostArray:
        """The induced :class:`HostArray` algorithm OVERLAP runs on."""
        return HostArray(self.link_delays, name)

    def position_of(self) -> dict:
        """Map host node -> array position."""
        return {node: j for j, node in enumerate(self.order)}


def _tree_path(tree: nx.Graph, a, b, max_len: int = 3) -> list:
    """Path from ``a`` to ``b`` in ``tree`` (length <= ``max_len``),
    found by bounded-depth search — O(degree^3) per call."""
    if a == b:
        return [a]
    frontier = [[a]]
    for _ in range(max_len):
        nxt = []
        for path in frontier:
            tail = path[-1]
            for nb in tree[tail]:
                if len(path) >= 2 and nb == path[-2]:
                    continue  # trees have no other cycles to worry about
                newp = path + [nb]
                if nb == b:
                    return newp
                nxt.append(newp)
        frontier = nxt
    raise AssertionError(f"nodes {a},{b} farther than {max_len} in tree")


def embed_linear_array(
    host: HostGraph | nx.Graph, use_mst: bool = True
) -> ArrayEmbedding:
    """Embed an ``n``-node linear array one-to-one in the host.

    ``use_mst`` picks the minimum-*delay* spanning tree, which tends to
    produce smaller induced delays than an arbitrary tree (the theorem
    only needs *some* spanning tree).
    """
    graph = host.graph if isinstance(host, HostGraph) else host
    if graph.number_of_nodes() == 0:
        raise ValueError("cannot embed into an empty host")
    if not nx.is_connected(graph):
        raise ValueError("host must be connected")
    if use_mst:
        tree = nx.minimum_spanning_tree(graph, weight=DELAY_ATTR)
    else:
        tree = nx.bfs_tree(graph, next(iter(graph.nodes()))).to_undirected()
        for u, v in tree.edges():
            tree[u][v][DELAY_ATTR] = graph[u][v][DELAY_ATTR]
    if tree.number_of_nodes() == 1:
        return ArrayEmbedding(list(graph.nodes()), [], 0, 0)

    order = tree_cube_order(tree)
    link_delays: list[int] = []
    dilation = 0
    edge_load: dict[frozenset, int] = {}
    for a, b in zip(order, order[1:]):
        path = _tree_path(tree, a, b)
        dilation = max(dilation, len(path) - 1)
        d = 0
        for u, v in zip(path, path[1:]):
            d += int(tree[u][v][DELAY_ATTR])
            key = frozenset((u, v))
            edge_load[key] = edge_load.get(key, 0) + 1
        link_delays.append(max(1, d))
    congestion = max(edge_load.values(), default=0)
    return ArrayEmbedding(order, link_delays, dilation, congestion)
