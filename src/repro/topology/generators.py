"""Host-network generators.

Each generator returns a :class:`~repro.machine.host.HostGraph` (or a
:class:`~repro.machine.host.HostArray` for the inherently linear
constructions).  Delay assignment is either passed in explicitly or
drawn from :mod:`repro.topology.delays` by the caller — generators that
take a ``delays`` callable invoke it with the number of edges needed.

The adversarial constructions are faithful to the paper:

* :func:`clique_chain_host` — Section 4's unbounded-degree example: a
  linear array of ``sqrt(n)`` cliques of ``sqrt(n)`` nodes each, clique
  edges of delay 1 and inter-clique edges of delay ``n``; it has
  ``d_ave < 4`` yet forces slowdown ``>= n^(1/4)``.
* :func:`h1_host` — Theorem 9's host: every ``sqrt(n)``-th link of an
  ``n``-array has delay ``sqrt(n)``, the rest delay 1.
* :func:`h2_host` — Theorem 10's host: the recursive level-``k`` box
  construction of Figure 5, realised as a linear array in which a
  level-``l`` junction is a *segment* of ``2^l d / log n`` delay-1
  links and level-0 boxes are single delay-``d`` links.  The returned
  :class:`H2Host` records the segment map needed by Fact 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import networkx as nx

from repro.machine.host import DELAY_ATTR, HostArray, HostGraph

DelayFn = Callable[[int], Sequence[int]]


def _apply_delays(graph: nx.Graph, delays: Sequence[int]) -> None:
    edges = list(graph.edges())
    if len(delays) != len(edges):
        raise ValueError(
            f"delay vector has {len(delays)} entries for {len(edges)} edges"
        )
    for (u, v), d in zip(edges, delays):
        graph[u][v][DELAY_ATTR] = int(d)


def ring_host(n: int, delays: Sequence[int], name: str | None = None) -> HostGraph:
    """Ring of ``n`` processors with per-link delays."""
    g = nx.cycle_graph(n)
    _apply_delays(g, delays)
    return HostGraph(g, name or f"ring(n={n})")


def mesh_host(rows: int, cols: int, delays: Sequence[int], name: str | None = None) -> HostGraph:
    """2-D grid host, nodes relabelled to consecutive ints."""
    g = nx.grid_2d_graph(rows, cols)
    g = nx.convert_node_labels_to_integers(g, ordering="sorted")
    _apply_delays(g, delays)
    return HostGraph(g, name or f"mesh({rows}x{cols})")


def tree_host(height: int, delays: Sequence[int], branching: int = 2, name: str | None = None) -> HostGraph:
    """Complete ``branching``-ary tree of the given height."""
    g = nx.balanced_tree(branching, height)
    _apply_delays(g, delays)
    return HostGraph(g, name or f"tree(b={branching},h={height})")


def hypercube_host(dim: int, delays: Sequence[int], name: str | None = None) -> HostGraph:
    """``dim``-dimensional hypercube (degree ``dim``)."""
    g = nx.hypercube_graph(dim)
    g = nx.convert_node_labels_to_integers(g, ordering="sorted")
    _apply_delays(g, delays)
    return HostGraph(g, name or f"hypercube(d={dim})")


def butterfly_host(k: int, delays: Sequence[int], name: str | None = None) -> HostGraph:
    """The ``k``-dimensional butterfly: ``(k+1) 2^k`` nodes ``(level,
    row)``, straight and cross edges between consecutive levels —
    one of the architectures Section 7 names ("trees, arrays,
    butterflies and hypercubes").  Degree <= 4.
    """
    if k < 1:
        raise ValueError("butterfly needs k >= 1")
    g = nx.Graph()
    rows = 2**k

    def nid(level: int, row: int) -> int:
        return level * rows + row

    for level in range(k):
        for row in range(rows):
            g.add_edge(nid(level, row), nid(level + 1, row))
            g.add_edge(nid(level, row), nid(level + 1, row ^ (1 << level)))
    _apply_delays(g, delays)
    return HostGraph(g, name or f"butterfly(k={k})")


def random_regular_host(
    n: int, degree: int, delays: Sequence[int], seed: int = 0, name: str | None = None
) -> HostGraph:
    """Random connected ``degree``-regular graph — the generic
    "connected bounded-degree network" of Theorem 6."""
    for attempt in range(100):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            break
    else:  # pragma: no cover - random regular graphs are a.a.s. connected
        raise RuntimeError("could not generate a connected regular graph")
    _apply_delays(g, delays)
    return HostGraph(g, name or f"regular(n={n},deg={degree})")


def now_cluster_host(
    clusters: int,
    cluster_size: int,
    intra_delay: int = 1,
    inter_delay: int = 64,
    name: str | None = None,
) -> HostGraph:
    """A NOW: bounded-degree clusters (rings) of workstations joined by
    high-latency long-haul links into a ring of clusters.

    This is the paper's motivating scenario — "some processors may be
    very close or even part of the same tightly-coupled parallel
    machine" while others are far apart.
    """
    g = nx.Graph()
    for c in range(clusters):
        base = c * cluster_size
        for j in range(cluster_size):
            u = base + j
            v = base + (j + 1) % cluster_size
            if u != v:
                g.add_edge(u, v, **{DELAY_ATTR: intra_delay})
    for c in range(clusters):
        u = c * cluster_size
        v = ((c + 1) % clusters) * cluster_size
        if clusters > 1 and u != v:
            g.add_edge(u, v, **{DELAY_ATTR: inter_delay})
    if clusters == 1 and cluster_size == 1:
        g.add_node(0)
    return HostGraph(g, name or f"now({clusters}x{cluster_size})")


def clique_chain_host(
    num_cliques: int,
    clique_size: int,
    intra_delay: int = 1,
    inter_delay: int | None = None,
    name: str | None = None,
) -> HostGraph:
    """Section 4's unbounded-degree counterexample.

    A linear array of ``num_cliques`` cliques, each of ``clique_size``
    nodes; clique edges have delay ``intra_delay`` (paper: 1) and each
    pair of adjacent cliques is joined by one edge of delay
    ``inter_delay`` (paper: ``n`` where ``n = num_cliques *
    clique_size``).  Average delay is < 4 but no simulation can beat
    slowdown ``n^(1/4)`` (the paper's max{sqrt(n)/m, m} argument).
    """
    n = num_cliques * clique_size
    if inter_delay is None:
        inter_delay = n
    g = nx.Graph()
    for c in range(num_cliques):
        base = c * clique_size
        members = range(base, base + clique_size)
        for u in members:
            for v in members:
                if u < v:
                    g.add_edge(u, v, **{DELAY_ATTR: intra_delay})
    for c in range(num_cliques - 1):
        u = c * clique_size
        v = (c + 1) * clique_size
        g.add_edge(u, v, **{DELAY_ATTR: inter_delay})
    return HostGraph(g, name or f"clique-chain({num_cliques}x{clique_size})")


def h1_host(n: int, name: str | None = None) -> HostArray:
    """Theorem 9's host ``H1``: an ``n``-processor array in which every
    ``sqrt(n)``-th link has delay ``sqrt(n)`` and the rest have delay 1.

    ``d_ave`` is a constant (< 2) while ``d_max = sqrt(n)``.
    """
    if n < 4:
        raise ValueError("H1 needs n >= 4")
    r = max(2, int(round(math.sqrt(n))))
    delays = []
    for j in range(1, n):
        delays.append(r if j % r == 0 else 1)
    return HostArray(delays, name or f"H1(n={n})")


@dataclass
class Segment:
    """A delay-1 junction segment of ``H2`` (Fact 4's unit)."""

    level: int
    start: int  # first processor position in the segment
    end: int  # last processor position (inclusive)

    @property
    def size(self) -> int:
        """Number of processors in the segment (``2^level d / log n``)."""
        return self.end - self.start + 1


@dataclass
class H2Host:
    """Theorem 10's host ``H2`` with its segment map.

    The recursive box construction of Figure 5, laid out as a linear
    array: a level-0 box is a single link of delay ``d``; a level-``l``
    box is two level-``l-1`` boxes joined by a junction *segment* of
    ``ceil(2^l d / log_n)`` fresh processors connected with delay-1
    links.  The layout preserves every property Theorem 10 uses:

    * ``2^k`` links of delay ``d`` and ``~ k 2^k d / log n`` of delay 1;
    * constant average delay when ``d >= log n``;
    * Fact 4 — processors in different segments are separated by delay
      ``>= min(u, v) * log(n) / 2`` where ``u, v`` are the segment
      sizes (every path between them crosses delay-``d`` links).
    """

    array: HostArray
    segments: list[Segment]
    level: int
    d: int
    log_n: float

    def segment_of(self, pos: int) -> Segment | None:
        """Segment containing array position ``pos`` (None for level-0
        box processors, which belong to no segment)."""
        lo, hi = 0, len(self.segments) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            seg = self.segments[mid]
            if pos < seg.start:
                hi = mid - 1
            elif pos > seg.end:
                lo = mid + 1
            else:
                return seg
        return None


def h2_host(n: int, d: int | None = None, name: str | None = None) -> H2Host:
    """Build ``H2`` with ``Theta(n)`` processors.

    Parameters
    ----------
    n:
        Target size; the paper sets ``d = sqrt(n)`` and level
        ``k = log2(n / d)``.
    d:
        Override the long delay (defaults to ``round(sqrt(n))``).
    """
    if n < 16:
        raise ValueError("H2 needs n >= 16")
    if d is None:
        d = max(2, int(round(math.sqrt(n))))
    k = max(1, int(round(math.log2(n / d))))
    log_n = max(1.0, math.log2(n))

    delays: list[int] = []
    segments: list[Segment] = []

    def seg_links(level: int) -> int:
        return max(1, math.ceil((2**level) * d / log_n))

    def build(level: int) -> None:
        """Append the links of a level-``level`` box to ``delays``."""
        if level == 0:
            delays.append(d)
            return
        build(level - 1)
        width = seg_links(level)
        # `width` fresh segment processors => width+1 delay-1 links
        # between the two sub-boxes.
        start = len(delays) + 1  # position index of first segment proc
        delays.extend([1] * (width + 1))
        segments.append(Segment(level, start, start + width - 1))
        build(level - 1)

    build(k)
    segments.sort(key=lambda s: s.start)
    array = HostArray(delays, name or f"H2(n={n},d={d},k={k})")
    return H2Host(array, segments, k, d, log_n)
