"""Host machine descriptions.

The paper's hosts come in two flavours:

* :class:`HostArray` — an ``n``-processor linear array whose ``n-1``
  links carry arbitrary integer delays.  This is the machine algorithm
  OVERLAP actually runs on; every other host is reduced to it.
* :class:`HostGraph` — an arbitrary connected (usually bounded-degree)
  network with per-edge delays.  Section 4 reduces it to a
  :class:`HostArray` via the Fact-3 dilation-3 embedding
  (:mod:`repro.topology.embedding`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import networkx as nx

from repro.netsim.fabric import LineFabric

# Edge attribute holding a host-graph link's delay (an integer >= 1).
DELAY_ATTR = "delay"


@dataclass
class HostArray:
    """An ``n``-processor host linear array with per-link delays.

    ``link_delays[j]`` is the delay between processors ``j`` and
    ``j+1`` (0-indexed positions).  The paper's ``d_ave`` is the mean
    link delay and ``d_max`` the maximum.
    """

    link_delays: list[int]
    name: str = "host-array"
    _prefix: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if any(d < 1 for d in self.link_delays):
            raise ValueError("all link delays must be >= 1")
        self.link_delays = [int(d) for d in self.link_delays]
        self._prefix = [0]
        for d in self.link_delays:
            self._prefix.append(self._prefix[-1] + d)

    @property
    def n(self) -> int:
        """Number of host processors."""
        return len(self.link_delays) + 1

    @property
    def d_ave(self) -> float:
        """Average link delay."""
        if not self.link_delays:
            return 1.0
        return self.total_delay / len(self.link_delays)

    @property
    def d_max(self) -> int:
        """Maximum link delay."""
        return max(self.link_delays, default=1)

    @property
    def total_delay(self) -> int:
        """Sum of all link delays (``~ n * d_ave``)."""
        return self._prefix[-1]

    def distance(self, a: int, b: int) -> int:
        """Uncontended delay between positions ``a`` and ``b``."""
        lo, hi = (a, b) if a <= b else (b, a)
        return self._prefix[hi] - self._prefix[lo]

    def interval_delay(self, lo: int, hi: int) -> int:
        """Total delay of the links strictly inside positions
        ``[lo, hi]`` (used by the Stage-1 killing rule)."""
        return self.distance(lo, hi)

    def fabric(self, bandwidth: int | None = None) -> LineFabric:
        """A fresh :class:`LineFabric`; default bandwidth is the
        paper's assumption ``ceil(log2 n)`` (min 1)."""
        if bandwidth is None:
            bandwidth = self.default_bandwidth()
        return LineFabric(self.link_delays, bandwidth)

    def default_bandwidth(self) -> int:
        """The paper's host/guest bandwidth ratio: ``ceil(log2 n)``."""
        return max(1, math.ceil(math.log2(max(2, self.n))))

    @classmethod
    def uniform(cls, n: int, delay: int = 1, name: str | None = None) -> "HostArray":
        """Array of ``n`` processors, every link with the same delay
        (the host ``H0`` of Theorem 4)."""
        if n < 1:
            raise ValueError("need at least one processor")
        return cls([delay] * (n - 1), name or f"uniform(n={n},d={delay})")


@dataclass
class HostGraph:
    """An arbitrary connected host network with per-edge delays."""

    graph: nx.Graph
    name: str = "host-graph"

    def __post_init__(self) -> None:
        if self.graph.number_of_nodes() == 0:
            raise ValueError("host graph is empty")
        if not nx.is_connected(self.graph):
            raise ValueError("host graph must be connected")
        for u, v, data in self.graph.edges(data=True):
            if DELAY_ATTR not in data:
                raise ValueError(f"edge ({u},{v}) missing delay attribute")
            if data[DELAY_ATTR] < 1:
                raise ValueError(f"edge ({u},{v}) has delay < 1")

    @property
    def n(self) -> int:
        """Number of host processors."""
        return self.graph.number_of_nodes()

    @property
    def d_ave(self) -> float:
        """Average edge delay."""
        delays = [d for _, _, d in self.graph.edges(data=DELAY_ATTR)]
        return sum(delays) / len(delays) if delays else 1.0

    @property
    def d_max(self) -> int:
        """Maximum edge delay."""
        return max((d for _, _, d in self.graph.edges(data=DELAY_ATTR)), default=1)

    @property
    def max_degree(self) -> int:
        """Maximum node degree (the paper's bounded-degree parameter)."""
        return max(deg for _, deg in self.graph.degree)

    def is_bounded_degree(self, bound: int = 4) -> bool:
        """Whether every node has degree <= ``bound``."""
        return self.max_degree <= bound


def delays_from_positions(positions: Sequence[float], min_delay: int = 1) -> list[int]:
    """Link delays of an array whose processors sit at physical
    coordinates ``positions`` (a NOW where latency ~ distance)."""
    out = []
    for a, b in zip(positions, positions[1:]):
        out.append(max(min_delay, int(round(abs(b - a)))))
    return out
