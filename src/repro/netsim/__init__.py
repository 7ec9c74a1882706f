"""Discrete-event network-simulation substrate.

This package is the machine room of the reproduction: a small, fast,
deterministic discrete-event simulator for networks whose links have a
*delay* (steps before the head of a message reaches the other side) and
a *bandwidth* (number of fixed-size packets — "pebbles" in the paper —
that can be injected into a link per time step and direction).

The timing model is exactly the one of Section 2 of the paper:

    P pebbles can be passed along a d-delay link in
    d + ceil(P / bw) - 1 steps,

i.e. links are perfect pipelines with slotted injection.

Modules
-------
events   : deterministic event queue and simulation clock.
links    : :class:`LinkPipe`, one direction of a pipelined link.
routing  : shortest-delay-path routing over ``networkx`` graphs.
fabric   : :class:`Fabric` (general graphs) and :class:`LineFabric`
           (fast path specialised to linear-array hosts).
faults   : deterministic fault injection (:class:`FaultPlan`) and the
           executor's :class:`RecoveryPolicy`.
stats    : run counters (pebbles computed, messages, link busy-steps).
"""

from repro.netsim.events import Event, EventQueue
from repro.netsim.links import LinkPipe
from repro.netsim.routing import Router
from repro.netsim.fabric import Fabric, LineFabric
from repro.netsim.faults import (
    LOST,
    FaultEvent,
    FaultPlan,
    FaultTables,
    RecoveryPolicy,
)
from repro.netsim.stats import SimStats

__all__ = [
    "Event",
    "EventQueue",
    "LinkPipe",
    "Router",
    "Fabric",
    "LineFabric",
    "LOST",
    "FaultEvent",
    "FaultPlan",
    "FaultTables",
    "RecoveryPolicy",
    "SimStats",
]
