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
events   : deterministic event queue.
links    : :class:`LinkPipe`, one direction of a pipelined link.
fabric   : :class:`LineFabric`, the linear-array transport of the
           greedy tier (graph hosts arrive already embedded into an
           array by :mod:`repro.topology.embedding`).
faults   : deterministic fault injection (:class:`FaultPlan`) and the
           executor's :class:`RecoveryPolicy`.
stats    : run counters (pebbles computed, messages, link busy-steps).
"""

from repro.netsim.events import Event, EventQueue
from repro.netsim.links import LinkPipe
from repro.netsim.fabric import LineFabric
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
    "LineFabric",
    "LOST",
    "FaultEvent",
    "FaultPlan",
    "FaultTables",
    "RecoveryPolicy",
    "SimStats",
]
