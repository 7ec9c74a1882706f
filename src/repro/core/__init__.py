"""The paper's contribution: algorithm OVERLAP and friends.

Layering (bottom to top):

* :mod:`tree`       — the binary interval tree ``T`` over the host array.
* :mod:`killing`    — Stages 1-3: killing useless processors and
  labelling the tree (Lemmas 1-4).
* :mod:`assignment` — the recursive overlapped database assignment, work
  stealing, and the survivors' reassignment after a crash.
* :mod:`executor`   — the greedy event-driven executor that runs *any*
  contiguous assignment on a host array (realises Theorem 1's schedule).
* :mod:`dense`      — the dense tier's one timing loop (same semantics,
  bit-identical results, integer state only; fault-free runs are its
  zero-boundary case) and the engine selection layer.
* :mod:`dense_faults` — fault plans on that loop: boundaries, recovery
  handlers, deadlock diagnostics.
* :mod:`schedule`   — the explicit ``s_t^(k)`` schedule and its
  recurrence (Theorems 1-3, symbolically).
* :mod:`pipeline`   — the one run under the executor-backed front-ends:
  policy, stealing, tier and executor, restore, run, verification.
* :mod:`overlap`    — end-to-end algorithm OVERLAP (Theorems 2, 3, 6).
* :mod:`uniform`    — the ``sqrt(d)`` simulation on uniform-delay hosts
  (Theorem 4, Figure 4).
* :mod:`composed`   — the ``sqrt(d_ave) log^3 n`` composition
  (Theorems 5, 6).
* :mod:`ndim`       — ``m^D`` guests on linear hosts: Theorems 7, 8 at
  ``D = 2`` and their higher-dimensional generalization.
* :mod:`baselines`  — naive / single-copy / prior-art comparators.
* :mod:`verify`     — bit-exact comparison against the reference run.
"""

from repro.core.tree import IntervalNode, IntervalTree
from repro.core.killing import KillingResult, OverlapParams, kill_and_label
from repro.core.assignment import Assignment, assign_databases
from repro.core.dense import ENGINES, DenseExecutor, build_executor, resolve_engine
from repro.core.executor import ExecResult, GreedyExecutor, SimulationDeadlock
from repro.core.schedule import ScheduleTable, build_schedule
from repro.core.overlap import OverlapResult, simulate_overlap, simulate_overlap_on_graph
from repro.core.uniform import uniform_assignment, simulate_uniform, phased_bound
from repro.core.composed import composed_assignment, simulate_composed
from repro.core.baselines import (
    simulate_single_copy,
    simulate_lockstep_bound,
    simulate_prior_efficient,
)
from repro.core.ndim import simulate_2d_on_uniform_array, twodim_slowdown_estimate
from repro.core.verify import VerificationError, verify_execution
from repro.core.ring import RingResult, simulate_ring
from repro.core.dataflow import DataflowResult, simulate_dataflow

__all__ = [
    "IntervalNode",
    "IntervalTree",
    "OverlapParams",
    "KillingResult",
    "kill_and_label",
    "Assignment",
    "assign_databases",
    "GreedyExecutor",
    "DenseExecutor",
    "ENGINES",
    "build_executor",
    "resolve_engine",
    "ExecResult",
    "SimulationDeadlock",
    "ScheduleTable",
    "build_schedule",
    "OverlapResult",
    "simulate_overlap",
    "simulate_overlap_on_graph",
    "uniform_assignment",
    "simulate_uniform",
    "phased_bound",
    "composed_assignment",
    "simulate_composed",
    "simulate_single_copy",
    "simulate_lockstep_bound",
    "simulate_prior_efficient",
    "simulate_2d_on_uniform_array",
    "twodim_slowdown_estimate",
    "VerificationError",
    "verify_execution",
    "RingResult",
    "simulate_ring",
    "DataflowResult",
    "simulate_dataflow",
]
