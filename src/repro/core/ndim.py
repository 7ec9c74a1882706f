"""Slab simulation of ``m^D`` guests on linear hosts (Section 5).

Theorem 7 (an ``m x m`` guest on the uniform-delay array ``H0``) and
the paper's closing remark that "Theorem 8 can be generalized to
higher dimensional arrays" are one algorithm, run here for every
``D >= 2``.  The guest is sliced along its **last axis** into slabs of
``g = ceil(m / n0)`` slices, one per host processor.  Processors work
in batches of ``tau = g`` steps: each computes its slab (own slices
plus ``tau`` halo slices per side, whose databases are redundant
copies) on a region that shrinks by one slice per side per step, and
neighbours then exchange exactly the wedge of pebbles (values +
updates) the shrinkage missed.  Case 1 of Theorem 7 (``d_ave < n0``)
is the ``g = tau = 1`` instance of the same loop.

Per batch an interior processor computes ``m^(D-1) * tau * (g + tau -
1)`` pebbles — Theorem 7's ``<= 3x`` redundancy constant — and the
exchange amortises the link latency over ``g`` guest steps, giving
``O(m^(D-1) + m^D / n0)`` per step on ``H0``.  Time is charged per
phase: the busiest processor's pebbles, then the pipelined transit of
the exchanged wedge (``d + ceil(P / bw) - 1``).

Runs are verified cell-exactly against :class:`GuestND`'s reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.killing import validate_steps
from repro.machine.guestnd import (
    GuestND,
    ProgramND,
    StencilCounterND,
    _coord_mix,
    _DB_SEED,
    _FRAME_SEED,
)
from repro.machine.mixing import mix2_v
from repro.netsim.links import batch_transit_time, check_bandwidth


class _SlabProc:
    """One host processor: values, database states, update digests and
    versions of its slab (global slices ``slo..shi``)."""

    def __init__(self, lo: int, hi: int, m: int, tau: int, prog: ProgramND,
                 values: np.ndarray, states: np.ndarray, digests: np.ndarray):
        self.lo, self.hi = lo, hi
        self.program = prog
        self.slo = max(1, lo - tau)
        self.shi = min(m, hi + tau)
        # Interior-only storage; frames are regenerated on demand.
        slab = np.s_[..., self.slo - 1 : self.shi]
        self.V = values[slab].copy()
        self.S = states[slab].copy()
        self.Dg = digests[slab].copy()
        self.ver = np.zeros(self.shi - self.slo + 1, dtype=np.int64)
        self.log: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    def li(self, c: int) -> int:
        """Slab-local index of global slice ``c``."""
        return c - self.slo


@dataclass
class NDimResult:
    """Outcome of a D-dimensional slab simulation."""

    shape: tuple[int, ...]
    n_procs: int
    d: int
    g: int
    steps: int
    makespan: int
    pebbles: int
    exchanged_cells: int
    verified: bool

    @property
    def slowdown(self) -> float:
        """Host steps per guest step."""
        return self.makespan / self.steps

    @property
    def cells(self) -> int:
        """Guest cells per step."""
        return int(np.prod(self.shape))

    @property
    def redundancy(self) -> float:
        """Computed pebbles per distinct pebble."""
        return self.pebbles / (self.cells * self.steps)


def simulate_nd_on_uniform_array(
    m: int,
    dims: int,
    n_procs: int,
    d: int,
    steps: int | None = None,
    program: ProgramND | None = None,
    bandwidth: int | None = None,
    verify: bool = True,
) -> NDimResult:
    """Simulate an ``m^dims`` guest on a uniform-delay-``d`` array."""
    if dims < 2:
        raise ValueError("use the 1-D executor for dims < 2")
    if m < 1 or n_procs < 1 or d < 1:
        raise ValueError("need m, n_procs, d >= 1")
    g = math.ceil(m / n_procs)
    tau = g
    steps = max(2, 2 * tau) if steps is None else validate_steps(steps)
    if bandwidth is None:
        bandwidth = max(1, math.ceil(math.log2(max(2, n_procs))))
    check_bandwidth(bandwidth)
    program = program or StencilCounterND()
    guest = GuestND(tuple([m] * dims), program)

    interior = tuple(slice(1, m + 1) for _ in range(dims))
    values = guest.initial_grid()[interior]
    states = program.init_state_grid(guest.shape)
    digests = _coord_mix(_DB_SEED, guest.shape, offset=1)
    P = math.ceil(m / g)
    procs = [
        _SlabProc(p * g + 1, min(m, (p + 1) * g), m, tau, program,
                  values, states, digests)
        for p in range(P)
    ]

    cell_count = m ** (dims - 1)
    makespan = 0
    pebbles_total = 0
    exchanged_total = 0
    t0 = 0
    while t0 < steps:
        tau_b = min(tau, steps - t0)
        batch_pebbles = []
        for proc in procs:
            batch_pebbles.append(
                _compute_batch(guest, proc, t0, tau_b, cell_count)
            )
        pebbles_total += sum(batch_pebbles)
        compute_time = max(batch_pebbles)
        t_end = t0 + tau_b

        # Exchange the missed wedge: halo slice lo - j (resp. hi + j)
        # was locally advanced only to t_end - j.
        volume = 0
        for idx, proc in enumerate(procs):
            for j in range(1, tau + 1):
                c = proc.lo - j
                if c >= 1 and idx > 0:
                    rows = procs[idx - 1].log.get(c)
                    if rows:
                        volume += 2 * _resync(proc, c, rows, t0 + 1)
                c = proc.hi + j
                if c <= m and idx + 1 < len(procs):
                    rows = procs[idx + 1].log.get(c)
                    if rows:
                        volume += 2 * _resync(proc, c, rows, t0 + 1)
        exchanged_total += volume
        # Each direction of each link carries ~volume / (2P) of this;
        # charge the busiest link, pipelined.
        per_link = math.ceil(volume / max(1, 2 * len(procs))) if volume else 0
        transit = batch_transit_time(per_link, d, bandwidth) if per_link else 0
        makespan += compute_time + transit
        t0 = t_end

    verified = False
    if verify:
        _verify_nd(guest, procs, steps)
        verified = True
    return NDimResult(
        guest.shape, P, d, g, steps, makespan, pebbles_total, exchanged_total, verified
    )


def _frame_block(guest: GuestND, cols: np.ndarray, t: int) -> np.ndarray:
    """Framed block: first ``D-1`` axes fully framed (labels 0..m+1),
    last axis at the given global labels; every cell holds the frame
    hash for step ``t``.  Interior cells get overwritten by the caller.
    """
    m, dims = guest.shape[0], guest.dims
    shape = tuple([m + 2] * (dims - 1)) + (len(cols),)
    acc = np.broadcast_to(np.uint64(_FRAME_SEED), shape).copy()
    for axis in range(dims - 1):
        coords = np.arange(0, m + 2, dtype=np.uint64)
        view = coords.reshape([-1 if a == axis else 1 for a in range(dims)])
        acc = mix2_v(acc, np.broadcast_to(view, shape))
    last = cols.astype(np.uint64).reshape([1] * (dims - 1) + [-1])
    acc = mix2_v(acc, np.broadcast_to(last, shape))
    return mix2_v(acc, np.broadcast_to(np.uint64(t), shape))


def _compute_batch(
    guest: GuestND, proc: _SlabProc, t0: int, tau_b: int, cell_count: int
) -> int:
    m, dims = guest.shape[0], guest.dims
    prog = proc.program
    pebbles = 0
    proc.log = {c: [] for c in range(proc.lo, proc.hi + 1)}
    inner = tuple(slice(1, m + 1) for _ in range(dims - 1))
    for s in range(1, tau_b + 1):
        t = t0 + s
        a = max(1, proc.lo - (tau_b - s), proc.slo)
        b = min(m, proc.hi + (tau_b - s), proc.shi)
        la, lb = proc.li(a), proc.li(b)
        w = lb - la + 1
        cols_ext = np.arange(a - 1, b + 2)  # includes one label each side
        tmp = _frame_block(guest, cols_ext, t - 1)
        # Overwrite interior cells available from the slab (labels in
        # [max(1,a-1), min(m,b+1)]).
        va = max(1, a - 1)
        vb = min(m, b + 1)
        tmp[(*inner, slice(va - (a - 1), vb - (a - 1) + 1))] = proc.V[
            ..., proc.li(va) : proc.li(vb) + 1
        ]
        centre = (*inner, slice(1, w + 1))
        neighbours = []
        for axis in range(dims - 1):
            neg = tmp[_shift(centre, axis, -1)]
            pos = tmp[_shift(centre, axis, +1)]
            neighbours.append((neg, pos))
        neighbours.append(
            (tmp[(*inner, slice(0, w))], tmp[(*inner, slice(2, w + 2))])
        )
        up = tmp[centre]
        values, updates = prog.compute_grid(
            t, proc.S[..., la : lb + 1], up, neighbours
        )
        proc.V[..., la : lb + 1] = values
        proc.S[..., la : lb + 1] = prog.apply_grid(proc.S[..., la : lb + 1], updates)
        proc.Dg[..., la : lb + 1] = mix2_v(proc.Dg[..., la : lb + 1], updates)
        proc.ver[la : lb + 1] += 1
        pebbles += cell_count * w
        for c in range(max(a, proc.lo), min(b, proc.hi) + 1):
            lc = proc.li(c)
            proc.log[c].append(
                (values[..., lc - la].copy(), updates[..., lc - la].copy())
            )
    return pebbles


def _shift(centre: tuple, axis: int, delta: int) -> tuple:
    out = list(centre)
    s = out[axis]
    out[axis] = slice(s.start + delta, s.stop + delta)
    return tuple(out)


def _resync(proc: _SlabProc, c: int, rows, t_first: int) -> int:
    """Apply a neighbour's (values, updates) stream for halo slice c."""
    lc = proc.li(c)
    consumed = 0
    for offset, (vals, upds) in enumerate(rows):
        t = t_first + offset
        if t <= proc.ver[lc]:
            continue
        proc.S[..., lc] = proc.program.apply_grid(proc.S[..., lc], upds)
        proc.Dg[..., lc] = mix2_v(proc.Dg[..., lc], upds)
        proc.V[..., lc] = vals
        proc.ver[lc] = t
        consumed += vals.size
    return consumed


def _verify_nd(guest: GuestND, procs: list[_SlabProc], steps: int) -> None:
    reference = guest.run_reference(steps)
    m = guest.shape[0]
    interior = tuple(slice(1, m + 1) for _ in range(guest.dims))
    ref_final = reference.values[steps][interior]
    for proc in procs:
        for c in range(proc.lo, proc.hi + 1):
            lc = proc.li(c)
            if proc.ver[lc] != steps:
                raise AssertionError(f"slice {c}: version {proc.ver[lc]} != {steps}")
            if not np.array_equal(proc.V[..., lc], ref_final[..., c - 1]):
                raise AssertionError(f"slice {c}: final values diverge")
            if not np.array_equal(
                proc.Dg[..., lc], reference.update_digests[..., c - 1]
            ):
                raise AssertionError(f"slice {c}: update digests diverge")
            if not np.array_equal(
                proc.S[..., lc], reference.state_digests[..., c - 1]
            ):
                raise AssertionError(f"slice {c}: final states diverge")


def ndim_slowdown_estimate(m: int, dims: int, n_procs: int, d: int) -> float:
    """The generalized Theorem-7 shape: per guest step, ``~3 m^(D-1) g``
    compute (case 2) or ``m^(D-1) + d`` (case 1)."""
    g = math.ceil(m / n_procs)
    cells = m ** (dims - 1)
    if g == 1:
        return cells + d
    return 3.0 * cells * g + d / g


def simulate_2d_on_uniform_array(
    m: int,
    n_procs: int,
    d: int,
    steps: int | None = None,
    program: ProgramND | None = None,
    bandwidth: int | None = None,
    verify: bool = True,
) -> NDimResult:
    """Theorem 7: an ``m x m`` guest on a uniform-delay-``d`` array."""
    return simulate_nd_on_uniform_array(
        m, 2, n_procs, d, steps, program, bandwidth, verify
    )


def twodim_slowdown_estimate(m: int, n_procs: int, d: int) -> float:
    """Theorem 7's analytic slowdown ``O(m + m^2 / n0)``: ``m + d`` per
    guest step in case 1 (``g == 1``), else ``~3 m g`` compute plus the
    amortised latency ``d / g``."""
    return ndim_slowdown_estimate(m, 2, n_procs, d)


def theorem8_slowdown_estimate(m: int, d_ave: float) -> float:
    """Theorem 8's combined form: ``O(sqrt(N) log^3 N +
    N^(1/4) sqrt(d_ave) log^3 N)`` for an ``N = m^2``-node guest."""
    N = m * m
    lg = max(1.0, math.log2(max(2, N)))
    return math.sqrt(N) * lg**3 + N**0.25 * math.sqrt(max(1.0, d_ave)) * lg**3
