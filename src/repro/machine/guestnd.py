"""D-dimensional guest arrays (Section 5 and its "higher dimensional"
remark).

Section 5 simulates an ``m x m`` guest array (Theorem 7) and closes
with *"Theorem 8 can be generalized to higher dimensional arrays"*.
This module supplies the guest machine for both: an ``m^D`` array
(``D = 2`` is Theorem 7's guest) whose pebble ``(x, t)`` depends on its
own previous pebble, its ``2D`` axis neighbours' previous pebbles, and
a local database — plus the vectorised reference executor producing
ground truth (values, update digests, final states).

A frame of boundary pebbles (known at time 0, value a hash of
coordinates and time) surrounds the grid on every axis, mirroring the
1-D convention.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.machine.mixing import mix2_s, mix2_v, tag_s

_FRAME_SEED = tag_s(0xF7B)
_INIT_SEED = tag_s(0x1419)
_STATE_SEED = tag_s(0x3D)
_DB_SEED = tag_s(0xDBD)


def _coord_mix(seed: int, shape: tuple[int, ...], offset: int = 0) -> np.ndarray:
    """Vectorised ``fold(seed, x_1, ..., x_D)`` over a coordinate grid.

    ``offset`` shifts coordinates (0-based grid -> ``offset``-based
    labels); matches scalar ``tag_s(seed_tag, *coords)`` when ``seed``
    is the folded seed tag.
    """
    acc = np.broadcast_to(np.uint64(seed), shape).copy()
    for axis, size in enumerate(shape):
        coords = np.arange(offset, size + offset, dtype=np.uint64)
        view = coords.reshape([-1 if a == axis else 1 for a in range(len(shape))])
        acc = mix2_v(acc, np.broadcast_to(view, shape))
    return acc


def initial_value_nd(coords: tuple[int, ...]) -> int:
    """Row-0 pebble value at 1-based interior coordinates."""
    return tag_s(0x1419, *coords)


def frame_value_nd(coords: tuple[int, ...], t: int) -> int:
    """Boundary-frame pebble value at framed coordinates and step t."""
    return tag_s(0xF7B, *coords, t)


class ProgramND(ABC):
    """Guest program for D-dimensional arrays."""

    name: str = "abstract-nd"
    uses_database: bool = True

    @abstractmethod
    def init_state_grid(self, shape: tuple[int, ...]) -> np.ndarray:
        """Initial database states over the interior grid."""

    @abstractmethod
    def compute_grid(
        self,
        t: int,
        states: np.ndarray,
        up: np.ndarray,
        neighbours: list[tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised step: ``neighbours[axis] = (negative, positive)``
        previous-step neighbour values along that axis."""

    @abstractmethod
    def apply_grid(self, states: np.ndarray, updates: np.ndarray) -> np.ndarray:
        """Vectorised update application."""


class StencilCounterND(ProgramND):
    """D-dimensional analogue of the 1-D counter / 2-D stencil counter:
    the value mixes the state with the axis-folded neighbourhood and
    the cell's own previous value; the state absorbs every value."""

    name = "stencil-nd"
    uses_database = True

    def init_state_grid(self, shape):
        return _coord_mix(_STATE_SEED, shape, offset=1)

    def compute_grid(self, t, states, up, neighbours):
        acc = states
        for neg, pos in neighbours:
            acc = mix2_v(acc, mix2_v(neg, pos))
        values = mix2_v(acc, up)
        return values, values

    def apply_grid(self, states, updates):
        return mix2_v(states, updates)

    def compute_cell(self, t, state, up, neighbour_pairs) -> tuple[int, int]:
        """Scalar mirror of :meth:`compute_grid` (for tests)."""
        acc = state
        for neg, pos in neighbour_pairs:
            acc = mix2_s(acc, mix2_s(neg, pos))
        value = mix2_s(acc, up)
        return value, value


class DataflowND(ProgramND):
    """Memoryless stencil (the dataflow model, for contrast): the value
    folds the axis neighbours and the cell's own previous value; the
    updates are zero and the state never changes."""

    name = "dataflow-nd"
    uses_database = False

    def init_state_grid(self, shape):
        return np.zeros(shape, dtype=np.uint64)

    def compute_grid(self, t, states, up, neighbours):
        acc = up
        for neg, pos in neighbours:
            acc = mix2_v(acc, mix2_v(neg, pos))
        return acc, np.zeros_like(acc)

    def apply_grid(self, states, updates):
        return states


@dataclass
class ReferenceRunND:
    """Ground truth for a ``shape`` guest over ``T`` steps.

    ``values[t]`` is the framed grid (every axis padded by 1).
    """

    shape: tuple[int, ...]
    steps: int
    values: np.ndarray
    update_digests: np.ndarray
    state_digests: np.ndarray

    def pebble(self, coords: tuple[int, ...], t: int) -> int:
        """Value at 1-based interior coordinates."""
        return int(self.values[(t, *coords)])


class GuestND:
    """A ``shape`` guest array with unit delays."""

    def __init__(self, shape: tuple[int, ...], program: ProgramND) -> None:
        if len(shape) < 1 or any(s < 1 for s in shape):
            raise ValueError(f"bad guest shape {shape}")
        self.shape = tuple(int(s) for s in shape)
        self.program = program

    @property
    def dims(self) -> int:
        """Number of axes."""
        return len(self.shape)

    def framed_shape(self) -> tuple[int, ...]:
        """Shape with a 1-cell frame on every axis."""
        return tuple(s + 2 for s in self.shape)

    def frame_layer(self, t: int) -> np.ndarray:
        """Framed grid whose *every* cell holds the frame hash for
        step ``t`` (interior gets overwritten by the caller)."""
        base = _coord_mix(_FRAME_SEED, self.framed_shape(), offset=0)
        return mix2_v(base, np.broadcast_to(np.uint64(t), base.shape))

    def initial_grid(self) -> np.ndarray:
        """Framed grid at t=0: frame hashes outside, initial values in."""
        g = self.frame_layer(0)
        interior = tuple(slice(1, s + 1) for s in self.shape)
        g[interior] = _coord_mix(_INIT_SEED, self.shape, offset=1)
        return g

    def run_reference(self, steps: int) -> ReferenceRunND:
        """Execute ``steps`` guest steps directly."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        prog = self.program
        shape = self.shape
        interior = tuple(slice(1, s + 1) for s in shape)
        values = np.zeros((steps + 1, *self.framed_shape()), dtype=np.uint64)
        values[0] = self.initial_grid()
        states = prog.init_state_grid(shape)
        digests = _coord_mix(_DB_SEED, shape, offset=1)
        for t in range(1, steps + 1):
            prev = values[t - 1]
            cur = self.frame_layer(t)
            neighbours = []
            for axis in range(self.dims):
                neg = prev[_shifted(interior, axis, -1)]
                pos = prev[_shifted(interior, axis, +1)]
                neighbours.append((neg, pos))
            up = prev[interior]
            vals, updates = prog.compute_grid(t, states, up, neighbours)
            cur[interior] = vals
            values[t] = cur
            states = prog.apply_grid(states, updates)
            digests = mix2_v(digests, updates)
        return ReferenceRunND(shape, steps, values, digests, np.asarray(states))


def _shifted(interior: tuple[slice, ...], axis: int, delta: int) -> tuple[slice, ...]:
    """The interior slice tuple shifted by ``delta`` along ``axis``."""
    out = list(interior)
    s = out[axis]
    out[axis] = slice(s.start + delta, s.stop + delta)
    return tuple(out)


def nd_digest_seed(coords: tuple[int, ...]) -> int:
    """Initial update digest at 1-based coordinates (matches the
    reference's seeding)."""
    return tag_s(0xDBD, *coords)
