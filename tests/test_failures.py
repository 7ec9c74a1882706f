"""Fault tolerance: OVERLAP reconfigures around failed workstations."""

import numpy as np
import pytest

from repro.core import simulate_2d_on_uniform_array
from repro.core.dataflow import simulate_dataflow
from repro.core.killing import (
    kill_and_label,
    normalize_forced_dead,
    validate_steps,
)
from repro.core.ndim import simulate_nd_on_uniform_array
from repro.core.overlap import simulate_overlap
from repro.core.uniform import simulate_uniform
from repro.machine.host import HostArray


def test_forced_dead_excluded_from_liveness():
    host = HostArray.uniform(32, 2)
    res = kill_and_label(host, forced_dead={3, 10, 11})
    assert not res.live[3] and not res.live[10] and not res.live[11]
    assert res.n_live <= 29


def test_invalid_failure_position_rejected():
    with pytest.raises(ValueError):
        kill_and_label(HostArray.uniform(8, 1), forced_dead={99})


def test_overlap_survives_scattered_failures():
    host = HostArray.uniform(64, 2)
    rng = np.random.default_rng(0)
    failed = set(int(p) for p in rng.choice(64, size=8, replace=False))
    res = simulate_overlap(host, steps=8, forced_dead=failed)
    assert res.verified
    # Failed positions hold no databases.
    for p in failed:
        assert res.assignment.ranges[p] is None


def test_overlap_survives_contiguous_outage():
    # A whole rack goes down; its neighbours relay traffic across it.
    host = HostArray.uniform(64, 2)
    failed = set(range(24, 32))
    res = simulate_overlap(host, steps=8, forced_dead=failed)
    assert res.verified
    assert res.m >= 32  # most of the guest survives


def test_failures_shrink_guest_but_preserve_correctness():
    host = HostArray.uniform(48, 2)
    healthy = simulate_overlap(host, steps=6)
    degraded = simulate_overlap(host, steps=6, forced_dead=set(range(0, 12)))
    assert degraded.verified
    assert degraded.m < healthy.m


def test_failures_near_long_link_compose_with_killing():
    delays = [1] * 63
    delays[31] = 256
    host = HostArray(delays)
    res = simulate_overlap(host, steps=8, block=4, forced_dead={30, 33})
    assert res.verified


# -- shared input normalisation (one validation point for all layers) -----


def test_normalize_forced_dead_accepts_iterables_and_numpy_ints():
    assert normalize_forced_dead(8, None) == set()
    assert normalize_forced_dead(8, [3, 3, np.int64(5)]) == {3, 5}
    assert normalize_forced_dead(8, (np.int32(0),)) == {0}
    assert normalize_forced_dead(8, {7}) == {7}


def test_normalize_forced_dead_rejects_bad_positions():
    with pytest.raises(ValueError, match="outside"):
        normalize_forced_dead(8, {8})
    with pytest.raises(ValueError, match="outside"):
        normalize_forced_dead(8, {-1})
    with pytest.raises(ValueError, match="not an integer"):
        normalize_forced_dead(8, {2.5})


def test_validate_steps_normalises_integers():
    assert validate_steps(0) == 0
    assert validate_steps(np.int64(7)) == 7
    assert validate_steps(4.0) == 4  # integral float is fine
    with pytest.raises(ValueError, match="non-negative"):
        validate_steps(-1)
    with pytest.raises(ValueError, match="integer"):
        validate_steps(2.5)
    with pytest.raises(ValueError, match="integer"):
        validate_steps(None)


def test_simulate_overlap_normalises_forced_dead_and_steps():
    host = HostArray.uniform(32, 2)
    failed = np.array([4, 4, 9])  # duplicates + numpy dtype
    res = simulate_overlap(host, steps=np.int64(6), forced_dead=failed)
    assert res.verified
    assert res.assignment.ranges[4] is None
    assert res.assignment.ranges[9] is None
    with pytest.raises(ValueError, match="integer"):
        simulate_overlap(host, steps=3.5)
    with pytest.raises(ValueError, match="outside"):
        simulate_overlap(host, steps=4, forced_dead={32})



def _host():
    return HostArray([1, 5, 1, 9, 1, 2, 7])


# The 2-D slab runs on one processor: with no exchange to time, only an
# up-front check rejects the bandwidth.
SLAB_ENTRIES = {
    "slab_2d": lambda **kw: simulate_2d_on_uniform_array(6, 1, 3, **kw),
    "slab_nd": lambda **kw: simulate_nd_on_uniform_array(6, 3, 2, 3, **kw),
}
BANDWIDTH_ENTRIES = {
    **SLAB_ENTRIES,
    "dataflow": lambda **kw: simulate_dataflow(4, 4, steps=4, **kw),
    "uniform": lambda **kw: simulate_uniform(4, 4, steps=4, **kw),
    "overlap_dense": lambda **kw: simulate_overlap(
        _host(), steps=6, engine="dense", **kw
    ),
    "overlap_greedy": lambda **kw: simulate_overlap(
        _host(), steps=6, engine="greedy", **kw
    ),
}


@pytest.mark.parametrize("bandwidth", [0, -1])
@pytest.mark.parametrize("entry", sorted(BANDWIDTH_ENTRIES))
def test_bandwidth_below_one_rejected(entry, bandwidth):
    with pytest.raises(ValueError, match="bandwidth must be >= 1"):
        BANDWIDTH_ENTRIES[entry](bandwidth=bandwidth)


@pytest.mark.parametrize("entry", sorted(SLAB_ENTRIES))
def test_slab_negative_steps_rejected(entry):
    with pytest.raises(ValueError, match="non-negative"):
        SLAB_ENTRIES[entry](steps=-1, verify=False)
