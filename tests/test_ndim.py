"""D-dimensional guests and the slab simulator."""

import numpy as np
import pytest

from repro.core.ndim import ndim_slowdown_estimate, simulate_nd_on_uniform_array
from repro.machine.guestnd import (
    DataflowND,
    GuestND,
    StencilCounterND,
    frame_value_nd,
    initial_value_nd,
    nd_digest_seed,
)
from repro.machine.mixing import tag_s


class TestGuestND:
    def test_reference_shapes(self):
        ref = GuestND((4, 4, 4), StencilCounterND()).run_reference(2)
        assert ref.values.shape == (3, 6, 6, 6)
        assert ref.update_digests.shape == (4, 4, 4)
        assert ref.state_digests.shape == (4, 4, 4)

    def test_initial_values_match_scalar(self):
        g = GuestND((3, 5), StencilCounterND())
        ref = g.run_reference(0)
        assert ref.pebble((2, 4), 0) == initial_value_nd((2, 4))

    def test_frame_matches_scalar(self):
        g = GuestND((3, 3), StencilCounterND())
        ref = g.run_reference(2)
        assert int(ref.values[2][0, 1]) == frame_value_nd((0, 1), 2)
        assert int(ref.values[1][4, 2]) == frame_value_nd((4, 2), 1)

    def test_digest_seeds(self):
        # With zero steps the digests are the seeds.
        ref = GuestND((3, 3, 3), StencilCounterND()).run_reference(0)
        for idx in np.ndindex(3, 3, 3):
            coords = tuple(i + 1 for i in idx)
            assert int(ref.update_digests[idx]) == nd_digest_seed(coords)

    def test_init_state_scalar_matches_grid(self):
        grid = StencilCounterND().init_state_grid((5, 5))
        for r in range(1, 6):
            for c in range(1, 6):
                assert int(grid[r - 1, c - 1]) == tag_s(0x3D, r, c)

    def test_scalar_cell_matches_grid(self):
        prog = StencilCounterND()
        g = GuestND((4, 4), prog)
        ref = g.run_reference(1)
        v0 = ref.values[0]
        states = prog.init_state_grid((4, 4))
        pairs = [
            (int(v0[1, 2]), int(v0[3, 2])),  # axis 0 neighbours of (2,2)
            (int(v0[2, 1]), int(v0[2, 3])),  # axis 1
        ]
        val, _ = prog.compute_cell(1, int(states[1, 1]), int(v0[2, 2]), pairs)
        assert ref.pebble((2, 2), 1) == val

    def test_deterministic(self):
        g = GuestND((4, 4, 4), StencilCounterND())
        a, b = g.run_reference(2), g.run_reference(2)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.update_digests, b.update_digests)

    def test_values_unique_in_small_grid(self):
        ref = GuestND((4, 4), StencilCounterND()).run_reference(3)
        interior = ref.values[1:, 1:5, 1:5].ravel().tolist()
        assert len(set(interior)) == len(interior)

    def test_dataflow_has_constant_state(self):
        ref = GuestND((4, 4), DataflowND()).run_reference(3)
        assert np.all(ref.state_digests == 0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            GuestND((0, 3), StencilCounterND())

    def test_1d_nd_machine_runs(self):
        g = GuestND((6,), StencilCounterND())
        ref = g.run_reference(3)
        assert ref.values.shape == (4, 8)


class TestSlabSimulation:
    @pytest.mark.parametrize(
        "m,dims,n0,d", [(8, 2, 4, 4), (6, 3, 3, 4), (6, 3, 6, 2), (4, 4, 2, 4)]
    )
    def test_verified(self, m, dims, n0, d):
        res = simulate_nd_on_uniform_array(m, dims, n0, d, steps=4)
        assert res.verified

    def test_case1_no_redundancy(self):
        res = simulate_nd_on_uniform_array(6, 3, 6, 2, steps=3)
        assert res.g == 1
        assert res.redundancy == 1.0

    def test_case2_redundancy_bounded(self):
        res = simulate_nd_on_uniform_array(6, 3, 2, 4, steps=6)
        assert res.g == 3
        assert 1.0 < res.redundancy <= 3.2

    def test_partial_last_batch(self):
        res = simulate_nd_on_uniform_array(6, 3, 2, 3, steps=5)
        assert res.verified

    def test_slowdown_grows_with_dims(self):
        s2 = simulate_nd_on_uniform_array(6, 2, 3, 4, steps=4, verify=False)
        s3 = simulate_nd_on_uniform_array(6, 3, 3, 4, steps=4, verify=False)
        assert s3.slowdown > s2.slowdown
        # per-step work scales with m^(D-1) slices of the slab sweep
        assert s3.pebbles > s2.pebbles

    def test_estimate_shape(self):
        assert ndim_slowdown_estimate(6, 3, 6, 5) == 36 + 5
        est = ndim_slowdown_estimate(6, 3, 2, 6)
        assert est == pytest.approx(3 * 36 * 3 + 2)

    def test_rejects_dims_one(self):
        with pytest.raises(ValueError):
            simulate_nd_on_uniform_array(6, 1, 3, 4)
