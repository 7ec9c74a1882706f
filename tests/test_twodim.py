"""Section 5: the 2-D array simulation (Theorems 7-8)."""

import pytest

from repro.core.ndim import (
    simulate_2d_on_uniform_array,
    theorem8_slowdown_estimate,
    twodim_slowdown_estimate,
)
from repro.machine.guestnd import DataflowND


class TestCase1:
    """One column per processor (g = 1, the d_ave < n0 case)."""

    def test_verified(self):
        res = simulate_2d_on_uniform_array(8, 8, 3, steps=4)
        assert res.verified
        assert res.g == 1

    def test_slowdown_near_m_plus_d(self):
        m, d = 10, 4
        res = simulate_2d_on_uniform_array(m, m, d, steps=4)
        est = twodim_slowdown_estimate(m, m, d)
        assert est == m + d
        assert res.slowdown <= 3 * est

    def test_no_redundant_work_when_g1(self):
        m = 6
        res = simulate_2d_on_uniform_array(m, m, 2, steps=3)
        # With tau = 1 the shrinking region is exactly the own block.
        assert res.pebbles == m * m * res.steps


class TestCase2:
    """Column blocks (g > 1, the d_ave >= n0 case)."""

    def test_verified(self):
        res = simulate_2d_on_uniform_array(12, 4, 9, steps=6)
        assert res.verified
        assert res.g == 3

    def test_redundant_recomputation_counted(self):
        m = 12
        res = simulate_2d_on_uniform_array(m, 3, 5, steps=4)
        assert res.pebbles > m * m * res.steps
        # Paper's factor: at most ~3x redundancy.
        assert res.pebbles <= 3.2 * m * m * res.steps

    def test_partial_last_batch(self):
        res = simulate_2d_on_uniform_array(8, 2, 3, steps=5)  # tau=4, 5 steps
        assert res.verified

    def test_exchange_volume_positive(self):
        res = simulate_2d_on_uniform_array(8, 2, 3, steps=8)
        assert res.exchanged_cells > 0

    def test_dataflow_program(self):
        res = simulate_2d_on_uniform_array(
            6, 2, 4, steps=6, program=DataflowND()
        )
        assert res.verified


class TestEstimates:
    def test_estimate_cases(self):
        assert twodim_slowdown_estimate(10, 10, 7) == 17
        est = twodim_slowdown_estimate(12, 4, 8)
        assert est == pytest.approx(3 * 12 * 3 + 8 / 3)

    def test_theorem8_shape(self):
        # For fixed m, growing d_ave raises only the second term.
        a = theorem8_slowdown_estimate(32, 4)
        b = theorem8_slowdown_estimate(32, 64)
        assert b > a
        assert b / a < 3  # sqrt(N) term dominates at small d

    def test_slowdown_grows_with_m_over_n0(self):
        s1 = simulate_2d_on_uniform_array(8, 8, 2, steps=2).slowdown
        s2 = simulate_2d_on_uniform_array(8, 2, 2, steps=4).slowdown
        assert s2 > s1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            simulate_2d_on_uniform_array(0, 2, 2)
