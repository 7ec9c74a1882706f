"""The s_t^(k) schedule: rules, recurrence, Theorem 2's bound."""

import pytest

from repro.core.killing import OverlapParams
from repro.core.schedule import (
    build_schedule,
    recurrence_residuals,
    theorem2_bound,
)
from repro.machine.host import HostArray


def params(n=256, d=4, c=4.0):
    return OverlapParams.for_host(HostArray.uniform(n, d), c)


def test_base_case_rule1():
    tab = build_schedule(params())
    assert tab.s[tab.k_max][1] == 1.0


def test_base_case_blocked_variant():
    tab = build_schedule(params(), base_work=16)
    assert tab.s[tab.k_max][1] == 16.0


def test_rule2_adds_Dk():
    p = params()
    tab = build_schedule(p)
    for k in range(tab.k_max):
        m_child = tab.heights[k + 1]
        for t in range(1, m_child + 1):
            assert tab.s[k][t] == pytest.approx(tab.s[k + 1][t] + p.D(k))


def test_rule3_stacks_half_boxes():
    tab = build_schedule(params())
    for k in range(tab.k_max):
        m_child = tab.heights[k + 1]
        for t in range(m_child + 1, tab.heights[k] + 1):
            assert tab.s[k][t] == pytest.approx(
                tab.s[k][t - m_child] + tab.s[k][m_child]
            )


def test_rows_monotone_in_t():
    tab = build_schedule(params())
    for k in range(tab.k_max + 1):
        row = tab.s[k][1:]
        assert all(a <= b for a, b in zip(row, row[1:]))


def test_recurrence_residuals_small():
    # s_{m_k}^(k) = 2 s_{m_{k+1}}^(k+1) + 2 D_k is exact whenever the
    # integer box heights actually halve; rounding at the deepest
    # levels (m_k not a power of two) perturbs it by at most ~1/2.
    tab = build_schedule(params(1024, 2))
    residuals = recurrence_residuals(tab)
    for k, res in enumerate(residuals):
        if tab.heights[k] == 2 * tab.heights[k + 1]:
            assert res < 0.05
        else:
            assert res < 0.6


def test_makespan_within_theorem2_bound():
    for n, d in [(128, 1), (256, 4), (512, 16)]:
        p = params(n, d)
        tab = build_schedule(p)
        assert tab.makespan_bound() <= theorem2_bound(p)
        assert tab.makespan_bound() <= tab.closed_form_bound() * 1.5


def test_slowdown_bound_scales_with_d():
    slows = []
    for d in (1, 4, 16, 64):
        tab = build_schedule(params(256, d))
        slows.append(tab.slowdown_bound())
    # Theorem 2: slowdown ~ d_ave (linear growth).
    assert slows[1] / slows[0] > 2
    assert slows[3] > slows[2] > slows[1] > slows[0]


def test_value_accessor_bounds():
    tab = build_schedule(params())
    with pytest.raises(IndexError):
        tab.value(-1, 1)
    with pytest.raises(IndexError):
        tab.value(0, 0)
    with pytest.raises(IndexError):
        tab.value(0, tab.heights[0] + 1)
    assert tab.value(0, 1) > 0


def test_base_work_validation():
    with pytest.raises(ValueError):
        build_schedule(params(), base_work=0.5)


class TestFeasibility:
    """Theorem 1's physical preconditions, checked on real hosts."""

    def _report(self, host):
        from repro.core.killing import kill_and_label
        from repro.core.schedule import feasibility_report

        killing = kill_and_label(host)
        table = build_schedule(killing.params)
        return feasibility_report(killing, table)

    def test_uniform_host_feasible(self):
        rep = self._report(HostArray.uniform(256, 4))
        assert rep["interval_budgets_hold"]
        assert rep["atomic_rows_feasible"]

    def test_skewed_host_feasible_after_killing(self):
        import numpy as np

        from repro.topology.delays import pareto_delays

        rng = np.random.default_rng(5)
        host = HostArray(pareto_delays(255, rng, alpha=1.1, cap=4096))
        rep = self._report(host)
        assert rep["interval_budgets_hold"]
        assert rep["atomic_rows_feasible"]

    def test_min_row_gap_positive(self):
        from repro.core.schedule import min_row_gap

        tab = build_schedule(params(256, 4))
        assert min_row_gap(tab) > 0

    def test_row_gap_covers_atomic_delay_by_construction(self):
        # The gap is >= D_{k_max-1} while surviving atomic intervals
        # have delay <= D_{k_max}: a factor-2 safety margin.
        p = params(512, 8)
        tab = build_schedule(p)
        from repro.core.schedule import min_row_gap

        if p.k_max >= 1:
            assert min_row_gap(tab) >= p.D(p.k_max)


class TestRowDeadlines:
    """Theorems 1-3 as executable deadlines."""

    def _traced(self, host, block, steps=20):
        from repro.core.assignment import assign_databases
        from repro.core.executor import GreedyExecutor
        from repro.core.killing import kill_and_label
        from repro.machine.programs import CounterProgram
        from repro.telemetry import MetricsTimeline

        killing = kill_and_label(host)
        asg = assign_databases(killing, block=block)
        trace = MetricsTimeline()
        GreedyExecutor(host, asg, CounterProgram(), steps, telemetry=trace).run()
        from repro.core.schedule import build_schedule

        table = build_schedule(killing.params, base_work=float(asg.load()))
        return table, trace

    def test_deadline_vector_shape(self):
        from repro.core.schedule import row_deadlines

        tab = build_schedule(params(256, 4))
        m0 = tab.heights[0]
        dl = row_deadlines(tab, 3 * m0)
        assert len(dl) == 3 * m0
        assert dl == sorted(dl)  # deadlines increase
        # Round boundary adds a full round length.
        assert dl[m0] == pytest.approx(tab.s[0][m0] + tab.s[0][1])

    @pytest.mark.parametrize("block", [1, 4])
    def test_greedy_meets_every_deadline_uniform(self, block):
        from repro.core.schedule import check_row_deadlines

        table, trace = self._traced(HostArray.uniform(96, 4), block)
        rep = check_row_deadlines(table, trace.row_completion_times())
        assert rep["all_rows_met_deadline"], rep["missed_rows"]

    def test_greedy_meets_every_deadline_skewed(self):
        from repro.core.schedule import check_row_deadlines

        delays = [1] * 95
        delays[47] = 2048
        table, trace = self._traced(HostArray(delays), 4)
        rep = check_row_deadlines(table, trace.row_completion_times())
        assert rep["all_rows_met_deadline"]

    def test_negative_steps_rejected(self):
        from repro.core.schedule import row_deadlines

        with pytest.raises(ValueError):
            row_deadlines(build_schedule(params()), -1)


def test_heights_halve():
    tab = build_schedule(params(1024, 2))
    for k in range(tab.k_max):
        assert tab.heights[k] >= tab.heights[k + 1]
        assert tab.heights[k] <= 2 * tab.heights[k + 1] + 1
