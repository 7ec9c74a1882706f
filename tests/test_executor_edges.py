"""Executor edge paths: dep_map validation, col_label, degenerate runs."""

import pytest

from repro.core.assignment import Assignment
from repro.core.executor import GreedyExecutor, run_assignment
from repro.machine.host import HostArray
from repro.machine.pebbles import initial_value
from repro.machine.programs import CounterProgram


def one_to_one(n):
    return Assignment([(i + 1, i + 1) for i in range(n)], n)


class TestDepMapValidation:
    def test_missing_column_rejected(self):
        host = HostArray.uniform(3)
        with pytest.raises(ValueError, match="missing column"):
            GreedyExecutor(
                host, one_to_one(3), CounterProgram(), 2, dep_map={1: (2, 3)}
            )

    def test_out_of_range_source_rejected(self):
        host = HostArray.uniform(3)
        dep_map = {1: (2, 3), 2: (1, 3), 3: (2, 4)}  # 4 is out of range
        with pytest.raises(ValueError, match="outside"):
            GreedyExecutor(host, one_to_one(3), CounterProgram(), 2, dep_map=dep_map)

    def test_valid_custom_dep_map_runs(self):
        # A 3-cycle of columns on a 3-processor host.
        host = HostArray.uniform(3, 2)
        dep_map = {1: (3, 2), 2: (1, 3), 3: (2, 1)}
        res = GreedyExecutor(
            host, one_to_one(3), CounterProgram(), 4, dep_map=dep_map
        ).run()
        assert res.stats.pebbles == 12


class TestColLabel:
    def test_labels_feed_program_identity(self):
        host = HostArray.uniform(2, 1)
        asg = one_to_one(2)
        prog = CounterProgram()
        # Swap labels: column 1 behaves as guest processor 2 and v.v.
        res = GreedyExecutor(
            host, asg, prog, 1, col_label=lambda c: 3 - c
        ).run()
        plain = GreedyExecutor(host, asg, prog, 1).run()
        # Row-0 initial values are swapped, so digests differ per slot.
        assert res.value_digests[(0, 1)] != plain.value_digests[(0, 1)]
        assert res.replicas[(0, 1)].column == 2

    def test_initial_values_follow_label(self):
        host = HostArray.uniform(2, 1)
        ex = GreedyExecutor(
            host, one_to_one(2), CounterProgram(), 0, col_label=lambda c: c + 10
        )
        assert ex.vals[0][1][0] == initial_value(11)


class TestDegenerate:
    def test_single_position_single_column(self):
        host = HostArray.uniform(1)
        res = run_assignment(host, Assignment([(1, 1)], 1), CounterProgram(), 5)
        assert res.stats.makespan == 5
        assert res.stats.messages == 0

    def test_guest_much_bigger_than_host(self):
        host = HostArray.uniform(2, 3)
        asg = Assignment([(1, 10), (9, 20)], 20)
        res = run_assignment(host, asg, CounterProgram(), 4)
        assert res.stats.pebbles == (10 + 12) * 4

    def test_all_columns_on_one_end(self):
        host = HostArray([5, 5, 5])
        asg = Assignment([(1, 6), None, None, None], 6)
        res = run_assignment(host, asg, CounterProgram(), 3)
        assert res.stats.messages == 0
        assert res.stats.makespan == 18

    def test_trace_and_multicast_compose(self):
        from repro.telemetry import MetricsTimeline

        host = HostArray.uniform(5, 2)
        asg = Assignment([(1, 5), None, (6, 10), None, (6, 10)], 10)
        trace = MetricsTimeline()
        res = GreedyExecutor(
            host, asg, CounterProgram(), 4, telemetry=trace, multicast=True
        ).run()
        assert len(trace.records) == res.stats.pebbles


class TestStatsAccounting:
    def test_redundant_counts_extra_copies_only(self):
        host = HostArray.uniform(3, 1)
        asg = Assignment([(1, 2), (2, 3), (3, 4)], 4)  # cols 2,3 doubled
        res = run_assignment(host, asg, CounterProgram(), 5)
        assert res.stats.pebbles == 6 * 5
        assert res.stats.redundant == 2 * 5

    def test_pebble_hops_at_least_messages(self):
        host = HostArray.uniform(4, 2)
        asg = Assignment([(1, 2), (2, 4), (4, 6), (6, 8)], 8)
        res = run_assignment(host, asg, CounterProgram(), 5)
        assert res.stats.pebble_hops >= res.stats.messages
