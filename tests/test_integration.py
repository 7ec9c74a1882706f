"""Cross-module integration scenarios — the full pipelines a user runs."""

import numpy as np
import pytest

from repro import (
    GuestArray,
    HostArray,
    simulate_overlap,
    simulate_overlap_on_graph,
)
from repro.core.baselines import simulate_single_copy
from repro.core.composed import simulate_composed_on_graph
from repro.core.ring import simulate_ring
from repro.machine.programs import get_program, list_programs
from repro.telemetry import MetricsTimeline
from repro.topology.delays import bimodal_delays, pareto_delays, scale_to_average
from repro.topology.embedding import embed_linear_array
from repro.topology.generators import (
    h1_host,
    mesh_host,
    now_cluster_host,
    random_regular_host,
)


class TestFullPipelines:
    def test_every_program_runs_through_overlap(self):
        host = HostArray.uniform(32, 3)
        for name in list_programs():
            res = simulate_overlap(host, program=get_program(name), steps=6)
            assert res.verified, name

    def test_graph_to_overlap_to_verification(self):
        for maker in (
            lambda: now_cluster_host(4, 6, 1, 24),
            lambda: mesh_host(5, 5, [2] * 40),
            lambda: random_regular_host(32, 3, [3] * 48, seed=1),
        ):
            res = simulate_overlap_on_graph(maker(), steps=8)
            assert res.verified
            assert res.embedding.dilation <= 3

    def test_composed_on_graph_pipeline(self):
        hg = now_cluster_host(4, 6, 1, 16)
        res = simulate_composed_on_graph(hg, steps=4)
        assert res.verified

    def test_overlap_with_trace_matches_stats(self):
        host = HostArray.uniform(24, 2)
        from repro.core.assignment import assign_databases
        from repro.core.executor import GreedyExecutor
        from repro.core.killing import kill_and_label
        from repro.machine.programs import CounterProgram

        killing = kill_and_label(host)
        asg = assign_databases(killing, block=2)
        trace = MetricsTimeline()
        res = GreedyExecutor(host, asg, CounterProgram(), 8, telemetry=trace).run()
        assert len(trace.records) == res.stats.pebbles
        assert trace.makespan == res.stats.makespan

    def test_heavy_tail_now_story(self):
        """The README quickstart invariants, pinned."""
        rng = np.random.default_rng(7)
        host = HostArray(pareto_delays(127, rng, alpha=1.1, cap=2048))
        overlap = simulate_overlap(host, steps=16, block=8, verify=False)
        single = simulate_single_copy(host, steps=16, verify=False)
        assert overlap.slowdown < host.d_max + 1
        assert overlap.slowdown < single.slowdown
        assert overlap.m > host.n  # work-preserving: bigger guest than host

    def test_ring_and_array_guests_share_host(self):
        host = HostArray.uniform(18, 2)
        ring = simulate_ring(host, steps=6)
        arr = simulate_single_copy(host, m=18, steps=6)
        assert ring.verified and arr.verified

    def test_h1_pipeline_with_scaled_delays(self):
        host = h1_host(100)
        rescaled = HostArray(scale_to_average(host.link_delays, 4))
        res = simulate_overlap(rescaled, steps=8)
        assert res.verified


class TestDeterminismEndToEnd:
    def test_same_seed_same_everything(self):
        def run():
            rng = np.random.default_rng(3)
            host = HostArray(bimodal_delays(63, rng, 1, 64, 0.05))
            res = simulate_overlap(host, steps=8, block=2, verify=False)
            return (
                res.slowdown,
                res.m,
                res.exec_result.stats.pebbles,
                sorted(res.exec_result.value_digests.items())[:5],
            )

        assert run() == run()

    def test_embedding_deterministic(self):
        hg = now_cluster_host(4, 5, 1, 10)
        a = embed_linear_array(hg)
        b = embed_linear_array(hg)
        assert a.order == b.order
        assert a.link_delays == b.link_delays


class TestScaleSmoke:
    @pytest.mark.parametrize("n", [16, 48, 96])
    def test_various_host_sizes(self, n):
        rng = np.random.default_rng(n)
        host = HostArray(bimodal_delays(n - 1, rng, 1, 32, 0.05))
        res = simulate_overlap(host, steps=6)
        assert res.verified
        assert res.m >= n // 2  # Lemma 4's constant fraction

    def test_long_run_many_rounds(self):
        host = HostArray.uniform(16, 2)
        res = simulate_overlap(host, steps=64, block=2)
        assert res.verified
