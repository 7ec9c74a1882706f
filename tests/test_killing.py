"""Killing and labelling: Lemmas 1-4 as executable invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.killing import (
    OverlapParams,
    kill_and_label,
    lemma1_bound,
    lemma2_bound,
    lemma4_checks,
)
from repro.core.overlap import simulate_overlap
from repro.machine.host import HostArray
from repro.topology.delays import bimodal_delays, pareto_delays


def host_from_seed(n, seed, style="bimodal"):
    rng = np.random.default_rng(seed)
    if style == "bimodal":
        return HostArray(bimodal_delays(n - 1, rng, near=1, far=n, p_far=0.03))
    return HostArray(pareto_delays(n - 1, rng, alpha=1.1, cap=n * 4))


class TestParams:
    def test_paper_formulas(self):
        host = HostArray.uniform(256, 4)
        p = OverlapParams.for_host(host, c=4.0)
        assert p.lg == 8.0
        assert p.D(0) == 256 * 4 * 4 * 8
        assert p.D(3) == (256 / 8) * 4 * 4 * 8
        assert p.m(0) == 256 / (4 * 8)
        # m_k halves per level
        assert p.m(1) == pytest.approx(p.m(0) / 2)

    def test_k_max_has_unit_box(self):
        host = HostArray.uniform(1024, 2)
        p = OverlapParams.for_host(host)
        assert p.m_int(p.k_max) == 1
        assert p.m(p.k_max) >= 1
        assert p.m(p.k_max + 1) < 2

    def test_c_must_exceed_two(self):
        with pytest.raises(ValueError):
            OverlapParams.for_host(HostArray.uniform(8), c=2.0)


class TestKilling:
    def test_uniform_host_nothing_killed(self):
        # On a uniform host no interval exceeds its killing delay.
        host = HostArray.uniform(128, 3)
        res = kill_and_label(host)
        assert res.n_live == 128
        assert res.killed_fraction() == 0.0

    def test_lemma1_stage1_kill_bound(self):
        for seed in range(5):
            host = host_from_seed(128, seed, "pareto")
            res = kill_and_label(host)
            killed, bound = lemma1_bound(res)
            assert killed <= bound + 1e-9

    def test_lemma2_root_label_bound(self):
        for seed in range(5):
            host = host_from_seed(128, seed)
            res = kill_and_label(host)
            label, bound = lemma2_bound(res)
            assert label >= bound - 1e-6

    def test_lemma4_stage3_labels(self):
        for seed in range(5):
            host = host_from_seed(256, seed)
            res = kill_and_label(host)
            checks = lemma4_checks(res)
            assert checks, "tree should have remaining nodes"
            lg = res.params.lg
            for depth, label, threshold in checks:
                if depth < lg:  # the lemma's range k < log n
                    assert label >= threshold - 1e-6
            # Root specifically:
            assert res.root_label >= (1 - 2 / res.params.c) * host.n - 1e-6

    def test_stage3_labels_at_least_stage2(self):
        host = host_from_seed(128, 3)
        res = kill_and_label(host)
        for node in res.tree.all_nodes():
            if not node.removed and node.label2 is not None:
                assert node.label3 >= node.label2 - 1e-9

    def test_total_killed_fraction_bounded(self):
        # Lemmas 1+2 jointly: at most ~2n/c killed.
        for seed in range(5):
            host = host_from_seed(256, seed, "pareto")
            res = kill_and_label(host, c=4.0)
            assert res.killed_fraction() <= 2 / 4.0 + 0.05

    def test_extreme_delay_kills_neighbourhood(self):
        # One gigantic link: stage 1 kills the small intervals spanning it.
        delays = [1] * 127
        delays[60] = 10**7
        host = HostArray(delays)
        res = kill_and_label(host)
        assert res.n_live < 128
        assert res.killed_stage1
        # Live processors still form a usable majority.
        assert res.n_live >= 64

    def test_stage2_kills_sparse_interval(self):
        # Positions 0 and 8 are the only survivors in [0, 15]: its
        # stage-2 label 1 + 1 - m_1 = 1.2 is below 2 m_1 = 1.6, so
        # stage 2 kills both and the run uses the dense half [16, 31].
        host = HostArray.uniform(32, 1)
        dead = set(range(1, 8)) | set(range(9, 16))
        res = kill_and_label(host, c=4.0, forced_dead=dead)
        assert not res.killed_stage1
        assert res.killed_stage2 == {0, 8}
        assert res.n_live == 16
        run = simulate_overlap(host, steps=6, forced_dead=dead, verify=True)
        assert run.verified
        assert run.m == 14
        assert run.exec_result.stats.makespan == 14

    def test_live_positions_sorted_and_consistent(self):
        host = host_from_seed(64, 9, "pareto")
        res = kill_and_label(host)
        pos = res.live_positions()
        assert pos == sorted(pos)
        assert len(pos) == res.n_live

    @given(st.integers(min_value=16, max_value=200), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_killing_invariants_random_hosts(self, n, seed):
        host = host_from_seed(max(16, n), seed, "pareto")
        res = kill_and_label(host)
        # Removed nodes have no live leaves; remaining have >= 1.
        for node in res.tree.all_nodes():
            live_in = any(res.live[p] for p in range(node.lo, node.hi + 1))
            assert live_in == (not node.removed)
        # Lemma 3 property 2: remaining internal nodes keep >= 1 child.
        for node in res.tree.all_nodes():
            if not node.removed and not node.is_leaf:
                assert node.live_children()
