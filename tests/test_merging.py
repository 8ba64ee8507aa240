"""Unit + integration tests for search-tree merging (§4.2)."""

import pytest

from repro.graph import erdos_renyi_gnm, powerlaw_configuration
from repro.mining import count_matches
from repro.patterns import benchmark_schedule
from repro.sim import SimConfig, simulate
from repro.sim.accelerator import Accelerator


def merged_config(**overrides):
    base = dict(num_pes=2, enable_merging=True, l1_kb=4, l2_kb=64)
    base.update(overrides)
    return SimConfig(**base)


class TestMergeDecision:
    def test_controller_attached_only_when_enabled(self, small_er, sched_4cl):
        on = Accelerator(small_er, sched_4cl, merged_config(), "shogun")
        off = Accelerator(small_er, sched_4cl, SimConfig(num_pes=2), "shogun")
        assert on.pes[0].policy.merger is not None
        assert off.pes[0].policy.merger is None

    def test_can_merge_when_idle(self, small_er, sched_4cl):
        accel = Accelerator(small_er, sched_4cl, merged_config(), "shogun")
        pe = accel.pes[0]
        # Fresh PE: no utilization, no thrashing, no DRAM pressure.
        assert pe.policy.merger.can_merge()

    def test_no_third_tree(self, small_er, sched_4cl):
        accel = Accelerator(small_er, sched_4cl, merged_config(), "shogun")
        pe = accel.pes[0]
        tree = pe.policy.tree
        tree.add_root(0, 1)
        tree.add_root(1, 2)
        assert not pe.policy.merger.can_merge()
        assert not pe.policy.wants_root()

    def test_wants_second_root(self, small_er, sched_4cl):
        accel = Accelerator(small_er, sched_4cl, merged_config(), "shogun")
        pe = accel.pes[0]
        pe.policy.add_root(0)
        assert pe.policy.wants_root()  # merging allows a second tree


class TestQuiesce:
    def test_victim_is_smaller_tree(self, small_er, sched_4cl):
        accel = Accelerator(small_er, sched_4cl, merged_config(), "shogun")
        pe = accel.pes[0]
        tree = pe.policy.tree
        tree.add_root(0, 1)
        tree.add_root(1, 2)
        # Make tree 1 deeper: give it an in-use depth-1 bunch.
        r1 = tree.select(False)
        r1.candidates = pe.context.expand(r1.embedding).candidates
        r1.children_vertices = pe.context.children(r1.embedding, r1.candidates)
        pe.footprint_add(len(r1.candidates) * 4)
        tree.on_complete(r1)
        merger = pe.policy.merger
        # Force the thrashing condition by direct call.
        victim = merger._pick_victim(tree.live_tree_ids())
        assert victim == 2  # the shallower tree

    def test_wake_on_completion(self, small_er, sched_4cl):
        accel = Accelerator(small_er, sched_4cl, merged_config(), "shogun")
        pe = accel.pes[0]
        tree = pe.policy.tree
        tree.add_root(0, 1)
        tree.add_root(1, 2)
        tree.quiesce_tree(2)
        pe.policy.merger.on_tree_done(1)
        assert tree.quiesced_tree_ids() == []


class TestEndToEnd:
    @pytest.mark.parametrize("code", ["tc", "4cl", "tt_e", "dia_v"])
    def test_counts_exact_with_merging(self, code):
        graph = powerlaw_configuration(80, 4.0, exponent=2.0, seed=5)
        sched = benchmark_schedule(code)
        expected = count_matches(graph, sched)
        m = simulate(graph, sched, policy="shogun", config=merged_config())
        assert m.matches == expected

    def test_merging_helps_sparse_graph(self):
        # Low-degree graph: single trees cannot fill the PE (the paper's
        # yo/pa case); merging should not hurt and usually helps.
        graph = powerlaw_configuration(150, 3.0, exponent=2.2, seed=9)
        sched = benchmark_schedule("tc")
        plain = simulate(graph, sched, policy="shogun", config=SimConfig(num_pes=2, l1_kb=4, l2_kb=64))
        merged = simulate(graph, sched, policy="shogun", config=merged_config())
        assert merged.matches == plain.matches
        assert merged.cycles <= plain.cycles * 1.05

    def test_merge_counter_reported(self):
        graph = powerlaw_configuration(150, 3.0, exponent=2.2, seed=9)
        sched = benchmark_schedule("tc")
        m = simulate(graph, sched, policy="shogun", config=merged_config())
        assert m.merges >= 0  # counter wired through RunMetrics
