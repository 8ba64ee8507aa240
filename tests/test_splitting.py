"""Unit + integration tests for task-tree splitting (§4.1)."""

import pytest

from repro.core import apportion_helpers
from repro.core.splitting import Partition, plan_partitions
from repro.graph import powerlaw_configuration, degree_sorted
from repro.mining import count_matches
from repro.patterns import benchmark_schedule
from repro.sim import SimConfig, simulate
from repro.sim.accelerator import Accelerator


class TestApportion:
    def test_even_split(self):
        assignment = apportion_helpers([1, 2], [10, 11, 12, 13], max_helpers=4)
        assert sorted(len(v) for v in assignment.values()) == [2, 2]

    def test_max_helpers_cap(self):
        assignment = apportion_helpers([1], list(range(10, 20)), max_helpers=4)
        assert len(assignment[1]) == 4

    def test_no_idle(self):
        assert apportion_helpers([1], [], 4) == {1: []}

    def test_no_busy(self):
        assert apportion_helpers([], [5], 4) == {}

    def test_all_idle_assigned_when_capacity(self):
        assignment = apportion_helpers([1, 2, 3], [7, 8], max_helpers=4)
        assigned = [pe for helpers in assignment.values() for pe in helpers]
        assert sorted(assigned) == [7, 8]


class TestPartitionMessage:
    def test_message_lines_includes_headers(self):
        p = Partition(prefix=(3,), children=(1, 2), set_lines=5, donor_pe=0)
        assert p.message_lines == 7

    def test_plan_partitions_roundtrip(self, small_er):
        cfg = SimConfig(num_pes=1, bunch_entries=2, execution_width=2, tokens_per_depth=2)
        accel = Accelerator(small_er, benchmark_schedule("4cl"), cfg, "shogun")
        pe = accel.pes[0]
        tree = pe.policy.tree
        tree.add_root(20, 1)
        root = tree.select(False)
        root.candidates = pe.context.expand(root.embedding).candidates
        root.children_vertices = [0, 1, 2, 3, 4, 5]
        tree.on_complete(root)
        partitions = plan_partitions(pe.policy, helpers=2)
        assert partitions
        shipped = [v for p in partitions for v in p.children]
        kept = root.children_vertices[root.next_child:]
        # Shipped + donor's remaining candidates cover the withdrawn pool.
        assert set(shipped).isdisjoint(kept)
        assert all(p.prefix == (20,) for p in partitions)

    def test_plan_partitions_nothing_to_split(self, small_er):
        cfg = SimConfig(num_pes=1)
        accel = Accelerator(small_er, benchmark_schedule("4cl"), cfg, "shogun")
        assert plan_partitions(accel.pes[0].policy, helpers=2) == []

    def test_zero_helpers(self, small_er):
        cfg = SimConfig(num_pes=1)
        accel = Accelerator(small_er, benchmark_schedule("4cl"), cfg, "shogun")
        assert plan_partitions(accel.pes[0].policy, helpers=0) == []


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def tail_graph(self):
        """A graph with a few dominant trees (splitting-prone workload)."""
        return degree_sorted(
            powerlaw_configuration(120, target_avg_degree=10.0, exponent=1.8, seed=17)
        )

    def test_counts_exact_with_splitting(self, tail_graph):
        sched = benchmark_schedule("4cl")
        expected = count_matches(tail_graph, sched)
        cfg = SimConfig(
            num_pes=8, enable_splitting=True, lb_check_interval=200, l1_kb=4, l2_kb=64
        )
        m = simulate(tail_graph, sched, policy="shogun", config=cfg)
        assert m.matches == expected

    def test_counts_exact_all_patterns(self, tail_graph):
        cfg = SimConfig(
            num_pes=8, enable_splitting=True, lb_check_interval=200, l1_kb=4, l2_kb=64
        )
        for code in ("tc", "tt_e", "dia_v"):
            sched = benchmark_schedule(code)
            expected = count_matches(tail_graph, sched)
            m = simulate(tail_graph, sched, policy="shogun", config=cfg)
            assert m.matches == expected, code

    def test_splitting_never_slows_down_much(self, tail_graph):
        sched = benchmark_schedule("4cl")
        base_cfg = SimConfig(num_pes=8, l1_kb=4, l2_kb=64)
        lb_cfg = base_cfg.replace(enable_splitting=True, lb_check_interval=200)
        base = simulate(tail_graph, sched, policy="shogun", config=base_cfg)
        balanced = simulate(tail_graph, sched, policy="shogun", config=lb_cfg)
        assert balanced.cycles <= base.cycles * 1.10

    def test_partition_traffic_counted(self, tail_graph):
        sched = benchmark_schedule("5cl")
        cfg = SimConfig(
            num_pes=12, enable_splitting=True, lb_check_interval=100, l1_kb=4, l2_kb=64
        )
        m = simulate(tail_graph, sched, policy="shogun", config=cfg)
        if m.partitions_sent:
            assert m.noc_messages >= m.partitions_sent
            assert m.split_rounds >= 1
