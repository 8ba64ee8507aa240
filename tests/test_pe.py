"""Unit tests for PE internals (pipeline, rounds, windows, fetch lines)."""

import pytest

from repro.graph import from_edges
from repro.mining import count_matches
from repro.patterns import benchmark_schedule
from repro.sim import SimConfig, simulate
from repro.sim.accelerator import Accelerator
from repro.core.task import SimTask


def build(graph, code="tc", **cfg):
    accel = Accelerator(graph, benchmark_schedule(code), SimConfig(num_pes=1, **cfg), "shogun")
    return accel, accel.pes[0]


@pytest.fixture()
def star_graph():
    """A hub of degree 40 plus a clique among the first few leaves."""
    edges = [(0, i) for i in range(1, 41)]
    edges += [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    return from_edges(edges)


class TestUnits:
    def test_unit_serializes_one_per_cycle(self, tiny_graph):
        _, pe = build(tiny_graph)
        a = pe._enter_unit("decode", 10.0)
        b = pe._enter_unit("decode", 10.0)
        c = pe._enter_unit("decode", 10.5)
        assert (a, b, c) == (10.0, 11.0, 12.0)

    def test_units_independent(self, tiny_graph):
        _, pe = build(tiny_graph)
        pe._enter_unit("decode", 5.0)
        assert pe._enter_unit("spawn", 5.0) == 5.0


class TestSpanHelpers:
    def test_graph_spans_cover_neighbor_lines(self, small_er):
        _, pe = build(small_er, code="4cl")
        root = SimTask(depth=0, vertex=20, embedding=(20,), parent=None, tree=1)
        expansion = pe.context.expand((20,))
        root.candidates = expansion.candidates
        spans, count = pe._graph_spans(expansion)
        first = pe.accel.graph_first_line
        last = pe.accel.graph_last_line
        expected = [
            (first[inp.ref], last[inp.ref])
            for inp in expansion.neighbors
            if inp.size
        ]
        assert spans == expected
        assert count == sum(l - f + 1 for f, l in spans)

    def test_intermediate_span_none_without_reuse(self, small_er):
        _, pe = build(small_er, code="4cl")
        root = SimTask(depth=0, vertex=20, embedding=(20,), parent=None, tree=1)
        expansion = pe.context.expand((20,))
        root.candidates = expansion.candidates
        # Roots have no ancestor set to reuse.
        assert expansion.reused_depth is None
        assert pe._intermediate_span(root, expansion) is None

    def test_out_span_matches_line_addrs(self, tiny_graph):
        # The inlined out-span arithmetic in _start_task must agree with
        # the memory system's line_span, and cover exactly the lines the
        # bytes touch, for any base/size.
        accel, _ = build(tiny_graph)
        memory = accel.memory
        line_bytes = accel.config.cache_line_bytes
        for base in (0, 60, 64, 64 * 100 + 4):
            for num_bytes in (4, 60, 64, 65, 1000):
                first = base // line_bytes
                last = (base + num_bytes - 1) // line_bytes
                assert memory.line_span(base, num_bytes) == (first, last)
                touched = {b // line_bytes for b in range(base, base + num_bytes)}
                assert sorted(touched) == list(range(first, last + 1))


class TestRounds:
    def test_large_degree_vertex_completes(self, star_graph):
        """Working sets beyond the SPM share run in multiple rounds (§3.1)."""
        sched = benchmark_schedule("tc")
        expected = count_matches(star_graph, sched)
        tiny_spm = SimConfig(num_pes=1, spm_kb=1, l1_kb=2, l2_kb=32)
        m = simulate(star_graph, sched, policy="shogun", config=tiny_spm)
        assert m.matches == expected

    def test_small_spm_slower(self, star_graph):
        sched = benchmark_schedule("tc")
        fast = simulate(star_graph, sched, policy="shogun", config=SimConfig(num_pes=1, spm_kb=64))
        slow = simulate(star_graph, sched, policy="shogun", config=SimConfig(num_pes=1, spm_kb=1))
        assert slow.cycles >= fast.cycles


class TestIUWindow:
    def test_recent_utilization_rolls(self, small_er):
        accel, pe = build(small_er, code="4cl", monitor_epoch_cycles=64)
        accel.run()
        assert 0.0 <= pe.recent_iu_utilization() <= 1.0

    def test_recent_utilization_initial(self, tiny_graph):
        _, pe = build(tiny_graph)
        assert pe.recent_iu_utilization() == 0.0


class TestAncestorSets:
    def test_sets_aligned_by_feeding_depth(self, small_er):
        _, pe = build(small_er, code="4cl")
        root = SimTask(depth=0, vertex=20, embedding=(20,), parent=None, tree=1)
        root.candidates = pe.context.expand((20,)).candidates
        child = SimTask(depth=1, vertex=5, embedding=(20, 5), parent=root, tree=1)
        sets = pe._ancestor_sets(child)
        assert sets[1] is root.candidates
        assert sets[2] is None
