"""Unit tests for the shared search-tree expansion semantics."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.mining import SearchContext, intersect, subtract
from repro.patterns import benchmark_schedule, make_schedule, clique, four_cycle


class TestExpansion:
    def test_root_expansion_is_neighbor_fetch(self, tiny_graph, sched_4cl):
        ctx = SearchContext(tiny_graph, sched_4cl)
        exp = ctx.expand((0,))
        assert list(exp.candidates) == list(tiny_graph.neighbors(0))
        assert len(exp.ops) == 1
        assert exp.ops[0].op == "fetch"
        assert exp.reused_depth is None

    def test_clique_chain_reuses_parent(self, tiny_graph, sched_4cl):
        ctx = SearchContext(tiny_graph, sched_4cl)
        exp = ctx.expand((3, 2))
        assert exp.reused_depth == 1
        expected = intersect(tiny_graph.neighbors(3), tiny_graph.neighbors(2))
        assert list(exp.candidates) == list(expected)

    def test_reuse_plan_clique(self, tiny_graph, sched_4cl):
        ctx = SearchContext(tiny_graph, sched_4cl)
        for d in range(2, sched_4cl.depth):
            reused, conn, disc = ctx.reuse_plan(d)
            assert reused == d - 1
            assert len(conn) == 1 and disc == ()

    def test_ancestor_sets_used(self, tiny_graph, sched_4cl):
        ctx = SearchContext(tiny_graph, sched_4cl)
        s1 = ctx.expand((3,)).candidates
        sets = [None, s1, None, None, None]
        exp = ctx.expand((3, 2), sets)
        recomputed = ctx.expand((3, 2))
        assert list(exp.candidates) == list(recomputed.candidates)

    def test_induced_subtraction(self, tiny_graph):
        sched = make_schedule(four_cycle(), (0, 1, 2, 3), induced=True)
        ctx = SearchContext(tiny_graph, sched)
        exp = ctx.expand((0, 1))  # candidates for depth 2: N(1) \ N(0)
        expected = subtract(tiny_graph.neighbors(1), tiny_graph.neighbors(0))
        assert list(exp.candidates) == list(expected)
        assert any(op.op == "subtract" for op in exp.ops)

    def test_leaf_expand_rejected(self, tiny_graph, sched_4cl):
        ctx = SearchContext(tiny_graph, sched_4cl)
        with pytest.raises(ScheduleError):
            ctx.expand((3, 2, 1, 0))

    def test_bad_length_rejected(self, tiny_graph, sched_4cl):
        ctx = SearchContext(tiny_graph, sched_4cl)
        with pytest.raises(ScheduleError):
            ctx.expand(())


class TestOpAccounting:
    def test_comparisons_positive(self, tiny_graph, sched_4cl):
        ctx = SearchContext(tiny_graph, sched_4cl)
        exp = ctx.expand((3, 2))
        assert exp.total_comparisons == len(tiny_graph.neighbors(3)) + len(
            tiny_graph.neighbors(2)
        )

    def test_intermediate_inputs_identified(self, tiny_graph, sched_4cl):
        ctx = SearchContext(tiny_graph, sched_4cl)
        exp = ctx.expand((3, 2))
        inter = exp.intermediate_inputs
        assert len(inter) == 1
        assert inter[0].ref == 1  # the candidate set for depth 1

    def test_neighbor_inputs_identified(self, tiny_graph, sched_4cl):
        ctx = SearchContext(tiny_graph, sched_4cl)
        exp = ctx.expand((3, 2))
        nbrs = exp.neighbor_inputs
        assert [inp.ref for inp in nbrs] == [2]


class TestChildren:
    def test_symmetry_bound_applied(self, tiny_graph, sched_4cl):
        ctx = SearchContext(tiny_graph, sched_4cl)
        exp = ctx.expand((3,))
        kids = ctx.children((3,), exp.candidates)
        assert kids.tolist() == [0, 1, 2]  # neighbors below 3

    def test_duplicates_removed(self, tiny_graph):
        sched = make_schedule(four_cycle(), (0, 1, 2, 3))
        ctx = SearchContext(tiny_graph, sched)
        exp = ctx.expand((3, 1))
        kids = ctx.children((3, 1), exp.candidates)
        assert 3 not in kids and 1 not in kids

    def test_ascending_order(self, small_er, sched_tt_e):
        ctx = SearchContext(small_er, sched_tt_e)
        exp = ctx.expand((10,))
        kids = ctx.children((10,), exp.candidates)
        assert kids.tolist() == sorted(kids.tolist())


class TestReusePlans:
    def test_five_clique_chain(self, tiny_graph):
        sched = benchmark_schedule("5cl")
        ctx = SearchContext(tiny_graph, sched)
        for d in range(2, 5):
            reused, conn, disc = ctx.reuse_plan(d)
            assert reused == d - 1

    def test_tailed_triangle_plan_consistency(self, small_er):
        """Reused-plan expansions must equal from-scratch recomputation."""
        sched = benchmark_schedule("tt_e")
        ctx = SearchContext(small_er, sched)
        for root in range(0, 20, 5):
            exp1 = ctx.expand((root,))
            for v in ctx.children((root,), exp1.candidates)[:3]:
                exp2 = ctx.expand((root, v), [None, exp1.candidates] + [None] * 3)
                scratch = ctx.expand((root, v))
                assert list(exp2.candidates) == list(scratch.candidates)
