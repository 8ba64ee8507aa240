"""Compiled expansion: ``repro_derive`` against ``SearchContext``.

Under the cext backend ``PE._derive`` derives a non-leaf task in one
compiled call (``DeriveOps`` in ``sim/backend/cext.py``); under pure it
runs ``SearchContext.expand``/``children``, the reference.  Three layers
hold the two together:

* **Node parity** — random small graphs (the repository's R-MAT and
  Erdős–Rényi generators, isolated vertices included) × all nine
  benchmark schedules: every non-leaf node of every search tree is
  derived by a cext PE and a pure PE, and the two must agree on the
  candidates, the kept children, the span list in order, every booking
  value and the four search-context counters; the kernel's comparison
  count and reused-set size must match ``expand``'s trace.
* **Escapes and edges** — an empty set mid-chain, subtracting an empty
  set, a missing ancestor set and a span buffer too small for the task:
  the kernel escapes (or not) as documented and the result is the
  reference's.
* **Whole runs** — ``RunMetrics`` equality, pure vs cext, over the nine
  schedules × {shogun, fingers, bfs}: the subtract and used-vertex
  paths, which the golden cells (``tc``/``4cl``) never take.

Everything here needs the compiled backend and skips without it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.task import SimTask
from repro.graph import erdos_renyi_gnm, from_edges, rmat
from repro.mining.tree import SearchContext
from repro.patterns import benchmark_schedule, benchmark_schedules
from repro.sim import SimConfig, backend
from repro.sim.accelerator import Accelerator

HAS_CEXT = backend.available_backends()["cext"][0]

pytestmark = pytest.mark.skipif(
    not HAS_CEXT, reason="the cext backend did not build here"
)

SCHEDULES = benchmark_schedules()
CONFIG = SimConfig(num_pes=1)

COUNTERS = ("expansions", "candidates_seen", "children_kept", "children_pruned")


@pytest.fixture(autouse=True)
def _restore_backend():
    before = backend.active()
    yield
    backend._install(before)


def _pes(graph, schedule):
    """One cext PE (compiled derive bound) and one pure PE."""
    compiled = Accelerator(graph, schedule, CONFIG.replace(backend="cext"), "shogun")
    pure = Accelerator(graph, schedule, CONFIG.replace(backend="pure"), "shogun")
    pe = compiled.pes[0]
    assert pe._derive_ops is not None
    assert pure.pes[0]._derive_ops is None
    return pe, pure.pes[0]


def _counters(context):
    return tuple(getattr(context, name) for name in COUNTERS)


def _task(emb, parent, address):
    return SimTask(len(emb) - 1, emb[-1], emb, parent, 1, 0, set_address=address)


def _address(emb, leafward):
    """Distinct per node; none for tasks whose set only leaves read."""
    if leafward and emb[-1] % 2:
        return None
    return 4 * (1000 * len(emb) + 37 * emb[-1]) + 12


def _derive_both(pe, ref_pe, emb, parent, ref_parent, max_depth):
    """Derive one node on both PEs and assert they agree."""
    address = _address(emb, len(emb) == max_depth)
    task = _task(emb, parent, address)
    ref_task = _task(emb, ref_parent, address)
    ops = pe._derive_ops
    before, ref_before = _counters(pe.context), _counters(ref_pe.context)
    got = pe._derive(task)
    comparisons, reused_size = ops.info[3], ops.info[4]
    want = ref_pe._derive(ref_task)

    assert got[2].__class__ is int, "the compiled derive escaped"
    assert ops.span_list(got[2]) == want[2]
    assert got[:2] + got[3:] == list(want[:2] + want[3:])
    np.testing.assert_array_equal(task.candidates, ref_task.candidates)
    np.testing.assert_array_equal(task.kept, ref_task.kept)
    assert task.kept.dtype == np.int64
    delta = [a - b for a, b in zip(_counters(pe.context), before)]
    ref_delta = [a - b for a, b in zip(_counters(ref_pe.context), ref_before)]
    assert delta == ref_delta

    expansion = SearchContext(pe.accel.graph, pe.schedule).expand(emb)
    assert comparisons == expansion.comparisons
    if expansion.reused_depth is None:
        assert reused_size == -1
    else:
        assert reused_size == expansion.ops[0].left.size
    return task, ref_task


def _walk(graph, schedule, roots=None):
    """Derive every non-leaf node of the search trees on both PEs."""
    pe, ref_pe = _pes(graph, schedule)
    max_depth = schedule.max_depth
    nodes = 0

    def visit(emb, parent, ref_parent):
        nonlocal nodes
        nodes += 1
        task, ref_task = _derive_both(pe, ref_pe, emb, parent, ref_parent, max_depth)
        if len(emb) < max_depth:
            for v in task.kept.tolist():
                visit(emb + (v,), task, ref_task)

    for root in roots if roots is not None else range(graph.num_vertices):
        visit((root,), None, None)
    return nodes


@st.composite
def small_graphs(draw):
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        # R-MAT leaves many vertices isolated at these sizes.
        return rmat(draw(st.integers(3, 5)), draw(st.floats(1.0, 6.0)), seed=seed)
    n = draw(st.integers(4, 24))
    m = draw(st.integers(0, min(60, n * (n - 1) // 2)))
    return erdos_renyi_gnm(n, m, seed=seed)


class TestNodeParity:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph=small_graphs())
    def test_every_node_matches_the_reference(self, graph):
        for schedule in SCHEDULES:
            _walk(graph, schedule)

    def test_walk_reaches_every_plan_shape(self, small_er):
        # Reuse, fetch-only, subtract and used-vertex plans all occur.
        for schedule in SCHEDULES:
            assert _walk(small_er, schedule, roots=range(0, 30, 3)) > 10


def _star_with_isolated():
    """Vertex 0..4 a clique, 5..7 a path, 8 and 9 isolated."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(5, 6), (6, 7), (0, 5)]
    return from_edges(edges, num_vertices=10)


class TestEdges:
    def test_empty_set_mid_chain_then_subtract(self):
        # tt_v at depth 3: N(emb[2]) - N(emb[0]) - N(emb[1]); an isolated
        # emb[2] empties the chain before both subtractions.
        graph = _star_with_isolated()
        schedule = benchmark_schedule("tt_v")
        pe, ref_pe = _pes(graph, schedule)
        root, ref_root = _derive_both(pe, ref_pe, (0,), None, None, 3)
        mid, ref_mid = _derive_both(pe, ref_pe, (0, 1), root, ref_root, 3)
        task, _ = _derive_both(pe, ref_pe, (0, 1, 8), mid, ref_mid, 3)
        assert len(task.candidates) == 0
        # Both subtractions still cost len(N(emb[0])) + len(N(emb[1])).
        assert pe._derive_ops.info[3] == graph.degree(0) + graph.degree(1)

    def test_subtracting_an_empty_set(self):
        # 4cyc_v at depth 2: N(emb[1]) - N(emb[0]) with emb[0] isolated.
        graph = _star_with_isolated()
        schedule = benchmark_schedule("4cyc_v")
        pe, ref_pe = _pes(graph, schedule)
        root, ref_root = _derive_both(pe, ref_pe, (9,), None, None, 3)
        task, _ = _derive_both(pe, ref_pe, (9, 0), root, ref_root, 3)
        np.testing.assert_array_equal(task.candidates, graph.neighbors(0))
        assert pe._derive_ops.info[3] == graph.degree(0)

    def test_missing_ancestor_set_escapes_to_expand(self, small_er):
        schedule = benchmark_schedule("4cl")
        pe, ref_pe = _pes(small_er, schedule)
        v = int(small_er.neighbors(0)[0])
        # The root never derived: its child has no ancestor set to reuse.
        root = _task((0,), None, 64)
        task = _task((0, v), root, 128)
        ops = pe._derive_ops
        assert ops.derive(ops.frame(root)[0], v, 128) == -1
        got = pe._derive(task)
        assert got[2].__class__ is list
        ref_root = _task((0,), None, 64)
        ref_task = _task((0, v), ref_root, 128)
        assert got == ref_pe._derive(ref_task)
        np.testing.assert_array_equal(task.candidates, ref_task.candidates)
        np.testing.assert_array_equal(task.kept, ref_task.kept)

    def test_ancestor_set_above_capacity_escapes(self, small_er):
        # No real set exceeds the maximum degree; a forged one must make
        # the kernel refuse (-2) instead of overrunning its buffers.
        schedule = benchmark_schedule("4cl")
        pe, _ = _pes(small_er, schedule)
        root = _task((0,), None, 64)
        root.candidates = np.arange(small_er.max_degree + 5, dtype=np.int64)
        ops = pe._derive_ops
        assert ops.derive(ops.frame(root)[0], 1, 128) == -2

    def test_span_overflow_escapes(self):
        graph = _star_with_isolated()
        schedule = benchmark_schedule("tt_v")
        pe, ref_pe = _pes(graph, schedule)
        root, ref_root = _derive_both(pe, ref_pe, (0,), None, None, 3)
        mid, ref_mid = _derive_both(pe, ref_pe, (0, 1), root, ref_root, 3)
        # Room for one span; (0, 1, 2) has three non-empty neighbor inputs.
        small = pe.memory._kernels.derive_bind(
            pe.accel, memoryview(np.zeros(2, dtype=np.int64))
        )
        frame = small.frame(mid)
        assert small.derive(frame[0], 2, 4096) == -2
        assert small.derive(small.frame(root)[0], 1, 4096) >= 0
        pe._derive_ops = small
        mid.child_frame = None
        task = _task((0, 1, 2), mid, 4096)
        ref_task = _task((0, 1, 2), ref_mid, 4096)
        got = pe._derive(task)
        assert got[2].__class__ is list and len(got[2]) == 3
        assert got == ref_pe._derive(ref_task)
        np.testing.assert_array_equal(task.kept, ref_task.kept)


@pytest.fixture(scope="module")
def run_graph():
    return erdos_renyi_gnm(40, 150, seed=5, name="er40")


class TestWholeRuns:
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.name)
    @pytest.mark.parametrize("policy", ("shogun", "fingers", "bfs"))
    def test_pure_and_cext_metrics_match(self, run_graph, schedule, policy):
        runs = {}
        for name in ("pure", "cext"):
            accel = Accelerator(
                run_graph, schedule, SimConfig(num_pes=4, backend=name), policy
            )
            metrics = accel.run()
            runs[name] = (metrics.to_dict(), _counters(accel.context))
        assert runs["cext"] == runs["pure"]
