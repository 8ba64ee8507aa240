"""Behavioral unit tests for the scheduling policies themselves."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GroupDFSPolicy
from repro.errors import SimulationError
from repro.graph import erdos_renyi_gnm, from_edges, rmat
from repro.patterns import benchmark_schedule, benchmark_schedules
from repro.sim import SimConfig
from repro.sim.accelerator import POLICIES, Accelerator
from repro.sim.trace import TraceRecorder
from tests.oracles import ReferenceGroupDFS, chunked


def fresh_pe(graph, policy, code="4cl", **cfg):
    config = SimConfig(num_pes=1, **cfg)
    accel = Accelerator(graph, benchmark_schedule(code), config, policy)
    return accel, accel.pes[0]


@pytest.fixture()
def k5():
    return from_edges([(u, v) for u in range(5) for v in range(u + 1, 5)])


class TestChunked:
    def test_exact(self):
        assert chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_remainder(self):
        assert chunked([1, 2, 3], 2) == [[1, 2], [3]]

    def test_empty(self):
        assert chunked([], 3) == []

    def test_bad_size(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestGroupDFS:
    def test_single_tree_at_a_time(self, k5):
        accel, pe = fresh_pe(k5, "fingers")
        pe.policy.add_root(4)
        assert not pe.policy.wants_root()
        with pytest.raises(SimulationError):
            pe.policy.add_root(3)

    def test_group_barrier(self, k5):
        accel, pe = fresh_pe(k5, "fingers", execution_width=2)
        policy = pe.policy
        policy.add_root(4)
        root = policy.select_task()
        assert policy.select_task() is None  # group of one: the root
        root.children_vertices = [0, 1, 2]
        policy.on_task_complete(root)
        a = policy.select_task()
        b = policy.select_task()
        assert policy.select_task() is None  # group size = width = 2
        a.children_vertices = []
        policy.on_task_complete(a)
        # Barrier: b still outstanding, nothing new released.
        assert policy.select_task() is None
        b.children_vertices = []
        policy.on_task_complete(b)
        assert policy.select_task() is not None  # next group: [2]

    def test_dfs_is_group_of_one(self, k5):
        accel, pe = fresh_pe(k5, "dfs", execution_width=8)
        policy = pe.policy
        assert policy.group_size == 1
        policy.add_root(4)
        policy.select_task()
        assert policy.select_task() is None

    def test_ready_count(self, k5):
        accel, pe = fresh_pe(k5, "fingers")
        policy = pe.policy
        assert policy.ready_count() == 0
        policy.add_root(4)
        assert policy.ready_count() == 1


def _walk_run(graph, schedule, policy_class, group, num_pes):
    """One pure-backend fingers run with ``policy_class`` at group size
    ``group`` (``None`` = the execution width): metrics and spans."""
    config = SimConfig(num_pes=num_pes, backend="pure")

    def factory(pe):
        return policy_class(pe, group_size=group)

    with mock.patch.dict(POLICIES, {"fingers": factory}):
        accel = Accelerator(graph, schedule, config, "fingers")
    recorder = TraceRecorder.attach(accel)
    metrics = accel.run()
    return metrics.to_dict(), recorder.spans


class TestGroupDFSWalk:
    """The explicit walk against the recursive generator it replaced:
    the same task order, barriers and set releases, so the same whole
    run and the same trace, for every group size the lane sees."""

    @pytest.mark.parametrize("num_pes", (1, 4))
    @pytest.mark.parametrize("group", (1, 2, 3, None), ids=("1", "2", "3", "width"))
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(("er", "rmat")),
        n=st.integers(14, 24),
        degree=st.integers(2, 4),
    )
    def test_walk_matches_the_generator(self, group, num_pes, seed, kind, n, degree):
        if kind == "er":
            graph = erdos_renyi_gnm(n, degree * n, seed=seed, name="er")
        else:
            graph = rmat(5, 2.0 * degree, seed=seed, name="rmat")
        for schedule in benchmark_schedules():
            walk = _walk_run(graph, schedule, GroupDFSPolicy, group, num_pes)
            ref = _walk_run(graph, schedule, ReferenceGroupDFS, group, num_pes)
            assert walk == ref, (schedule.name, group, num_pes)


class TestBFS:
    def test_level_by_level(self, k5):
        accel, pe = fresh_pe(k5, "bfs", code="tc", execution_width=8)
        policy = pe.policy
        policy.add_root(4)
        root = policy.select_task()
        root.children_vertices = [0, 1, 2, 3]
        policy.on_task_complete(root)
        level1 = [policy.select_task() for _ in range(4)]
        assert all(t is not None and t.depth == 1 for t in level1)
        # Inter-depth barrier: no depth-2 tasks until the level drains.
        level1[0].children_vertices = [0]
        policy.on_task_complete(level1[0])
        assert policy.select_task() is None
        for t in level1[1:]:
            t.children_vertices = []
            policy.on_task_complete(t)
        nxt = policy.select_task()
        assert nxt is not None and nxt.depth == 2


class TestParallelDFS:
    def test_wants_roots_up_to_tree_count(self, k5):
        accel, pe = fresh_pe(k5, "parallel-dfs", execution_width=3)
        policy = pe.policy
        for v in (4, 3, 2):
            assert policy.wants_root()
            policy.add_root(v)
        assert not policy.wants_root()

    def test_trees_progress_independently(self, k5):
        accel, pe = fresh_pe(k5, "parallel-dfs", execution_width=2)
        policy = pe.policy
        policy.add_root(4)
        policy.add_root(3)
        a = policy.select_task()
        b = policy.select_task()
        assert {a.vertex, b.vertex} == {4, 3}
        a.children_vertices = []
        policy.on_task_complete(a)  # tree of `a` finished
        assert policy.trees_completed == 1
        assert policy.wants_root()

    def test_overfull_root_rejected(self, k5):
        accel, pe = fresh_pe(k5, "parallel-dfs", execution_width=1)
        policy = pe.policy
        policy.add_root(4)
        with pytest.raises(SimulationError):
            policy.add_root(3)


class TestShogunPolicyGlue:
    def test_wants_one_root_without_merging(self, k5):
        accel, pe = fresh_pe(k5, "shogun")
        policy = pe.policy
        assert policy.wants_root()
        policy.add_root(4)
        assert not policy.wants_root()

    def test_conservative_override(self, k5):
        from repro.core import ShogunPolicy

        accel, pe = fresh_pe(k5, "shogun")
        forced = ShogunPolicy(pe, conservative_override=True)
        assert forced._conservative_now() is True

    def test_has_work_lifecycle(self, k5):
        accel, pe = fresh_pe(k5, "shogun", code="tc")
        policy = pe.policy
        assert not policy.has_work()
        policy.add_root(0)
        assert policy.has_work()
