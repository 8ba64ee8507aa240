"""Unit tests driving the Shogun task tree FSM directly.

A real accelerator (1 PE, Shogun policy) provides the environment, but
the engine never runs: tests call ``select`` / ``on_complete`` by hand to
exercise spawning, extending, recycling, token flow and the scheduler's
preferences in isolation.
"""

import pytest

from repro.core import TaskState
from repro.graph import from_edges
from repro.patterns import benchmark_schedule
from repro.sim import SimConfig
from repro.sim.accelerator import Accelerator


def make_tree(graph, code="4cl", **cfg):
    config = SimConfig(num_pes=1, **cfg)
    accel = Accelerator(graph, benchmark_schedule(code), config, "shogun")
    pe = accel.pes[0]
    return accel, pe, pe.policy.tree


def finish_task(tree, pe, task, children):
    """Emulate PE completion: attach children and notify the tree."""
    if task.depth < pe.schedule.max_depth:
        task.candidates = pe.context.expand(task.embedding).candidates
        pe.footprint_add(len(task.candidates) * 4)
    task.children_vertices = list(children)
    task.state = TaskState.COMPLETE
    tree.on_complete(task)


@pytest.fixture()
def k5():
    return from_edges([(u, v) for u in range(5) for v in range(u + 1, 5)])


class TestRootIntake:
    def test_add_root_ready(self, k5):
        _, _, tree = make_tree(k5)
        tree.add_root(4, tree_id=1)
        assert tree.ready_count() == 1
        assert tree.has_work()

    def test_root_slots(self, k5):
        _, _, tree = make_tree(k5, root_bunches=2)
        assert tree.free_root_slots() == 2
        tree.add_root(4, 1)
        assert tree.free_root_slots() == 1

    def test_select_assigns_token(self, k5):
        _, _, tree = make_tree(k5)
        tree.add_root(4, 1)
        task = tree.select(conservative=False)
        assert task.state == TaskState.EXECUTING
        assert task.token is not None
        assert task.set_address is not None


class TestSpawnExtend:
    def test_spawn_fills_bunch(self, k5):
        _, pe, tree = make_tree(k5)
        tree.add_root(4, 1)
        root = tree.select(False)
        finish_task(tree, pe, root, [0, 1, 2, 3])
        assert root.state == TaskState.RESTING
        assert tree.ready_count() == 4
        assert root.unexplored == 0  # all four fit in one bunch

    def test_spawn_partial_bunch(self, k5):
        _, pe, tree = make_tree(k5, bunch_entries=2, execution_width=2, tokens_per_depth=2)
        tree.add_root(4, 1)
        root = tree.select(False)
        finish_task(tree, pe, root, [0, 1, 2, 3])
        assert tree.ready_count() == 2
        assert root.unexplored == 2

    def test_extend_takes_next_candidate(self, k5):
        _, pe, tree = make_tree(k5, bunch_entries=2, execution_width=2, tokens_per_depth=2)
        tree.add_root(4, 1)
        root = tree.select(False)
        finish_task(tree, pe, root, [0, 1, 2, 3])
        child = tree.select(False)
        token = child.token
        finish_task(tree, pe, child, [])  # no children: must extend
        assert root.unexplored == 1
        # The extended task reuses the entry's token.
        ready = [tree.select(False), tree.select(False)]
        extended = [t for t in ready if t.vertex == 2]
        assert extended and extended[0].token == token

    def test_leaf_tasks_need_no_token(self, k5):
        _, pe, tree = make_tree(k5, code="tc")
        tree.add_root(4, 1)
        root = tree.select(False)
        finish_task(tree, pe, root, [0, 1, 2, 3])
        d1 = tree.select(False)
        finish_task(tree, pe, d1, [1, 2])
        # Sibling preference keeps picking depth-1 tasks first; drain until
        # a leaf (depth-2) task comes out.
        leaf = tree.select(False)
        while leaf is not None and leaf.depth != 2:
            leaf = tree.select(False)
        assert leaf is not None and leaf.depth == 2
        assert leaf.token is None


class TestCompletionPropagation:
    def test_tree_completes_bottom_up(self, k5):
        done = []
        accel, pe, tree = make_tree(k5, code="tc")
        tree.on_tree_done = lambda tid: done.append(tid)
        tree.add_root(1, 7)
        root = tree.select(False)
        finish_task(tree, pe, root, [0])
        d1 = tree.select(False)
        finish_task(tree, pe, d1, [])  # no leaf work: extend -> nothing -> done
        assert done == [7]
        assert not tree.has_work()

    def test_tokens_all_released_after_tree(self, k5):
        accel, pe, tree = make_tree(k5, code="tc")
        tree.add_root(2, 1)
        # Drive everything to completion.
        pending = True
        while pending:
            task = tree.select(False)
            if task is None:
                pending = tree.has_work()
                if pending and tree.executing_count() == 0:
                    pytest.fail("tree stalled")
                break
            if task.depth < pe.schedule.max_depth:
                exp = pe.context.expand(task.embedding)
                kids = pe.context.children(task.embedding, exp.candidates)
            else:
                kids = []
            finish_task(tree, pe, task, kids)
        while True:
            task = tree.select(False)
            if task is None:
                break
            if task.depth < pe.schedule.max_depth:
                exp = pe.context.expand(task.embedding)
                kids = pe.context.children(task.embedding, exp.candidates)
            else:
                kids = []
            finish_task(tree, pe, task, kids)
        assert not tree.has_work()
        for pool in tree.tokens.values():
            assert pool.held == 0


class TestSchedulerPreferences:
    def test_sibling_preference(self, k5):
        _, pe, tree = make_tree(k5)
        tree.add_root(4, 1)
        root = tree.select(False)
        finish_task(tree, pe, root, [0, 1, 2, 3])
        picks = [tree.select(False) for _ in range(4)]
        # All four scheduled tasks are siblings from the same bunch.
        assert all(p.parent is root for p in picks)

    def test_conservative_blocks_non_siblings(self, k5):
        _, pe, tree = make_tree(k5, root_bunches=2)
        tree.add_root(4, 1)
        r1 = tree.select(False)
        finish_task(tree, pe, r1, [0, 1])
        d1 = tree.select(conservative=True)
        assert d1.parent is r1
        d2 = tree.select(conservative=True)
        assert d2.parent is r1  # sibling allowed
        # A second tree's root is a non-sibling: blocked while siblings run.
        tree.add_root(3, 2)
        assert tree.select(conservative=True) is None
        # Normal mode mixes freely.
        other = tree.select(conservative=False)
        assert other is not None and other.tree == 2

    def test_quiesced_tree_not_scheduled(self, k5):
        _, pe, tree = make_tree(k5, root_bunches=2)
        tree.add_root(4, 1)
        tree.add_root(3, 2)
        tree.quiesce_tree(1)
        picked = tree.select(False)
        assert picked.tree == 2
        tree.wake_tree(1)
        assert tree.select(False).tree == 1


class TestPartitions:
    def test_add_partition_chain(self, k5):
        _, pe, tree = make_tree(k5)
        chain = tree.add_partition((4, 3), [0, 1], tree_id=5)
        assert [t.depth for t in chain] == [0, 1]
        assert chain[0].state == TaskState.RESTING
        assert chain[1].state == TaskState.RESTING
        assert tree.ready_count() == 2  # the two shipped candidates
        assert tree.has_work()
        assert tree.op_calls["fill_kernel"] > 0  # the list went through the op

    def test_partition_interior_has_single_child(self, k5):
        _, pe, tree = make_tree(k5)
        chain = tree.add_partition((4, 3), [0, 1], tree_id=5)
        assert chain[0].children_vertices == [3]
        assert chain[0].unexplored == 0

    def test_harvest_split_pool(self, k5):
        _, pe, tree = make_tree(k5, bunch_entries=2, execution_width=2, tokens_per_depth=2)
        tree.add_root(4, 1)
        root = tree.select(False)
        finish_task(tree, pe, root, [0, 1, 2, 3])
        # Bunch holds Ready [0, 1]; unexplored [2, 3]; one Ready must stay.
        pool = tree.harvest_split_pool(root)
        assert pool == [1, 2, 3]
        assert root.unexplored == 0

    def test_split_potential(self, k5):
        _, pe, tree = make_tree(k5, bunch_entries=2, execution_width=2, tokens_per_depth=2)
        tree.add_root(4, 1)
        root = tree.select(False)
        finish_task(tree, pe, root, [0, 1, 2, 3])
        assert tree.split_potential(root) == 3

    def test_splittable_task_depth_limit(self, k5):
        _, pe, tree = make_tree(k5, bunch_entries=2, execution_width=2, tokens_per_depth=2)
        tree.add_root(4, 1)
        root = tree.select(False)
        finish_task(tree, pe, root, [0, 1, 2, 3])
        found = tree.splittable_task(0)
        assert found is root
