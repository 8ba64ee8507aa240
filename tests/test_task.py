"""Unit tests for the SimTask model."""

import pytest

from repro.core import SimTask, TaskState


def make_task(depth=0, vertex=0, parent=None, children=None):
    embedding = (parent.embedding + (vertex,)) if parent else (vertex,)
    task = SimTask(depth=depth, vertex=vertex, embedding=embedding, parent=parent, tree=1)
    if children is not None:
        task.children_vertices = list(children)
    return task


class TestChildren:
    def test_unexplored_before_execution(self):
        assert make_task().unexplored == 0

    def test_take_next_child_in_order(self):
        t = make_task(children=[3, 5, 9])
        assert t.take_next_child() == 3
        assert t.take_next_child() == 5
        assert t.unexplored == 1

    def test_take_exhausted_raises(self):
        t = make_task(children=[1])
        t.take_next_child()
        with pytest.raises(IndexError):
            t.take_next_child()


class TestSplitChildren:
    def test_even_split(self):
        t = make_task(children=[1, 2, 3, 4])
        assert t.split_children(2) == [[1, 2], [3, 4]]

    def test_respects_explored_prefix(self):
        t = make_task(children=[1, 2, 3, 4])
        t.take_next_child()
        assert t.split_children(3) == [[2], [3], [4]]

    def test_empty(self):
        t = make_task(children=[])
        assert t.split_children(2) == []

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            make_task(children=[1]).split_children(0)


class TestAncestors:
    def test_walks_to_depth(self):
        root = make_task(depth=0, vertex=9)
        mid = make_task(depth=1, vertex=5, parent=root)
        leaf = make_task(depth=2, vertex=2, parent=mid)
        assert leaf.ancestor_at_depth(0) is root
        assert leaf.ancestor_at_depth(1) is mid
        assert leaf.ancestor_at_depth(2) is leaf

    def test_missing_ancestor(self):
        t = make_task(depth=0)
        with pytest.raises(LookupError):
            t.ancestor_at_depth(1)


class TestIdentity:
    def test_embedding_extends_parent(self):
        root = make_task(depth=0, vertex=7)
        child = make_task(depth=1, vertex=3, parent=root)
        assert child.embedding == (7, 3)

    def test_default_state_ready(self):
        assert make_task().state == TaskState.READY

    def test_is_root(self):
        root = make_task(depth=0)
        assert root.is_root
        assert not make_task(depth=1, parent=root).is_root
