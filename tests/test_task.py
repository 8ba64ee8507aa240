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
