"""DFS and pseudo-DFS (FINGERS) scheduling as group-based DFS.

Pseudo-DFS (§2.2, Figure 2(d)) fetches a *task group* of sibling tasks
with a pre-configured group size, executes the whole group in parallel,
and only after the **entire** group completes does the first task in the
group generate children — descending depth-first group by group.  Plain
DFS is the degenerate case with group size 1 (one execution slot used,
Figure 2(c)).

The group barrier is the scheme's defining cost: "tasks that complete
execution earlier have to wait until the whole task group completes", so
slot-idle time accumulates whenever task runtimes within a group diverge
— the exact inefficiency Shogun removes.

Implementation: the exploration is an explicit walk, one search tree at
a time, with one level per depth on a LIFO stack.  A level holds a
parent task's kept children and the current group of them: up to
``group_size`` siblings, the ``j``-th carrying ``child_index = start +
j`` and, at non-leaf depths, address token ``j`` and buffer address
``base + j * stride``.  When a group's last task completes (the
barrier), each member's subtree is walked in order; a member's
candidate set is released after its subtree and before the next
sibling descends, and the tree finishes when the root's subtree ends.

The leaf level is flat: its group cursor lives in :attr:`words`
(``W_*`` below) and its parent's kept children in one ``int64`` span.
Under a compiled backend the event lane pins both and runs a leaf
group's whole cycle in C — each leaf's completion, the barrier, the
next chunk of the same parent's children and the dispatch pass that
books it (``repro_lane_drain`` in :mod:`repro.sim.backend.cext`) — and
hands the completion that ends the level back to Python, which pops to
the parent's depth.  The words are authoritative under every backend:
Python reads and writes the same ones for the leaves it selects and
completes.  Non-leaf levels are plain Python state.  Every task carries
``slot`` = its member index in the group, the key its trace span is
recorded under wherever it starts or completes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ...errors import SimulationError
from ..task import SimTask, TaskState
from ..task_tree import _span
from .base import SchedulingPolicy, as_ints

_READY = TaskState.READY
_EXECUTING = TaskState.EXECUTING

#: The walk's flat words (``REPRO_W_*`` in the C lane): a tree is live,
#: then the leaf level's current group — first child index, member
#: count (0 = the current group is not a leaf group), members dispatched
#: and members outstanding — its parent's kept-children count and set
#: address (-1 = none), and the live tree's id.
W_LIVE, W_START, W_COUNT, W_NEXT, W_OUT, W_NKIDS, W_PADDR, W_TREE = range(8)
WALK_WORDS = 8


class _Level:
    """One non-leaf level of the walk: ``parent``'s kept children
    (``kids``), the group starting at ``kids[start]`` and the member
    whose subtree is walked next."""

    __slots__ = ("parent", "kids", "depth", "start", "group", "member")

    def __init__(self, parent, kids, depth) -> None:
        self.parent = parent
        self.kids = kids
        self.depth = depth
        self.start = 0
        self.group: List[SimTask] = []
        self.member = 0


class GroupDFSPolicy(SchedulingPolicy):
    """Pseudo-DFS with configurable group size (FINGERS baseline)."""

    name = "pseudo-dfs"

    def __init__(self, pe, group_size: Optional[int] = None) -> None:
        super().__init__(pe)
        width = pe.config.execution_width
        self.group_size = group_size if group_size is not None else width
        if self.group_size < 1:
            raise SimulationError("group size must be >= 1")
        self._max_depth = pe.schedule.max_depth
        buffer_map = pe.buffer_map
        self._bases = [
            buffer_map.address(d, 0) for d in range(max(1, self._max_depth))
        ]
        self._stride = buffer_map.buffer_bytes
        #: The flat words (``W_*``); the event lane pins them.
        self.words = np.zeros(WALK_WORDS, dtype=np.int64)
        self._w = memoryview(self.words)
        self._live = False
        self._tree_seq = 0
        #: Non-leaf levels, root first; the current non-leaf group and
        #: its dispatch state.
        self._levels: List[_Level] = []
        self._group: List[SimTask] = []
        self._next = 0
        self._outstanding = 0
        #: The leaf level: whether the current group is a leaf group,
        #: its parent and the parent's kept children (Python ints).
        self._at_leaf = False
        self._leaf_parent: Optional[SimTask] = None
        self._kids: List[int] = []
        #: Pins a leaf level's span for the event lane (``None``
        #: without one) and keeps the current pin alive.
        self._pin_span = None
        self._pinned = None

    # ------------------------------------------------------------------
    def wants_root(self) -> bool:
        return not self._live

    def add_root(self, vertex: int) -> None:
        if self._live:
            raise SimulationError("pseudo-DFS explores one tree at a time")
        self._tree_seq += 1
        vertex = int(vertex)
        self._live = True
        w = self._w
        w[W_LIVE] = 1
        w[W_TREE] = self._tree_seq
        level = _Level(None, [vertex], 0)
        root = SimTask(
            0, vertex, (vertex,), None, self._tree_seq, 0, _READY, 0,
            self._bases[0], None, 0,
        )
        level.group = [root]
        self._levels = [level]
        self._group = level.group
        self._next = 0

    def select_task(self) -> Optional[SimTask]:
        tasks = self.select_tasks(1)
        return tasks[0] if tasks else None

    def select_tasks(self, limit: int) -> List[SimTask]:
        """The current group's next ``limit`` undispatched members, in
        order: exactly ``limit`` :meth:`select_task` calls stopping at
        the first ``None``, in one call (the PE's dispatch drain)."""
        if self._at_leaf:
            w = self._w
            first = w[W_NEXT]
            end = w[W_COUNT]
            if end > first + limit:
                end = first + limit
            if first >= end:
                return []
            w[W_NEXT] = end
            w[W_OUT] += end - first
            start = w[W_START]
            leaf = self._leaf
            return [leaf(start + j, j, _READY) for j in range(first, end)]
        first = self._next
        group = self._group
        end = len(group)
        if end > first + limit:
            end = first + limit
        if first >= end:
            return []
        self._next = end
        self._outstanding += end - first
        return group[first:end]

    def on_task_complete(self, task: SimTask) -> None:
        if self._at_leaf:
            w = self._w
            out = w[W_OUT] - 1
            w[W_OUT] = out
            if out == 0 and w[W_NEXT] >= w[W_COUNT]:
                # Barrier released: the parent's next chunk, or the
                # level ends.
                size = self.group_size
                start = w[W_START] + size
                left = w[W_NKIDS] - start
                if left > 0:
                    w[W_START] = start
                    w[W_COUNT] = left if left < size else size
                    w[W_NEXT] = 0
                else:
                    self._leave_leaf_level()
            return
        self._outstanding -= 1
        if self._outstanding == 0 and self._next >= len(self._group):
            # Barrier released: the whole group has completed.
            self._walk_on()

    def has_work(self) -> bool:
        return self._live

    def ready_count(self) -> int:
        if self._at_leaf:
            w = self._w
            return w[W_COUNT] - w[W_NEXT]
        return len(self._group) - self._next

    # -- the event lane's hand-backs ------------------------------------
    def pin_leaf_spans(self, pin) -> None:
        """Pin each leaf level's kept children through ``pin`` (the
        event lane reads them in C)."""
        self._pin_span = pin

    def lane_task(self, member: int) -> SimTask:
        """The Executing leaf ``member`` of the current leaf group.

        The event lane books and completes leaves without objects; it
        hands a completion to Python (the one ending the level) as the
        member index.
        """
        start = self._w[W_START]
        return self._leaf(start + member, member, _EXECUTING)

    def lane_rest(self, first: int, count: int) -> List[SimTask]:
        """The rest of a dispatch pass the lane stopped at member
        ``first`` of ``count``, selected as the Python pass would (the
        walk's words already hold both)."""
        pe = self.pe
        return self.select_tasks(pe.config.execution_width - pe.slots_used)

    # ------------------------------------------------------------------
    def _leaf(self, index: int, member: int, state) -> SimTask:
        v = self._kids[index]
        parent = self._leaf_parent
        # SimTask positionally: (depth, vertex, embedding, parent, tree,
        # child_index, state, token, set_address, bunch, slot).
        return SimTask(
            self._max_depth, v, parent.embedding + (v,), parent,
            self._tree_seq, index, state, None, None, None, member,
        )

    def _walk_on(self) -> None:
        """Advance past the top level's completed group: descend into
        the next member with children, else take the level's next chunk,
        else pop the level; the tree finishes when the root level pops."""
        levels = self._levels
        size = self.group_size
        remove = self.pe.footprint_remove
        while levels:
            level = levels[-1]
            group = level.group
            for j in range(level.member, len(group)):
                task = group[j]
                kids = task.children_vertices
                if kids is not None and len(kids):
                    level.member = j
                    self._descend(task, kids, level.depth + 1)
                    return
                # The member's subtree is empty: its set is dead now
                # (_release_set inlined).
                candidates = task.candidates
                if candidates is not None and task.set_address is not None:
                    remove(len(candidates) * 4)
            start = level.start + size
            if start < len(level.kids):
                level.start = start
                self._open(level)
                return
            levels.pop()
            if levels:
                up = levels[-1]
                self._release_set(up.group[up.member])
                up.member += 1
        self._live = False
        self._w[W_LIVE] = 0
        self._tree_finished()

    def _descend(self, task: SimTask, kids, depth: int) -> None:
        """Open ``task``'s children as a level of the walk."""
        if depth < self._max_depth:
            level = _Level(task, as_ints(kids), depth)
            self._levels.append(level)
            self._open(level)
            return
        n = len(kids)
        size = self.group_size
        address = task.set_address
        w = self._w
        w[W_START] = 0
        w[W_COUNT] = n if n < size else size
        w[W_NEXT] = 0
        w[W_OUT] = 0
        w[W_NKIDS] = n
        w[W_PADDR] = -1 if address is None else address
        self._at_leaf = True
        self._leaf_parent = task
        self._kids = as_ints(kids)
        if self._pin_span is not None:
            self._pinned = self._pin_span(_span(kids))

    def _leave_leaf_level(self) -> None:
        """The leaf level's last group completed: pop to its parent."""
        self._at_leaf = False
        self._w[W_COUNT] = 0
        self._leaf_parent = self._pinned = None
        up = self._levels[-1]
        self._release_set(up.group[up.member])
        up.member += 1
        self._walk_on()

    def _open(self, level: _Level) -> None:
        """Make the group at ``level.start`` the current group."""
        start = level.start
        depth = level.depth
        parent = level.parent
        prefix = parent.embedding
        tree = self._tree_seq
        # A non-leaf task writes its candidate set to its group slot's
        # buffer (token = member index).
        base = self._bases[depth]
        stride = self._stride
        group = [
            SimTask(
                depth, v, prefix + (v,), parent, tree, start + j, _READY,
                j, base + j * stride, None, j,
            )
            for j, v in enumerate(level.kids[start:start + self.group_size])
        ]
        level.group = group
        level.member = 0
        self._group = group
        self._next = 0

    def _release_set(self, task: SimTask) -> None:
        """The task's subtree is done; its candidate set is dead."""
        candidates = task.candidates
        if candidates is not None and task.set_address is not None:
            self.pe.footprint_remove(len(candidates) * 4)


class DFSPolicy(GroupDFSPolicy):
    """Plain depth-first scheduling: a task stack, one slot used."""

    name = "dfs"

    def __init__(self, pe) -> None:
        super().__init__(pe, group_size=1)
