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

Implementation: the exploration order is expressed as a recursive
generator yielding one task group at a time; the policy dispatches the
current group from ``select_task`` and advances the generator only when
the group's last task completes (the barrier).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ...errors import SimulationError
from ..task import SimTask, TaskState
from .base import SchedulingPolicy, chunked

_READY = TaskState.READY


class GroupDFSPolicy(SchedulingPolicy):
    """Pseudo-DFS with configurable group size (FINGERS baseline)."""

    name = "pseudo-dfs"

    def __init__(self, pe, group_size: Optional[int] = None) -> None:
        super().__init__(pe)
        width = pe.config.execution_width
        self.group_size = group_size if group_size is not None else width
        if self.group_size < 1:
            raise SimulationError("group size must be >= 1")
        self._walk: Optional[Iterator[List[SimTask]]] = None
        self._ready: List[SimTask] = []
        self._outstanding = 0
        self._tree_seq = 0

    # ------------------------------------------------------------------
    def wants_root(self) -> bool:
        return self._walk is None

    def add_root(self, vertex: int) -> None:
        if self._walk is not None:
            raise SimulationError("pseudo-DFS explores one tree at a time")
        self._tree_seq += 1
        self._walk = self._explore_root(vertex, self._tree_seq)
        self._advance()

    def select_task(self) -> Optional[SimTask]:
        if not self._ready:
            return None
        task = self._ready.pop(0)
        self._outstanding += 1
        return task

    def on_task_complete(self, task: SimTask) -> None:
        self._outstanding -= 1
        if self._outstanding == 0 and not self._ready:
            # Barrier released: the whole group has completed.
            self._advance()

    def has_work(self) -> bool:
        return self._walk is not None or self._outstanding > 0 or bool(self._ready)

    def ready_count(self) -> int:
        return len(self._ready)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Pull the next task group from the exploration generator."""
        if self._walk is None:
            return
        try:
            group = next(self._walk)
        except StopIteration:
            self._walk = None
            self._tree_finished()
            return
        self._ready.extend(group)

    def _explore_root(self, root: int, tree: int) -> Iterator[List[SimTask]]:
        """Generator yielding task groups in pseudo-DFS order."""
        root_task = self._make_task(None, root, depth=0, tree=tree)
        self._assign_buffer(root_task, 0)
        yield [root_task]
        kids = root_task.children_vertices
        if kids is not None and len(kids):
            yield from self._explore(root_task, kids, 1, tree)
        self._release_set(root_task)

    def _explore(
        self, parent: SimTask, vertices: List[int], depth: int, tree: int
    ) -> Iterator[List[SimTask]]:
        size = self.group_size
        prefix = parent.embedding
        if depth < self.pe.schedule.max_depth:
            # A non-leaf task writes its candidate set to its group
            # slot's buffer (``_assign_buffer`` inlined: token = slot).
            buffer_map = self.pe.buffer_map
            base = buffer_map.address(depth, 0)
            stride = buffer_map.buffer_bytes
        else:
            base = None
        for chunk_index, chunk in enumerate(chunked(vertices, size)):
            start = chunk_index * size
            # SimTask positionally: (depth, vertex, embedding, parent,
            # tree, child_index, state, token, set_address).
            if base is None:
                tasks = [
                    SimTask(depth, v, prefix + (v,), parent, tree, start + slot, _READY)
                    for slot, v in enumerate(chunk)
                ]
            else:
                tasks = [
                    SimTask(
                        depth, v, prefix + (v,), parent, tree, start + slot,
                        _READY, slot, base + slot * stride,
                    )
                    for slot, v in enumerate(chunk)
                ]
            yield tasks  # barrier: every task of the group must complete
            for task in tasks:
                kids = task.children_vertices
                if kids is not None and len(kids):
                    yield from self._explore(task, kids, depth + 1, tree)
                self._release_set(task)

    def _release_set(self, task: SimTask) -> None:
        """The task's subtree is done; its candidate set is dead."""
        if task.candidates is not None and task.set_address is not None:
            self.pe.footprint_remove(len(task.candidates) * 4)
        task.state = TaskState.IDLE


class DFSPolicy(GroupDFSPolicy):
    """Plain depth-first scheduling: a task stack, one slot used."""

    name = "dfs"

    def __init__(self, pe) -> None:
        super().__init__(pe, group_size=1)
