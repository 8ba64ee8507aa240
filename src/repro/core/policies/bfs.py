"""BFS scheduling: depth-synchronous frontier exploration.

BFS (§2.2, Figure 2(b)) executes all tasks of one search depth before
any task of the next, with an inter-depth barrier.  Same-depth tasks run
with maximal parallelism and high intermediate-result locality, but every
depth's candidate sets stay live simultaneously — the "disastrous memory
consumption explosion" that keeps BFS out of accelerator designs (it is
included here for the Table 1 comparison and the motivation experiments).

Each frontier task gets its own sequentially numbered set buffer, so the
live-buffer population — and therefore cache pressure and the peak
footprint metric — grows with the frontier instead of being bounded by
the execution width.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ...errors import SimulationError
from ..task import SimTask
from .base import SchedulingPolicy, as_ints


class BFSPolicy(SchedulingPolicy):
    """Per-tree breadth-first scheduling with inter-depth barriers."""

    name = "bfs"

    def __init__(self, pe) -> None:
        super().__init__(pe)
        self._walk: Optional[Iterator[List[SimTask]]] = None
        self._ready: List[SimTask] = []
        self._outstanding = 0
        self._tree_seq = 0

    # ------------------------------------------------------------------
    def wants_root(self) -> bool:
        return self._walk is None

    def add_root(self, vertex: int) -> None:
        if self._walk is not None:
            raise SimulationError("BFS explores one tree at a time")
        self._tree_seq += 1
        self._walk = self._explore(vertex, self._tree_seq)
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
            self._advance()

    def has_work(self) -> bool:
        return self._walk is not None or self._outstanding > 0 or bool(self._ready)

    def ready_count(self) -> int:
        return len(self._ready)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        if self._walk is None:
            return
        try:
            level = next(self._walk)
        except StopIteration:
            self._walk = None
            self._tree_finished()
            return
        self._ready.extend(level)

    def _last_reader_depth(self, depth: int) -> int:
        """Deepest task depth whose expansion can reuse a depth-``depth`` set.

        The candidate set feeding depth ``e`` may be reused as the start
        set of any deeper expansion whose plan names ``e``; its buffers
        must stay live until those tasks have all executed.
        """
        schedule = self.pe.schedule
        ctx = self.pe.context
        produced_for = depth + 1  # the set a depth-`depth` task produces
        last = produced_for  # direct children read it (vertex fetch + reuse)
        for d in range(produced_for + 1, schedule.depth):
            reused, _, _ = ctx.reuse_plan(d)
            if reused == produced_for:
                # The expansion for depth d runs on depth d-1 tasks.
                last = max(last, d - 1)
        return last

    def _explore(self, root: int, tree: int) -> Iterator[List[SimTask]]:
        """Yield whole frontiers; the barrier separates depths."""
        root_task = self._make_task(None, root, depth=0, tree=tree)
        self._assign_buffer(root_task, 0)
        frontiers = {0: [root_task]}
        level = [root_task]
        depth = 0
        while level:
            yield level  # inter-depth barrier
            # Frontiers no deeper readers can reuse are dead now.
            for e in list(frontiers):
                if self._last_reader_depth(e) <= depth:
                    for done in frontiers.pop(e):
                        self._release_set(done)
            depth += 1
            next_level: List[SimTask] = []
            append = next_level.append
            # A non-leaf child writes its candidate set to the buffer of
            # its frontier position (``_assign_buffer`` inlined).
            address = (
                self.pe.buffer_map.address
                if depth < self.pe.schedule.max_depth else None
            )
            for parent in level:
                kids = parent.children_vertices
                if kids is None or not len(kids):
                    continue
                prefix = parent.embedding
                for position, v in enumerate(as_ints(kids)):
                    if address is None:
                        append(SimTask(depth, v, prefix + (v,), parent, tree, position))
                    else:
                        index = len(next_level)
                        append(SimTask(
                            depth, v, prefix + (v,), parent, tree, position,
                            index, address(depth, index),
                        ))
            if next_level:
                frontiers[depth] = next_level
            level = next_level
        for remaining in frontiers.values():
            for done in remaining:
                self._release_set(done)
        return

    def _release_set(self, task: SimTask) -> None:
        if task.candidates is not None and task.set_address is not None:
            self.pe.footprint_remove(len(task.candidates) * 4)
