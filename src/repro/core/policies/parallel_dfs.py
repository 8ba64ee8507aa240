"""Parallel-DFS: multiple independent search trees per PE, each DFS.

Parallel-DFS (§2.3, Figure 3) is the extreme case of out-of-order
scheduling: one PE runs up to ``execution_width`` *independent* search
trees concurrently, each explored depth-first with one in-flight task.
Trees share no parent-child relationships, so there are no barriers at
all and slot utilization is maximal — but each live tree keeps its whole
path of candidate sets resident, so the intermediate working set scales
with the tree count and "the poor locality of parallel-DFS incurs cache
thrashing ... thus steeply degrading the performance" on memory-bound
pattern/graph combinations.  No accelerator adopts it; the paper (and
this reproduction) uses it to isolate the two Shogun insights.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ...errors import SimulationError
from ..task import SimTask
from .base import SchedulingPolicy, as_ints


class _TreeWalker:
    """One DFS exploration with a dedicated buffer column."""

    def __init__(self, policy: "ParallelDFSPolicy", slot: int, root: int, tree: int) -> None:
        self.policy = policy
        self.slot = slot
        self.gen: Optional[Iterator[SimTask]] = self._explore_root(root, tree)
        self.inflight: Optional[SimTask] = None

    def _explore_root(self, root: int, tree: int) -> Iterator[SimTask]:
        task = self.policy._make_task(None, root, depth=0, tree=tree)
        self.policy._assign_buffer_column(task, self.slot)
        yield task
        kids = task.children_vertices
        if kids is not None and len(kids):
            yield from self._explore(task, kids, 1, tree)
        self.policy._release_set(task)

    def _explore(
        self, parent: SimTask, vertices: List[int], depth: int, tree: int
    ) -> Iterator[SimTask]:
        policy = self.policy
        prefix = parent.embedding
        if depth < policy.pe.schedule.max_depth:
            # This walker's buffer column (``_assign_buffer_column``
            # inlined): one live set per depth.
            token = self.slot
            address = policy.pe.buffer_map.address(depth, token)
        else:
            token = address = None
        for position, v in enumerate(as_ints(vertices)):
            task = SimTask(
                depth, v, prefix + (v,), parent, tree, position, token,
                address,
            )
            yield task
            kids = task.children_vertices
            if kids is not None and len(kids):
                yield from self._explore(task, kids, depth + 1, tree)
            self.policy._release_set(task)


class ParallelDFSPolicy(SchedulingPolicy):
    """Barrier-free exploration of ``width`` independent trees."""

    name = "parallel-dfs"

    def __init__(self, pe, num_trees: Optional[int] = None) -> None:
        super().__init__(pe)
        self.num_trees = num_trees if num_trees is not None else pe.config.execution_width
        if self.num_trees < 1:
            raise SimulationError("parallel-DFS needs at least one tree slot")
        self._walkers: List[Optional[_TreeWalker]] = [None] * self.num_trees
        self._ready: List[SimTask] = []
        self._tree_seq = 0

    # ------------------------------------------------------------------
    def wants_root(self) -> bool:
        return any(w is None for w in self._walkers)

    def add_root(self, vertex: int) -> None:
        for slot, walker in enumerate(self._walkers):
            if walker is None:
                self._tree_seq += 1
                new = _TreeWalker(self, slot, vertex, self._tree_seq)
                self._walkers[slot] = new
                self._advance(new)
                return
        raise SimulationError("no free tree slot for a new root")

    def select_task(self) -> Optional[SimTask]:
        if not self._ready:
            return None
        return self._ready.pop(0)

    def on_task_complete(self, task: SimTask) -> None:
        walker = self._walker_of(task)
        walker.inflight = None
        self._advance(walker)

    def has_work(self) -> bool:
        return any(w is not None for w in self._walkers) or bool(self._ready)

    def ready_count(self) -> int:
        return len(self._ready)

    # ------------------------------------------------------------------
    def _walker_of(self, task: SimTask) -> "_TreeWalker":
        for walker in self._walkers:
            if walker is not None and walker.inflight is task:
                return walker
        raise SimulationError("completed task belongs to no walker")

    def _advance(self, walker: _TreeWalker) -> None:
        try:
            task = next(walker.gen)
        except StopIteration:
            self._walkers[walker.slot] = None
            self._tree_finished()
            return
        walker.inflight = task
        self._ready.append(task)

    def _assign_buffer_column(self, task: SimTask, slot: int) -> None:
        """Buffers are columned per tree slot: one live set per depth."""
        self._assign_buffer(task, slot)

    def _release_set(self, task: SimTask) -> None:
        if task.candidates is not None and task.set_address is not None:
            self.pe.footprint_remove(len(task.candidates) * 4)
