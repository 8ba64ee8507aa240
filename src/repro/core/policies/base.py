"""Scheduling-policy interface between a PE and its task scheduler.

Task scheduling determines the search-tree exploration order (§2.2) and
is the single axis the paper varies: BFS, DFS, pseudo-DFS (the FINGERS
baseline), parallel-DFS and Shogun all implement this interface, so every
policy runs on the *identical* PE pipeline, memory system and workload —
differences in cycles are attributable to scheduling alone, exactly the
paper's experimental setup ("the basic computation fabric is similar to
that of FINGERS").

The PE drives the policy with four calls:

* :meth:`SchedulingPolicy.wants_root` / :meth:`add_root` — root-vertex
  dispatch from the system scheduler;
* :meth:`select_task` — pick the next task when an execution slot frees
  (``None`` = nothing schedulable *right now*, e.g. a barrier or the
  conservative mode is holding tasks back);
* :meth:`on_task_complete` — the task finished its pipeline; its valid
  children (already symmetry-pruned, in ascending order) are attached.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..task import SimTask, TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...sim.pe import PE

_READY = TaskState.READY


class SchedulingPolicy(abc.ABC):
    """Base class for task-scheduling schemes (Table 1)."""

    name = "base"

    def __init__(self, pe: "PE") -> None:
        self.pe = pe
        self.trees_completed = 0

    # -- root dispatch ---------------------------------------------------
    @abc.abstractmethod
    def wants_root(self) -> bool:
        """Whether this PE can accept another search-tree root now."""

    @abc.abstractmethod
    def add_root(self, vertex: int) -> None:
        """Begin exploring the search tree rooted at ``vertex``."""

    # -- scheduling -------------------------------------------------------
    @abc.abstractmethod
    def select_task(self) -> Optional[SimTask]:
        """Next task to execute, or ``None`` if nothing is schedulable."""

    @abc.abstractmethod
    def on_task_complete(self, task: SimTask) -> None:
        """Handle a finished task (children already attached by the PE)."""

    # -- progress introspection --------------------------------------------
    @abc.abstractmethod
    def has_work(self) -> bool:
        """Whether any task of any assigned tree is still live."""

    @abc.abstractmethod
    def ready_count(self) -> int:
        """Tasks that could execute immediately if a slot were free.

        Used for barrier-idle accounting: slots idle while this is zero
        but :meth:`has_work` is true are stalled by the scheme itself
        (barriers, conservative mode), not by lack of work.
        """

    # -- shared helpers -----------------------------------------------------
    def _make_task(
        self,
        parent: Optional[SimTask],
        vertex: int,
        depth: int,
        tree: int,
        child_index: int = 0,
    ) -> SimTask:
        """Create a READY child task extending ``parent`` with ``vertex``.

        The baseline policies' per-child loops build their tasks inline
        (positionally, from ``as_ints`` lists); this serves the roots.
        """
        vertex = int(vertex)
        embedding = (parent.embedding + (vertex,)) if parent is not None else (vertex,)
        return SimTask(depth, vertex, embedding, parent, tree, child_index, _READY)

    def _assign_buffer(self, task: SimTask, buffer_index: int) -> None:
        """Bind a task's output candidate set to a preallocated buffer."""
        task.token = buffer_index
        task.set_address = self.pe.buffer_map.address(task.depth, buffer_index)

    def _tree_finished(self) -> None:
        """Bookkeeping when a whole search tree completes."""
        self.trees_completed += 1
        self.pe.on_tree_finished()


def as_ints(values: Sequence[int]) -> Sequence[int]:
    """Candidate vertices as Python ints: one ``tolist`` for an ``int64``
    array (derived children); a list (split donors) as is."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    return values


def chunked(values: Sequence[int], size: int) -> List[List[int]]:
    """Split ``values`` into consecutive chunks of at most ``size``.

    Chunks hold Python ints: an ``int64`` candidate array is converted
    with one ``tolist`` per chunk, never element by element.
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    if isinstance(values, np.ndarray):
        return [values[i : i + size].tolist() for i in range(0, len(values), size)]
    return [list(values[i : i + size]) for i in range(0, len(values), size)]
