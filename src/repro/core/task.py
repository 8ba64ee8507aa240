"""Task model: the unit of scheduling in graph mining accelerators.

Each node of a search tree (Figure 1 of the paper) is a *task*: matching
one data vertex at one search depth.  Executing a non-leaf task computes
the candidate set its children are drawn from; leaf tasks report a match.
The two-tuple representation of §3.2.1 (depth, vertex — plus the link to
the parent entry) is what the task SPM stores; the simulator keeps the
full embedding on the Python object for convenience, which a hardware
task tree reconstructs by walking parent pointers.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class TaskState(enum.Enum):
    """Task SPM entry states (the four basic states of Figure 4(b)).

    Transient ``WAIT_*`` states of Figure 6 are modelled as fixed
    latencies on the transitions rather than explicit states — the event
    simulator charges their cycles without materializing each arc.
    """

    IDLE = "idle"
    READY = "ready"
    EXECUTING = "executing"
    RESTING = "resting"
    COMPLETE = "complete"
    QUIESCED = "quiesced"


_task_ids = itertools.count()


@dataclass(slots=True)
class SimTask:
    """One schedulable task (a search-tree node) inside the simulator.

    Attributes
    ----------
    depth:
        Search depth (0 = search-tree root).
    vertex:
        The data vertex this task matches.
    embedding:
        Data vertices matched at depths ``0..depth``.
    parent:
        The parent task (``None`` for roots).
    tree:
        Identifier of the search tree instance this task belongs to
        (distinguishes merged trees sharing a PE).
    """

    depth: int
    vertex: int
    embedding: Tuple[int, ...]
    parent: Optional["SimTask"]
    tree: int
    #: Position of ``vertex`` in the parent's candidate list.  The task
    #: tree fetches the vertex from that set when spawning/extending
    #: (Wait_Vertex, Figure 6), so this indexes the cache line the fetch
    #: touches — consecutive siblings share lines, which is precisely the
    #: sibling locality the scheduler tries to preserve.
    child_index: int = 0

    # Scheduling state ---------------------------------------------------
    # The hot construction sites (the task tree's ``select_batch`` and
    # ``SchedulingPolicy._make_task``) pass these positionally, in this
    # order: keyword arguments cost about twice as much per task.
    state: TaskState = TaskState.READY
    token: Optional[int] = None
    set_address: Optional[int] = None
    #: Global index of the task-tree bunch holding this entry (an index
    #: into the tree's struct-of-arrays state; ``None`` for tasks built
    #: outside the tree).
    bunch: Optional[int] = None
    #: Global entry-slot index inside the task tree's SoA state (-1 for
    #: tasks that never occupied an entry).
    slot: int = -1

    # Filled at execution time -------------------------------------------
    #: The candidate set this task computed for depth ``depth + 1``
    #: (sorted ``int64``; ``None`` until derived, and for leaves).
    candidates: Optional[np.ndarray] = None
    #: The children the symmetry bound and the used-vertex filter keep,
    #: computed with the candidates and published as
    #: ``children_vertices`` at completion (a task has no children
    #: before it completes).
    kept: Optional[np.ndarray] = None
    children_vertices: Optional[List[int]] = None
    next_child: int = 0
    #: Materialized ancestor candidate sets visible to this task's
    #: children, cached so siblings share one list instead of each child
    #: re-walking the parent chain (the interpreted derive).
    child_sets: Optional[List[object]] = None
    #: What this task's children derive from under the compiled derive,
    #: built once and shared by the siblings (``DeriveOps.frame``).
    child_frame: Optional[tuple] = None
    task_id: int = field(default_factory=lambda: next(_task_ids))

    # ------------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        """Whether this is a depth-0 (search-tree root) task."""
        return self.depth == 0

    @property
    def unexplored(self) -> int:
        """Number of candidate children not yet turned into tasks."""
        if self.children_vertices is None:
            return 0
        return len(self.children_vertices) - self.next_child

    def take_next_child(self) -> int:
        """Pop the next unexplored candidate vertex (ascending order).

        This is the ``fetch the corresponding vertex from the parent
        task's candidate set`` step of spawning/extending (§3.2.2); the
        symmetry-breaking prune has already truncated the list.
        """
        if self.unexplored <= 0:
            raise IndexError("no unexplored candidates left")
        v = self.children_vertices[self.next_child]
        self.next_child += 1
        return v

    def split_children(self, parts: int) -> List[List[int]]:
        """Carve the unexplored candidate range into ``parts`` shares.

        Used by task-tree splitting (§4.1): only the *unexplored* depth-1
        range of a depth-0 task is divided; this task keeps the first
        share and the rest are shipped to idle PEs.  Returns ``parts``
        lists (possibly fewer if there are not enough candidates); this
        task's own range is truncated to the first share by the caller.
        """
        remaining = self.children_vertices[self.next_child :]
        if parts < 1:
            raise ValueError("parts must be >= 1")
        chunk = -(-len(remaining) // parts) if len(remaining) else 0
        shares = [remaining[i : i + chunk] for i in range(0, len(remaining), chunk)] if chunk else []
        return shares

    def ancestor_at_depth(self, depth: int) -> "SimTask":
        """Walk parent links to the ancestor task at ``depth``."""
        node: Optional[SimTask] = self
        while node is not None and node.depth > depth:
            node = node.parent
        if node is None or node.depth != depth:
            raise LookupError(f"no ancestor at depth {depth}")
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimTask(id={self.task_id}, d={self.depth}, v={self.vertex}, "
            f"state={self.state.value})"
        )
