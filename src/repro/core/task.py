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

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


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
    # (The entry's Figure 4(b) state — Idle, Ready, Executing, Resting —
    # lives in the task tree's struct-of-arrays words, not here.)
    # The hot construction sites (the task tree's ``select_batch`` and
    # ``SchedulingPolicy._make_task``) pass these positionally, in this
    # order: keyword arguments cost about twice as much per task.
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
    #: The cursor behind :attr:`next_child`: this task's own, or the
    #: ``(cursors, bunch)`` cell of the task-tree bunch its children
    #: fill (:meth:`bind_cursor`).
    _next: int = 0
    _cursor: Optional[tuple] = None
    #: Materialized ancestor candidate sets visible to this task's
    #: children, cached so siblings share one list instead of each child
    #: re-walking the parent chain (the interpreted derive).
    child_sets: Optional[List[object]] = None
    #: What this task's children derive from under the compiled derive,
    #: built once and shared by the siblings (``DeriveOps.frame``).
    child_frame: Optional[tuple] = None

    # ------------------------------------------------------------------
    @property
    def next_child(self) -> int:
        """Index of the next unexplored entry of ``children_vertices``.

        While the task's children fill a task-tree bunch, the tree owns
        the cursor (the compiled event lane extends siblings from tree
        state alone), and this reads and writes the tree's word.
        """
        cursor = self._cursor
        if cursor is None:
            return self._next
        return cursor[0][cursor[1]]

    @next_child.setter
    def next_child(self, value: int) -> None:
        cursor = self._cursor
        if cursor is None:
            self._next = value
        else:
            cursor[0][cursor[1]] = value

    def bind_cursor(self, cursors, bunch: int) -> None:
        """Hand the cursor to bunch ``bunch``'s word of ``cursors``."""
        self._cursor = (cursors, bunch)

    def unbind_cursor(self) -> None:
        """Take the cursor back from the tree (its bunch recycles)."""
        self._next = self.next_child
        self._cursor = None

    @property
    def unexplored(self) -> int:
        """Number of candidate children not yet turned into tasks."""
        if self.children_vertices is None:
            return 0
        return len(self.children_vertices) - self.next_child

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
            f"SimTask(d={self.depth}, v={self.vertex}, tree={self.tree}, "
            f"slot={self.slot})"
        )
