"""The Shogun task tree: decoupled task generation and execution (§3.2).

The task tree is the structure that distinguishes Shogun from the task
*stack* of prior designs: completed tasks spawn children immediately
(no barrier), children wait in the tree as Ready entries, and a scheduler
picks execution order with both parallelism and locality in mind.

Layout (§3.2.1, Table 3): the task SPM is statically arranged as
Depth × Bunch.  A *bunch* groups same-parent sibling tasks; its entry
count equals the PE execution width so a full bunch can occupy the whole
PE (locality), while multiple bunches per depth provide non-sibling
candidates when siblings run short (parallelism).  Depth 0 and 1 have
``root_bunches`` bunches (2, for search-tree merging); deeper depths have
``bunches_per_depth`` (4).

State machine (§3.2.2, Figures 5/6): entries move through
Idle → Ready → Executing → Resting → Idle.  Spawning takes an idle bunch
at the next depth and fills it from the parent's candidate set; a task
that cannot spawn *extends* — it reuses its entry (and address token) to
explore the parent's next unexplored candidate; pruned candidates never
enter the tree (the symmetry bound already truncated the children list).
When a bunch drains it is recycled, its parent's subtree is complete, and
the completion propagates upward — at depth 0 that ends a search tree.

Scheduling (§3.2.3, Figure 7): prefer Ready siblings of the last
selected bunch; otherwise round-robin across bunches — unless
conservative mode forbids mixing non-siblings.  A task is only *valid*
if an address token for its depth is available (memory-footprint
control).

Representation
--------------
The tree state lives in a :class:`TaskTreeState` struct-of-arrays block:
per-bunch arrays (depth, capacity, in-use flag, tree id, active/executing
counts, quiesce flag, a FIFO ring of ready entry slots) and per-entry
arrays mirroring the :class:`SimTask` scheduling fields (vertex,
child index, held token).  That is the same flat layout the hardware
task SPM has.  Each hot decision — select, fill, complete — is one call
into the tree ops the active kernel backend binds over those arrays
(``kernels.tree_bind(state)``): the C extension's struct binder, or the
pure backend's interpreted closures that the C mirrors.  That is the
only path, with or without a trace recorder or invariant checker
attached.

Python :class:`SimTask` objects are materialized *lazily*: a Ready entry
is just an array row until the scheduler picks it.  The ``select`` op
hands back one ``(slot, vertex, child_index, token, tree)`` record per
pick as plain Python ints, and :meth:`TaskTree.select_batch` builds the
Executing tasks straight from those records.  Resting tasks are real
objects (the split/merge machinery needs them); an Executing leaf need
not be: under a compiled backend the event lane books, completes and
extends leaves from the arrays alone, and :meth:`TaskTree.leaf_task`
materializes one only when the lane hands its completion to Python.
The cold edges — recycle propagation, waiter refill, partition intake —
stay interpreted over the same arrays, so there is exactly one source
of truth.  Interpreted reads and writes of the control block go through
a memoryview (``TaskTree._ctl``), never a numpy scalar.

Sibling state is tree-resident: a bunch records its parent's
kept-children span, the parent's cursor into it and the parent's set
address (``b_nkids``/``b_next``/``b_paddr`` plus the span the ops pin),
so a childless completion extends from tree state alone.  While a task
has a child bunch its :attr:`SimTask.next_child` reads and writes that
bunch's cursor.

A completion cannot soundly fuse the *next* selection into the same op
call: selections happen at dispatch events, completions at completion
events, and fusing them would start tasks one engine event early
(changing kick coalescing and root feeding, i.e. real metrics).  The
run-of-tasks instead lives at the dispatch site — one ``select`` op call
drains every free execution slot (:meth:`select_batch`), which is
exactly equivalent to the per-call loop because bookings never mutate
tree state.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .task import SimTask, TaskState
from .tokens import ArrayTokenPool

_EXECUTING = TaskState.EXECUTING
_RESTING = TaskState.RESTING
_IDLE = TaskState.IDLE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.pe import PE

#: ``ctl`` control-word indices (shared with the backend tree ops).
CTL_READY = 0       # schedulable Ready entries (quiesced trees included)
CTL_EXECUTING = 1   # entries currently in the PE pipeline
CTL_LAST_BUNCH = 2  # last-selected bunch (-1 = none): sibling preference
CTL_EXEC_BUNCH = 3  # bunch of the last dispatch (-1): conservative mode
CTL_RR_CURSOR = 4   # round-robin cursor over the global bunch list
CTL_SCHEDULED = 5   # diagnostic: tasks handed to the PE
CTL_STALLS = 6      # diagnostic: token-validity stalls
CTL_WAITS = 7       # diagnostic: spawns queued for an idle bunch
CTL_LIVE = 8        # live (possibly quiesced) search trees
CTL_LANE_SELECT = 9     # select op calls made by the event lane
CTL_LANE_COMPLETE = 10  # complete op calls made by the event lane
CTL_WORDS = 11

#: ``complete`` op transition results (shared with the backend tree ops).
DONE_SPAWNED = 0    # children admitted into ops.done[0] (count in done[1])
DONE_WAITING = 1    # no idle child bunch: parent queued
DONE_EXTENDED = 2   # entry + token reused for the next candidate
DONE_IDLED = 3      # entry idled, bunch still has active entries
DONE_RECYCLE = 4    # entry idled and the bunch drained: recycle in Python
DONE_UNDERFLOW = 5  # active-count underflow (simulator bug)


def _address(task: SimTask) -> int:
    """A task's output set address as the tree ops take it (-1: none)."""
    address = task.set_address
    return -1 if address is None else address


def _span(vertices) -> np.ndarray:
    """Children as the contiguous ``int64`` span the tree ops read.

    Derived children already are one; partition interiors, split
    donors and hand-driven tests carry plain lists.  The task keeps its
    own list: splitting extends it with ``+``, which on an ndarray would
    add element-wise.
    """
    if isinstance(vertices, np.ndarray):
        return vertices
    return np.array(vertices, dtype=np.int64)


class TaskTreeState:
    """Struct-of-arrays task-tree state (the simulated task SPM).

    All arrays are ``int64``; entry *slots* are globally numbered
    ``bunch * cap + position`` where ``cap`` is the widest bunch
    capacity, so one flat per-entry array serves every bunch.  The
    per-bunch ready FIFO is a ring (``ring``/``ring_head``/``ring_len``)
    over slot ids, supporting O(1) pop/push and ordered middle deletion
    for the token-validity scan.  Token pools are a LIFO free stack per
    depth (``tok_free``/``tok_n``), bit-compatible with
    :class:`~repro.core.tokens.TokenPool` order.  ``b_nkids``,
    ``b_next`` and ``b_paddr`` hold each bunch's parent span length,
    cursor and set address (-1 for none).
    """

    __slots__ = (
        "nb", "cap", "max_depth", "tokens_per_depth",
        "b_depth", "b_cap", "b_index", "b_in_use", "b_tree",
        "b_active", "b_executing", "b_quiesced",
        "b_nkids", "b_next", "b_paddr",
        "ring", "ring_head", "ring_len",
        "e_vertex", "e_child_index", "e_token",
        "tok_free", "tok_n", "d_start", "d_end", "ctl",
    )

    def __init__(self, config, max_depth: int) -> None:
        layout: List[Tuple[int, int, int]] = []  # (depth, capacity, index)
        for depth in range(max_depth + 1):
            if depth == 0:
                per_depth = [(1, i) for i in range(config.root_bunches)]
            elif depth == 1:
                per_depth = [
                    (config.bunch_entries, i) for i in range(config.root_bunches)
                ]
            else:
                per_depth = [
                    (config.bunch_entries, i)
                    for i in range(config.bunches_per_depth)
                ]
            layout.extend((depth, cap, i) for cap, i in per_depth)

        nb = len(layout)
        cap = max(c for _, c, _ in layout)
        self.nb = nb
        self.cap = cap
        self.max_depth = max_depth
        self.tokens_per_depth = config.tokens_per_depth

        i64 = np.int64
        self.b_depth = np.array([d for d, _, _ in layout], dtype=i64)
        self.b_cap = np.array([c for _, c, _ in layout], dtype=i64)
        self.b_index = np.array([i for _, _, i in layout], dtype=i64)
        self.b_in_use = np.zeros(nb, dtype=i64)
        self.b_tree = np.full(nb, -1, dtype=i64)
        self.b_active = np.zeros(nb, dtype=i64)
        self.b_executing = np.zeros(nb, dtype=i64)
        self.b_quiesced = np.zeros(nb, dtype=i64)
        self.b_nkids = np.zeros(nb, dtype=i64)
        self.b_next = np.zeros(nb, dtype=i64)
        self.b_paddr = np.full(nb, -1, dtype=i64)

        self.ring = np.zeros(nb * cap, dtype=i64)
        self.ring_head = np.zeros(nb, dtype=i64)
        self.ring_len = np.zeros(nb, dtype=i64)

        self.e_vertex = np.zeros(nb * cap, dtype=i64)
        self.e_child_index = np.zeros(nb * cap, dtype=i64)
        self.e_token = np.full(nb * cap, -1, dtype=i64)

        # Per-depth free stacks, top at the end: [T-1 .. 0] so token 0 is
        # acquired first — identical order to TokenPool's list.
        tpd = config.tokens_per_depth
        self.tok_free = np.zeros(max(1, max_depth) * tpd, dtype=i64)
        self.tok_n = np.zeros(max(1, max_depth), dtype=i64)
        for depth in range(max_depth):
            self.tok_free[depth * tpd:(depth + 1) * tpd] = np.arange(
                tpd - 1, -1, -1, dtype=i64
            )
            self.tok_n[depth] = tpd

        # Per-depth bunch index ranges (construction order preserved for
        # the idle-bunch scans).
        self.d_start = np.zeros(max_depth + 2, dtype=i64)
        self.d_end = np.zeros(max_depth + 2, dtype=i64)
        for depth in range(max_depth + 1):
            rows = [b for b, (d, _, _) in enumerate(layout) if d == depth]
            self.d_start[depth] = rows[0]
            self.d_end[depth] = rows[-1] + 1

        self.ctl = np.zeros(CTL_WORDS, dtype=i64)
        self.ctl[CTL_LAST_BUNCH] = -1
        self.ctl[CTL_EXEC_BUNCH] = -1


class TaskTree:
    """Per-PE task tree: storage, FSM and scheduler."""

    def __init__(self, pe: "PE", on_tree_done: Callable[[int], None]) -> None:
        self.pe = pe
        config = pe.config
        schedule = pe.schedule
        if schedule.max_depth > config.max_pattern_depth:
            raise SimulationError(
                f"pattern depth {schedule.max_depth} exceeds task tree "
                f"maximum {config.max_pattern_depth}"
            )
        self.max_depth = schedule.max_depth
        self.on_tree_done = on_tree_done

        self.state = TaskTreeState(config, self.max_depth)
        s = self.state

        #: Parent task of each in-use bunch (``None`` for root bunches).
        self._bunch_parent: List[Optional[SimTask]] = [None] * s.nb
        #: Static depth-0 bunch indices and per-bunch depths (geometry
        #: never changes).
        self._root_range = range(int(s.d_start[0]), int(s.d_end[0]))
        self._b_depth: List[int] = s.b_depth.tolist()
        #: The control block and the bunches' parent-span lengths and
        #: cursors as plain Python ints (windows on arrays the compiled
        #: ops pin).
        self._ctl = memoryview(s.ctl)
        self._nkids = memoryview(s.b_nkids)
        self._next = memoryview(s.b_next)

        # Address tokens gate output-set storage; leaf tasks produce none.
        # The interpreted cold edges (partition intake, recycle) take and
        # return them through views over the SoA token arrays the ops use.
        tpd = config.tokens_per_depth
        self.tokens: Dict[int, ArrayTokenPool] = {
            depth: ArrayTokenPool(
                s.tok_free[depth * tpd:(depth + 1) * tpd],
                s.tok_n[depth:depth + 1],
                tpd,
            )
            for depth in range(self.max_depth)
        }
        #: Preallocated buffer addresses per (depth, token).
        self._addr: List[List[int]] = [
            [pe.buffer_map.address(d, t) for t in range(tpd)]
            for d in range(self.max_depth)
        ]

        self._waiting_spawn: Dict[int, Deque[SimTask]] = {
            depth: deque() for depth in range(1, self.max_depth + 1)
        }
        self._quiesced_trees: set = set()
        self._live_trees: set = set()

        #: Tree-op calls made from Python per decision (see
        #: :attr:`op_calls`).
        self._op_calls = {"select_kernel": 0, "fill_kernel": 0, "complete_kernel": 0}
        #: ``select``/``fill``/``complete`` bound over ``state`` by the
        #: active kernel backend; ``done`` is the ops' own spawn result.
        self._ops = pe.memory._kernels.tree_bind(s)
        self._done = self._ops.done

    # ------------------------------------------------------------------
    # root / partition intake
    # ------------------------------------------------------------------
    def free_root_slots(self) -> int:
        """Idle depth-0 bunches (capacity for new search trees).

        The depth-0 range is tiny (``root_bunches``, typically 2) and
        this runs on the root-feed path, so scalar reads beat a numpy
        slice reduction.
        """
        in_use = self.state.b_in_use
        n = 0
        for b in self._root_range:
            if not in_use[b]:
                n += 1
        return n

    def add_root(self, vertex: int, tree_id: int) -> None:
        """Install a new search-tree root as a Ready depth-0 entry."""
        b = self._idle_bunch(0)
        if b is None:
            raise SimulationError("no idle depth-0 bunch for a new root")
        s = self.state
        slot = b * s.cap
        s.b_in_use[b] = 1
        s.b_tree[b] = tree_id
        self._bunch_parent[b] = None
        s.b_active[b] = 1
        s.b_quiesced[b] = 0
        s.e_vertex[slot] = vertex
        s.e_child_index[slot] = 0
        s.e_token[slot] = -1
        s.ring[slot] = slot
        s.ring_head[b] = 0
        s.ring_len[b] = 1
        self._ctl[CTL_READY] += 1
        self._live_trees.add(tree_id)
        self._ctl[CTL_LIVE] = len(self._live_trees)

    def add_partition(
        self, prefix: Tuple[int, ...], children: List[int], tree_id: int
    ) -> List[SimTask]:
        """Install a split search-tree partition (task-tree splitting, §4.1).

        The partition arrives *already executed* down to the split task:
        the message carried the embedding prefix (just the root vertex in
        the paper's depth-0-only scheme), the assigned candidate range
        and the prefix's candidate-set cache lines.  The local entries
        for the whole prefix are created directly in Resting state and
        the deepest one spawns from the assigned range.
        """
        s = self.state
        chain: List[SimTask] = []
        parent: Optional[SimTask] = None
        for d, vertex in enumerate(prefix):
            b = self._idle_bunch(d)
            if b is None:
                raise SimulationError(f"no idle depth-{d} bunch for a partition")
            task = SimTask(
                depth=d,
                vertex=int(vertex),
                embedding=tuple(int(v) for v in prefix[: d + 1]),
                parent=parent,
                tree=tree_id,
            )
            slot = b * s.cap
            if d < self.max_depth:
                token = self.tokens[d].acquire()
                if token is None:
                    raise SimulationError(f"no depth-{d} token for a partition")
                task.token = token
                task.set_address = self.pe.buffer_map.address(d, token)
                s.e_token[slot] = token
            else:
                s.e_token[slot] = -1
            task.candidates = self.pe.context.expand(task.embedding).candidates
            if d < len(prefix) - 1:
                # Interior prefix entry: its only live candidate is the
                # next prefix vertex; everything else stays on the donor.
                task.children_vertices = [int(prefix[d + 1])]
            else:
                task.children_vertices = list(children)
            task.state = TaskState.RESTING
            task.bunch = b
            task.slot = slot
            s.e_vertex[slot] = task.vertex
            s.e_child_index[slot] = 0
            s.b_in_use[b] = 1
            s.b_tree[b] = tree_id
            self._bunch_parent[b] = parent
            s.b_active[b] = 1
            s.b_quiesced[b] = 0
            if parent is not None:
                # The parent's one child (this entry) is explored.
                self._ops.span(b, _span(parent.children_vertices), 1, 1,
                               _address(parent))
                parent.bind_cursor(self._next, b)
            self.pe.footprint_add(len(task.candidates) * 4)
            chain.append(task)
            parent = task
        self._live_trees.add(tree_id)
        self._ctl[CTL_LIVE] = len(self._live_trees)
        self._spawn_or_wait(chain[-1])
        return chain

    def _idle_bunch(self, depth: int) -> Optional[int]:
        s = self.state
        in_use = s.b_in_use
        for b in range(int(s.d_start[depth]), int(s.d_end[depth])):
            if not in_use[b]:
                return b
        return None

    # ------------------------------------------------------------------
    # scheduling (Figure 7)
    # ------------------------------------------------------------------
    def select(self, conservative: bool) -> Optional[SimTask]:
        """Pick the next task to execute (a batch of one)."""
        tasks = self.select_batch(conservative, 1)
        return tasks[0] if tasks else None

    def select_batch(self, conservative: bool, limit: int) -> List[SimTask]:
        """Schedule up to ``limit`` tasks in one ``select`` op call.

        Bunches are considered in preference order (siblings of the last
        selection first, then round-robin; conservative mode restricts
        to the executing bunch), honoring token validity.  One call is
        exactly equivalent to ``limit`` single selections stopping at
        the first failure: a selection only reads and writes tree/token
        state, which bookings never touch, so per-call order (including
        token-stall accounting) is preserved bit for bit.

        The op returns a flat list of ``(slot, vertex, child_index,
        token, tree)`` records, one per pick; each becomes an Executing
        :class:`SimTask` (depth from the static bunch layout, output
        address from the token's preallocated buffer).
        """
        if limit <= 0 or not self._ctl[CTL_READY]:
            return []
        self._op_calls["select_kernel"] += 1
        return self.tasks_from_records(
            self._ops.select(1 if conservative else 0, limit)
        )

    def tasks_from_records(self, records) -> List[SimTask]:
        """Executing :class:`SimTask` objects for flat ``select`` records."""
        cap = self.state.cap
        bunch_parent = self._bunch_parent
        b_depth = self._b_depth
        addr = self._addr
        tasks = []
        it = iter(records)
        for slot, v, child_index, token, tree in zip(it, it, it, it, it):
            b = slot // cap
            parent = bunch_parent[b]
            depth = b_depth[b]
            if token >= 0:
                set_address = addr[depth][token]
            else:
                token = set_address = None
            tasks.append(SimTask(
                depth, v,
                (parent.embedding + (v,)) if parent is not None else (v,),
                parent, tree, child_index, _EXECUTING, token, set_address,
                b, slot,
            ))
        return tasks

    def select_rest(self, first: int, count: int) -> List[SimTask]:
        """Tasks for records ``[first, count)`` of the last ``select``
        op call (a dispatch pass the event lane stopped part-way)."""
        return self.tasks_from_records(self._ops.rest(first, count))

    def leaf_task(self, slot: int) -> SimTask:
        """The Executing leaf in entry ``slot``, built from its row.

        The event lane books and completes leaves without objects; it
        hands a completion to Python (a recycling bunch, an epoch
        boundary, merging) as the slot, whose row still holds the task.
        """
        s = self.state
        return self.tasks_from_records((
            slot, int(s.e_vertex[slot]), int(s.e_child_index[slot]), -1,
            int(s.b_tree[slot // s.cap]),
        ))[0]

    # ------------------------------------------------------------------
    # completion, spawning, extending (Figures 5/6)
    # ------------------------------------------------------------------
    def on_complete(self, task: SimTask) -> None:
        """A task finished its PE pipeline; advance the FSM.

        The whole transition is one ``complete`` op call; Python only
        parks a parent that found no idle child bunch and runs the cold
        recycle edge of a drained bunch.
        """
        b = task.bunch
        if b is None:
            b = self._bunch_of(task)
        self._op_calls["complete_kernel"] += 1
        cv = task.children_vertices
        if cv is not None and len(cv):
            first = task.next_child
            action = self._ops.complete(
                task.slot, b, 1, _span(cv), first, len(cv), _address(task),
                1 if task.tree in self._quiesced_trees else 0,
            )
            task.state = _RESTING
            if action == DONE_SPAWNED:
                target = self._done[0]
                self._bunch_parent[target] = task
                task.bind_cursor(self._next, target)
            elif action == DONE_WAITING:
                self._waiting_spawn[task.depth + 1].append(task)
            else:
                raise SimulationError("spawning with no unexplored candidates")
            return
        # No children: the task's candidate set (if any) is dead.
        candidates = task.candidates
        if candidates is not None:
            self.pe.footprint_remove(len(candidates) * 4)
        # The op extends onto the parent's next candidate from the
        # bunch's tree-resident span.
        action = self._ops.complete(task.slot, b, 0, None, 0, 0, -1, 0)
        if action == DONE_UNDERFLOW:
            raise SimulationError("bunch active count underflow")
        if action != DONE_EXTENDED:
            # DONE_IDLED / DONE_RECYCLE: the op released the entry token.
            task.token = None
        task.state = _IDLE
        if action == DONE_RECYCLE:
            self._recycle(b)

    def _bunch_of(self, task: SimTask) -> int:
        # Every entry records its bunch when installed; fall back to the
        # structural scan (children live in the bunch whose parent is
        # task.parent; roots in depth-0 bunches keyed by tree) for tasks
        # built outside the normal intake paths.
        s = self.state
        b = task.bunch
        if b is not None and b >= 0 and s.b_in_use[b]:
            return b
        bunch_parent = self._bunch_parent
        for b in range(int(s.d_start[task.depth]), int(s.d_end[task.depth])):
            if s.b_in_use[b] and (
                (task.parent is None and s.b_tree[b] == task.tree
                 and bunch_parent[b] is None)
                or (task.parent is not None
                    and bunch_parent[b] is task.parent)
            ):
                return b
        raise SimulationError(f"task {task!r} belongs to no bunch")

    def _spawn_or_wait(self, task: SimTask) -> None:
        """Spawn a child bunch now, or queue until one is idle."""
        child_depth = task.depth + 1
        b = self._idle_bunch(child_depth)
        task.state = TaskState.RESTING
        if b is None:
            self._ctl[CTL_WAITS] += 1
            self._waiting_spawn[child_depth].append(task)
            return
        self._fill_bunch(task, b)

    def _fill_bunch(self, parent: SimTask, b: int) -> None:
        """Admit the parent's next candidate span into idle bunch ``b``.

        Children are *not* materialized: each becomes one row of the
        per-entry arrays plus a ready-ring slot, admitted from the
        parent's contiguous candidate span in one ``fill`` op call.
        """
        vertices = parent.children_vertices
        first = parent.next_child
        count = min(int(self.state.b_cap[b]), len(vertices) - first)
        if count <= 0:
            raise SimulationError("spawning with no unexplored candidates")
        tree = parent.tree
        self._bunch_parent[b] = parent
        self._op_calls["fill_kernel"] += 1
        self._ops.fill(
            b, tree, 1 if tree in self._quiesced_trees else 0,
            _span(vertices), first, count, _address(parent),
        )
        parent.bind_cursor(self._next, b)

    def _extend_or_idle(self, task: SimTask, b: int) -> None:
        """Task extending / entry recycling (§3.2.2) for a Resting parent
        whose child bunch just drained (the cold recycle edge)."""
        s = self.state
        parent = task.parent
        position = self._next[b]
        if self._nkids[b] - position > 0:
            self._next[b] = position + 1
            slot = task.slot
            # Entry and address token are reused by the extended entry.
            s.e_vertex[slot] = parent.children_vertices[position]
            s.e_child_index[slot] = position
            task.state = TaskState.IDLE
            cap = s.cap
            s.ring[b * cap + (int(s.ring_head[b]) + int(s.ring_len[b])) % cap] = slot
            s.ring_len[b] += 1
            self._ctl[CTL_READY] += 1
            return
        # No candidate to extend onto: the entry idles.
        if task.token is not None:
            self.tokens[task.depth].release(task.token)
            task.token = None
        s.e_token[task.slot] = -1
        task.state = TaskState.IDLE
        s.b_active[b] -= 1
        if s.b_active[b] < 0:
            raise SimulationError("bunch active count underflow")
        if s.b_active[b] == 0:
            self._recycle(b)

    def _recycle(self, b: int) -> None:
        """Recycle a drained bunch and propagate subtree completion.

        This is the cold edge of the FSM (waiter refill, tree completion
        callbacks, upward propagation through Python parent objects) and
        deliberately stays interpreted; the ``complete`` op stops at
        ``DONE_RECYCLE`` and hands the drained bunch here.
        """
        s = self.state
        parent = self._bunch_parent[b]
        tree = int(s.b_tree[b])
        depth = int(s.b_depth[b])
        unexplored = self._nkids[b] - self._next[b]
        if parent is not None:
            parent.unbind_cursor()
        self._ops.span(b, None, 0, 0, -1)
        s.b_in_use[b] = 0
        self._bunch_parent[b] = None
        s.b_tree[b] = -1
        s.b_executing[b] = 0
        s.b_quiesced[b] = 0
        s.ring_head[b] = 0
        s.ring_len[b] = 0
        ctl = self._ctl
        if ctl[CTL_LAST_BUNCH] == b:
            ctl[CTL_LAST_BUNCH] = -1
        if ctl[CTL_EXEC_BUNCH] == b:
            ctl[CTL_EXEC_BUNCH] = -1

        # A freed bunch first serves parents waiting to spawn at this depth.
        waiters = self._waiting_spawn.get(depth)
        if waiters:
            self._fill_bunch(waiters.popleft(), b)

        if parent is None:
            # A depth-0 bunch drained: the search tree is fully explored.
            self._live_trees.discard(tree)
            self._ctl[CTL_LIVE] = len(self._live_trees)
            self._quiesced_trees.discard(tree)
            self.on_tree_done(tree)
            return
        if unexplored != 0:
            raise SimulationError(
                "bunch drained while its parent still has unexplored candidates"
            )
        # Parent leaves Resting: its candidate set is fully explored.
        parent_bunch = self._bunch_of(parent)
        if parent.candidates is not None:
            self.pe.footprint_remove(len(parent.candidates) * 4)
        self._extend_or_idle(parent, parent_bunch)

    # ------------------------------------------------------------------
    # introspection / merging support
    # ------------------------------------------------------------------
    def has_work(self) -> bool:
        """Whether any search tree is still live on this PE."""
        return bool(self._live_trees)

    def ready_count(self) -> int:
        """Schedulable Ready tasks (quiesced trees excluded).

        Reads the SoA counters directly: ``ctl[CTL_READY]`` in the
        common no-quiesce case, a masked ring-length sum otherwise.
        """
        s = self.state
        if not self._quiesced_trees:
            return self._ctl[CTL_READY]
        mask = (s.ring_len > 0) & (s.b_quiesced == 0)
        return int(s.ring_len[mask].sum())

    def executing_count(self) -> int:
        """Tasks currently in the PE pipeline (SoA counter)."""
        return self._ctl[CTL_EXECUTING]

    @property
    def op_calls(self) -> Dict[str, int]:
        """Tree-op calls per decision (``repro profile``'s scheduler
        section), the event lane's included."""
        calls = dict(self._op_calls)
        ctl = self._ctl
        calls["select_kernel"] += ctl[CTL_LANE_SELECT]
        calls["complete_kernel"] += ctl[CTL_LANE_COMPLETE]
        return calls

    #: Diagnostic counters (read by metrics collection) — SoA-backed.
    @property
    def spawn_waits(self) -> int:
        return self._ctl[CTL_WAITS]

    @property
    def token_stalls(self) -> int:
        return self._ctl[CTL_STALLS]

    def live_tree_ids(self) -> List[int]:
        """Identifiers of live (possibly quiesced) trees."""
        return sorted(self._live_trees)

    def quiesce_tree(self, tree_id: int) -> None:
        """Freeze a tree's Ready/Resting work (merging recovery, §4.2)."""
        if tree_id in self._live_trees:
            self._quiesced_trees.add(tree_id)
            s = self.state
            s.b_quiesced[(s.b_in_use == 1) & (s.b_tree == tree_id)] = 1

    def wake_tree(self, tree_id: int) -> None:
        """Resume a quiesced tree."""
        self._quiesced_trees.discard(tree_id)
        s = self.state
        s.b_quiesced[s.b_tree == tree_id] = 0

    def quiesced_tree_ids(self) -> List[int]:
        """Currently quiesced trees."""
        return sorted(self._quiesced_trees)

    def tree_stats(self, tree_id: int) -> Dict[str, int]:
        """Occupancy of one tree (victim selection for quiescing)."""
        s = self.state
        mine = (s.b_in_use == 1) & (s.b_tree == tree_id)
        bunches = int(mine.sum())
        max_depth = int(s.b_depth[mine].max()) if bunches else 0
        return {"bunches": bunches, "max_depth": max_depth}

    # ------------------------------------------------------------------
    # splitting support (§4.1)
    # ------------------------------------------------------------------
    def harvest_split_pool(self, task: SimTask) -> List[int]:
        """Withdraw the shippable candidate range of ``task`` (§4.1).

        The pool is the task's unexplored candidate range plus any Ready
        (not yet executing, not extended) child entries, which are
        reclaimed from their bunch — reclaiming a Ready entry is the same
        hardware operation as quiescing it, just followed by a range
        update instead of a later wake.  At least one live entry is
        always left behind so the donor's subtree completion path stays
        intact.  Returns the pooled candidate vertices in their original
        candidate-set order; the caller re-appends the donor's share.
        """
        s = self.state
        cv = task.children_vertices
        explored = [int(v) for v in cv[: task.next_child]]
        pool: List[Tuple[int, int]] = [
            (idx, int(cv[idx])) for idx in range(task.next_child, len(cv))
        ]
        b = self._child_bunch(task)
        if b is not None:
            # Ready entries without a token belong to ``task`` by
            # construction (the bunch's parent is ``task``).
            cap = s.cap
            base = b * cap
            head = int(s.ring_head[b])
            length = int(s.ring_len[b])
            positions = [
                j for j in range(length)
                if s.e_token[int(s.ring[base + (head + j) % cap])] < 0
            ]
            if int(s.b_active[b]) - len(positions) < 1 and positions:
                positions = positions[1:]  # leave one Ready entry behind
            for j in reversed(positions):
                slot = self._ring_delete(b, j)
                s.b_active[b] -= 1
                self._ctl[CTL_READY] -= 1
                pool.append((int(s.e_child_index[slot]), int(s.e_vertex[slot])))
        pool.sort()
        task.next_child = len(explored)
        self.set_children(task, explored)
        return [v for _, v in pool]

    def set_children(self, task: SimTask, vertices: List[int]) -> None:
        """Replace ``task``'s candidate list, cursor unchanged (splitting).

        A task with a child bunch re-pins the bunch's parent span.
        """
        task.children_vertices = vertices
        b = self._child_bunch(task)
        if b is not None:
            self._ops.span(b, _span(vertices), len(vertices), self._next[b],
                           _address(task))

    def _ring_delete(self, b: int, j: int) -> int:
        """Remove the ``j``-th logical ready entry of ``b``; return its slot."""
        s = self.state
        cap = s.cap
        base = b * cap
        ring = s.ring
        head = int(s.ring_head[b])
        length = int(s.ring_len[b])
        slot = int(ring[base + (head + j) % cap])
        for k in range(j, length - 1):
            ring[base + (head + k) % cap] = ring[base + (head + k + 1) % cap]
        s.ring_len[b] = length - 1
        return slot

    def _child_bunch(self, task: SimTask) -> Optional[int]:
        if task.depth + 1 > self.max_depth:
            return None
        s = self.state
        depth = task.depth + 1
        bunch_parent = self._bunch_parent
        for b in range(int(s.d_start[depth]), int(s.d_end[depth])):
            if s.b_in_use[b] and bunch_parent[b] is task:
                return b
        return None

    def split_potential(self, task: SimTask) -> int:
        """Candidates :meth:`harvest_split_pool` could withdraw for ``task``."""
        potential = task.unexplored
        b = self._child_bunch(task)
        if b is not None:
            s = self.state
            cap = s.cap
            base = b * cap
            head = int(s.ring_head[b])
            reclaimable = sum(
                1 for j in range(int(s.ring_len[b]))
                if s.e_token[int(s.ring[base + (head + j) % cap])] < 0
            )
            if int(s.b_active[b]) - reclaimable < 1:
                reclaimable = max(0, reclaimable - 1)
            potential += reclaimable
        return potential

    def splittable_task(self, depth_limit: int = 0) -> Optional[SimTask]:
        """The shallowest/heaviest task with a shippable candidate range.

        The paper splits only the depth-0 task's depth-1 range
        (``depth_limit=0``); larger limits extend the same mechanism to
        deeper Resting tasks — the partition message just carries a
        longer embedding prefix.  Returns ``None`` when no task could
        ship at least two candidates.
        """
        s = self.state
        best: Optional[SimTask] = None
        best_key: Optional[Tuple[int, int]] = None
        candidates: List[SimTask] = []
        bunch_parent = self._bunch_parent
        for depth in range(0, min(depth_limit, self.max_depth - 1) + 1):
            for b in range(int(s.d_start[depth + 1]), int(s.d_end[depth + 1])):
                if s.b_in_use[b] and bunch_parent[b] is not None:
                    candidates.append(bunch_parent[b])
            for waiter in self._waiting_spawn.get(depth + 1, ()):
                if waiter.depth == depth:
                    candidates.append(waiter)
        for task in candidates:
            if task.tree in self._quiesced_trees:
                continue
            potential = self.split_potential(task)
            if potential < 2:
                continue
            key = (task.depth, -potential)  # shallowest first, then heaviest
            if best_key is None or key < best_key:
                best = task
                best_key = key
        return best
