"""Processing element: pipeline, execution slots, FUs and local memory.

The PE (Figure 4(a)) executes tasks through five pipelined units —
decoder, dispatch, issue, FUs, spawn — each with a one-task-per-cycle
entry throughput; a task occupies one of ``execution_width`` execution
slots from decode to spawn.  Inputs are staged through the SPM: the
dispatch unit fetches intermediate results via the private L1 and
streams neighbor sets from the L2, the issue unit fires when inputs are
ready, and the FUs chew through divider segments on the IU pool.  For
large-degree vertices whose working set exceeds the task's SPM share,
the fetch/compute stages run for multiple rounds (§3.1).

The simulator books all stage times analytically when the task starts:
every shared resource (pipeline units, L2 port, DRAM channels, IU
servers) is a booked-until-time model, so contention is preserved while
each task costs only two events.

Mutable PE state lives in a :class:`PEStateVector` — parallel arrays
indexed by ``pe_id``, shared by all PEs of one accelerator — rather
than per-instance attributes.  Task completions arrive as typed engine
events (:meth:`Engine.post`), one :meth:`PE.dispatch_event` call each,
and :meth:`PE._complete_task` is the only completion body.  One PE's
completions never share a timestamp: every booking path retires its
task through the spawn unit, which admits one task per
``1 / unit_tasks_per_cycle`` cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from ..core.task import SimTask, TaskState
from ..core.tokens import SetBufferMap
from ..errors import SimulationError
from .fu import IUPool
from .memory import Scratchpad, span_round_chunk, spans_round_chunk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.policies.base import SchedulingPolicy
    from .accelerator import Accelerator

PolicyFactory = Callable[["PE"], "SchedulingPolicy"]

# Enum members resolved once (descriptor lookups add up on the per-task path).
_EXECUTING = TaskState.EXECUTING
_COMPLETE = TaskState.COMPLETE


class PEStateVector:
    """Struct-of-arrays mutable state for all PEs of one accelerator.

    One row per PE: pipeline-unit free times, slot occupancy, task and
    match counters, and the busy/idle slot integrals live in parallel
    arrays indexed by ``pe_id`` instead of per-PE instance attributes.
    The compiled macro-step core books the pipeline-unit columns in
    place through pinned row pointers, and metrics collection
    aggregates straight off the columns.  ``PE`` exposes its row through
    properties so external readers and writers (invariant checkers,
    tests) keep the familiar per-PE view.
    """

    __slots__ = (
        "num_pes",
        "decode_free",
        "dispatch_free",
        "issue_free",
        "spawn_free",
        "slots_used",
        "tasks_executed",
        "matches",
        "multi_round_tasks",
        "finish_cycle",
        "last_integrate",
        "busy_slot_cycles",
        "idle_with_work_cycles",
        "depth_executed",
    )

    def __init__(self, num_pes: int, depth: int) -> None:
        self.num_pes = num_pes
        # Pipeline units: one task entry per cycle each.  Numpy storage
        # (rather than Python lists) lets the compiled macro-step core
        # pin per-PE element pointers and book stages without a Python
        # round trip; interpreted readers cast on access so Python-float
        # arithmetic stays exact on the fallback paths.
        self.decode_free = np.zeros(num_pes, dtype=np.float64)
        self.dispatch_free = np.zeros(num_pes, dtype=np.float64)
        self.issue_free = np.zeros(num_pes, dtype=np.float64)
        self.spawn_free = np.zeros(num_pes, dtype=np.float64)
        self.slots_used = np.zeros(num_pes, dtype=np.int64)
        self.tasks_executed = np.zeros(num_pes, dtype=np.int64)
        self.matches = np.zeros(num_pes, dtype=np.int64)
        # Tasks whose working set exceeded the SPM share (ran >1 round).
        # Diagnostic only — not part of RunMetrics.
        self.multi_round_tasks = np.zeros(num_pes, dtype=np.int64)
        self.finish_cycle = np.zeros(num_pes, dtype=np.float64)
        # Slot-occupancy integrals.
        self.last_integrate = np.zeros(num_pes, dtype=np.float64)
        self.busy_slot_cycles = np.zeros(num_pes, dtype=np.float64)
        self.idle_with_work_cycles = np.zeros(num_pes, dtype=np.float64)
        self.depth_executed = np.zeros((num_pes, depth), dtype=np.int64)


class PE:
    """One processing element with its policy-driven task scheduler."""

    def __init__(self, pe_id: int, accel: "Accelerator", policy_factory: PolicyFactory) -> None:
        self.pe_id = pe_id
        self.accel = accel
        self.engine = accel.engine
        self.config = accel.config
        self.memory = accel.memory
        self.context = accel.context
        self.schedule = accel.schedule
        graph = accel.graph

        buffer_lines = max(1, -(-graph.max_degree * 4 // self.config.cache_line_bytes))
        buffers = max(self.config.tokens_per_depth, self.config.execution_width)
        self.buffer_map = SetBufferMap(
            pe_id,
            self.config.max_pattern_depth,
            buffers,
            buffer_lines,
            self.config.cache_line_bytes,
        )
        self.iu_pool = IUPool(
            self.config.num_ius, self.config.segment_cycles, self.config.num_dividers
        )
        self.spm = Scratchpad(self.config.spm_lines)
        # Per-slot SPM share: a task whose inputs+output exceed it runs
        # the fetch/compute stages in multiple rounds.
        self.spm_share = max(4, self.config.spm_lines // self.config.execution_width)

        state = getattr(accel, "pe_state", None)
        if state is None or pe_id >= state.num_pes:
            # Stand-alone construction (unit tests with a stub accel):
            # a private vector holding just this PE's row.
            state = PEStateVector(pe_id + 1, self.schedule.depth)
        self._state = state
        self._row = pe_id

        # Hot-path constants (attribute chains hoisted out of the
        # per-task booking loop).
        self._unit_interval = 1.0 / self.config.unit_tasks_per_cycle
        self._post_spawn_cycles = self.config.spawn_cycles + self.config.tree_access_cycles
        self._line_bytes = self.config.cache_line_bytes
        self._segment_elements = int(self.config.segment_elements)
        self._max_depth = self.schedule.max_depth
        self._iu_submit = self.iu_pool.submit
        # Shared empty ancestor-set list for root tasks (read-only use).
        self._no_ancestor_sets: List[Optional[object]] = [None] * (
            self.schedule.depth + 1
        )

        self._kick_pending = False

        # Macro-step binding: set by the accelerator after all PEs are
        # built (None = per-event booking).  Stand-alone PEs (unit
        # tests with a stub accel) never get one.
        self._macro = None

        # Windowed IU utilization for the locality monitor.
        self._iu_win_start = 0.0
        self._iu_win_busy = 0.0
        self._iu_recent = 0.0

        self.policy: "SchedulingPolicy" = policy_factory(self)
        # Batch dispatch drain: policies exposing select_tasks (Shogun's
        # compiled run-of-tasks over the task tree) fill all free slots
        # in one call; others fall back to per-slot select_task.
        self._select_many = getattr(self.policy, "select_tasks", None)

    # ------------------------------------------------------------------
    # state-vector row views (external readers/writers: invariants,
    # traces, metrics collection, tests).  Hot paths below index the
    # shared arrays directly instead of going through these.
    # ------------------------------------------------------------------
    @property
    def slots_used(self) -> int:
        return int(self._state.slots_used[self._row])

    @slots_used.setter
    def slots_used(self, value: int) -> None:
        self._state.slots_used[self._row] = value

    @property
    def tasks_executed(self) -> int:
        return int(self._state.tasks_executed[self._row])

    @tasks_executed.setter
    def tasks_executed(self, value: int) -> None:
        self._state.tasks_executed[self._row] = value

    @property
    def matches(self) -> int:
        return int(self._state.matches[self._row])

    @matches.setter
    def matches(self, value: int) -> None:
        self._state.matches[self._row] = value

    @property
    def multi_round_tasks(self) -> int:
        return int(self._state.multi_round_tasks[self._row])

    @multi_round_tasks.setter
    def multi_round_tasks(self, value: int) -> None:
        self._state.multi_round_tasks[self._row] = value

    @property
    def finish_cycle(self) -> float:
        return float(self._state.finish_cycle[self._row])

    @finish_cycle.setter
    def finish_cycle(self, value: float) -> None:
        self._state.finish_cycle[self._row] = value

    @property
    def depth_executed(self) -> np.ndarray:
        """This PE's per-depth task counts (a live row of the vector)."""
        return self._state.depth_executed[self._row]

    @property
    def _busy_slot_cycles(self) -> float:
        return float(self._state.busy_slot_cycles[self._row])

    @property
    def _idle_with_work_cycles(self) -> float:
        return float(self._state.idle_with_work_cycles[self._row])

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def _integrate(self) -> None:
        now = self.engine.now
        state = self._state
        row = self._row
        dt = now - float(state.last_integrate[row])
        if dt <= 0:
            return
        used = int(state.slots_used[row])
        state.busy_slot_cycles[row] += used * dt
        if self.policy.has_work():
            idle_slots = self.config.execution_width - used
            if idle_slots > 0:
                state.idle_with_work_cycles[row] += idle_slots * dt
        state.last_integrate[row] = now

    def recent_iu_utilization(self) -> float:
        """IU utilization over the last completed monitor epoch."""
        now = self.engine.now
        epoch = self.config.monitor_epoch_cycles
        elapsed = now - self._iu_win_start
        if elapsed >= epoch:
            delta = self.iu_pool.busy_cycles - self._iu_win_busy
            self._iu_recent = min(1.0, delta / (elapsed * self.config.num_ius))
            self._iu_win_start = now
            self._iu_win_busy = self.iu_pool.busy_cycles
        return self._iu_recent

    def footprint_add(self, num_bytes: int) -> None:
        """Report a newly materialized candidate set."""
        self.accel.footprint_add(num_bytes)

    def footprint_remove(self, num_bytes: int) -> None:
        """Report a candidate set whose last reader is done."""
        self.accel.footprint_remove(num_bytes)

    def on_tree_finished(self) -> None:
        """Policy callback: one assigned search tree fully explored."""
        self._state.finish_cycle[self._row] = self.engine.now
        self.kick()

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Request a dispatch pass (coalesced within the current cycle)."""
        if self._kick_pending:
            return
        self._kick_pending = True
        self.engine.after(0, self._dispatch)

    def _dispatch(self) -> None:
        self._kick_pending = False
        state = self._state
        row = self._row
        # Guarded call: a completion at this cycle already integrated.
        if self.engine.now > state.last_integrate[row]:
            self._integrate()
        self.accel.feed_roots(self)
        width = self.config.execution_width
        slots = state.slots_used
        select_many = self._select_many
        if select_many is not None:
            # Equivalent to the per-slot loop: bookings never mutate
            # tree state, so one batch selection drains all free slots,
            # stopping (like the loop) at the first failed selection.
            free = int(width - slots[row])
            if free > 0:
                for task in select_many(free):
                    self._start_task(task)
        else:
            select_task = self.policy.select_task
            while slots[row] < width:
                task = select_task()
                if task is None:
                    break
                self._start_task(task)
        self.accel.check_done()

    def _enter_unit(self, name: str, at: float) -> float:
        free_times = getattr(self._state, name + "_free")
        free = float(free_times[self._row])
        start = at if at >= free else free
        free_times[self._row] = start + self._unit_interval
        return start

    # ------------------------------------------------------------------
    # task execution (all stage times booked analytically)
    # ------------------------------------------------------------------
    def _start_task(self, task: SimTask) -> None:
        now = self.engine.now
        state = self._state
        row = self._row
        # Guarded call: the dispatch pass at this cycle already integrated.
        if now > state.last_integrate[row]:
            self._integrate()
        state.slots_used[row] += 1
        task.state = _EXECUTING
        macro = self._macro
        if macro is not None:
            # Macro-step core: books the whole task pipeline in one
            # compiled call when every precondition holds, and falls
            # back to the exact per-event booking below on any escape
            # (cache miss, multi-round, spans overflow).  See
            # ``sim/backend/macro.py`` for the escape taxonomy.
            macro.start(self, task, now)
        else:
            self._book_task(task, now)

    def _book_task(self, task: SimTask, now: float) -> None:
        """The per-event booking path: every stage through Python."""
        t = self._book_front(task, now)
        if task.depth >= self._max_depth:
            self._book_leaf(task, t)
            return
        (
            inter_span,
            graph_spans,
            out_first,
            out_last,
            out_count,
            segments,
            total_lines,
        ) = self._derive(task)
        self._book_body(
            task, t, inter_span, graph_spans,
            out_first, out_last, out_count, segments, total_lines,
        )

    def _book_front(self, task: SimTask, now: float) -> float:
        """Book decode + dispatch and fetch the task's vertex line.

        The common front of every booking path; returns the time the
        task leaves the dispatch unit with its vertex at hand.
        """
        state = self._state
        row = self._row
        config = self.config
        interval = self._unit_interval
        free = float(state.decode_free[row])
        start = now if now >= free else free
        state.decode_free[row] = start + interval
        t = start + config.decode_cycles
        free = float(state.dispatch_free[row])
        start = t if t >= free else free
        state.dispatch_free[row] = start + interval
        t = start + config.dispatch_cycles

        # Fetching this task's vertex touched one line of the parent's
        # candidate set (the Wait_Vertex step of spawning/extending);
        # consecutive siblings hit the same line — sibling locality.
        parent = task.parent
        if parent is not None and parent.set_address is not None:
            vertex_line = (parent.set_address + task.child_index * 4) // self._line_bytes
            t = self.memory.fetch_intermediate_line(self.pe_id, vertex_line, t)
        return t

    def _book_leaf(self, task: SimTask, t: float) -> None:
        """Leaf task: report the match, no set operation."""
        state = self._state
        row = self._row
        free = float(state.spawn_free[row])
        at = t + self.config.leaf_cycles
        start = at if at >= free else free
        state.spawn_free[row] = start + self._unit_interval
        self.engine.post(start + self._post_spawn_cycles, self, task)

    def _derive(self, task: SimTask):
        """Expand a non-leaf task and size its working set.

        Pure derivation — reads the search tree and the graph, writes
        only ``task.expansion`` (and the parent's cached ``child_sets``)
        — so it is safe to run before *or* after the decode/dispatch
        booking; no booked resource state is consulted.
        """
        # Ancestor sets inline (see _ancestor_sets): parent is at hand.
        parent = task.parent
        if parent is None:
            sets = self._no_ancestor_sets
        else:
            sets = parent.child_sets
            if sets is None:
                sets = self._child_sets(parent)
        expansion = self.context.expand(task.embedding, sets)
        task.expansion = expansion

        inter_span = self._intermediate_span(task)
        graph_spans, graph_count = self._graph_spans(task)
        out_bytes = len(expansion.candidates) * 4
        set_address = task.set_address
        if set_address is not None and out_bytes > 0:
            line_bytes = self._line_bytes
            out_first = set_address // line_bytes
            out_last = (set_address + out_bytes - 1) // line_bytes
            out_count = out_last - out_first + 1
        else:
            out_first = out_last = -1
            out_count = 0
        # segment_count inlined (segment_elements validated positive).
        comparisons = expansion.comparisons
        segments = (
            -(-comparisons // self._segment_elements) if comparisons > 0 else 0
        )
        inter_count = 0 if inter_span is None else inter_span[1] - inter_span[0] + 1
        total_lines = inter_count + graph_count + out_count
        return (
            inter_span, graph_spans,
            out_first, out_last, out_count, segments, total_lines,
        )

    def _book_body(
        self,
        task: SimTask,
        t: float,
        inter_span: Optional[Tuple[int, int]],
        graph_spans: List[Tuple[int, int]],
        out_first: int,
        out_last: int,
        out_count: int,
        segments: int,
        total_lines: int,
    ) -> None:
        """Fetch, issue and FU stages of a derived non-leaf task."""
        state = self._state
        row = self._row
        memory = self.memory
        interval = self._unit_interval
        if total_lines <= self.spm_share:
            # Single round (the overwhelmingly common case): the whole
            # working set streams through as unbroken spans.
            t_inter = (
                memory.fetch_intermediate_span(self.pe_id, inter_span[0], inter_span[1], t)
                if inter_span is not None
                else t
            )
            t_graph = memory.fetch_graph_spans(self.pe_id, graph_spans, t) if graph_spans else t
            ready = t_inter if t_inter >= t_graph else t_graph
            free = float(state.issue_free[row])
            start = ready if ready >= free else free
            state.issue_free[row] = start + interval
            t = self._iu_submit(segments, start + 1.0)
        else:
            state.multi_round_tasks[row] += 1
            rounds = -(-total_lines // self.spm_share)
            for r in range(rounds):
                ichunk = (
                    span_round_chunk(inter_span[0], inter_span[1], r, rounds)
                    if inter_span is not None
                    else ()
                )
                gchunk = spans_round_chunk(graph_spans, r, rounds)
                schunk = segments // rounds + (1 if r < segments % rounds else 0)
                t_inter = memory.fetch_intermediate(self.pe_id, ichunk, t) if ichunk else t
                t_graph = memory.fetch_graph(self.pe_id, gchunk, t) if gchunk else t
                ready = max(t_inter, t_graph)
                ready = self._enter_unit("issue", ready) + 1.0
                t = self.iu_pool.submit(schunk, ready)
        self._book_tail(task, t, out_first, out_last, out_count)

    def _book_tail(
        self, task: SimTask, t: float, out_first: int, out_last: int, out_count: int
    ) -> None:
        """Writeback + spawn stages; posts the completion event."""
        # Writeback: the produced candidate set lands in the L1.
        if out_count:
            self.memory.install_intermediate_span(self.pe_id, out_first, out_last)
            wb = out_count / self.config.fetch_ports
            t += wb if wb > 1.0 else 1.0
        state = self._state
        row = self._row
        free = float(state.spawn_free[row])
        start = t if t >= free else free
        state.spawn_free[row] = start + self._unit_interval
        self.engine.post(start + self._post_spawn_cycles, self, task)

    def _ancestor_sets(self, task: SimTask) -> List[Optional[object]]:
        """Materialized candidate sets along this task's ancestor path.

        ``sets[e]`` is the candidate set *for* depth ``e`` (produced by
        the depth ``e - 1`` ancestor); only ancestors still holding their
        expansion contribute, which is guaranteed for the reused depth —
        its producer is Resting exactly because descendants may read it.

        The list is cached on the parent (``child_sets``) and shared by
        all siblings: an ancestor's expansion is written once, before any
        descendant exists, and never replaced, so the walk result is
        identical for every child.  ``expand`` only reads the list.
        """
        parent = task.parent
        if parent is None:
            return self._no_ancestor_sets
        sets = parent.child_sets
        if sets is None:
            sets = self._child_sets(parent)
        return sets

    def _child_sets(self, parent: SimTask) -> List[Optional[object]]:
        grandparent = parent.parent
        if grandparent is None:
            sets: List[Optional[object]] = [None] * (self.schedule.depth + 1)
        else:
            base = grandparent.child_sets
            if base is None:
                base = self._child_sets(grandparent)
            sets = list(base)
        if parent.expansion is not None:
            sets[parent.depth + 1] = parent.expansion.candidates
        parent.child_sets = sets
        return sets

    def _intermediate_span(self, task: SimTask) -> Optional[Tuple[int, int]]:
        """L1 line span of the reused ancestor candidate set (or None)."""
        expansion = task.expansion
        if expansion is None or expansion.reused_depth is None:
            return None
        producer = task.ancestor_at_depth(expansion.reused_depth - 1)
        if producer.set_address is None:
            raise SimulationError(
                f"reused set of depth {expansion.reused_depth} has no address"
            )
        # With a reused ancestor, the first op's left input is always that
        # intermediate set (either the fetch or the head of the residual
        # merge chain).
        num_bytes = expansion.ops[0].left.size * 4
        if num_bytes <= 0:
            return None
        base = producer.set_address
        line_bytes = self._line_bytes
        return (base // line_bytes, (base + num_bytes - 1) // line_bytes)

    def _graph_spans(self, task: SimTask) -> Tuple[List[Tuple[int, int]], int]:
        """L2 line spans of all neighbor-set inputs, plus the line total.

        Uses the accelerator's precomputed per-vertex line spans — a
        neighbor input always covers the vertex's whole adjacency, so its
        span ``(first_line, last_line)`` is fixed at graph-load time.
        Empty neighbor sets contribute no span.
        """
        first = self.accel.graph_first_line
        last = self.accel.graph_last_line
        spans: List[Tuple[int, int]] = []
        append = spans.append
        count = 0
        for inp in task.expansion.neighbors:
            if inp.size:
                ref = inp.ref
                f = first[ref]
                l = last[ref]
                append((f, l))
                count += l - f + 1
        return spans, count

    # ------------------------------------------------------------------
    # completion (typed-event sinks for Engine.post)
    # ------------------------------------------------------------------
    def dispatch_event(self, task: SimTask) -> None:
        """One posted completion (late-bound, so a ``_complete_task``
        hook on the instance sees every event)."""
        self._complete_task(task)

    def dispatch_events(self, tasks: List[SimTask]) -> None:
        """Complete ``tasks`` one by one, in order.

        The engine never calls this (it dispatches each completion on
        its own); it stays because ``perfbench/layers.py`` wraps it by
        name.
        """
        for task in tasks:
            self._complete_task(task)

    def _complete_task(self, task: SimTask) -> None:
        self._integrate()
        task.state = _COMPLETE
        state = self._state
        row = self._row
        state.tasks_executed[row] += 1
        state.depth_executed[row][task.depth] += 1
        if task.depth >= self._max_depth:
            state.matches[row] += 1
            task.children_vertices = []
        else:
            task.children_vertices = self.context.children(
                task.embedding, task.expansion.candidates
            )
            self.footprint_add(len(task.expansion.candidates) * 4)
        state.slots_used[row] -= 1
        self.policy.on_task_complete(task)
        self.kick()
