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

The pipeline-unit free times live in numpy storage — a
:class:`PEStateVector` shared by all PEs of one accelerator — because
the compiled macro-step core books them in place through pinned
pointers; each PE reads and writes its row through memoryviews bound
once, so interpreted code sees plain Python floats.  A :class:`PE`
keeps every other counter as a plain attribute.  A :class:`LanePE` —
the PE of a Shogun or pseudo-DFS accelerator under a compiled backend —
keeps the counters the compiled event lane also writes (slot occupancy
and its integrals, executed tasks and matches, the pending kick) in the
same vector; its per-task Python paths bind those windows once per
call.  Task completions arrive as typed engine
events (:meth:`Engine.post`), one :meth:`PE.dispatch_event` call each,
and :meth:`PE._complete_task` is the only Python completion body.  One
PE's completions never share a timestamp: every booking path retires
its task through the spawn unit, which admits one task per
``1 / unit_tasks_per_cycle`` cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from ..core.task import SimTask
from ..core.tokens import SetBufferMap
from ..errors import SimulationError
from ..mining.setops import EMPTY
from ..mining.tree import Expansion
from .fu import IUPool
from .memory import Scratchpad, span_round_chunk, spans_round_chunk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.policies.base import SchedulingPolicy
    from .accelerator import Accelerator

PolicyFactory = Callable[["PE"], "SchedulingPolicy"]


#: Integer and float words a :class:`LanePE` keeps in the
#: :class:`PEStateVector` (column order shared with the C lane).
COUNT_WORDS = ("slots_used", "tasks_executed", "matches", "_kick_pending")
CLOCK_WORDS = ("last_integrate", "_busy_slot_cycles", "_idle_with_work_cycles")


class PEStateVector:
    """The per-PE state compiled code books in place.

    One ``float64`` column per pipeline unit (decode, dispatch, issue,
    spawn), one row per PE: the cext ``macro_bind`` pins a pointer to
    each PE's row and books stages in place, while the PE reads and
    writes the same row through memoryviews.  The event lane's words
    follow, ``num_pes`` rows each: ``counts`` (:data:`COUNT_WORDS`),
    ``clocks`` (:data:`CLOCK_WORDS`), ``depths`` (executed tasks per
    depth) and ``policy`` (the next monitor epoch and the conservative
    flag, which the Shogun policy publishes).  Only a :class:`LanePE`
    uses them.
    """

    __slots__ = (
        "num_pes", "decode_free", "dispatch_free", "issue_free", "spawn_free",
        "depth", "count_words", "clock_words", "counts", "clocks", "depths",
        "policy",
    )

    def __init__(self, num_pes: int, depth: int) -> None:
        self.num_pes = num_pes
        # Pipeline units: one task entry per cycle each.
        self.decode_free = np.zeros(num_pes, dtype=np.float64)
        self.dispatch_free = np.zeros(num_pes, dtype=np.float64)
        self.issue_free = np.zeros(num_pes, dtype=np.float64)
        self.spawn_free = np.zeros(num_pes, dtype=np.float64)
        self.depth = depth
        self.count_words = len(COUNT_WORDS)
        self.clock_words = len(CLOCK_WORDS)
        self.counts = np.zeros(num_pes * self.count_words, dtype=np.int64)
        self.clocks = np.zeros(num_pes * self.clock_words, dtype=np.float64)
        self.depths = np.zeros(num_pes * depth, dtype=np.int64)
        self.policy = np.zeros(num_pes * 2, dtype=np.float64)


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

        state = self._state_vector(accel, pe_id)
        self._row = pe_id
        # This PE's row of each pipeline column as a one-element
        # memoryview over the pinned storage: plain Python floats in
        # and out, no numpy scalar boxing.
        row = slice(pe_id, pe_id + 1)
        self._decode_free = memoryview(state.decode_free)[row]
        self._dispatch_free = memoryview(state.dispatch_free)[row]
        self._issue_free = memoryview(state.issue_free)[row]
        self._spawn_free = memoryview(state.spawn_free)[row]

        # Per-PE counters and slot-occupancy integrals.
        self.slots_used = 0
        self.tasks_executed = 0
        self.matches = 0
        # Tasks whose working set exceeded the SPM share (ran >1 round).
        # Diagnostic only — not part of RunMetrics.
        self.multi_round_tasks = 0
        self.finish_cycle = 0.0
        self.last_integrate = 0.0
        self._busy_slot_cycles = 0.0
        self._idle_with_work_cycles = 0.0
        self.depth_executed: List[int] = [0] * self.schedule.depth

        # Hot-path constants (attribute chains hoisted out of the
        # per-task booking loop).
        self._width = self.config.execution_width
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
        # Compiled-expansion binding (``DeriveOps``), set with the macro
        # core; None = ``SearchContext`` derives every task.
        self._derive_ops = None

        # Windowed IU utilization for the locality monitor.
        self._iu_win_start = 0.0
        self._iu_win_busy = 0.0
        self._iu_recent = 0.0

        self.policy: "SchedulingPolicy" = policy_factory(self)
        # Batch dispatch drain: policies exposing select_tasks (Shogun's
        # compiled run-of-tasks over the task tree) fill all free slots
        # in one call; others fall back to per-slot select_task.
        self._select_many = getattr(self.policy, "select_tasks", None)

    def _state_vector(self, accel, pe_id: int) -> PEStateVector:
        state = getattr(accel, "pe_state", None)
        if state is None or pe_id >= state.num_pes:
            # Stand-alone construction (unit tests with a stub accel):
            # a private vector holding just this PE's row.
            state = PEStateVector(pe_id + 1, accel.schedule.depth)
        return state

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def _integrate(self) -> None:
        now = self.engine.now
        dt = now - self.last_integrate
        if dt <= 0:
            return
        used = self.slots_used
        self._busy_slot_cycles += used * dt
        if self.policy.has_work():
            idle_slots = self._width - used
            if idle_slots > 0:
                self._idle_with_work_cycles += idle_slots * dt
        self.last_integrate = now

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
        self.finish_cycle = self.engine.now
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
        free = self._open_pass()
        self.accel.feed_roots(self)
        if free > 0:
            # Each start takes exactly one slot and no completion runs
            # inside a pass, so ``free`` counts the slots left.
            select_many = self._select_many
            if select_many is not None:
                # Equivalent to the per-slot loop: bookings never mutate
                # the policy's state, so one batch selection drains all
                # free slots, stopping (like the loop) at the first
                # failed selection.
                for task in select_many(free):
                    self._start_task(task)
            else:
                select_task = self.policy.select_task
                while free > 0:
                    task = select_task()
                    if task is None:
                        break
                    self._start_task(task)
                    free -= 1
        self.accel.check_done()

    def _open_pass(self) -> int:
        """Open a dispatch pass: clear the pending kick, integrate up to
        now and return the free slots."""
        self._kick_pending = False
        # Guarded call: a completion at this cycle already integrated.
        if self.engine.now > self.last_integrate:
            self._integrate()
        return self._width - self.slots_used

    def _enter_unit(self, name: str, at: float) -> float:
        unit = getattr(self, "_" + name + "_free")
        free = unit[0]
        start = at if at >= free else free
        unit[0] = start + self._unit_interval
        return start

    # ------------------------------------------------------------------
    # task execution (all stage times booked analytically)
    # ------------------------------------------------------------------
    def _start_task(self, task: SimTask) -> None:
        now = self.engine.now
        # Guarded call: the dispatch pass at this cycle already integrated.
        if now > self.last_integrate:
            self._integrate()
        self.slots_used += 1
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
        self._book_body(task, t, *self._derive(task))

    def _book_front(self, task: SimTask, now: float) -> float:
        """Book decode + dispatch and fetch the task's vertex line.

        The common front of every booking path; returns the time the
        task leaves the dispatch unit with its vertex at hand.
        """
        config = self.config
        interval = self._unit_interval
        unit = self._decode_free
        free = unit[0]
        start = now if now >= free else free
        unit[0] = start + interval
        t = start + config.decode_cycles
        unit = self._dispatch_free
        free = unit[0]
        start = t if t >= free else free
        unit[0] = start + interval
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
        unit = self._spawn_free
        free = unit[0]
        at = t + self.config.leaf_cycles
        start = at if at >= free else free
        unit[0] = start + self._unit_interval
        self.engine.post(start + self._post_spawn_cycles, self, task)

    def _derive(self, task: SimTask):
        """Expand a non-leaf task and size its working set.

        Pure derivation — reads the search tree and the graph, writes
        only ``task.candidates`` and ``task.kept`` (and the parent's
        cached ``child_sets`` / ``child_frame``) — so it is safe to run
        before *or* after the decode/dispatch booking; no booked
        resource state is consulted.

        Returns ``(inter_first, inter_last, graph_spans, out_first,
        out_last, out_count, segments, total_lines)``: the L1 span of
        the reused ancestor set (-1s without one), the neighbor inputs'
        L2 spans, the output set's L1 span and line count, the IU
        segments and the working set in lines.  Under a compiled
        backend one kernel call (``DeriveOps``) derives the task;
        ``graph_spans`` is then the count of ``(first, last)`` pairs it
        wrote into the macro core's span buffer.  Otherwise, and when
        the kernel escapes, ``SearchContext.expand``/``children`` derive
        it and ``graph_spans`` is the list of pairs.
        """
        ops = self._derive_ops
        if ops is not None:
            parent = task.parent
            if parent is None:
                frame = ops.root_frame
            else:
                frame = parent.child_frame
                if frame is None:
                    frame = parent.child_frame = ops.frame(parent)
            address = task.set_address
            n = ops.derive(frame[0], task.vertex, -1 if address is None else address)
            if n >= 0:
                info = ops.info
                if info[0]:
                    # No set op: the plan's input array is the candidate set.
                    candidates = frame[1]
                    if candidates is None:
                        candidates = ops.nbr[task.vertex]
                elif n:
                    candidates = ops.cand[:n].copy()
                else:
                    candidates = EMPTY
                task.candidates = candidates
                nkept = info[1]
                if info[2]:
                    task.kept = ops.scratch[:nkept].copy()
                else:
                    task.kept = candidates[:nkept] if nkept < n else candidates
                context = self.context
                context.expansions += 1
                context.candidates_seen += n
                context.children_kept += nkept
                context.children_pruned += n - nkept
                return ops.res.tolist()

        # Materialized candidate sets along the ancestor path, cached on
        # the parent and shared by the siblings (``_child_sets``).
        parent = task.parent
        if parent is None:
            sets = self._no_ancestor_sets
        else:
            sets = parent.child_sets
            if sets is None:
                sets = self._child_sets(parent)
        context = self.context
        expansion = context.expand(task.embedding, sets)
        candidates = expansion.candidates
        task.candidates = candidates
        task.kept = context.children(task.embedding, candidates)

        inter_span = self._intermediate_span(task, expansion)
        if inter_span is None:
            inter_first = inter_last = -1
            inter_count = 0
        else:
            inter_first, inter_last = inter_span
            inter_count = inter_last - inter_first + 1
        graph_spans, graph_count = self._graph_spans(expansion)
        out_bytes = len(candidates) * 4
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
        total_lines = inter_count + graph_count + out_count
        return (
            inter_first, inter_last, graph_spans,
            out_first, out_last, out_count, segments, total_lines,
        )

    def _book_body(
        self,
        task: SimTask,
        t: float,
        inter_first: int,
        inter_last: int,
        graph_spans,
        out_first: int,
        out_last: int,
        out_count: int,
        segments: int,
        total_lines: int,
    ) -> None:
        """Fetch, issue and FU stages of a derived non-leaf task.

        Takes :meth:`_derive`'s result; a compiled derive's span count
        is read back from the span buffer here, the only place the
        per-event path needs the pairs.
        """
        if graph_spans.__class__ is int:
            graph_spans = self._derive_ops.span_list(graph_spans)
        memory = self.memory
        interval = self._unit_interval
        if total_lines <= self.spm_share:
            # Single round (the overwhelmingly common case): the whole
            # working set streams through as unbroken spans.
            t_inter = (
                memory.fetch_intermediate_span(self.pe_id, inter_first, inter_last, t)
                if inter_first >= 0
                else t
            )
            t_graph = memory.fetch_graph_spans(self.pe_id, graph_spans, t) if graph_spans else t
            ready = t_inter if t_inter >= t_graph else t_graph
            unit = self._issue_free
            free = unit[0]
            start = ready if ready >= free else free
            unit[0] = start + interval
            t = self._iu_submit(segments, start + 1.0)
        else:
            self.multi_round_tasks += 1
            rounds = -(-total_lines // self.spm_share)
            for r in range(rounds):
                ichunk = (
                    span_round_chunk(inter_first, inter_last, r, rounds)
                    if inter_first >= 0
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
        unit = self._spawn_free
        free = unit[0]
        start = t if t >= free else free
        unit[0] = start + self._unit_interval
        self.engine.post(start + self._post_spawn_cycles, self, task)

    def _child_sets(self, parent: SimTask) -> List[Optional[object]]:
        """Materialized candidate sets visible to ``parent``'s children.

        ``sets[e]`` is the candidate set *for* depth ``e`` (produced by
        the depth ``e - 1`` ancestor); only ancestors still holding their
        expansion contribute, which is guaranteed for the reused depth —
        its producer is Resting exactly because descendants may read it.

        The list is cached on the parent (``child_sets``) and shared by
        all siblings: an ancestor's expansion is written once, before any
        descendant exists, and never replaced, so the walk result is
        identical for every child.  ``expand`` only reads the list.
        """
        grandparent = parent.parent
        if grandparent is None:
            sets: List[Optional[object]] = [None] * (self.schedule.depth + 1)
        else:
            base = grandparent.child_sets
            if base is None:
                base = self._child_sets(grandparent)
            sets = list(base)
        if parent.candidates is not None:
            sets[parent.depth + 1] = parent.candidates
        parent.child_sets = sets
        return sets

    def _intermediate_span(
        self, task: SimTask, expansion: Expansion
    ) -> Optional[Tuple[int, int]]:
        """L1 line span of the reused ancestor candidate set (or None)."""
        if expansion.reused_depth is None:
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

    def _graph_spans(self, expansion: Expansion) -> Tuple[List[Tuple[int, int]], int]:
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
        for inp in expansion.neighbors:
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
        self.tasks_executed += 1
        depth = task.depth
        self.depth_executed[depth] += 1
        if depth >= self._max_depth:
            self.matches += 1
            task.children_vertices = []
        else:
            task.children_vertices = task.kept
            self.footprint_add(len(task.candidates) * 4)
        self.slots_used -= 1
        self.policy.on_task_complete(task)
        self.kick()


def _count_word(column: int) -> property:
    def get(self):
        return self._counts[column]

    def put(self, value):
        self._counts[column] = value

    return property(get, put)


def _clock_word(column: int) -> property:
    def get(self):
        return self._clocks[column]

    def put(self, value):
        self._clocks[column] = value

    return property(get, put)


# Columns of COUNT_WORDS and CLOCK_WORDS.
_SLOTS, _TASKS, _MATCHES, _KICK = range(len(COUNT_WORDS))
_LAST, _BUSY, _IDLE = range(len(CLOCK_WORDS))


class LanePE(PE):
    """A PE whose lane-shared counters live in its :class:`PEStateVector`.

    The compiled event lane books, completes and kicks leaf tasks
    without Python (Shogun's and pseudo-DFS's), so every counter it
    writes — slot occupancy, the slot integrals, executed tasks per
    depth, matches, the pending kick — is a word of the accelerator's
    state vector here.  The Python paths that touch them on every task
    (integrating, opening a dispatch pass, starting and completing a
    task) bind the windows once per call; every other reader goes
    through properties of the :class:`PE` names.
    """

    def __init__(self, pe_id: int, accel: "Accelerator", policy_factory: PolicyFactory) -> None:
        state = self._state_vector(accel, pe_id)
        nc, nf, nd = state.count_words, state.clock_words, state.depth
        self._counts = memoryview(state.counts)[pe_id * nc:(pe_id + 1) * nc]
        self._clocks = memoryview(state.clocks)[pe_id * nf:(pe_id + 1) * nf]
        self._depths = memoryview(state.depths)[pe_id * nd:(pe_id + 1) * nd]
        super().__init__(pe_id, accel, policy_factory)

    @property
    def depth_executed(self) -> memoryview:
        """Executed tasks per depth (a window on the state vector)."""
        return self._depths

    @depth_executed.setter
    def depth_executed(self, counts: List[int]) -> None:
        for depth, count in enumerate(counts):
            self._depths[depth] = count

    # The PE bodies of the same name, over the windows.
    def _integrate(self) -> None:
        clocks = self._clocks
        now = self.engine.now
        dt = now - clocks[_LAST]
        if dt <= 0:
            return
        used = self._counts[_SLOTS]
        clocks[_BUSY] += used * dt
        if self.policy.has_work():
            idle_slots = self._width - used
            if idle_slots > 0:
                clocks[_IDLE] += idle_slots * dt
        clocks[_LAST] = now

    def _open_pass(self) -> int:
        counts = self._counts
        counts[_KICK] = 0
        if self.engine.now > self._clocks[_LAST]:
            self._integrate()
        return self._width - counts[_SLOTS]

    def _start_task(self, task: SimTask) -> None:
        now = self.engine.now
        if now > self._clocks[_LAST]:
            self._integrate()
        self._counts[_SLOTS] += 1
        macro = self._macro
        if macro is not None:
            macro.start(self, task, now)
        else:
            self._book_task(task, now)

    def _complete_task(self, task: SimTask) -> None:
        self._integrate()
        counts = self._counts
        counts[_TASKS] += 1
        depth = task.depth
        self._depths[depth] += 1
        if depth >= self._max_depth:
            counts[_MATCHES] += 1
            task.children_vertices = []
        else:
            task.children_vertices = task.kept
            self.footprint_add(len(task.candidates) * 4)
        counts[_SLOTS] -= 1
        self.policy.on_task_complete(task)
        self.kick()


for _column, _name in enumerate(COUNT_WORDS):
    setattr(LanePE, _name, _count_word(_column))
for _column, _name in enumerate(CLOCK_WORDS):
    setattr(LanePE, _name, _clock_word(_column))
del _column, _name
