"""Macro-step engine core: whole-task booking in one compiled call.

The per-event path books a task stage by stage through Python
(``PE._book_task``: decode → dispatch → vertex fetch → span fetches →
issue → IU service → writeback → spawn).  The macro-step core collapses
all of it into **one** call into the compiled backend's fast path
(``repro_task_fastpath`` in :mod:`.cext`), so the simulator returns to
Python once per task instead of once per stage.  The core exists
exactly when the active kernel backend is compiled; under ``pure``
every task books per-event, and that path is both the escape target
and the reference the core is tested against.

Escape protocol
---------------
The fast path is *probe-then-commit*: phase 1 verifies every
precondition with side-effect-free tag scans, and any failure returns a
typed escape **having mutated nothing**, so the Python slow path replays
the task through the exact per-event code.  Escapes, from outermost to
innermost:

``multi_round``
    The working set exceeds the SPM share — the fetch/compute stages
    loop in Python (``PE._book_body`` multi-round branch).
``derive_escape``
    The compiled derive escaped (a missing ancestor set, more graph
    spans than the span buffer holds): ``SearchContext`` derived the
    task in Python and it books per-event.
``vertex_miss`` / ``inter_miss`` / ``graph_miss``
    A cache probe failed (L1 vertex line, L1 intermediate span, L2
    graph span): the fetch needs DRAM/NoC modeling, which stays in
    Python.  Nothing was committed; the fallback reuses the already
    derived task (``PE._derive`` ran exactly once — re-running it
    would double-count the search context's counters).

Two success shapes come back from the loop: ``0`` (complete — the core
booked through spawn; Python posts the completion event) and ``1``
(partial — the output span was not fully L1-resident, so the core
committed decode through IU service and Python finishes with
``PE._book_tail``: writeback installs, spills and spawn).

Hooks on a PE (a ``TraceRecorder`` or ``InvariantChecker`` wrapping
``_start_task`` / ``_complete_task``) change nothing here: they run
around :meth:`MacroCore.start`, and a hooked PE books exactly like a
bare one.  The core updates the same flat counters the per-event path
does (cache hit/miss/tick arrays, ``MemorySystem`` line counts, latency
windows), so checkers reconcile those after the run instead of
intercepting stages.

Every accounted metric is bit-identical to the per-event path by
construction: the C body mirrors the Python float expressions statement
for statement, and the parity suite (``tests/test_macro_step.py``,
which also injects escapes by wrapping :attr:`MacroCore.books`) plus
the golden registry enforce it.

Each entry of :attr:`MacroCore.books` is the backend's fast-path
function with the PE's bound core struct applied
(``functools.partial``), so a booking call enters the compiled code
with no Python frame in between.  A non-leaf task is derived first by
the backend's compiled derive (``derive_bind``, bound here over the
core's span buffer): it writes the task's graph spans straight into
that buffer, where the booking call reads them, so no span passes
through Python.  The core's buffers are held as memoryviews, so
:meth:`MacroCore.start` reads the result as plain Python numbers.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..pe import LanePE
from .engine_loop import EventLane

#: Flattened ``(first, last)`` graph-span marshalling capacity.
SPANS_CAPACITY = 128

#: Escape/outcome counter keys, in reporting order.
COUNTER_KEYS = (
    "fast",
    "partial",
    "vertex_miss",
    "inter_miss",
    "graph_miss",
    "multi_round",
    "derive_escape",
)

#: Escape-status → counter key for the negative loop returns.
_MISS_KEYS = {-3: "vertex_miss", -4: "inter_miss", -5: "graph_miss"}


class MacroCore:
    """Per-accelerator macro-step state: bindings, buffers, counters."""

    __slots__ = (
        "accel", "books", "cores", "counters", "spans", "result", "_pinned",
        "max_depth", "spm_share", "line_bytes",
    )

    def __init__(self, accel, bind) -> None:
        self.accel = accel
        self.counters: Dict[str, int] = {k: 0 for k in COUNTER_KEYS}
        self.spans = memoryview(np.zeros(SPANS_CAPACITY, dtype=np.int64))
        self.result = memoryview(np.zeros(2, dtype=np.float64))
        #: One booking call per PE row, from the backend's ``macro_bind``
        #: over this core's marshalling buffers, and the struct each
        #: binds (the event lane books leaves through them); ``_pinned``
        #: holds the pinned pointers the structs point into.
        self.books, self.cores, self._pinned = bind(
            accel, self.spans, self.result
        )
        # Uniform across PEs (one config, one schedule); hoisted here so
        # the per-task hot path reads them off this core's slots instead
        # of chasing pe attributes.
        pe0 = accel.pes[0]
        self.max_depth = pe0._max_depth
        self.spm_share = pe0.spm_share
        self.line_bytes = pe0._line_bytes

    # ------------------------------------------------------------------
    def start(self, pe, task, now: float) -> None:
        """Book ``task`` on ``pe`` — fast path when possible, else the
        exact per-event slow path (see the module docs for the escape
        taxonomy)."""
        counters = self.counters
        parent = task.parent
        if parent is not None and parent.set_address is not None:
            vertex_line = (
                parent.set_address + task.child_index * 4
            ) // self.line_bytes
        else:
            vertex_line = -1
        book = self.books[pe._row]
        result = self.result

        if task.depth >= self.max_depth:
            # Leaf: no derivation, no spans, no output set.
            status = book(now, 1, vertex_line, -1, -1, -1, -1, 0, 0, 0)
            if status == 0:
                counters["fast"] += 1
                pe.engine.post(result[0], pe, task)
            else:
                counters["vertex_miss"] += 1
                pe._book_leaf(task, pe._book_front(task, now))
            return

        derived = pe._derive(task)
        (
            inter_first, inter_last, nspans,
            out_first, out_last, out_count, segments, total_lines,
        ) = derived
        if total_lines > self.spm_share or nspans.__class__ is not int:
            # Multi-round, or derived in Python (a span list, not a
            # count of spans in the buffer).
            key = (
                "multi_round" if total_lines > self.spm_share
                else "derive_escape"
            )
            counters[key] += 1
            pe._book_body(task, pe._book_front(task, now), *derived)
            return

        status = book(
            now, 0, vertex_line, inter_first, inter_last,
            out_first, out_last, out_count, segments, nspans,
        )
        if status == 0:
            counters["fast"] += 1
            pe.engine.post(result[0], pe, task)
        elif status == 1:
            counters["partial"] += 1
            pe._book_tail(task, result[0], out_first, out_last, out_count)
        else:
            counters[_MISS_KEYS[status]] += 1
            pe._book_body(task, pe._book_front(task, now), *derived)

    # ------------------------------------------------------------------
    def coverage(self) -> Dict[str, object]:
        """Fast-path coverage: counts, totals and the drained fraction.

        Leaves the event lane booked (through the same fast path, never
        through :meth:`start`) count as ``fast``.
        """
        counters = dict(self.counters)
        lane = self.accel.lane
        if lane is not None:
            counters["fast"] += lane.counters()["fast"]
        total = sum(counters.values())
        drained = counters["fast"] + counters["partial"]
        return {
            "tasks": total,
            "drained": drained,
            "drained_fraction": (drained / total) if total else 0.0,
            "counters": counters,
        }


# ----------------------------------------------------------------------
def build_macro(accel) -> Optional[MacroCore]:
    """Bind the macro-step core to ``accel`` (``None`` under pure).

    The core is on exactly when the active kernel backend is compiled;
    on success every PE's ``_macro`` is pointed at the returned core
    and its ``_derive_ops`` at the compiled derive bound over the
    core's span buffer.
    """
    kernels = accel.memory._kernels
    if not kernels.compiled:
        return None
    core = MacroCore(accel, kernels.macro_bind)
    derive = kernels.derive_bind(accel, core.spans)
    for pe in accel.pes:
        pe._macro = core
        pe._derive_ops = derive
    return core


def build_lane(accel) -> Optional[EventLane]:
    """Bind the compiled event lane and its queue to ``accel``.

    Bound exactly when the PEs are :class:`~repro.sim.pe.LanePE`, i.e.
    the macro core is bound and the policy is Shogun or pseudo-DFS;
    ``None`` otherwise.  Each Shogun policy then publishes its epoch and
    mode words to the lane; a pseudo-DFS PE has neither epochs nor
    merging (its next epoch reads ``+inf``), and its policy pins each
    leaf level's children through the lane.
    """
    if not isinstance(accel.pes[0], LanePE):
        return None
    lane = EventLane(accel.engine, accel.memory._kernels.lane_bind(accel), accel)
    words = memoryview(accel.pe_state.policy)
    for pe, pin in zip(accel.pes, lane.ops.spans):
        row = 2 * pe.pe_id
        if pin is None:
            pe.policy.publish_to(words[row:row + 2])
        else:
            words[row] = float("inf")
            pe.policy.pin_leaf_spans(pin)
    return lane
