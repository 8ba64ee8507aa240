"""Macro-step engine core: whole-task booking in one compiled call.

The per-event path books a task stage by stage through Python
(``PE._book_task``: decode → dispatch → vertex fetch → span fetches →
issue → IU service → writeback → spawn).  The macro-step core collapses
all of it into **one** call into the active backend's fast-path loop
(:func:`._loops.task_fastpath_loop`, or its C mirror in :mod:`.cext`), so the simulator returns to Python once per task instead
of once per stage.

Escape protocol
---------------
The fast path is *probe-then-commit*: phase 1 verifies every
precondition with side-effect-free tag scans, and any failure returns a
typed escape **having mutated nothing**, so the Python slow path replays
the task through the exact per-event code.  Escapes, from outermost to
innermost:

``instrumented``
    A ``TraceRecorder`` / ``InvariantChecker`` wrapper is installed on
    the PE (instance-attribute ``_start_task`` / ``_complete_task``):
    the whole task books per-event so hooks observe every stage.
``injected``
    The test-only :attr:`MacroCore.fault_hook` forced an escape (the
    resume-correctness property test drives random escape points).
``multi_round``
    The working set exceeds the SPM share — the fetch/compute stages
    loop in Python (``PE._book_body`` multi-round branch).
``spans_overflow``
    More graph spans than the flattened marshalling buffer holds.
``vertex_miss`` / ``inter_miss`` / ``graph_miss``
    A cache probe failed (L1 vertex line, L1 intermediate span, L2
    graph span): the fetch needs DRAM/NoC modeling, which stays in
    Python.  Nothing was committed; the fallback reuses the already
    derived expansion (``PE._derive`` ran exactly once — re-running it
    would double-count ``context.expansions``).

Two success shapes come back from the loop: ``0`` (complete — the core
booked through spawn; Python posts the completion event) and ``1``
(partial — the output span was not fully L1-resident, so the core
committed decode through IU service and Python finishes with
``PE._book_tail``: writeback installs, spills and spawn).

Every accounted metric is bit-identical to the per-event path by
construction: the loop mirrors the Python float expressions statement
for statement, and the parity suite (``tests/test_macro_step.py``) plus
the golden registry enforce it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

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
    "spans_overflow",
    "instrumented",
    "injected",
)

#: Escape-status → counter key for the negative loop returns.
_MISS_KEYS = {-3: "vertex_miss", -4: "inter_miss", -5: "graph_miss"}


class MacroCore:
    """Per-accelerator macro-step state: bindings, buffers, counters."""

    __slots__ = (
        "accel", "books", "counters", "fault_hook", "spans", "result",
        "max_depth", "spm_share", "line_bytes", "max_spans",
    )

    def __init__(self, accel, books: List[Callable]) -> None:
        self.accel = accel
        self.books = books
        self.counters: Dict[str, int] = {k: 0 for k in COUNTER_KEYS}
        #: Test-only escape injector: ``callable(pe, task) -> bool``;
        #: True forces this task down the per-event path (counted as
        #: ``injected``).  The resume property test uses it to prove
        #: random escape points never drop or reorder work.
        self.fault_hook = None
        self.spans = np.zeros(SPANS_CAPACITY, dtype=np.int64)
        self.result = np.zeros(2, dtype=np.float64)
        # Uniform across PEs (one config, one schedule); hoisted here so
        # the per-task hot path reads them off this core's slots instead
        # of chasing pe attributes.
        pe0 = accel.pes[0]
        self.max_depth = pe0._max_depth
        self.spm_share = pe0.spm_share
        self.line_bytes = pe0._line_bytes
        self.max_spans = SPANS_CAPACITY // 2

    # ------------------------------------------------------------------
    def start(self, pe, task, now: float) -> None:
        """Book ``task`` on ``pe`` — fast path when possible, else the
        exact per-event slow path (see the module docs for the escape
        taxonomy)."""
        counters = self.counters
        # Instrumentation wrappers live in the instance __dict__ (the
        # class attributes are the clean methods), so their presence is
        # exactly the "hooks want per-stage visibility" signal.
        instance = pe.__dict__
        if "_start_task" in instance or "_complete_task" in instance:
            counters["instrumented"] += 1
            pe._book_task(task, now)
            return
        hook = self.fault_hook
        if hook is not None and hook(pe, task):
            counters["injected"] += 1
            pe._book_task(task, now)
            return

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
                pe.engine.post(float(result[0]), pe, task)
            else:
                counters["vertex_miss"] += 1
                pe._book_leaf(task, pe._book_front(task, now))
            return

        derived = pe._derive(task)
        (
            inter_span, graph_spans,
            out_first, out_last, out_count, segments, total_lines,
        ) = derived
        nspans = len(graph_spans)
        if total_lines > self.spm_share or nspans > self.max_spans:
            key = (
                "multi_round" if total_lines > self.spm_share
                else "spans_overflow"
            )
            counters[key] += 1
            pe._book_body(task, pe._book_front(task, now), *derived)
            return
        spans = self.spans
        idx = 0
        for first, last in graph_spans:
            spans[idx] = first
            spans[idx + 1] = last
            idx += 2
        if inter_span is not None:
            inter_first, inter_last = inter_span
        else:
            inter_first = inter_last = -1

        status = book(
            now, 0, vertex_line, inter_first, inter_last,
            out_first, out_last, out_count, segments, nspans,
        )
        if status == 0:
            counters["fast"] += 1
            pe.engine.post(float(result[0]), pe, task)
        elif status == 1:
            counters["partial"] += 1
            pe._book_tail(task, float(result[0]), out_first, out_last, out_count)
        else:
            counters[_MISS_KEYS[status]] += 1
            pe._book_body(task, pe._book_front(task, now), *derived)

    # ------------------------------------------------------------------
    def coverage(self) -> Dict[str, object]:
        """Fast-path coverage: counts, totals and the drained fraction."""
        counters = dict(self.counters)
        total = sum(counters.values())
        drained = counters["fast"] + counters["partial"]
        return {
            "tasks": total,
            "drained": drained,
            "drained_fraction": (drained / total) if total else 0.0,
            "counters": counters,
        }


# ----------------------------------------------------------------------
def _bind_loop(accel, spans, result, loop) -> List[Callable]:
    """Generic per-PE binder over numpy views for a python-level loop.

    Builds one closure per PE with every array view and config scalar
    pre-bound, so a fast-path call marshals only the 10 per-task
    scalars.  Used for the interpreted reference loop (pure backend);
    the C extension binds at a lower level
    (:func:`.cext._CLib.macro_bind`).
    """
    memory = accel.memory
    config = accel.config
    state = accel.pe_state
    l2 = memory.l2
    books: List[Callable] = []
    for pe in accel.pes:
        row = pe._row
        l1 = memory.l1s[pe.pe_id]
        window = memory.l1_windows[pe.pe_id]

        def book(
            now, is_leaf, vertex_line, inter_first, inter_last,
            out_first, out_last, out_count, segments, nspans,
            # pre-bound per-PE state and config scalars:
            _loop=loop,
            _spans=spans,
            _result=result,
            _decode=state.decode_free[row:row + 1],
            _dispatch=state.dispatch_free[row:row + 1],
            _issue=state.issue_free[row:row + 1],
            _spawn=state.spawn_free[row:row + 1],
            _l1_tags=l1._tags,
            _l1_stamps=l1._stamps,
            _l1_meta=l1._meta,
            _l1_sets=l1.num_sets,
            _l1_assoc=l1.assoc,
            _l1_window=window._state,
            _l2_tags=l2._tags,
            _l2_stamps=l2._stamps,
            _l2_meta=l2._meta,
            _l2_sets=l2.num_sets,
            _l2_assoc=l2.assoc,
            _bank_free=memory._l2_bank_free,
            _mem_stats=memory._stats,
            _iu_free=pe.iu_pool._server_free,
            _iu_acc=pe.iu_pool._acc,
            _unit_interval=pe._unit_interval,
            _decode_cycles=float(config.decode_cycles),
            _dispatch_cycles=float(config.dispatch_cycles),
            _post_spawn=float(pe._post_spawn_cycles),
            _leaf_cycles=float(config.leaf_cycles),
            _l1_hit=memory._l1_hit_cycles_f,
            _l2_hit=float(config.l2_hit_cycles),
            _l2_service=float(config.l2_service_cycles),
            _hop=float(memory._hop_cycles),
            _alpha=window.alpha,
            _segment_cycles=float(config.segment_cycles),
            _num_dividers=float(config.num_dividers),
            _fetch_ports=int(config.fetch_ports),
            _stream_ok=1 if memory._l2_stream_ok else 0,
        ):
            return _loop(
                now, is_leaf, vertex_line, inter_first, inter_last,
                out_first, out_last, out_count, segments, _spans, nspans,
                _result,
                _decode, _dispatch, _issue, _spawn,
                _l1_tags, _l1_stamps, _l1_meta, _l1_sets, _l1_assoc,
                _l1_window,
                _l2_tags, _l2_stamps, _l2_meta, _l2_sets, _l2_assoc,
                _bank_free, _mem_stats, _iu_free, _iu_acc,
                _unit_interval, _decode_cycles, _dispatch_cycles,
                _post_spawn, _leaf_cycles, _l1_hit, _l2_hit, _l2_service,
                _hop, _alpha, _segment_cycles, _num_dividers,
                _fetch_ports, _stream_ok,
            )

        books.append(book)
    return books


def build_macro(accel) -> Optional[MacroCore]:
    """Bind the macro-step core to ``accel`` (or ``None`` when off).

    Resolution of ``config.macro_step``: ``False`` pins the per-event
    path; ``None`` (auto) enables the core exactly when the active
    kernel backend is compiled (the interpreted loop is slower than
    per-event booking, so auto never picks it); ``True`` forces it even
    under pure — the parity suite uses that to differential-test the
    reference loop.  On success every PE's ``_macro`` is pointed at the
    returned core.
    """
    setting = getattr(accel.config, "macro_step", None)
    if setting is False:
        return None
    kernels = accel.memory._kernels
    if setting is None and not kernels.compiled:
        return None
    spans = np.zeros(SPANS_CAPACITY, dtype=np.int64)
    result = np.zeros(2, dtype=np.float64)
    binder = kernels.macro_bind
    if binder is not None:
        books = binder(accel, spans, result)
    elif kernels.task_fastpath is not None:
        books = _bind_loop(accel, spans, result, kernels.task_fastpath)
    else:  # pragma: no cover - every shipped backend has one of the two
        return None
    core = MacroCore(accel, books)
    core.spans = spans
    core.result = result
    for pe in accel.pes:
        pe._macro = core
    return core
