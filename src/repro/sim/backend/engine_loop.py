"""The event-drain loops behind :meth:`Engine.run <repro.sim.Engine.run>`.

Two drains share one ordering contract — a heap of distinct times, each
time's events in FIFO (= scheduling) order, events scheduled at the
current time running after the current bucket:

* :func:`drain`, in Python, drains every pure-backend run and every
  policy but Shogun.  Each drained event runs its Python handler:
  typed events — ``(owner, payload)`` tuples posted by
  :meth:`Engine.post` — dispatch as ``owner.dispatch_event(payload)``
  without a closure per event, and ``Engine._pending`` is maintained
  bucket-at-a-time, which makes :meth:`Engine.pending` O(1).  On a
  callback exception the rest of the bucket is dropped with it —
  ``_pending`` was already debited for the whole bucket, so the counter
  stays consistent with the queue.
* :class:`EventLane` drives the **compiled event lane** a Shogun
  accelerator binds under a compiled backend.  The queue lives in C
  (``repro_lane_drain`` in :mod:`.cext`), and C owns a leaf task's
  whole cycle: its completion (slot integrals, PE counters, the tree's
  ``complete`` op extending or idling the entry), the kick, and the
  dispatch pass that follows (``select``, then the macro core's leaf
  booking, which posts the next completion into the same queue).  No
  :class:`~repro.core.task.SimTask` is built for such a leaf.  The C
  drain returns to Python, in event order, for everything else: Python
  events (callables and typed events ride the queue as handles into
  :attr:`EventLane._events`), non-leaf starts and leaves whose vertex
  line misses (the rest of a dispatch pass's records, in order),
  completions of recycling bunches, monitor epoch boundaries, merging,
  root feeding and the run-completion check.  Those run the same
  Python code the pure drain runs.

The engine tests hold both drains to a one-event-at-a-time drain kept
with the test oracles, and the lane's whole-run metrics, trace spans
and invariant counts to the pure backend's.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional

from ...errors import SimulationError

_INFINITY = float("inf")

#: Per-PE lane counters, in the C lane's order (``REPRO_LS_*``):
#: leaves booked (all through the macro fast path), leaves completed,
#: booked leaves whose vertex fetch read a parent's set line, and the
#: law breaks the invariant checker reconciles (slot occupancy out of
#: ``[0, width]``, a completion of a slot not in flight).
LANE_COUNTERS = (
    "fast", "completed", "vertex_lines", "slot_violations", "completed_twice",
)

# Drain return kinds (``REPRO_EV_*`` in the C source).
_PY, _DONE, _KICK, _REST, _CHECK, _RING = range(6)


def drain(engine, until: Optional[float]) -> int:
    """Run ``engine``'s queue; returns the number of events executed.

    Semantics documented on :meth:`Engine.run` (which delegates here).
    """
    executed = 0
    bound = _INFINITY if until is None else until
    times = engine._times
    buckets = engine._buckets
    heappop = heapq.heappop
    while times:
        time = times[0]
        if time > bound:
            break
        heappop(times)
        engine.now = time
        bucket = buckets.pop(time)
        nb = len(bucket)
        executed += nb
        engine._pending -= nb
        for ev in bucket:
            if ev.__class__ is tuple:
                ev[0].dispatch_event(ev[1])
            else:
                ev()
    return executed


class EventLane:
    """The Python side of a compiled event lane bound to ``engine``.

    ``ops`` comes from the backend's ``lane_bind(accel)``; with
    ``accel=None`` the lane is a bare C event queue.  Binding replaces
    the engine's :meth:`at`/:meth:`after`/:meth:`post`/:meth:`pending`
    (instance attributes over the C queue) and each PE's ``kick`` (a C
    kick event); :meth:`unbind` restores both.
    """

    def __init__(self, engine, ops, accel=None) -> None:
        self.engine = engine
        self.accel = accel
        self.ops = ops
        self.pes = [] if accel is None else list(accel.pes)
        #: Python events riding the C queue, by handle.
        self._events: Dict[int, object] = {}
        self._ring = None
        self._sinks: List[Callable] = []
        self._install()

    # ------------------------------------------------------------------
    def _install(self) -> None:
        engine = self.engine
        events = self._events
        push = self.ops.push
        handle = itertools.count(1).__next__

        def at(time, callback):
            if time < engine.now:
                raise SimulationError(
                    f"cannot schedule event at {time} before now={engine.now}"
                )
            h = handle()
            events[h] = callback
            if push(time, h << 3):
                raise MemoryError("event lane queue")

        def after(delay, callback):
            if delay < 0:
                raise SimulationError(f"negative delay {delay}")
            h = handle()
            events[h] = callback
            if push(engine.now + delay, h << 3):
                raise MemoryError("event lane queue")

        def post(time, owner, payload):
            if time < engine.now:
                raise SimulationError(
                    f"cannot schedule event at {time} before now={engine.now}"
                )
            h = handle()
            events[h] = (owner, payload)
            if push(time, h << 3):
                raise MemoryError("event lane queue")

        qs = self.ops.qs

        def pending():
            return qs[0]

        engine.at = at
        engine.after = after
        engine.post = post
        engine.pending = pending
        engine._lane = self
        kick = self.ops.kick
        for pe in self.pes:
            def lane_kick(_pe=pe.pe_id):
                if kick(_pe):
                    raise MemoryError("event lane queue")

            pe.kick = lane_kick

    def unbind(self) -> None:
        """Give the engine back its Python queue (nothing may be queued)."""
        if self.ops.qs[0]:
            raise SimulationError("cannot unbind an event lane with queued events")
        engine = self.engine
        for name in ("at", "after", "post", "pending"):
            engine.__dict__.pop(name, None)
        engine._lane = None
        for pe in self.pes:
            pe.__dict__.pop("kick", None)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float]) -> int:
        """Drain the queue (semantics of :meth:`Engine.run`)."""
        engine = self.engine
        ops = self.ops
        drain_lane = ops.drain
        clock = ops.clock
        qs = ops.qs
        pop = self._events.pop
        pes = self.pes
        npes = len(pes)
        bound = _INFINITY if until is None else until
        executed = qs[1]
        try:
            while True:
                code = drain_lane(bound)
                engine.now = clock[0]
                if code < 0:
                    break
                kind = code & 7
                if kind == _PY:
                    ev = pop(code >> 3)
                    if ev.__class__ is tuple:
                        ev[0].dispatch_event(ev[1])
                    else:
                        ev()
                elif kind == _DONE:
                    x = code >> 3
                    pe = pes[x % npes]
                    pe.dispatch_event(pe.policy.tree.leaf_task(x // npes))
                elif kind == _KICK:
                    pes[code >> 3]._dispatch()
                elif kind == _REST:
                    self._start_rest(pes[code >> 3])
                elif kind == _CHECK:
                    self.accel.check_done()
                elif kind == _RING:
                    self.flush()
                else:
                    raise MemoryError("event lane queue")
        except BaseException:
            # As in the Python drain: the rest of the bucket goes too.
            ops.drop()
            raise
        self.flush()
        return qs[1] - executed

    def _start_rest(self, pe) -> None:
        """Finish a dispatch pass from the first record C did not book."""
        handoff = self.ops.handoff
        records = self.ops.rest(pe.pe_id, handoff[0], handoff[1])
        start = pe._start_task
        for task in pe.policy.tree.tasks_from_records(records):
            start(task)
        self.accel.check_done()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def attach_ring(self, sink: Callable) -> None:
        """Feed ``sink(ints, times, n)`` every lane start and completion.

        The span ring is allocated on the first attach: ``n`` records of
        five words ``(kind, pe, slot, vertex, tree)`` — kind 0 a start,
        1 a completion — plus each record's time.  :meth:`flush` hands
        the filled part to every sink, which the drain does whenever
        the ring runs short and at the end of a run; an observer of
        Python events calls it first, so records arrive in event order.
        """
        if self._ring is None:
            width = self.accel.config.execution_width
            self._ring = self.ops.attach_ring(max(1024, 8 * len(self.pes) * width))
        self._sinks.append(sink)

    def flush(self) -> None:
        """Hand the span ring's records to the sinks and empty it."""
        ring = self._ring
        if ring is None:
            return
        qs = self.ops.qs
        n = qs[3]
        if n:
            for sink in self._sinks:
                sink(ring[0], ring[1], n)
            qs[3] = 0

    def counters(self) -> Dict[str, int]:
        """Lane counters summed over the PEs, plus the queue's own:
        ``regressions`` counts buckets drained at a time before the
        previous one (zero by construction)."""
        stat = self.ops.stat
        width = len(LANE_COUNTERS)
        totals = {
            name: sum(stat[row * width + i] for row in range(len(self.pes)))
            for i, name in enumerate(LANE_COUNTERS)
        }
        totals["regressions"] = self.ops.qs[2]
        return totals
