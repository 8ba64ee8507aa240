"""Discrete-event simulation core.

A minimal, fast event queue built for tie-heavy schedules: pending
events are bucketed by timestamp — a heap orders the *distinct* times,
and each time's callbacks sit in a FIFO list.  FIFO order within a
bucket is exactly the scheduling order, so simultaneous events run as
scheduled and the simulation is fully deterministic, while the heap
does one push/pop per distinct timestamp instead of one per event
(same-cycle storms — dispatch kicks, zero-delay chains — are the
common case in the simulator).

Events a callback schedules for the *current* time land in a fresh
bucket and drain after the current bucket finishes, which is precisely
where sequence-numbered heap ordering would have placed them.

Two event shapes share the queue:

* plain callables (:meth:`Engine.at` / :meth:`Engine.after`) — run as
  ``callback()``;
* typed events (:meth:`Engine.post`) — ``(owner, payload)`` tuples run
  as ``owner.dispatch_event(payload)``, with consecutive same-owner
  runs within a bucket batched into one
  ``owner.dispatch_events(payloads)`` cohort call.  Task completions
  use this shape: no closure allocation per task, and whole completion
  cohorts advance through the PE state vector in one call.

The drain inner loop itself lives in
:mod:`repro.sim.backend.engine_loop`, shared by every backend — each
drained event runs arbitrary Python, so the loop cannot move to C.
What does move to C under a compiled backend is the booking *between*
a task's two events: the macro-step core
(:mod:`repro.sim.backend.macro`) collapses the start event's whole
pipeline walk into one compiled call with a typed escape back to the
per-event path, leaving this queue's event count and ordering exactly
as before.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from ..errors import SimulationError
from .backend.engine_loop import drain as _drain

Callback = Callable[[], None]


class Engine:
    """Deterministic event queue with a cycle clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._times: List[float] = []  # heap of distinct pending timestamps
        self._buckets: Dict[float, List[Callback]] = {}
        self._pending = 0  # queued events (kept in lockstep with _buckets)

    def at(self, time: float, callback: Callback) -> None:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self.now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heapq.heappush(self._times, time)
        else:
            bucket.append(callback)
        self._pending += 1

    def after(self, delay: float, callback: Callback) -> None:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heapq.heappush(self._times, time)
        else:
            bucket.append(callback)
        self._pending += 1

    def post(self, time: float, owner, payload) -> None:
        """Schedule a typed event: ``owner.dispatch_event(payload)`` at ``time``.

        Same ordering semantics as :meth:`at`, without allocating a
        closure — the queue stores the ``(owner, payload)`` tuple and
        the drain loop dispatches through the owner, late-bound (so
        instrumentation that replaces ``owner.dispatch_event`` or the
        underlying completion method still intercepts every event).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self.now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(owner, payload)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((owner, payload))
        self._pending += 1

    def pending(self) -> int:
        """Number of queued events (O(1) — a maintained counter)."""
        return self._pending

    def run(self, *, until: Optional[float] = None) -> int:
        """Drain the queue; returns the number of events executed.

        Stops when the queue empties or the clock passes ``until``.
        Callbacks may schedule further events.

        The clock advances once per distinct timestamp and that time's
        whole bucket drains in FIFO (= scheduling) order; the ``until``
        comparison happens once per timestamp, not once per event.  If
        a callback raises, the rest of its bucket is dropped with it
        (later timestamps stay queued); a simulation never resumes a
        run that raised.
        """
        return _drain(self, until)
