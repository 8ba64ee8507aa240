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
  one at a time as ``owner.dispatch_event(payload)``.  Task completions
  use this shape: no closure allocation per task.

Under the pure backend, and for the BFS and parallel-DFS policies, the
drain inner loop is :func:`repro.sim.backend.engine_loop.drain`, in
Python.  Under a compiled backend a Shogun or pseudo-DFS (FINGERS, DFS)
accelerator binds the **compiled event lane**
(:class:`repro.sim.backend.engine_loop.EventLane`): the queue itself
moves into C with the same ordering contract, Python callables and
typed events ride it as opaque handles, and one C drain runs a leaf
task's whole cycle (completion, kick, the dispatch pass that follows
and the next leaf's booking) without a Python frame, returning to
Python in event order for everything else.  The lane
replaces :meth:`at`, :meth:`after`, :meth:`post` and :meth:`pending`
on the bound engine and :meth:`run` hands it the drain; unbinding
restores this class's queue.
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
        self._lane = None  # the bound compiled event lane, if any

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
        the drain loop dispatches each one through the owner,
        late-bound, so a hook installed on the owner sees every event.
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
        lane = self._lane
        if lane is not None:
            return lane.run(until)
        return _drain(self, until)
