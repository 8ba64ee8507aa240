"""The event-drain inner loop, extracted from ``sim/engine.py``.

Unlike the set/span kernels this loop has exactly one implementation,
shared by every backend: each drained event runs an arbitrary Python
callback (policy hooks, task completions), so the loop *itself* cannot
move to C.  What moves to C instead is the work **between** the two
events a task costs: under a compiled backend the macro-step core
(:mod:`repro.sim.backend.macro`) drains a task's whole booking — the
dozen stages the start event used to walk through Python — in one
compiled call, escaping back to the per-event path only when a
precondition fails.  This loop then sees exactly two events per task
either way; the macro core changes what the start event *does*, never
what this loop observes.  What the extraction buys:

* the loop handles *typed events* — ``(owner, payload)`` tuples posted
  by :meth:`Engine.post` — without allocating a closure per event,
  dispatching each one on its own as ``owner.dispatch_event(payload)``,
* the ``Engine._pending`` counter is maintained bucket-at-a-time here
  (one subtraction per timestamp instead of a per-event count), which is
  what makes :meth:`Engine.pending` O(1),
* profilers and the kernel benchmarks measure the drain as a unit.

A mixed bucket executes plain callables and tuples in exactly the
scheduled order; the engine tests hold this loop to a one-event-at-a-
time drain kept with the test oracles.  On a callback exception the
rest of the bucket is dropped with it — ``_pending`` was already
debited for the whole bucket, so the counter stays consistent with the
queue.
"""

from __future__ import annotations

import heapq
from typing import Optional

_INFINITY = float("inf")


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
