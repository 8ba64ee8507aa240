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
  by :meth:`Engine.post` — without allocating a closure per event, and
  batches consecutive same-owner tuples within a bucket into one
  ``owner.dispatch_events(payloads)`` cohort call (the struct-of-arrays
  PE completion path),
* the ``Engine._pending`` counter is maintained bucket-at-a-time here
  (one subtraction per timestamp instead of a per-event count), which is
  what makes :meth:`Engine.pending` O(1),
* profilers and the kernel benchmarks measure the drain as a unit.

Exactness: a cohort call is defined as equivalent to dispatching each
payload in FIFO order (``PE.dispatch_events`` preserves per-task side
-effect order; instrumented PEs fall back to per-task dispatch), and a
mixed bucket executes plain callables and tuples in exactly the
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
        i = 0
        while i < nb:
            ev = bucket[i]
            if ev.__class__ is tuple:
                owner = ev[0]
                j = i + 1
                while j < nb:
                    nxt = bucket[j]
                    if nxt.__class__ is not tuple or nxt[0] is not owner:
                        break
                    j += 1
                if j - i == 1:
                    owner.dispatch_event(ev[1])
                else:
                    owner.dispatch_events([bucket[k][1] for k in range(i, j)])
                i = j
            else:
                ev()
                i += 1
    return executed
