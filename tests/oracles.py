"""Reference models the simulator's fast paths are tested against.

None of these runs in a simulation; each is the simple formulation a
production path replaced, kept so the tests (and the kernel
benchmarks) can diff the two:

* :class:`ReferenceCache` — the original insertion-ordered-dict LRU
  cache, the oracle for the flattened :class:`repro.sim.Cache`'s
  trace-equivalence tests.
* :func:`legacy_drain` — the one-event-at-a-time drain of an
  :class:`repro.sim.Engine` queue with a ``max_events`` cap, the oracle
  for the bucket-at-a-time drain behind :meth:`repro.sim.Engine.run`.
* :func:`unbind_macro` — per-event booking and the Python drain on a
  compiled backend, the reference for the macro-step core and the
  event lane, plus :func:`inject_escapes`, which forces the core's
  escape path at chosen tasks.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.errors import ConfigError


class ReferenceCache:
    """Insertion-ordered-dict LRU cache: the original (slow) model.

    Retained verbatim as the oracle for the flattened :class:`Cache`'s
    trace-equivalence tests; not used by the simulator hot path.
    """

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int, name: str = "cache") -> None:
        if size_bytes <= 0 or assoc < 1 or line_bytes <= 0:
            raise ConfigError("invalid cache geometry")
        lines = size_bytes // line_bytes
        if lines < assoc:
            raise ConfigError(f"{name}: fewer lines ({lines}) than ways ({assoc})")
        self.name = name
        self.assoc = assoc
        self.num_sets = max(1, lines // assoc)
        self.line_bytes = line_bytes
        # One insertion-ordered dict per set: first key = LRU.
        self._sets: List[Dict[int, None]] = [dict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _set_of(self, line_addr: int) -> Dict[int, None]:
        return self._sets[int(line_addr) % self.num_sets]

    def lookup(self, line_addr: int) -> bool:
        """Access a line: returns hit/miss and refreshes LRU order."""
        target = self._set_of(line_addr)
        if line_addr in target:
            del target[line_addr]
            target[line_addr] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line_addr: int) -> bool:
        """Presence check without touching LRU state or stats."""
        return line_addr in self._set_of(line_addr)

    def insert(self, line_addr: int) -> Optional[int]:
        """Fill a line, returning the evicted line address (or ``None``)."""
        target = self._set_of(line_addr)
        if line_addr in target:
            del target[line_addr]
            target[line_addr] = None
            return None
        evicted = None
        if len(target) >= self.assoc:
            evicted = next(iter(target))
            del target[evicted]
            self.evictions += 1
        target[line_addr] = None
        return evicted

    def invalidate_all(self) -> None:
        """Drop all contents (used between independent simulations)."""
        for s in self._sets:
            s.clear()

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction over all lookups (0.0 when never accessed)."""
        total = self.accesses
        return self.hits / total if total else 0.0


def legacy_drain(engine, max_events: int, until: Optional[float] = None) -> int:
    """Drain ``engine``'s queue one event at a time; returns the count.

    The per-event loop the bucket-at-a-time drain behind
    :meth:`Engine.run` replaced, kept verbatim: every event runs on its
    own (typed events as ``owner.dispatch_event(payload)``, as in the
    production drain) and is counted, stopping once ``max_events`` have
    run — re-queueing the bucket remainder ahead of any same-time events
    the executed callbacks scheduled — or when the clock passes
    ``until``.
    """
    executed = 0
    bound = float("inf") if until is None else until
    times = engine._times
    buckets = engine._buckets
    heappop = heapq.heappop
    heappush = heapq.heappush
    while times:
        time = times[0]
        if time > bound:
            break
        heappop(times)
        engine.now = time
        bucket = buckets.pop(time)
        engine._pending -= len(bucket)
        i = 0
        n = len(bucket)
        while i < n:
            ev = bucket[i]
            i += 1
            if ev.__class__ is tuple:
                ev[0].dispatch_event(ev[1])
            else:
                ev()
            executed += 1
            if executed >= max_events:
                break
        if i < n:
            rest = bucket[i:]
            engine._pending += len(rest)
            fresh = buckets.get(time)
            if fresh is None:
                buckets[time] = rest
                heappush(times, time)
            else:
                rest.extend(fresh)
                buckets[time] = rest
        if executed >= max_events:
            break
    return executed


def unbind_macro(accel):
    """Book every task of ``accel`` per-event; returns ``accel``.

    Drops the macro-step core a compiled backend bound at construction,
    and with it the compiled event lane and its queue, so the run takes
    the per-event path and the Python drain the pure backend always
    takes.
    """
    if accel.lane is not None:
        accel.lane.unbind()
        accel.lane = None
    accel.macro = None
    for pe in accel.pes:
        pe._macro = None
    return accel


def inject_escapes(accel, choose) -> List[int]:
    """Force macro-core escapes at the tasks ``choose()`` picks.

    Wraps each PE's booking call: when ``choose()`` is true the wrapper
    returns ``-3`` — the vertex-miss escape, which commits nothing — so
    the core replays the task per-event.  Returns a one-element list
    counting the injected escapes.
    """
    injected = [0]
    books = accel.macro.books
    for row, book in enumerate(books):
        def escape_or_book(*args, _book=book):
            if choose():
                injected[0] += 1
                return -3
            return _book(*args)

        books[row] = escape_or_book
    return injected
