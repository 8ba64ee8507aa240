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
* :class:`ReferenceGroupDFS` — pseudo-DFS as the recursive generator
  the explicit walk of :class:`repro.core.GroupDFSPolicy` replaced, the
  oracle for its task order, barriers and candidate-set releases.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional

from repro.core.policies.base import SchedulingPolicy, chunked
from repro.core.task import SimTask, TaskState
from repro.errors import ConfigError, SimulationError


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


class ReferenceGroupDFS(SchedulingPolicy):
    """Pseudo-DFS as a recursive generator yielding one task group at a
    time: the policy dispatches the current group from ``select_task``
    and advances the generator only when the group's last task completes
    (the barrier).  Kept verbatim as the oracle for the explicit walk;
    its tasks carry no slot (trace spans key them by identity)."""

    name = "pseudo-dfs"

    def __init__(self, pe, group_size: Optional[int] = None) -> None:
        super().__init__(pe)
        width = pe.config.execution_width
        self.group_size = group_size if group_size is not None else width
        if self.group_size < 1:
            raise SimulationError("group size must be >= 1")
        self._walk: Optional[Iterator[List[SimTask]]] = None
        self._ready: List[SimTask] = []
        self._outstanding = 0
        self._tree_seq = 0

    def wants_root(self) -> bool:
        return self._walk is None

    def add_root(self, vertex: int) -> None:
        if self._walk is not None:
            raise SimulationError("pseudo-DFS explores one tree at a time")
        self._tree_seq += 1
        self._walk = self._explore_root(vertex, self._tree_seq)
        self._advance()

    def select_task(self) -> Optional[SimTask]:
        if not self._ready:
            return None
        task = self._ready.pop(0)
        self._outstanding += 1
        return task

    def on_task_complete(self, task: SimTask) -> None:
        self._outstanding -= 1
        if self._outstanding == 0 and not self._ready:
            # Barrier released: the whole group has completed.
            self._advance()

    def has_work(self) -> bool:
        return self._walk is not None or self._outstanding > 0 or bool(self._ready)

    def ready_count(self) -> int:
        return len(self._ready)

    def _advance(self) -> None:
        """Pull the next task group from the exploration generator."""
        if self._walk is None:
            return
        try:
            group = next(self._walk)
        except StopIteration:
            self._walk = None
            self._tree_finished()
            return
        self._ready.extend(group)

    def _explore_root(self, root: int, tree: int) -> Iterator[List[SimTask]]:
        """Generator yielding task groups in pseudo-DFS order."""
        root_task = self._make_task(None, root, depth=0, tree=tree)
        self._assign_buffer(root_task, 0)
        yield [root_task]
        kids = root_task.children_vertices
        if kids is not None and len(kids):
            yield from self._explore(root_task, kids, 1, tree)
        self._release_set(root_task)

    def _explore(
        self, parent: SimTask, vertices: List[int], depth: int, tree: int
    ) -> Iterator[List[SimTask]]:
        size = self.group_size
        prefix = parent.embedding
        if depth < self.pe.schedule.max_depth:
            # A non-leaf task writes its candidate set to its group
            # slot's buffer (``_assign_buffer`` inlined: token = slot).
            buffer_map = self.pe.buffer_map
            base = buffer_map.address(depth, 0)
            stride = buffer_map.buffer_bytes
        else:
            base = None
        for chunk_index, chunk in enumerate(chunked(vertices, size)):
            start = chunk_index * size
            # SimTask positionally: (depth, vertex, embedding, parent,
            # tree, child_index, state, token, set_address).
            if base is None:
                tasks = [
                    SimTask(depth, v, prefix + (v,), parent, tree, start + slot, _READY)
                    for slot, v in enumerate(chunk)
                ]
            else:
                tasks = [
                    SimTask(
                        depth, v, prefix + (v,), parent, tree, start + slot,
                        _READY, slot, base + slot * stride,
                    )
                    for slot, v in enumerate(chunk)
                ]
            yield tasks  # barrier: every task of the group must complete
            for task in tasks:
                kids = task.children_vertices
                if kids is not None and len(kids):
                    yield from self._explore(task, kids, depth + 1, tree)
                self._release_set(task)

    def _release_set(self, task: SimTask) -> None:
        """The task's subtree is done; its candidate set is dead."""
        if task.candidates is not None and task.set_address is not None:
            self.pe.footprint_remove(len(task.candidates) * 4)
        task.state = TaskState.IDLE


_READY = TaskState.READY
