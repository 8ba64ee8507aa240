"""Memory hierarchy: set-associative caches, scratchpads and latency model.

The paper's memory system (Figure 4(a)): each PE owns a private scratchpad
(SPM) and a private L1 that caches *only intermediate results*; a shared
L2 backs the L1s and holds the CSR graph data (streamed, never in L1);
DRAM sits behind the L2.  This module provides:

* :class:`Cache` — a functional set-associative LRU cache at line
  granularity (used for both L1 and L2), stored as flattened per-set
  numpy tag / LRU-stamp arrays with span-native fills
  (:meth:`Cache.insert_span`),
* :class:`Scratchpad` — an occupancy counter gating in-flight task data,
* :class:`MemorySystem` — the latency/accounting layer combining the
  caches, the NoC hop and the DRAM channel queues, with per-PE average
  L1-latency tracking feeding the conservative-mode monitor (§3.2.3:
  "the L1 cache thrashing is judged by the average cache access
  latency").

LRU-stamp equivalence
---------------------
The flattened cache replaces per-set insertion-ordered dicts with a
monotonic access counter: every hit or insert stamps the touched way with
the next tick, and the eviction victim is the way with the smallest
stamp.  Stamps are unique, so min-stamp selection reproduces the ordered
dict's "first key = LRU" victim exactly; lookup misses leave recency
untouched in both models.  ``tests/test_sim_memory.py`` drives the
cache and the dict model (kept with the test oracles) over recorded
random traces and asserts identical hit/miss/eviction sequences.

Hot-path notes
--------------
The memory hierarchy is *span-native*: neighbor, intermediate and output
sets are contiguous byte ranges, so their line sets are ``(first_line,
last_line)`` spans known from two divisions — never materialized lists.
:meth:`MemorySystem.fetch_intermediate_span` and
:meth:`MemorySystem.fetch_graph_spans` run once per set-operation input
of every simulated task, with tiny spans (the average neighbor set
covers one or two cache lines).  Both take an all-hit fast path — a
side-effect-free residency probe, then batch LRU stamping and a
float-only latency walk — and fall back to the exact per-line walk of
the sequence entry points (:meth:`MemorySystem.fetch_intermediate` /
:meth:`MemorySystem.fetch_graph`, retained for strided multi-round
chunks) whenever any line misses.  All arithmetic keeps the exact
per-line expressions of the original model —
``latency = back - issue``, ``done = max(done, issue + latency)``,
sequential bank/channel booking, per-access EMA folds — so every
accounted metric is bit-identical; ``tests/test_sim_memory_spans.py``
drives span and sequence entries over recorded random traces and asserts
identical timing, cache state and counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, SimulationError
from . import backend as _backend
from .config import SimConfig
from .dram import DRAMModel
from .noc import NoC


def span_round_chunk(first_line: int, last_line: int, r: int, rounds: int) -> range:
    """Round ``r``'s lines of one span under strided round assignment.

    The multi-round SPM path assigns the line at position ``j`` of a
    task's line list to round ``j % rounds`` (historically via
    ``lines[r::rounds]`` slicing).  For a contiguous span that slice is
    itself an arithmetic progression, so no list is ever built.
    """
    return range(first_line + r, last_line + 1, rounds)


def spans_round_chunk(
    spans: Sequence[Tuple[int, int]], r: int, rounds: int
) -> List[int]:
    """Round ``r``'s lines of concatenated spans (global strided slice).

    Equals ``concat[r::rounds]`` where ``concat`` is the concatenation of
    ``range(first, last + 1)`` over ``spans`` — the position index runs
    across span boundaries, so each span contributes the lines whose
    *global* position is congruent to ``r`` modulo ``rounds``.
    """
    out: List[int] = []
    extend = out.extend
    offset = 0
    for first_line, last_line in spans:
        length = last_line - first_line + 1
        start = (r - offset) % rounds
        if start < length:
            extend(range(first_line + start, last_line + 1, rounds))
        offset += length
    return out


class Cache:
    """Functional set-associative LRU cache at cache-line granularity.

    Contents live in flat numpy arrays: way ``w`` of set ``s`` is slot
    ``s * assoc + w`` in ``_tags`` (resident line address, ``-1`` empty)
    and ``_stamps`` (last-touch tick).  ``_where`` maps resident line
    address → slot for O(1) probes.  The arrays are numpy because the
    compiled macro-step core pins them; interpreted code reads and
    writes single entries through the memoryviews ``_tagv``/``_stampv``
    (second windows on the same buffers, yielding plain Python ints) and
    keeps the numpy arrays for vector operations.  The LRU clock and
    hit/miss counters, ``_meta``, are only ever touched one word at a
    time, so that buffer is held as a memoryview alone.
    """

    __slots__ = (
        "name",
        "assoc",
        "num_sets",
        "line_bytes",
        "_tags",
        "_stamps",
        "_fill",
        "_where",
        "_meta",
        "_tagv",
        "_stampv",
        "evictions",
    )

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
        self._tags = np.full(self.num_sets * assoc, -1, dtype=np.int64)
        self._stamps = np.zeros(self.num_sets * assoc, dtype=np.int64)
        self._fill: List[int] = [0] * self.num_sets
        self._where: Dict[int, int] = {}
        #: [tick, hits, misses] — one int64 buffer so the compiled
        #: macro-step core can restamp hits and advance the LRU clock
        #: through a single pinned pointer.
        self._meta = memoryview(np.zeros(3, dtype=np.int64))
        self._tagv = memoryview(self._tags)
        self._stampv = memoryview(self._stamps)
        self.evictions = 0

    # ------------------------------------------------------------------
    # The LRU clock and hit/miss counters live in ``_meta``; these
    # properties keep the attribute API (Python ints in, Python ints
    # out).
    @property
    def _tick(self) -> int:
        return self._meta[0]

    @_tick.setter
    def _tick(self, value: int) -> None:
        self._meta[0] = value

    @property
    def hits(self) -> int:
        return self._meta[1]

    @hits.setter
    def hits(self, value: int) -> None:
        self._meta[1] = value

    @property
    def misses(self) -> int:
        return self._meta[2]

    @misses.setter
    def misses(self, value: int) -> None:
        self._meta[2] = value

    def lookup(self, line_addr: int) -> bool:
        """Access a line: returns hit/miss and refreshes LRU order."""
        slot = self._where.get(line_addr)
        meta = self._meta
        if slot is not None:
            tick = meta[0]
            self._stampv[slot] = tick
            meta[0] = tick + 1
            meta[1] += 1
            return True
        meta[2] += 1
        return False

    def contains(self, line_addr: int) -> bool:
        """Presence check without touching LRU state or stats."""
        return line_addr in self._where

    def insert(self, line_addr: int) -> Optional[int]:
        """Fill a line, returning the evicted line address (or ``None``)."""
        where = self._where
        slot = where.get(line_addr)
        meta = self._meta
        tick = meta[0]
        meta[0] = tick + 1
        if slot is not None:
            self._stampv[slot] = tick
            return None
        set_idx = int(line_addr) % self.num_sets
        base = set_idx * self.assoc
        evicted = None
        fill = self._fill[set_idx]
        if fill < self.assoc:
            slot = base + fill
            self._fill[set_idx] = fill + 1
        else:
            # Victim = smallest stamp in the set (stamps are unique).
            rel = int(self._stamps[base : base + self.assoc].argmin())
            slot = base + rel
            evicted = self._tagv[slot]
            del where[evicted]
            self.evictions += 1
        self._tagv[slot] = line_addr
        self._stampv[slot] = tick
        where[line_addr] = slot
        return evicted

    # ------------------------------------------------------------------
    # span kernels
    # ------------------------------------------------------------------
    def _span_probe(self, first_line: int, last_line: int):
        """Residency of the span ``[first_line, last_line]`` (no state change).

        Returns ``(sets, hit_ways, mask)`` numpy arrays: the set index per
        line, the per-way tag-match matrix and the per-line hit mask.
        Span lines are consecutive integers, hence always distinct.
        """
        addrs = np.arange(first_line, last_line + 1, dtype=np.int64)
        sets = addrs % self.num_sets
        hit_ways = self._tags.reshape(self.num_sets, self.assoc)[sets] == addrs[:, None]
        return sets, hit_ways, hit_ways.any(axis=1)

    def insert_span(self, first_line: int, last_line: int) -> List[int]:
        """Batched :meth:`insert` of a span; returns evicted line addresses.

        A span whose lines are *all already resident* (a pure LRU
        refresh — the usual writeback to a reused set address) takes the
        active backend's ``span_resident_stamp`` kernel, which is
        order-independent at any width because restamping never evicts.
        Every other span walks :meth:`insert` line by line, so eviction
        interleaving stays exact.
        """
        n = last_line - first_line + 1
        if n <= 0:
            return []
        if n >= 2 and _backend._active.span_resident_stamp(
            self, first_line, last_line
        ):
            return []
        insert = self.insert
        out: List[int] = []
        for addr in range(first_line, last_line + 1):
            evicted = insert(addr)
            if evicted is not None:
                out.append(evicted)
        return out

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction over all lookups (0.0 when never accessed)."""
        total = self.accesses
        return self.hits / total if total else 0.0


class Scratchpad:
    """Per-PE SPM occupancy: lines reserved by in-flight tasks."""

    __slots__ = ("capacity", "used", "peak")

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines < 1:
            raise ConfigError("scratchpad needs at least one line")
        self.capacity = capacity_lines
        self.used = 0
        self.peak = 0

    @property
    def free(self) -> int:
        """Unreserved lines."""
        return self.capacity - self.used

    def reserve(self, lines: int) -> None:
        """Claim lines for a task round; over-reservation is a PE bug."""
        if lines < 0 or lines > self.free:
            raise SimulationError(
                f"SPM reserve of {lines} lines with {self.free} free"
            )
        self.used += lines
        self.peak = max(self.peak, self.used)

    def release(self, lines: int) -> None:
        """Return reserved lines."""
        if lines < 0 or lines > self.used:
            raise SimulationError(f"SPM release of {lines} with {self.used} used")
        self.used -= lines


class PELatencyWindow:
    """Exponential moving average of L1 access latency for one PE.

    The conservative-mode monitor needs a *recent* average: an EMA with a
    per-access decay tracks thrashing onset quickly and recovers when the
    access pattern calms down, without storing per-epoch histograms.
    """

    __slots__ = ("alpha", "_state")

    def __init__(self, alpha: float = 0.02, initial: float = 2.0) -> None:
        self.alpha = alpha
        #: [value, total_latency, samples] — one float64 buffer so the
        #: compiled macro-step core folds latencies in place; held as a
        #: memoryview, so Python reads and writes plain floats.
        self._state = memoryview(np.zeros(3, dtype=np.float64))
        self._state[0] = initial

    @property
    def value(self) -> float:
        return self._state[0]

    @value.setter
    def value(self, v: float) -> None:
        self._state[0] = v

    @property
    def total_latency(self) -> float:
        return self._state[1]

    @total_latency.setter
    def total_latency(self, v: float) -> None:
        self._state[1] = v

    @property
    def samples(self) -> int:
        return int(self._state[2])

    @samples.setter
    def samples(self, v: int) -> None:
        self._state[2] = v

    def record(self, latency: float) -> None:
        """Fold one access latency into the moving average."""
        state = self._state
        value = state[0]
        state[0] = value + self.alpha * (latency - value)
        state[2] += 1.0
        state[1] += latency

    @property
    def lifetime_average(self) -> float:
        """Whole-run average latency (reporting, not monitoring)."""
        return self.total_latency / self.samples if self.samples else 0.0


class MemorySystem:
    """Latency and accounting layer over L1s, L2, NoC and DRAM."""

    def __init__(self, config: SimConfig, num_pes: Optional[int] = None) -> None:
        self.config = config
        # Kernel backend: config override > REPRO_BACKEND > auto.  The
        # activation is process-global (setops dispatch follows) and the
        # bound set is consulted per span, so profiler instrumentation
        # applies to live instances.
        self._kernels = _backend.activate(getattr(config, "backend", None))
        pes = num_pes if num_pes is not None else config.num_pes
        line = config.cache_line_bytes
        self.l1s = [
            Cache(config.l1_kb * 1024, config.l1_assoc, line, name=f"L1[{i}]")
            for i in range(pes)
        ]
        self.l2 = Cache(config.l2_kb * 1024, config.l2_assoc, line, name="L2")
        self.noc = NoC(config.noc_hop_cycles)
        self.dram = DRAMModel(
            config.dram_channels,
            config.dram_latency_cycles,
            config.dram_service_cycles,
            line,
        )
        self.l1_windows = [PELatencyWindow(initial=float(config.l1_hit_cycles)) for _ in range(pes)]
        # Bank free times: a buffer the macro-step core pins, held as a
        # memoryview because the interpreted walks touch one bank at a
        # time and want plain floats.
        self._l2_bank_free = memoryview(
            np.zeros(max(1, config.l2_banks), dtype=np.float64)
        )
        # Hot-path constants (attribute chains hoisted out of the
        # per-fetch preludes).
        self._l1_hit_cycles_f = float(config.l1_hit_cycles)
        self._fetch_ports = config.fetch_ports
        self._l2_hit_cycles = config.l2_hit_cycles
        self._l2_service_cycles = config.l2_service_cycles
        self._hop_cycles = self.noc.hop_cycles
        # Stream-mode precondition for the span bank walk: consecutive
        # visits to one bank are >= l2_banks // fetch_ports cycles apart
        # (banks cycle with consecutive line addresses; lines issue
        # fetch_ports per cycle), so with the service time strictly below
        # that spacing a bank that once starts at arrival never queues
        # again within the span.  Strict `<` leaves rounding headroom.
        self._l2_stream_ok = float(config.l2_service_cycles) < (
            len(self._l2_bank_free) // max(1, config.fetch_ports)
        )
        #: [graph_line_fetches, intermediate_line_fetches] — one int64
        #: buffer so the compiled macro-step core counts lines in place.
        self._stats = memoryview(np.zeros(2, dtype=np.int64))

    # The line counters live in ``_stats``; these properties read and
    # write them as Python ints.
    @property
    def graph_line_fetches(self) -> int:
        return self._stats[0]

    @graph_line_fetches.setter
    def graph_line_fetches(self, value: int) -> None:
        self._stats[0] = value

    @property
    def intermediate_line_fetches(self) -> int:
        return self._stats[1]

    @intermediate_line_fetches.setter
    def intermediate_line_fetches(self, value: int) -> None:
        self._stats[1] = value

    # ------------------------------------------------------------------
    def line_span(self, base: int, num_bytes: int) -> Optional[Tuple[int, int]]:
        """``(first_line, last_line)`` covering ``[base, base + num_bytes)``.

        ``None`` for empty ranges.
        """
        if num_bytes <= 0:
            return None
        line = self.config.cache_line_bytes
        return (base // line, (base + num_bytes - 1) // line)

    # ------------------------------------------------------------------
    def _l2_access(self, line_addr: int, arrive: float) -> float:
        """Latency path from an L2 lookup; fills L2 on miss.

        The L2 is banked by line address; each bank serializes accesses
        at one line per ``l2_service_cycles`` so aggregate bandwidth
        scales with ``l2_banks``.
        """
        bank_free = self._l2_bank_free
        bank = int(line_addr) % len(bank_free)
        queued = bank_free[bank]
        start = queued if queued >= arrive else arrive
        bank_free[bank] = start + self.config.l2_service_cycles
        done = start + self.config.l2_hit_cycles
        if not self.l2.lookup(line_addr):
            done = self.dram.request(line_addr, done)
            self.l2.insert(line_addr)
        return done

    def fetch_intermediate(
        self,
        pe_id: int,
        line_addrs: Sequence[int],
        now: float,
        *,
        record_window: bool = True,
    ) -> float:
        """Read intermediate-result lines through L1 → L2 → DRAM.

        Lines issue ``fetch_ports`` per cycle; the batch completes when
        its slowest line returns.  Every line's end-to-end latency is
        recorded in the PE's L1 latency window — an L1 hit costs
        ``l1_hit_cycles``, a miss adds the NoC round trip plus the L2/DRAM
        path, which is what pushes the average past the 50-cycle
        conservative-mode threshold under thrashing.  ``record_window``
        is cleared for single-line task-tree vertex fetches so the
        monitor sees the dispatch unit's *set* fetch latency, not a
        stream of hot one-line reads.

        Sequence entry point: used by the strided multi-round chunks and
        as the oracle/fallback for :meth:`fetch_intermediate_span`.
        """
        return self._fetch_intermediate_walk(pe_id, line_addrs, now, record_window)

    def fetch_intermediate_span(
        self,
        pe_id: int,
        first_line: int,
        last_line: int,
        now: float,
        *,
        record_window: bool = True,
    ) -> float:
        """Span-native :meth:`fetch_intermediate` over ``[first_line, last_line]``.

        The hot path of every task start.  The active backend's
        ``span_resident_stamp`` kernel picks the all-hit fast path —
        residency probe plus batch LRU stamping, then a float-only fold
        of the constant hit latency into the PE's window (the backend's
        ``ema_fold`` kernel), with the batch completion time computed
        from the last line's issue slot (latencies are constant, so the
        last finish is the max) — and any miss falls back to the exact
        per-line walk.  Both paths reproduce the sequence entry point
        bit-for-bit under every backend.
        """
        l1 = self.l1s[pe_id]
        if last_line == first_line:
            # Single-line span — the dominant case: straight-line code.
            slot = l1._where.get(first_line)
            if slot is None:
                return self._fetch_intermediate_walk(
                    pe_id, (first_line,), now, record_window
                )
            meta = l1._meta
            tick = meta[0]
            l1._stampv[slot] = tick
            meta[0] = tick + 1
            meta[1] += 1
            self._stats[1] += 1
            l1_hit = self._l1_hit_cycles_f
            if record_window:
                self.l1_windows[pe_id].record(l1_hit)
            finish = (now + 0) + l1_hit
            return finish if finish > now else now
        if not self._kernels.span_resident_stamp(l1, first_line, last_line):
            # Miss somewhere in the span (rare): the probe changed
            # nothing, so the sequential walk replays from scratch.
            return self._fetch_intermediate_walk(
                pe_id, range(first_line, last_line + 1), now, record_window
            )
        n = last_line - first_line + 1
        l1._meta[1] += n
        self._stats[1] += n
        l1_hit = self._l1_hit_cycles_f
        if record_window:
            self._kernels.ema_fold(self.l1_windows[pe_id], l1_hit, n)
        finish = (now + (n - 1) // self._fetch_ports) + l1_hit
        return finish if finish > now else now

    def _fetch_intermediate_walk(
        self,
        pe_id: int,
        line_addrs: Sequence[int],
        now: float,
        record_window: bool,
    ) -> float:
        l1 = self.l1s[pe_id]
        where_get = l1._where.get
        stamps = l1._stampv
        tick = l1._tick
        hits = 0
        config = self.config
        ports = self._fetch_ports
        l1_hit = self._l1_hit_cycles_f
        hop = self._hop_cycles
        window = self.l1_windows[pe_id] if record_window else None
        record = window.record if window is not None else None
        done = now
        n = 0
        for i, addr in enumerate(line_addrs):
            issue = now + i // ports
            slot = where_get(addr)
            if slot is not None:
                stamps[slot] = tick
                tick += 1
                hits += 1
                latency = l1_hit
            else:
                # Miss path (rare): hand back to the full-fat machinery,
                # keeping the shadowed tick coherent across the insert.
                l1.misses += 1
                l1._tick = tick
                arrive_l2 = issue + config.l1_hit_cycles + hop
                back = self._l2_access(addr, arrive_l2) + hop
                evicted = l1.insert(addr)
                if evicted is not None:
                    self.l2.insert(evicted)
                tick = l1._tick
                latency = back - issue
            if record is not None:
                record(latency)
            n += 1
            finish = issue + latency
            if finish > done:
                done = finish
        l1._tick = tick
        l1._meta[1] += hits
        self._stats[1] += n
        return done

    def fetch_intermediate_line(self, pe_id: int, line_addr: int, now: float) -> float:
        """One-line :meth:`fetch_intermediate` with ``record_window=False``.

        The task-tree vertex fetch touches exactly one line of the
        parent's candidate set on every task start, so this path skips
        the batch loop.  The arithmetic mirrors the batch path for a
        single line at issue position 0 (``issue = now + 0``).
        """
        l1 = self.l1s[pe_id]
        self._stats[1] += 1
        slot = l1._where.get(line_addr)
        issue = now + 0
        if slot is not None:
            meta = l1._meta
            tick = meta[0]
            l1._stampv[slot] = tick
            meta[0] = tick + 1
            meta[1] += 1
            latency = self._l1_hit_cycles_f
        else:
            l1.misses += 1
            hop = self.noc.hop_cycles
            arrive_l2 = issue + self.config.l1_hit_cycles + hop
            back = self._l2_access(line_addr, arrive_l2) + hop
            evicted = l1.insert(line_addr)
            if evicted is not None:
                self.l2.insert(evicted)
            latency = back - issue
        finish = issue + latency
        return finish if finish > now else now

    def fetch_graph(self, pe_id: int, line_addrs: Sequence[int], now: float) -> float:
        """Read CSR graph lines (L2 → DRAM path, bypassing the L1).

        Graph batches may repeat a line (adjacent neighbor sets sharing a
        boundary cache line), so classification stays sequential — a
        repeat must see the LRU/bank state its predecessor left behind.

        Sequence entry point: used by the strided multi-round chunks and
        as the oracle/fallback for :meth:`fetch_graph_spans`.
        """
        return self._fetch_graph_walk(pe_id, line_addrs, now)

    def fetch_graph_spans(
        self, pe_id: int, spans: Sequence[Tuple[int, int]], now: float
    ) -> float:
        """Span-native :meth:`fetch_graph` over ``(first_line, last_line)`` spans.

        One span per neighbor-set input, walked in order with a single
        issue index running across span boundaries — exactly the line
        order the concatenated sequence entry point would see.  Lines
        *within* a span are distinct, so when a whole span is resident
        its classification is order-independent and the span takes the
        fast path: batch LRU stamping plus a float-only walk of the bank
        queues (banks cycle with consecutive line addresses).  Spans may
        still repeat lines *between* each other (adjacent neighbor sets
        sharing a boundary line); each span probes the state its
        predecessors left behind, and any span with a miss replays
        per-line through the exact sequential walk.
        """
        l2 = self.l2
        where_get = l2._where.get
        stamps = l2._stampv
        tick = l2._tick
        hits = 0
        bank_free = self._l2_bank_free
        nbanks = len(bank_free)
        ports = self._fetch_ports
        l2_hit = self._l2_hit_cycles
        l2_service = self._l2_service_cycles
        hop = self._hop_cycles
        stream_ok = self._l2_stream_ok
        resident_stamp = self._kernels.span_resident_stamp
        done = now
        i = 0
        for first_line, last_line in spans:
            if last_line == first_line:
                # Single-line span — the dominant case (the average
                # neighbor set covers one or two cache lines): pure
                # straight-line code, no loops or allocations.
                slot = where_get(first_line)
                if slot is not None:
                    stamps[slot] = tick
                    tick += 1
                    hits += 1
                    issue = now + i // ports
                    arrive = issue + hop
                    bank = first_line % nbanks
                    queued = bank_free[bank]
                    start = queued if queued >= arrive else arrive
                    bank_free[bank] = start + l2_service
                    back = start + l2_hit + hop
                    if back > done:
                        done = back
                    i += 1
                    continue
                n = 1
                resident = False
            else:
                # Multi-line span: the backend's residency/stamp kernel
                # (stamps land in address order with consecutive ticks,
                # same as the scalar sweep).  The hoisted tick shadow is
                # synced around the call — the kernel reads and advances
                # ``l2._tick`` itself.
                n = last_line - first_line + 1
                l2._tick = tick
                resident = resident_stamp(l2, first_line, last_line)
                tick = l2._tick
            if resident:
                # All-hit span: book the banks with float-only arithmetic
                # (same expressions as the per-line walk; only the cache
                # probes are gone).
                hits += n
                bank = first_line % nbanks
                head = nbanks if stream_ok and n > nbanks else n
                streaming = True
                for _ in range(head):
                    issue = now + i // ports
                    arrive = issue + hop
                    queued = bank_free[bank]
                    if queued >= arrive:
                        start = queued
                        if queued > arrive:
                            streaming = False
                    else:
                        start = arrive
                    bank_free[bank] = start + l2_service
                    back = start + l2_hit + hop
                    if back > done:
                        done = back
                    i += 1
                    bank += 1
                    if bank == nbanks:
                        bank = 0
                rest = n - head
                if rest > 0:
                    if streaming:
                        # Stream mode: the head cleared every bank's
                        # backlog, so each remaining line starts exactly
                        # at its arrival.  `back` values are monotone in
                        # the issue index, so the last line's back is the
                        # span maximum, and each bank's final booking is
                        # its last visit's — all with the identical float
                        # expressions the per-line loop evaluates.
                        last_k = i + rest - 1
                        back = ((now + last_k // ports) + hop) + l2_hit + hop
                        if back > done:
                            done = back
                        for _ in range(rest if rest < nbanks else nbanks):
                            arrive = (now + last_k // ports) + hop
                            b = (first_line + (last_k - i) + head) % nbanks
                            bank_free[b] = arrive + l2_service
                            last_k -= 1
                        i += rest
                    else:
                        for _ in range(rest):
                            issue = now + i // ports
                            arrive = issue + hop
                            queued = bank_free[bank]
                            start = queued if queued >= arrive else arrive
                            bank_free[bank] = start + l2_service
                            back = start + l2_hit + hop
                            if back > done:
                                done = back
                            i += 1
                            bank += 1
                            if bank == nbanks:
                                bank = 0
                continue
            # Mixed span (rare): the exact per-line walk, classification
            # interleaved with fills so later lines see earlier evictions.
            dram_request = self.dram.request
            l2_insert = l2.insert
            for addr in range(first_line, last_line + 1):
                issue = now + i // ports
                arrive = issue + hop
                bank = addr % nbanks
                queued = bank_free[bank]
                start = queued if queued >= arrive else arrive
                bank_free[bank] = start + l2_service
                slot = where_get(addr)
                if slot is not None:
                    stamps[slot] = tick
                    tick += 1
                    hits += 1
                    back = start + l2_hit + hop
                else:
                    l2.misses += 1
                    l2._tick = tick
                    back = dram_request(addr, start + l2_hit)
                    l2_insert(addr)
                    tick = l2._tick
                    back = back + hop
                if back > done:
                    done = back
                i += 1
        l2._tick = tick
        l2._meta[1] += hits
        self._stats[0] += i
        return done

    def _fetch_graph_walk(self, pe_id: int, line_addrs: Sequence[int], now: float) -> float:
        l2 = self.l2
        where_get = l2._where.get
        stamps = l2._stampv
        tick = l2._tick
        hits = 0
        bank_free = self._l2_bank_free
        nbanks = len(bank_free)
        ports = self._fetch_ports
        l2_hit = self._l2_hit_cycles
        l2_service = self._l2_service_cycles
        hop = self._hop_cycles
        done = now
        n = 0
        for i, addr in enumerate(line_addrs):
            issue = now + i // ports
            arrive = issue + hop
            bank = int(addr) % nbanks
            queued = bank_free[bank]
            start = queued if queued >= arrive else arrive
            bank_free[bank] = start + l2_service
            slot = where_get(addr)
            if slot is not None:
                stamps[slot] = tick
                tick += 1
                hits += 1
                back = start + l2_hit + hop
            else:
                l2.misses += 1
                l2._tick = tick
                back = self.dram.request(addr, start + l2_hit)
                l2.insert(addr)
                tick = l2._tick
                back = back + hop
            n += 1
            if back > done:
                done = back
        l2._tick = tick
        l2._meta[1] += hits
        self._stats[0] += n
        return done

    def install_intermediate(self, pe_id: int, line_addrs: Sequence[int]) -> None:
        """Install freshly produced candidate-set lines into the PE's L1.

        The producing task writes its output through the SPM into the L1
        (intermediate results live in L1 and spill to L2 on replacement,
        §3.1); the write latency is folded into the task's writeback
        stage, so only the cache state changes here.
        """
        l1_insert = self.l1s[pe_id].insert
        l2_insert = self.l2.insert
        for addr in line_addrs:
            evicted = l1_insert(addr)
            if evicted is not None:
                l2_insert(evicted)

    def install_intermediate_span(
        self, pe_id: int, first_line: int, last_line: int
    ) -> None:
        """Span-native :meth:`install_intermediate` (the writeback path).

        Rides :meth:`Cache.insert_span`'s all-resident fast path; evicted
        lines spill to the L2 afterwards in eviction order.  Deferring
        the spills is exact: L1 insertion decisions never read L2 state,
        and these spills are the only L2 operations in the call, so their
        relative order — the only thing L2's LRU sees — is unchanged.
        """
        evicted = self.l1s[pe_id].insert_span(first_line, last_line)
        if evicted:
            l2_insert = self.l2.insert
            for addr in evicted:
                l2_insert(addr)

    def warm_l1(self, pe_id: int, line_addrs: Sequence[int]) -> None:
        """Pre-install lines into a PE's L1 (partition-message payload)."""
        self.install_intermediate(pe_id, line_addrs)

    def warm_l1_span(self, pe_id: int, first_line: int, last_line: int) -> None:
        """Span-native :meth:`warm_l1` (partition-message payload)."""
        self.install_intermediate_span(pe_id, first_line, last_line)

    # ------------------------------------------------------------------
    def l1_hit_rate(self, pe_id: int) -> float:
        """L1 hit rate of one PE."""
        return self.l1s[pe_id].hit_rate

    def overall_l1_hit_rate(self) -> float:
        """Hit rate aggregated across all PEs' L1s."""
        hits = sum(c.hits for c in self.l1s)
        accesses = sum(c.accesses for c in self.l1s)
        return hits / accesses if accesses else 0.0

    def recent_l1_latency(self, pe_id: int) -> float:
        """Moving-average L1 access latency (conservative-mode input)."""
        return self.l1_windows[pe_id].value

    def memory_pressure(self, now: float) -> float:
        """How far ahead of ``now`` the DRAM channels are booked (cycles).

        The search-tree merging enable check uses this as the "memory
        system bandwidth has not been used up" condition (§4.2).
        """
        return max(0.0, self.dram.earliest_free() - now)
