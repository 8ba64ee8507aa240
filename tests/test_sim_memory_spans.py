"""Span-native memory hierarchy: equivalence with per-line references.

The span entry points (`Cache.insert_span`,
`MemorySystem.fetch_intermediate_span` / `fetch_graph_spans` /
`install_intermediate_span`) and the sequence entries they share a walk
with must reproduce the per-line reference walks **bit-for-bit**:
identical returned times, cache hit/miss/eviction counts, LRU stamp
state, bank/channel bookings and latency-window folds.  The fetch
references are the L1 and L2 walks over materialized line lists, kept
verbatim in ``tests/oracles.py``; these tests drive the entries and the
references over recorded random traces and compare the complete
observable state.

Also here: the strided multi-round chunk helpers
(`span_round_chunk` / `spans_round_chunk`) against the historical
``lines[r::rounds]`` slicing they replaced, and the small-SPM multi-round
path end-to-end (round counts, per-round chunk sizes, and golden
equality of span-chunked vs slice-chunked metrics).
"""

import random

import numpy as np
import pytest

from repro.graph import from_edges
from repro.mining import count_matches
from repro.patterns import benchmark_schedule
from repro.sim import Cache, SimConfig, simulate
from repro.sim.memory import MemorySystem, span_round_chunk, spans_round_chunk
import repro.sim.pe as pe_module

from tests.oracles import reference_fetch_graph, reference_fetch_intermediate


def random_spans(rng, num, max_line=400, max_width=24):
    spans = []
    for _ in range(num):
        first = rng.randrange(max_line)
        spans.append((first, first + rng.randrange(max_width)))
    return spans


def cache_state(cache):
    return (
        cache.hits,
        cache.misses,
        cache.evictions,
        cache._tick,
        dict(cache._where),
        cache._tags.tolist(),
        cache._stamps.tolist(),
        list(cache._fill),
    )


def memory_state(mem):
    l1 = mem.l1s[0]
    w = mem.l1_windows[0]
    return (
        cache_state(l1),
        cache_state(mem.l2),
        list(mem._l2_bank_free),
        (w.value, w.samples, w.total_latency),
        (mem.dram.requests, mem.dram.busy_cycles, list(mem.dram._channel_free)),
        (mem.graph_line_fetches, mem.intermediate_line_fetches),
    )


class TestCacheSpanKernels:
    def test_insert_span_matches_sequential_walk(self):
        rng = random.Random(13)
        spans = random_spans(rng, 300, max_line=600, max_width=40)
        flat = Cache(8 * 1024, 2, 64)
        seq = Cache(8 * 1024, 2, 64)
        for first, last in spans:
            evicted = flat.insert_span(first, last)
            expect = []
            for addr in range(first, last + 1):
                out = seq.insert(addr)
                if out is not None:
                    expect.append(out)
            assert evicted == expect
            assert cache_state(flat) == cache_state(seq)

    def test_insert_span_all_resident_fast_path(self):
        """Re-inserting a resident span is a pure LRU refresh: no
        evictions, one tick per line, stamps in address order."""
        cache = Cache(16 * 1024, 4, 64)
        assert cache.insert_span(10, 40) == []  # first touch: fills
        tick_before = cache._tick
        assert cache.insert_span(10, 40) == []  # all resident: refresh
        assert cache._tick == tick_before + 31
        # LRU order after the refresh matches address order.
        stamps = [int(cache._stamps[cache._where[a]]) for a in range(10, 41)]
        assert stamps == sorted(stamps)

    def test_access_span_empty(self):
        cache = Cache(16 * 1024, 4, 64)
        before = cache_state(cache)
        assert cache.insert_span(5, 4) == []
        assert cache_state(cache) == before


def build_memories(count, **cfg):
    config = SimConfig(num_pes=1, **cfg)
    return tuple(MemorySystem(config, num_pes=1) for _ in range(count))


class TestMemorySystemSpanEquivalence:
    def test_fetch_intermediate_span_vs_sequence(self):
        rng = random.Random(21)
        span_mem, seq_mem, ref_mem = build_memories(3)
        now = 0.0
        for step in range(250):
            first = rng.randrange(200)
            last = first + rng.randrange(20)
            lines = list(range(first, last + 1))
            if rng.random() < 0.5:  # warm some spans so hits dominate
                span_mem.warm_l1_span(0, first, last)
                seq_mem.warm_l1(0, lines)
                ref_mem.warm_l1(0, lines)
            record = rng.random() < 0.8
            t_span = span_mem.fetch_intermediate_span(
                0, first, last, now, record_window=record
            )
            t_seq = seq_mem.fetch_intermediate(
                0, lines, now, record_window=record
            )
            t_ref = reference_fetch_intermediate(ref_mem, 0, lines, now, record)
            assert t_span == t_seq == t_ref
            assert memory_state(span_mem) == memory_state(ref_mem)
            assert memory_state(seq_mem) == memory_state(ref_mem)
            now = t_span + rng.randrange(3)

    def test_fetch_graph_spans_vs_sequence(self):
        rng = random.Random(22)
        span_mem, seq_mem, ref_mem = build_memories(3)
        now = 0.0
        for step in range(150):
            spans = random_spans(rng, rng.randrange(1, 5), max_line=300)
            lines = [a for f, l in spans for a in range(f, l + 1)]
            t_span = span_mem.fetch_graph_spans(0, spans, now)
            t_seq = seq_mem.fetch_graph(0, lines, now)
            t_ref = reference_fetch_graph(ref_mem, 0, lines, now)
            assert t_span == t_seq == t_ref
            assert memory_state(span_mem) == memory_state(ref_mem)
            assert memory_state(seq_mem) == memory_state(ref_mem)
            now = t_span + rng.randrange(3)

    def test_fetch_graph_spans_wide_resident(self):
        # Wide, overlapping spans: cold, then warm and all-hit.
        span_mem, ref_mem = build_memories(2)
        spans = [(0, 63), (32, 127), (100, 250)]
        lines = [a for f, l in spans for a in range(f, l + 1)]
        t0s = span_mem.fetch_graph_spans(0, spans, 0.0)
        t0r = reference_fetch_graph(ref_mem, 0, lines, 0.0)
        assert t0s == t0r  # cold: misses fill the L2
        t1s = span_mem.fetch_graph_spans(0, spans, t0s)
        t1r = reference_fetch_graph(ref_mem, 0, lines, t0r)
        assert t1s == t1r  # warm: every line hits
        assert memory_state(span_mem) == memory_state(ref_mem)
        assert span_mem.l2.hits >= len(lines)
        # Back-to-back fetches without advancing `now`: the banks are
        # booked past the arrivals, so lines queue behind their bank's
        # backlog.
        for _ in range(3):
            t1s = span_mem.fetch_graph_spans(0, spans, t0s)
            t1r = reference_fetch_graph(ref_mem, 0, lines, t0r)
            assert t1s == t1r
        assert memory_state(span_mem) == memory_state(ref_mem)

    def test_install_intermediate_span_vs_sequence(self):
        rng = random.Random(23)
        span_mem, seq_mem = build_memories(2, l1_kb=2)
        for step in range(400):
            first = rng.randrange(300)
            last = first + rng.randrange(30)
            span_mem.install_intermediate_span(0, first, last)
            seq_mem.install_intermediate(0, list(range(first, last + 1)))
            assert memory_state(span_mem) == memory_state(seq_mem)

    def test_line_span_matches_line_addrs(self):
        mem, _ = build_memories(2)
        line = mem.config.cache_line_bytes
        assert mem.line_span(0, 0) is None
        for base in (0, 1, 63, 64, 130, 64 * 9 + 17):
            for num_bytes in (1, 4, 63, 64, 65, 640):
                first, last = mem.line_span(base, num_bytes)
                touched = sorted({b // line for b in range(base, base + num_bytes)})
                assert touched == list(range(first, last + 1))


class TestRoundChunkHelpers:
    def test_span_chunk_equals_slice(self):
        rng = random.Random(31)
        for _ in range(300):
            first = rng.randrange(100)
            last = first + rng.randrange(40)
            rounds = rng.randrange(1, 8)
            lines = list(range(first, last + 1))
            for r in range(rounds):
                assert (
                    list(span_round_chunk(first, last, r, rounds))
                    == lines[r::rounds]
                )

    def test_spans_chunk_equals_concat_slice(self):
        rng = random.Random(32)
        for _ in range(300):
            spans = random_spans(rng, rng.randrange(1, 6), max_line=80, max_width=12)
            concat = [a for f, l in spans for a in range(f, l + 1)]
            rounds = rng.randrange(1, 8)
            chunks = [spans_round_chunk(spans, r, rounds) for r in range(rounds)]
            assert chunks == [concat[r::rounds] for r in range(rounds)]
            # Chunks partition the concatenation: sizes differ by at most
            # one and every line lands in exactly one round.
            sizes = [len(c) for c in chunks]
            assert sum(sizes) == len(concat)
            assert max(sizes) - min(sizes) <= 1
            merged = [a for c in chunks for a in c]
            assert sorted(merged) == sorted(concat)


@pytest.fixture()
def star_graph():
    """A hub of degree 40 plus a clique among the first few leaves."""
    edges = [(0, i) for i in range(1, 41)]
    edges += [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    return from_edges(edges)


class TestMultiRoundSPM:
    """The `total_lines > spm_share` path (§3.1 multi-round execution)."""

    TINY = dict(num_pes=1, spm_kb=1, l1_kb=2, l2_kb=32)

    def test_small_spm_triggers_rounds(self, star_graph):
        sched = benchmark_schedule("tc")
        expected = count_matches(star_graph, sched)
        from repro.sim.accelerator import Accelerator

        accel = Accelerator(star_graph, sched, SimConfig(**self.TINY), "shogun")
        accel.run()
        pe = accel.pes[0]
        assert pe.matches == expected
        assert pe.multi_round_tasks > 0
        # A roomy SPM never rounds.
        roomy = Accelerator(
            star_graph, sched, SimConfig(num_pes=1, spm_kb=64), "shogun"
        )
        roomy.run()
        assert roomy.pes[0].multi_round_tasks == 0

    def test_round_count_and_chunk_sizes(self, star_graph, monkeypatch):
        """Each multi-round task runs ceil(total/spm_share) rounds and the
        graph chunks partition the span lines with near-equal sizes."""
        sched = benchmark_schedule("tc")
        calls = []

        real = spans_round_chunk

        def recording(spans, r, rounds):
            chunk = real(spans, r, rounds)
            calls.append((tuple(spans), r, rounds, len(chunk)))
            return chunk

        monkeypatch.setattr(pe_module, "spans_round_chunk", recording)
        from repro.sim.accelerator import Accelerator

        accel = Accelerator(star_graph, sched, SimConfig(**self.TINY), "shogun")
        accel.run()
        pe = accel.pes[0]
        assert calls, "tiny SPM must drive the multi-round path"

        # Group per task: consecutive calls share (spans, rounds) and r
        # runs 0..rounds-1.
        idx = 0
        tasks = 0
        while idx < len(calls):
            spans, r0, rounds, _ = calls[idx]
            assert r0 == 0
            group = calls[idx : idx + rounds]
            assert [c[1] for c in group] == list(range(rounds))
            assert all(c[0] == spans and c[2] == rounds for c in group)
            total = sum(l - f + 1 for f, l in spans)
            sizes = [c[3] for c in group]
            assert sum(sizes) == total
            assert max(sizes) - min(sizes) <= 1
            # Rounds come from the *full* working set (graph + reused
            # intermediate + output lines), so the graph-only total is a
            # lower bound: ceil(total/share) <= rounds.
            assert rounds >= -(-total // pe.spm_share)
            idx += rounds
            tasks += 1
        assert tasks == pe.multi_round_tasks

    def test_span_chunks_equal_slice_chunks_golden(self, star_graph, monkeypatch):
        """Metrics are identical whether rounds chunk spans arithmetically
        or via the historical list-slicing implementation."""
        sched = benchmark_schedule("tc")
        arithmetic = simulate(
            star_graph, sched, policy="shogun", config=SimConfig(**self.TINY)
        )

        def slice_span(first, last, r, rounds):
            return list(range(first, last + 1))[r::rounds]

        def slice_spans(spans, r, rounds):
            concat = [a for f, l in spans for a in range(f, l + 1)]
            return concat[r::rounds]

        monkeypatch.setattr(pe_module, "span_round_chunk", slice_span)
        monkeypatch.setattr(pe_module, "spans_round_chunk", slice_spans)
        sliced = simulate(
            star_graph, sched, policy="shogun", config=SimConfig(**self.TINY)
        )
        assert arithmetic.to_dict() == sliced.to_dict()
