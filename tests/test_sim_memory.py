"""Unit + property tests for the cache models and memory system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.sim import Cache, MemorySystem, PELatencyWindow, Scratchpad, SimConfig
from tests.oracles import ReferenceCache


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        c = Cache(1024, 2, 64)
        assert not c.lookup(1)
        c.insert(1)
        assert c.lookup(1)
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction_order(self):
        c = Cache(2 * 64, 2, 64)  # one set, two ways
        c.insert(0)
        c.insert(2)  # hmm: different sets? num_sets=1, all map to set 0
        c.insert(4)  # evicts 0 (LRU)
        assert not c.contains(0)
        assert c.contains(2) and c.contains(4)

    def test_lookup_refreshes_lru(self):
        c = Cache(2 * 64, 2, 64)
        c.insert(0)
        c.insert(2)
        c.lookup(0)  # 0 becomes MRU
        c.insert(4)  # evicts 2
        assert c.contains(0)
        assert not c.contains(2)

    def test_insert_returns_victim(self):
        c = Cache(2 * 64, 2, 64)
        c.insert(0)
        c.insert(2)
        assert c.insert(4) == 0

    def test_reinsert_no_eviction(self):
        c = Cache(2 * 64, 2, 64)
        c.insert(0)
        c.insert(2)
        assert c.insert(0) is None

    def test_set_mapping(self):
        c = Cache(4 * 64, 1, 64)  # 4 sets, direct mapped
        c.insert(0)
        c.insert(1)
        assert c.contains(0) and c.contains(1)  # different sets
        c.insert(4)  # maps to set 0, evicts 0
        assert not c.contains(0)

    def test_contains_does_not_count(self):
        c = Cache(1024, 2, 64)
        c.contains(5)
        assert c.accesses == 0

    def test_hit_rate(self):
        c = Cache(1024, 2, 64)
        assert c.hit_rate == 0.0
        c.insert(1)
        c.lookup(1)
        c.lookup(2)
        assert c.hit_rate == pytest.approx(0.5)

    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            Cache(0, 2, 64)
        with pytest.raises(ConfigError):
            Cache(64, 2, 64)  # fewer lines than ways


class TestScratchpad:
    def test_reserve_release(self):
        spm = Scratchpad(10)
        spm.reserve(6)
        assert spm.free == 4
        spm.release(6)
        assert spm.free == 10

    def test_peak_tracking(self):
        spm = Scratchpad(10)
        spm.reserve(8)
        spm.release(8)
        spm.reserve(2)
        assert spm.peak == 8

    def test_over_reserve(self):
        spm = Scratchpad(4)
        with pytest.raises(SimulationError):
            spm.reserve(5)

    def test_over_release(self):
        spm = Scratchpad(4)
        spm.reserve(2)
        with pytest.raises(SimulationError):
            spm.release(3)


class TestLatencyWindow:
    def test_ema_moves_toward_samples(self):
        w = PELatencyWindow(alpha=0.5, initial=2.0)
        for _ in range(10):
            w.record(100.0)
        assert w.value > 90

    def test_lifetime_average(self):
        w = PELatencyWindow()
        w.record(10)
        w.record(20)
        assert w.lifetime_average == pytest.approx(15.0)

    def test_empty(self):
        assert PELatencyWindow().lifetime_average == 0.0


class TestMemorySystem:
    @pytest.fixture()
    def mem(self):
        return MemorySystem(SimConfig(num_pes=2, l1_kb=1, l2_kb=16))

    def test_line_addrs(self, mem):
        # The lines covering a byte range, as an inclusive span.
        assert mem.line_span(0, 64) == (0, 0)
        assert mem.line_span(0, 65) == (0, 1)
        assert mem.line_span(70, 10) == (1, 1)
        assert mem.line_span(0, 0) is None

    def test_install_then_fetch_hits(self, mem):
        mem.install_intermediate(0, [100, 101])
        done = mem.fetch_intermediate(0, [100, 101], now=0.0)
        assert done <= mem.config.l1_hit_cycles + 1
        assert mem.l1_hit_rate(0) == 1.0

    def test_miss_goes_through_l2(self, mem):
        done = mem.fetch_intermediate(0, [500], now=0.0)
        assert done > mem.config.l2_hit_cycles
        assert mem.l1s[0].misses == 1

    def test_l1s_private(self, mem):
        mem.install_intermediate(0, [7])
        mem.fetch_intermediate(1, [7], now=0.0)
        assert mem.l1s[1].misses == 1

    def test_graph_fetch_bypasses_l1(self, mem):
        mem.fetch_graph(0, [900], now=0.0)
        assert mem.l1s[0].accesses == 0
        assert mem.l2.accesses == 1

    def test_second_graph_fetch_hits_l2(self, mem):
        first = mem.fetch_graph(0, [900], now=0.0)
        second_start = first + 1
        second = mem.fetch_graph(0, [900], now=second_start)
        assert (second - second_start) < (first - 0.0)

    def test_eviction_cascades_to_l2(self):
        config = SimConfig(num_pes=1, l1_kb=1, l1_assoc=1, l2_kb=16)
        mem = MemorySystem(config)
        lines = config.l1_lines
        mem.install_intermediate(0, list(range(0, 2 * lines)))
        # Early lines were evicted from L1 into L2.
        evicted = [a for a in range(0, lines) if not mem.l1s[0].contains(a)]
        assert evicted
        assert all(mem.l2.contains(a) for a in evicted)

    def test_latency_recorded(self, mem):
        mem.fetch_intermediate(0, [1, 2, 3], now=0.0)
        assert mem.l1_windows[0].samples == 3

    def test_memory_pressure_zero_when_idle(self, mem):
        assert mem.memory_pressure(1000.0) == 0.0

    def test_overall_hit_rate_aggregates(self, mem):
        mem.install_intermediate(0, [1])
        mem.fetch_intermediate(0, [1], now=0.0)
        mem.fetch_intermediate(1, [2], now=0.0)
        assert mem.overall_l1_hit_rate() == pytest.approx(0.5)


class _ReferenceLRU:
    """Oracle: per-set list-based LRU."""

    def __init__(self, sets, ways):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways

    def access(self, line):
        target = self.sets[line % len(self.sets)]
        if line in target:
            target.remove(line)
            target.append(line)
            return True
        if len(target) >= self.ways:
            target.pop(0)
        target.append(line)
        return False


@settings(max_examples=60, deadline=None)
@given(
    accesses=st.lists(st.integers(0, 40), min_size=1, max_size=120),
    ways=st.integers(1, 4),
    sets_pow=st.integers(0, 3),
)
def test_cache_matches_reference_lru(accesses, ways, sets_pow):
    sets = 2 ** sets_pow
    cache = Cache(sets * ways * 64, ways, 64)
    oracle = _ReferenceLRU(sets, ways)
    for line in accesses:
        hit = cache.lookup(line)
        if not hit:
            cache.insert(line)
        assert hit == ((line in oracle.sets[line % sets]))
        oracle.access(line)


# ----------------------------------------------------------------------
# Flattened Cache vs the insertion-ordered-dict ReferenceCache
# (tests/oracles.py): the two models must emit identical
# hit/miss/eviction sequences over recorded random traces (the
# seed-cache equivalence promised in the module docstring of
# repro/sim/memory.py).
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    trace=st.lists(st.integers(0, 48), min_size=1, max_size=160),
    ways=st.integers(1, 4),
    sets_pow=st.integers(0, 3),
)
def test_flat_cache_trace_equivalent_to_reference_cache(trace, ways, sets_pow):
    sets = 2 ** sets_pow
    flat = Cache(sets * ways * 64, ways, 64)
    seed = ReferenceCache(sets * ways * 64, ways, 64)
    assert flat.num_sets == seed.num_sets
    for line in trace:
        flat_hit = flat.lookup(line)
        seed_hit = seed.lookup(line)
        assert flat_hit == seed_hit
        if not flat_hit:
            assert flat.insert(line) == seed.insert(line)
    assert (flat.hits, flat.misses, flat.evictions) == (
        seed.hits, seed.misses, seed.evictions,
    )
    assert flat.hit_rate == seed.hit_rate
