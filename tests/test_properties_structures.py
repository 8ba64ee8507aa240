"""Property-based tests on core data structures (hypothesis)."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SetBufferMap
from repro.sim import Engine


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=1, max_size=40)
)
def test_engine_executes_in_time_order(times):
    engine = Engine()
    fired = []
    for t in times:
        engine.at(t, lambda t=t: fired.append(t))
    engine.run()
    assert fired == sorted(times, key=lambda x: x)
    assert len(fired) == len(times)


@settings(max_examples=40, deadline=None)
@given(
    pe_ids=st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
    depths=st.integers(1, 6),
    buffers=st.integers(1, 8),
    lines=st.integers(1, 16),
)
def test_buffer_map_addresses_never_collide(pe_ids, depths, buffers, lines):
    """Buffers of all PEs/depths/indices occupy disjoint byte ranges."""
    maps = [SetBufferMap(pe, depths, buffers, lines) for pe in pe_ids]
    ranges = []
    for bm in maps:
        for depth in range(depths + 1):
            for idx in range(buffers + 2):  # include overflow indices
                base = bm.address(depth, idx)
                ranges.append((base, base + bm.buffer_bytes))
    ranges.sort()
    for (a_start, a_end), (b_start, _) in zip(ranges, ranges[1:]):
        assert a_end <= b_start


@settings(max_examples=40, deadline=None)
@given(jobs=st.lists(st.tuples(st.integers(0, 20), st.floats(0, 100, allow_nan=False)), max_size=30))
def test_iu_pool_conservation(jobs):
    """Busy cycles equal segments x segment_cycles; finishes monotone per submit order."""
    from repro.sim import IUPool

    pool = IUPool(4, segment_cycles=8, num_dividers=4)
    total_segments = 0
    last_ready = 0.0
    for segments, ready in jobs:
        ready = max(ready, last_ready)  # event-driven callers move forward in time
        finish = pool.submit(segments, ready)
        assert finish >= ready
        total_segments += segments
        last_ready = ready
    assert pool.busy_cycles == total_segments * 8
    assert pool.segments_processed == total_segments
