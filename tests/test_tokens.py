"""Unit tests for address tokens and the set-buffer address map."""

import pytest

from repro.core import SetBufferMap
from repro.errors import SimulationError


class TestSetBufferMap:
    def test_distinct_addresses(self):
        bm = SetBufferMap(0, max_depth=4, buffers_per_depth=4, buffer_lines=8)
        seen = set()
        for depth in range(5):
            for idx in range(16):
                addr = bm.address(depth, idx)
                assert addr not in seen
                seen.add(addr)

    def test_line_aligned(self):
        bm = SetBufferMap(0, 4, 4, 8, line_bytes=64)
        for depth in range(5):
            assert bm.address(depth, 0) % 64 == 0

    def test_pe_regions_disjoint(self):
        a = SetBufferMap(0, 4, 4, 8)
        b = SetBufferMap(1, 4, 4, 8)
        addrs_a = {a.address(d, i) for d in range(5) for i in range(8)}
        addrs_b = {b.address(d, i) for d in range(5) for i in range(8)}
        assert addrs_a.isdisjoint(addrs_b)

    def test_bad_depth(self):
        bm = SetBufferMap(0, 2, 4, 8)
        with pytest.raises(SimulationError):
            bm.address(3, 0)
        with pytest.raises(SimulationError):
            bm.address(-1, 0)

    def test_bad_index(self):
        bm = SetBufferMap(0, 2, 4, 8)
        with pytest.raises(SimulationError):
            bm.address(0, -1)

    def test_lines_for_bytes(self):
        bm = SetBufferMap(0, 2, 4, 8)
        assert bm.lines_for_bytes(0) == 0
        assert bm.lines_for_bytes(1) == 1
        assert bm.lines_for_bytes(64) == 1
        assert bm.lines_for_bytes(65) == 2

    def test_buffer_reuse_same_address(self):
        bm = SetBufferMap(0, 2, 4, 8)
        assert bm.address(1, 2) == bm.address(1, 2)
