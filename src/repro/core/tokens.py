"""Address tokens and intermediate-result buffer mapping.

The accelerator preallocates empty vertex sets for each search depth
before the application begins (§3.2.3, following Dryadic and GraphPi);
each preallocated set is tagged with a unique *token*, and tasks of the
same depth contend for that depth's token pool.  A task may only be
scheduled if a token is available for its output candidate set — this is
the memory-footprint control knob shared by every scheduling policy.

:class:`SetBufferMap` gives every (PE, depth, token) buffer a fixed byte
address in the simulated intermediate-result region, below the graph
(CSR) region so the two traffic classes never alias.  Fixed addresses
matter: a token reused by a later task maps to the same cache lines,
which is how buffer recycling interacts with the L1 in the real design.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError

#: Base of the intermediate-result address region (below GRAPH_REGION_BASE).
INTERMEDIATE_REGION_BASE = 1 << 20


class ArrayTokenPool:
    """One depth's address-token pool, viewed over the task tree's arrays.

    The struct-of-arrays task tree keeps its token state in two flat
    ``int64`` arrays (a LIFO free stack per depth plus a free count) so
    the tree ops can acquire and release without touching Python
    objects.  This adapter exposes the slice of those arrays for one
    depth through a small object API — ``acquire``/``release``/
    ``available``/``held`` — for the tree's interpreted cold edges
    (partition intake, recycle).  Because it reads and writes the
    *same* memory the ops do, the two views can never drift.

    The free stack is initialized ``[count-1 .. 0]`` with the top at the
    end, so token 0 is acquired first and releases push back on top.
    A pool's size is fixed for the run (``tokens_per_depth``).
    """

    def __init__(self, free_view, count_view, target: int) -> None:
        self._free = free_view          # int64[target] slice, shared memory
        self._count = count_view        # int64[1] slice, shared memory
        self.target = target

    @property
    def available(self) -> int:
        """Number of free tokens."""
        return int(self._count[0])

    @property
    def held(self) -> int:
        """Number of tokens currently held by live candidate sets."""
        return self.target - int(self._count[0])

    def acquire(self) -> Optional[int]:
        """Take a token, or ``None`` when the pool is exhausted."""
        n = int(self._count[0])
        if n == 0:
            return None
        n -= 1
        self._count[0] = n
        return int(self._free[n])

    def release(self, token: int) -> None:
        """Return a token to the pool; double release is a simulator bug."""
        n = int(self._count[0])
        if n >= self.target or token < 0 or token >= self.target:
            raise SimulationError(f"release of token {token} not held")
        free = self._free
        for i in range(n):
            if free[i] == token:
                raise SimulationError(f"release of token {token} not held")
        free[n] = token
        self._count[0] = n + 1


class SetBufferMap:
    """Byte addresses of preallocated intermediate-set buffers.

    Every buffer holds one candidate set and is sized for the worst case
    (``buffer_lines`` cache lines, normally ``ceil(max_degree * 4 / 64)``),
    so addresses are static for the whole run.  Buffer indices beyond
    ``buffers_per_depth`` (BFS's unbounded frontier) spill into a
    per-depth overflow region; addresses stay distinct
    per (depth, index), and the resulting cache pressure *is* the BFS
    memory-consumption explosion the paper describes.
    """

    #: Overflow buffers reserved per depth past the preallocated ones.
    OVERFLOW_SLOTS = 1 << 20

    def __init__(
        self,
        pe_id: int,
        max_depth: int,
        buffers_per_depth: int,
        buffer_lines: int,
        line_bytes: int = 64,
        *,
        base: int = INTERMEDIATE_REGION_BASE,
    ) -> None:
        if buffer_lines < 1:
            buffer_lines = 1
        self.pe_id = pe_id
        self.max_depth = max_depth
        self.buffers_per_depth = buffers_per_depth
        self.buffer_bytes = buffer_lines * line_bytes
        self.line_bytes = line_bytes
        depth_region = self.OVERFLOW_SLOTS * self.buffer_bytes
        pe_region = (max_depth + 1) * depth_region
        self._depth_region = depth_region
        self.base = base + pe_id * pe_region

    def address(self, depth: int, buffer_index: int) -> int:
        """Base byte address of buffer ``buffer_index`` at ``depth``."""
        if depth < 0 or depth > self.max_depth:
            raise SimulationError(f"depth {depth} outside buffer map")
        if buffer_index < 0 or buffer_index >= self.OVERFLOW_SLOTS:
            raise SimulationError(f"buffer_index {buffer_index} out of range")
        return self.base + depth * self._depth_region + buffer_index * self.buffer_bytes

    def lines_for_bytes(self, num_bytes: int) -> int:
        """Cache lines covering ``num_bytes`` (zero only for empty sets)."""
        if num_bytes <= 0:
            return 0
        return -(-num_bytes // self.line_bytes)
