"""Set-operation functional units: the divider + IU pool of one PE.

Following FINGERS (whose computation fabric the paper adopts, §5.1.1),
sorted vertex sets are cut into fixed-size segments by *dividers*; paired
segments are merged by *intersection units* (IUs).  The pool is modelled
as ``num_ius`` identical servers with FCFS segment assignment: a task
submits all segments of one set operation at once and completes when its
last segment drains.  Contention between concurrently executing tasks —
the thing task scheduling actually changes — emerges from the shared
server pool.

The server-free times live in a numpy ``float64`` array (with the
running accounting in a 3-slot ``_acc`` buffer) so the compiled
macro-step core can pin the same storage and advance the pool without a
Python round trip; ``repro_task_fastpath`` in ``sim/backend/cext.py``
mirrors :meth:`IUPool.submit`'s arithmetic.  ``_acc`` is held as a
memoryview, so interpreted code reads and writes the accounting as plain
Python floats; the server array stays numpy for the vector operations
of the round-robin path.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class IUPool:
    """FCFS pool of intersection-unit servers with utilization accounting."""

    __slots__ = (
        "num_ius",
        "segment_cycles",
        "num_dividers",
        "_server_free",
        "_acc",
    )

    def __init__(self, num_ius: int, segment_cycles: float, num_dividers: int) -> None:
        if num_ius < 1 or num_dividers < 1 or segment_cycles <= 0:
            raise ConfigError("IU pool parameters must be positive")
        self.num_ius = num_ius
        self.segment_cycles = float(segment_cycles)
        self.num_dividers = num_dividers
        self._server_free = np.zeros(num_ius, dtype=np.float64)
        #: [max_free, busy_cycles, segments_processed] — one buffer so the
        #: compiled core updates all three through a single pointer.
        self._acc = memoryview(np.zeros(3, dtype=np.float64))

    # ------------------------------------------------------------------
    # The accounting lives in ``_acc`` so the compiled core can mutate it
    # in place; these properties keep the public API (and its Python
    # float/int types) unchanged.
    @property
    def _max_free(self) -> float:
        return self._acc[0]

    @_max_free.setter
    def _max_free(self, value: float) -> None:
        self._acc[0] = value

    @property
    def busy_cycles(self) -> float:
        return self._acc[1]

    @busy_cycles.setter
    def busy_cycles(self, value: float) -> None:
        self._acc[1] = value

    @property
    def segments_processed(self) -> int:
        return int(self._acc[2])

    @segments_processed.setter
    def segments_processed(self, value: int) -> None:
        self._acc[2] = value

    def submit(self, segments: int, ready_time: float) -> float:
        """Run ``segments`` segment jobs starting no earlier than ``ready_time``.

        Dividers form segments at ``num_dividers`` per cycle before IUs
        can start.  Returns the completion time of the last segment; zero
        segments complete immediately (a pure-fetch task).

        When every server is already free at ``formed`` (the common case —
        task issue is spread out relative to segment service), FCFS
        assignment degenerates to round-robin: with ``k`` servers and
        ``m`` segments, ``m % k`` servers run ``m // k + 1`` back-to-back
        segments and the rest one fewer, every finish time being the
        repeated sum ``formed + c + c + ...`` the general loop would
        accumulate.  The fast path writes that final server state
        directly; the contended path assigns each segment to the
        least-loaded server (argmin), which is observationally identical
        to the historical min-heap pop/push — only the multiset of free
        times is ever observed, and pop-min ≡ argmin on values.

        ``_acc[0]`` caches ``max(_server_free)`` exactly so the common
        path never scans the pool.  The fast path leaves every server at
        ``done``/``finish``; the argmin path only advances minima, so its
        new maximum is ``max(old max, finish)`` — if the old maximum was
        overwritten, its replacement (and hence ``finish``) exceeds it.
        """
        if segments <= 0:
            return ready_time
        formed = ready_time + segments / self.num_dividers
        servers = self._server_free
        c = self.segment_cycles
        acc = self._acc
        if acc[0] <= formed:
            k = self.num_ius
            q, r = divmod(segments, k)
            if q == 0:
                # Only the `segments` least-loaded servers are touched;
                # done exceeds every current entry, so value-multiset-wise
                # this is "replace the `segments` smallest with done".
                done = formed + c
                if segments < k:
                    idx = np.argpartition(servers, segments - 1)[:segments]
                    servers[idx] = done
                else:
                    servers[:] = done
                finish = done
            else:
                # Chain values by repeated addition, exactly as the
                # FCFS loop would accumulate them.
                done = formed
                for _ in range(q):
                    done = done + c
                if r:
                    finish = done + c
                    servers[: k - r] = done
                    servers[k - r :] = finish
                else:
                    finish = done
                    servers[:] = done
            acc[0] = finish
        else:
            finish = formed
            for _ in range(segments):
                i = int(np.argmin(servers))
                free = float(servers[i])
                start = free if free >= formed else formed
                done = start + c
                servers[i] = done
                if done > finish:
                    finish = done
            if finish > acc[0]:
                acc[0] = finish
        acc[1] += segments * c
        acc[2] += segments
        return finish

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of IU-cycles spent busy over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / (elapsed_cycles * self.num_ius))
