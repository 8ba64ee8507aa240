"""Task-event tracing: record what each PE executed and when.

The paper's Figure 2 visualizes scheduling schemes as occupancy charts
(task execution intervals per slot, with barrier gaps).  The
:class:`TraceRecorder` captures exactly that data from a live
simulation: one :class:`TaskSpan` per executed task with its dispatch
and completion times, depth, vertex and PE.  Attach it to an
:class:`~repro.sim.accelerator.Accelerator` before running:

    accel = Accelerator(graph, schedule, config, "shogun")
    trace = TraceRecorder.attach(accel)
    accel.run()
    print(trace.summary())
    trace.save_csv("trace.csv")

The recorder is deliberately non-invasive: it wraps the PE's start and
completion handlers, adds no simulation events, changes no timing and
reroutes nothing.  Under the compiled event lane, leaf tasks start and
complete in C without calling those handlers; the lane then fills a
span ring, which the recorder drains in event order (the ring exists
only once a recorder attaches).  Spans are numbered by the recorder: a
span's ``task_id`` is its task's position in its PE's start order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.task import SimTask
    from .accelerator import Accelerator


@dataclass(frozen=True)
class TaskSpan:
    """One executed task's occupancy interval.

    ``task_id`` numbers the tasks of one PE in start order.
    """

    pe: int
    task_id: int
    tree: int
    depth: int
    vertex: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Cycles from dispatch to completion."""
        return self.end - self.start


class TraceRecorder:
    """Records a :class:`TaskSpan` for every task a device executes."""

    def __init__(self) -> None:
        self._spans: List[TaskSpan] = []
        #: Per PE: the tasks started so far, and the open spans by task
        #: key (``(number, start)``).
        self._started: Dict[int, int] = {}
        self._open: Dict[int, Dict[int, Tuple[int, float]]] = {}
        self._lane = None
        self._leaf_depth = 0

    @property
    def spans(self) -> List[TaskSpan]:
        """Every recorded span, in completion order."""
        if self._lane is not None:
            self._lane.flush()
        return self._spans

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, accel: "Accelerator") -> "TraceRecorder":
        """Wrap every PE of ``accel`` (and drain its event lane's ring)."""
        recorder = cls()
        lane = getattr(accel, "lane", None)
        if lane is not None:
            recorder._lane = lane
            recorder._leaf_depth = accel.schedule.max_depth
            lane.attach_ring(recorder._take_ring)
        for pe in accel.pes:
            recorder._wrap(pe)
        return recorder

    def _start(self, pe_id: int, key: int, now: float) -> None:
        number = self._started.get(pe_id, 0)
        self._started[pe_id] = number + 1
        self._open.setdefault(pe_id, {})[key] = (number, now)

    def _finish(self, pe_id: int, key: int, tree: int, depth: int,
                vertex: int, now: float) -> None:
        opened = self._open.get(pe_id, {}).pop(key, None)
        if opened is None:  # started before the recorder attached
            self._start(pe_id, key, now)
            opened = self._open[pe_id].pop(key)
        number, begin = opened
        self._spans.append(TaskSpan(
            pe=pe_id, task_id=number, tree=tree, depth=depth, vertex=vertex,
            start=begin, end=now,
        ))

    def _take_ring(self, ints, times, n: int) -> None:
        """Replay ``n`` lane span events (see ``EventLane.attach_ring``)."""
        depth = self._leaf_depth
        for k in range(n):
            kind, pe_id, slot, vertex, tree = ints[5 * k:5 * k + 5]
            if kind == 0:
                self._start(pe_id, slot, times[k])
            else:
                self._finish(pe_id, slot, tree, depth, vertex, times[k])

    def _wrap(self, pe) -> None:
        original_start = pe._start_task
        original_complete = pe._complete_task
        lane = self._lane
        pe_id = pe.pe_id

        def start_task(task: "SimTask"):
            if lane is not None:
                lane.flush()
            self._start(pe_id, _key(task), pe.engine.now)
            return original_start(task)

        def complete_task(task: "SimTask"):
            if lane is not None:
                lane.flush()
            self._finish(pe_id, _key(task), task.tree, task.depth,
                         task.vertex, pe.engine.now)
            return original_complete(task)

        pe._start_task = start_task
        pe._complete_task = complete_task

    # ------------------------------------------------------------------
    def spans_for_pe(self, pe_id: int) -> List[TaskSpan]:
        """Spans of one PE, in completion order."""
        return [s for s in self.spans if s.pe == pe_id]

    def concurrency_profile(self, pe_id: int, step: float = 1.0) -> List[int]:
        """Executing-task count per time step on one PE (Figure 2 data).

        Bucket ``i`` covers the half-open interval
        ``[i * step, (i + 1) * step)``: a span ending exactly on a bucket
        boundary does not leak into the next bucket, and a zero-duration
        span still occupies the bucket holding its start.  ``step`` may be
        any positive float; a run whose horizon is 0 (every span at time
        zero) yields a single bucket.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        spans = self.spans_for_pe(pe_id)
        if not spans:
            return []
        horizon = max(s.end for s in spans)
        num = max(1, int(-(-horizon // step)))
        buckets = [0] * num
        for span in spans:
            first = min(int(span.start // step), num - 1)
            if span.end > span.start:
                # Half-open occupancy: an end on a boundary belongs to
                # the bucket it closes, not the one it opens.
                last = -(-span.end // step) - 1
            else:
                last = first
            last = min(int(last), num - 1)
            for i in range(first, last + 1):
                buckets[i] += 1
        return buckets

    def depth_histogram(self) -> Dict[int, int]:
        """Executed-task counts per search depth."""
        out: Dict[int, int] = {}
        for span in self.spans:
            out[span.depth] = out.get(span.depth, 0) + 1
        return out

    def mean_duration(self, depth: Optional[int] = None) -> float:
        """Average task duration (optionally for one depth)."""
        chosen = [s for s in self.spans if depth is None or s.depth == depth]
        if not chosen:
            return 0.0
        return sum(s.duration for s in chosen) / len(chosen)

    def summary(self) -> str:
        """Human-readable digest."""
        if not self.spans:
            return "trace: empty"
        per_depth = ", ".join(
            f"d{d}:{n}" for d, n in sorted(self.depth_histogram().items())
        )
        return (
            f"trace: {len(self.spans)} tasks ({per_depth}), "
            f"mean duration {self.mean_duration():.1f} cycles"
        )

    def save_csv(self, path: str | os.PathLike) -> None:
        """Write spans as CSV (pe, task, tree, depth, vertex, start, end).

        Missing parent directories are created, so nested output paths
        like ``out/run/trace.csv`` work without prior ``mkdir``.
        """
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("pe,task_id,tree,depth,vertex,start,end\n")
            for s in self.spans:
                handle.write(
                    f"{s.pe},{s.task_id},{s.tree},{s.depth},{s.vertex},"
                    f"{s.start:.2f},{s.end:.2f}\n"
                )

    @classmethod
    def load_csv(cls, path: str | os.PathLike) -> "TraceRecorder":
        """Rebuild a recorder from a :meth:`save_csv` file.

        Times round-trip through the ``:.2f`` formatting of
        :meth:`save_csv`, so loaded spans carry centicycle-rounded
        ``start``/``end`` values; every analysis method
        (:meth:`concurrency_profile`, :meth:`depth_histogram`,
        :meth:`summary`, …) works on the loaded recorder.
        """
        recorder = cls()
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().strip()
            expected = "pe,task_id,tree,depth,vertex,start,end"
            if header != expected:
                raise ValueError(
                    f"unrecognized trace CSV header {header!r} in {os.fspath(path)}"
                )
            for lineno, line in enumerate(handle, start=2):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if len(fields) != 7:
                    raise ValueError(
                        f"malformed trace CSV row at {os.fspath(path)}:{lineno}"
                    )
                recorder._spans.append(
                    TaskSpan(
                        pe=int(fields[0]),
                        task_id=int(fields[1]),
                        tree=int(fields[2]),
                        depth=int(fields[3]),
                        vertex=int(fields[4]),
                        start=float(fields[5]),
                        end=float(fields[6]),
                    )
                )
        return recorder


def _key(task: "SimTask") -> int:
    """A task's key among its PE's executing tasks: its task-tree entry
    slot (the lane's span events carry it), else its identity."""
    return task.slot if task.slot >= 0 else -1 - id(task)
