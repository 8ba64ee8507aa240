"""The Shogun scheduling policy: locality-aware out-of-order execution.

Shogun (§3) wraps the task tree with the conservative-mode locality
monitor and (optionally) the search-tree merging controller:

* **out-of-order, barrier-free** — completed tasks spawn children into
  the task tree immediately; the scheduler freely mixes depths;
* **locality-aware** — sibling tasks are preferred so bunches occupy the
  whole execution width; the monitor flips to conservative mode when L1
  thrashing plus low IU utilization indicate the locality loss is
  actually hurting;
* **splitting/merging hooks** — the donor/receiver sides of task-tree
  splitting (§4.1) and the per-PE merge decision (§4.2) live here.
"""

from __future__ import annotations

from typing import List, Optional

from ..locality import LocalityMonitor
from ..merging import MergeController
from ..splitting import Partition, plan_partitions
from ..task import SimTask
from ..task_tree import TaskTree
from .base import SchedulingPolicy


class ShogunPolicy(SchedulingPolicy):
    """Locality-aware out-of-order task scheduling (the paper's design)."""

    name = "shogun"

    def __init__(self, pe, *, conservative_override: Optional[bool] = None) -> None:
        super().__init__(pe)
        self.tree = TaskTree(pe, self._on_tree_done)
        self.monitor = LocalityMonitor(pe.config)
        self.merger = MergeController(pe, self.tree) if pe.config.enable_merging else None
        if conservative_override is None:
            conservative_override = pe.config.conservative_override
        self._conservative_override = conservative_override
        self._next_epoch = float(pe.config.monitor_epoch_cycles)
        self._engine = pe.engine
        #: ``[next_epoch, conservative]`` words the compiled event lane
        #: reads (:meth:`publish_to`); ``None`` without a lane.
        self._published = None

    # ------------------------------------------------------------------
    def wants_root(self) -> bool:
        # Checked once per dispatch while the tree is busy, so the common
        # live-tree/no-merging case must answer from plain attributes
        # without touching the SoA arrays.
        if self.tree.has_work():
            if self.merger is None:
                return False
            # A second tree is only taken when merging decides it pays
            # off (free slots first: can_merge() counts accepted merges).
            return self.tree.free_root_slots() > 0 and self.merger.can_merge()
        return self.tree.free_root_slots() > 0

    def add_root(self, vertex: int) -> None:
        self.tree.add_root(vertex, self.pe.accel.next_tree_id())

    def select_task(self) -> Optional[SimTask]:
        if self._engine.now >= self._next_epoch:
            self._update_monitor()
        override = self._conservative_override
        return self.tree.select(
            self.monitor.conservative if override is None else override
        )

    def select_tasks(self, limit: int) -> List[SimTask]:
        """Batch form of :meth:`select_task` for the dispatch drain.

        One monitor check, then one ``select`` op call schedules up to
        ``limit`` tasks — exactly equivalent to ``limit`` single calls
        (the monitor epoch cannot advance mid-dispatch: all selections
        share one engine timestamp).
        """
        if self._engine.now >= self._next_epoch:
            self._update_monitor()
        override = self._conservative_override
        return self.tree.select_batch(
            self.monitor.conservative if override is None else override,
            limit,
        )

    def on_task_complete(self, task: SimTask) -> None:
        if self._engine.now >= self._next_epoch:
            self._update_monitor()
        self.tree.on_complete(task)
        if self.merger is not None:
            self.merger.maybe_quiesce(self._conservative_now())

    def has_work(self) -> bool:
        return self.tree.has_work()

    def ready_count(self) -> int:
        return self.tree.ready_count()

    # ------------------------------------------------------------------
    # conservative mode
    # ------------------------------------------------------------------
    def _conservative_now(self) -> bool:
        if self._conservative_override is not None:
            return self._conservative_override
        return self.monitor.conservative

    def _update_monitor(self) -> None:
        """Feed the locality monitor once per epoch (lazy boundaries)."""
        now = self.pe.engine.now
        if now < self._next_epoch:
            return
        epoch = self.pe.config.monitor_epoch_cycles
        while self._next_epoch <= now:
            self._next_epoch += epoch
        self.monitor.observe(
            self.pe.memory.recent_l1_latency(self.pe.pe_id),
            self.pe.recent_iu_utilization(),
        )
        if self._published is not None:
            self._publish()

    def publish_to(self, words) -> None:
        """Keep ``words`` at ``[next_epoch, conservative]`` for the lane.

        The compiled event lane only reads them: both change only here,
        at epoch boundaries, which the lane hands to Python.
        """
        self._published = words
        self._publish()

    def lane_task(self, slot: int) -> SimTask:
        """The Executing leaf in entry ``slot`` (a lane completion
        handed back)."""
        return self.tree.leaf_task(slot)

    def lane_rest(self, first: int, count: int) -> List[SimTask]:
        """Records ``[first, count)`` of the last selection: the rest of
        a dispatch pass the lane stopped."""
        return self.tree.select_rest(first, count)

    def _publish(self) -> None:
        words = self._published
        words[0] = self._next_epoch
        words[1] = 1.0 if self._conservative_now() else 0.0

    # ------------------------------------------------------------------
    # task-tree splitting (donor and receiver sides)
    # ------------------------------------------------------------------
    def split_for_helpers(self, helpers: int) -> List[Partition]:
        """Donor side: carve partitions for ``helpers`` idle PEs."""
        return plan_partitions(self, helpers)

    def receive_partition(self, partition: Partition) -> None:
        """Receiver side: rebuild the split subtree locally."""
        chain = self.tree.add_partition(
            partition.prefix,
            list(partition.children),
            self.pe.accel.next_tree_id(),
        )
        # The partition message shipped the prefix's candidate-set lines;
        # install them warm in the local L1.
        for task in chain:
            if task.set_address is not None and task.candidates is not None:
                span = self.pe.memory.line_span(
                    task.set_address, len(task.candidates) * 4
                )
                if span is not None:
                    self.pe.memory.warm_l1_span(self.pe.pe_id, span[0], span[1])

    # ------------------------------------------------------------------
    def _on_tree_done(self, tree_id: int) -> None:
        if self.merger is not None:
            self.merger.on_tree_done(tree_id)
        self._tree_finished()
