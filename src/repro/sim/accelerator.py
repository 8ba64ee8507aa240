"""The whole accelerator: system scheduler, PEs, shared memory, NoC.

Mirrors §3.1: a centralized system scheduler dispatches root vertices of
search trees to PEs over the NoC; each PE explores its assigned trees
independently and reports back on completion.  The system scheduler also
runs the load-balance procedure of §4.1 when task-tree splitting is
enabled: once the root queue drains, it polls for the many-idle/few-busy
pattern, apportions idle PEs to busy ones, and forwards partition
messages between them.

:func:`simulate` is the high-level entry point used by examples, tests
and the benchmark harness.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from ..core.policies.base import SchedulingPolicy
from ..core.policies.bfs import BFSPolicy
from ..core.policies.group_dfs import DFSPolicy, GroupDFSPolicy
from ..core.policies.parallel_dfs import ParallelDFSPolicy
from ..core.policies.shogun import ShogunPolicy
from ..core.splitting import apportion_helpers
from ..errors import SimulationError
from ..graph.csr import GRAPH_REGION_BASE, VERTEX_BYTES, CSRGraph
from ..mining.tree import SearchContext
from ..patterns.schedule import MatchingSchedule
from .backend.macro import build_lane, build_macro
from .config import DEFAULT_CONFIG, SimConfig
from .engine import Engine
from .memory import MemorySystem
from .metrics import PEMetrics, RunMetrics
from .pe import PE, LanePE, PEStateVector, PolicyFactory

#: Registered scheduling policies by name.  ``fingers`` is an alias for
#: pseudo-DFS, the baseline accelerator the paper compares against.
POLICIES: Dict[str, Callable[[PE], SchedulingPolicy]] = {
    "shogun": ShogunPolicy,
    "pseudo-dfs": GroupDFSPolicy,
    "fingers": GroupDFSPolicy,
    "dfs": DFSPolicy,
    "bfs": BFSPolicy,
    "parallel-dfs": ParallelDFSPolicy,
}


def policy_factory(name: str) -> PolicyFactory:
    """Look up a policy constructor by name."""
    try:
        return POLICIES[name]
    except KeyError:
        raise SimulationError(
            f"unknown policy {name!r}; known: {sorted(POLICIES)}"
        ) from None


class Accelerator:
    """One simulated device bound to a (graph, schedule, config, policy)."""

    def __init__(
        self,
        graph: CSRGraph,
        schedule: MatchingSchedule,
        config: SimConfig = DEFAULT_CONFIG,
        policy: str = "shogun",
    ) -> None:
        self.graph = graph
        self.schedule = schedule
        self.config = config
        self.policy_name = policy
        self.engine = Engine()
        # MemorySystem construction also activates the kernel backend
        # (config.backend / REPRO_BACKEND / auto) for this process.
        self.memory = MemorySystem(config)
        self.context = SearchContext(graph, schedule)
        # Per-vertex L2 line span of each neighbor set, precomputed once:
        # neighbor inputs always cover the full adjacency, so the PEs can
        # turn a vertex id into its line range without re-deriving byte
        # addresses per fetch.  Entries of degree-0 vertices are unused.
        line = config.cache_line_bytes
        base_addrs = GRAPH_REGION_BASE + graph.indptr[:-1] * VERTEX_BYTES
        first_line = base_addrs // line
        last_line = (base_addrs + graph.degrees * VERTEX_BYTES - 1) // line
        #: The same spans as ``int64`` arrays, for the compiled derive.
        self.graph_line_arrays = (first_line, last_line)
        self.graph_first_line: List[int] = first_line.tolist()
        self.graph_last_line: List[int] = last_line.tolist()
        factory = policy_factory(policy)
        # The state compiled code books in place; every PE operates on
        # its row.
        self.pe_state = PEStateVector(config.num_pes, schedule.depth)
        # A Shogun accelerator under a compiled backend runs the event
        # lane, whose PEs keep their counters in ``pe_state``.
        pe_class = (
            LanePE
            if factory is ShogunPolicy and self.memory._kernels.lane_bind
            else PE
        )
        self.pes: List[PE] = [pe_class(i, self, factory) for i in range(config.num_pes)]
        self._roots: Deque[int] = deque()
        self._pe_roots: List[Deque[int]] = [deque() for _ in self.pes]
        self._static_dispatch = config.root_dispatch == "static"
        if self._static_dispatch:
            # Deal roots round-robin: with vertices renumbered by
            # descending degree, heavy trees spread evenly across PEs.
            for v in self.context.roots():
                self._pe_roots[v % config.num_pes].append(v)
        else:
            self._roots.extend(self.context.roots())
        self._undispatched = graph.num_vertices
        #: Root-queue lengths the event lane reads: one per PE (static
        #: dispatch), the shared queue, then the undispatched count.
        self.root_words = np.array(
            [len(q) for q in self._pe_roots]
            + [len(self._roots), self._undispatched],
            dtype=np.int64,
        )
        self._root_view = memoryview(self.root_words)
        # Macro-step engine core: binds every PE's fast path when the
        # active backend is compiled (None under pure = per-event
        # booking; see sim/backend/macro.py for the escape protocol).
        self.macro = build_macro(self)
        # The compiled event lane and its C queue (LanePEs only).
        self.lane = build_lane(self)
        self._tree_ids = 0
        self._finished = False
        self.finish_cycle = 0.0

        # Memory-footprint accounting (live candidate-set bytes).
        self._footprint = 0
        self.peak_footprint = 0

        # Load balance bookkeeping.
        self.split_rounds = 0
        self.partitions_sent = 0
        self._lb_scheduled = False

    # ------------------------------------------------------------------
    # services used by PEs / policies
    # ------------------------------------------------------------------
    def next_tree_id(self) -> int:
        """Globally unique search-tree instance id."""
        self._tree_ids += 1
        return self._tree_ids

    def feed_roots(self, pe: PE) -> None:
        """Hand root vertices to a PE while it can accept them."""
        queue = self._pe_roots[pe.pe_id] if self._static_dispatch else self._roots
        if not queue:
            return
        policy = pe.policy
        wants_root = policy.wants_root
        add_root = policy.add_root
        fed = 0
        while queue and wants_root():
            add_root(queue.popleft())
            fed += 1
        if fed:
            self._undispatched -= fed
            words = self._root_view
            words[pe.pe_id if self._static_dispatch else -2] = len(queue)
            words[-1] = self._undispatched

    def footprint_add(self, num_bytes: int) -> None:
        """Track a newly live candidate set."""
        self._footprint += num_bytes
        if self._footprint > self.peak_footprint:
            self.peak_footprint = self._footprint

    def footprint_remove(self, num_bytes: int) -> None:
        """Track a candidate set going dead."""
        self._footprint -= num_bytes
        if self._footprint < 0:
            raise SimulationError("footprint accounting went negative")

    def roots_remaining(self) -> int:
        """Root vertices not yet handed to a policy."""
        return self._undispatched

    def _pe_busy(self, pe: PE) -> bool:
        """Whether a PE still has assigned work (live trees or queued roots)."""
        return pe.policy.has_work() or bool(self._pe_roots[pe.pe_id])

    def check_done(self) -> None:
        """Record the finish time once all work has drained."""
        if self._finished or self._undispatched:
            return
        for pe in self.pes:
            if pe.policy.has_work():
                return
        self._finished = True
        self.finish_cycle = self.engine.now

    # ------------------------------------------------------------------
    # load balance (system scheduler side of §4.1)
    # ------------------------------------------------------------------
    def _schedule_lb_check(self) -> None:
        if self._lb_scheduled or self._finished:
            return
        self._lb_scheduled = True
        self.engine.after(self.config.lb_check_interval, self._lb_check)

    def _lb_check(self) -> None:
        self._lb_scheduled = False
        if self._finished:
            return
        if not self._roots:
            busy = [pe.pe_id for pe in self.pes if self._pe_busy(pe)]
            idle = [pe.pe_id for pe in self.pes if not self._pe_busy(pe)]
            if busy and len(idle) >= self.config.lb_idle_fraction * len(self.pes):
                self._split_round(busy, idle)
        self._schedule_lb_check()

    def _split_round(self, busy: List[int], idle: List[int]) -> None:
        """One round of imbalance resolution (may repeat, §4.1 step 5)."""
        assignment = apportion_helpers(busy, idle, self.config.lb_max_helpers)
        any_sent = False
        for busy_pe, helpers in assignment.items():
            if not helpers:
                continue
            policy = self.pes[busy_pe].policy
            if not isinstance(policy, ShogunPolicy):
                continue
            partitions = policy.split_for_helpers(len(helpers))
            for helper_pe, partition in zip(helpers, partitions):
                arrival = self.memory.noc.transfer(
                    partition.message_lines, self.engine.now
                )
                receiver = self.pes[helper_pe].policy
                if not isinstance(receiver, ShogunPolicy):
                    raise SimulationError("partition sent to a non-Shogun PE")
                self.partitions_sent += 1
                any_sent = True

                def deliver(r=receiver, p=partition, pe=self.pes[helper_pe]) -> None:
                    r.receive_partition(p)
                    pe.kick()

                self.engine.at(arrival, deliver)
        if any_sent:
            self.split_rounds += 1

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        """Simulate to completion and return the collected metrics."""
        for pe in self.pes:
            self.feed_roots(pe)
            pe.kick()
        if self.config.enable_splitting:
            self._schedule_lb_check()
        self.engine.run(until=self.config.max_cycles)
        self.check_done()
        if not self._finished:
            pending = {pe.pe_id: pe.policy.ready_count() for pe in self.pes}
            raise SimulationError(
                f"simulation stalled at cycle {self.engine.now}: "
                f"roots left={self.roots_remaining()}, ready={pending}"
            )
        return self._collect()

    # ------------------------------------------------------------------
    def _collect(self) -> RunMetrics:
        cycles = max(self.finish_cycle, 1.0)
        run = RunMetrics(policy=self.policy_name, cycles=self.finish_cycle)
        run.tasks_per_depth = [0] * self.schedule.depth
        total_iu_busy = 0.0
        total_busy_slots = 0.0
        total_idle_with_work = 0.0
        for pe in self.pes:
            pe._integrate()
            i = pe.pe_id
            l1 = self.memory.l1s[i]
            window = self.memory.l1_windows[i]
            pm = PEMetrics(
                pe_id=i,
                tasks_executed=pe.tasks_executed,
                matches=pe.matches,
                trees_completed=pe.policy.trees_completed,
                busy_slot_cycles=pe._busy_slot_cycles,
                idle_with_work_cycles=pe._idle_with_work_cycles,
                finish_cycle=pe.finish_cycle,
                iu_busy_cycles=pe.iu_pool.busy_cycles,
                iu_utilization=pe.iu_pool.utilization(cycles),
                l1_hits=l1.hits,
                l1_misses=l1.misses,
                l1_avg_latency=window.lifetime_average,
                tasks_per_depth=list(pe.depth_executed),
            )
            policy = pe.policy
            if isinstance(policy, ShogunPolicy):
                pm.conservative_entries = policy.monitor.entries
                pm.conservative_fraction = policy.monitor.conservative_fraction
                pm.spawn_waits = policy.tree.spawn_waits
                pm.token_stalls = policy.tree.token_stalls
                if policy.merger is not None:
                    run.merges += policy.merger.merges
                    run.quiesces += policy.merger.quiesces
            run.per_pe.append(pm)
            run.matches += pm.matches
            run.tasks_executed += pm.tasks_executed
            for d, n in enumerate(pm.tasks_per_depth):
                run.tasks_per_depth[d] += n
            run.trees_completed += pe.policy.trees_completed
            total_iu_busy += pe.iu_pool.busy_cycles
            total_busy_slots += pm.busy_slot_cycles
            total_idle_with_work += pm.idle_with_work_cycles

        num_pes = len(self.pes)
        run.iu_utilization = total_iu_busy / (cycles * self.config.num_ius * num_pes)
        run.l1_hit_rate = self.memory.overall_l1_hit_rate()
        samples = sum(w.samples for w in self.memory.l1_windows)
        run.l1_avg_latency = (
            sum(w.total_latency for w in self.memory.l1_windows) / samples
            if samples
            else 0.0
        )
        run.l2_hit_rate = self.memory.l2.hit_rate
        run.dram_requests = self.memory.dram.requests
        run.dram_utilization = self.memory.dram.utilization(cycles)
        run.noc_messages = self.memory.noc.messages
        run.noc_lines = self.memory.noc.lines_transferred
        run.peak_footprint_bytes = self.peak_footprint
        width = self.config.execution_width
        run.slot_utilization = total_busy_slots / (cycles * width * num_pes)
        run.barrier_idle_fraction = total_idle_with_work / (cycles * width * num_pes)
        run.split_rounds = self.split_rounds
        run.partitions_sent = self.partitions_sent
        if run.per_pe:
            run.conservative_fraction = sum(
                p.conservative_fraction for p in run.per_pe
            ) / len(run.per_pe)
        return run


def simulate(
    graph: CSRGraph,
    schedule: MatchingSchedule,
    *,
    policy: str = "shogun",
    config: Optional[SimConfig] = None,
) -> RunMetrics:
    """Run one accelerator simulation and return its metrics."""
    accel = Accelerator(graph, schedule, config or DEFAULT_CONFIG, policy)
    return accel.run()
