"""Live conservation-law checking for accelerator simulations.

The :class:`InvariantChecker` attaches to an
:class:`~repro.sim.accelerator.Accelerator` exactly the way
:class:`~repro.sim.trace.TraceRecorder` does — by wrapping the PE, policy
and memory-system entry points with counting shims.  It adds no
simulation events and changes no timing, so an instrumented run produces
bit-identical metrics; what it adds is an independent set of books that
:meth:`InvariantChecker.finalize` reconciles against the simulator's own
counters after the run.

Checked laws (violation ``code`` in parentheses; the catalogue lives in
``docs/validation.md``):

* every started task completes, and completions match every executed-task
  counter (``task-conservation``);
* executed tasks = dispatched roots + spawned children, i.e. no task is
  lost or double-executed — this holds under task-tree splitting because
  a donor's completion snapshot counts shipped candidates exactly once
  (``spawn-conservation``);
* candidates generated = children kept + children pruned, and kept
  children match the spawn snapshots (``pruning-conservation``);
* every search tree completes exactly once, and total completions equal
  dispatched roots plus received partitions (``tree-completion``);
* leaf completions equal every match counter (``match-conservation``);
* PE slot occupancy stays within ``[0, execution_width]``
  (``slot-occupancy``);
* cache accounting: L1 accesses equal intermediate line fetches, L2
  accesses equal graph line fetches plus L1 misses, latency-window
  samples equal windowed lines (``cache-accounting``);
* each depth's task-tree token book reconciles at every observed start
  and completion and at the end: the free count stays within
  ``[0, T]``, the free stack holds distinct tokens, the ``T - free``
  held tokens are exactly the distinct tokens in-use entries carry
  (none of them free), and every token is free once the run drained
  (``token-accounting``);
* NoC send/receive conservation: messages sent = partition sends =
  partition receipts (``noc-conservation``);
* live candidate-set footprint returns to zero (``footprint``);
* engine time never moves backwards across observed events
  (``time-monotonic``).

Violations are *recorded*, not raised, so a single run reports every
broken law at once; mutation tests corrupt one counter at a time and
assert exactly that law fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.task import SimTask
    from ..core.task_tree import TaskTree
    from ..sim.accelerator import Accelerator
    from ..sim.metrics import RunMetrics

#: Every violation code the checker can emit (the invariant catalogue).
VIOLATION_CODES = (
    "task-conservation",
    "spawn-conservation",
    "pruning-conservation",
    "tree-completion",
    "match-conservation",
    "slot-occupancy",
    "cache-accounting",
    "token-accounting",
    "noc-conservation",
    "footprint",
    "time-monotonic",
)


@dataclass(frozen=True)
class Violation:
    """One broken conservation law."""

    code: str
    message: str
    cycle: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] @{self.cycle:.0f}: {self.message}"


class InvariantChecker:
    """Independent bookkeeping reconciled against a live simulation."""

    def __init__(self, accel: "Accelerator") -> None:
        self.accel = accel
        self.violations: List[Violation] = []
        self._finalized = False

        # Task flow.
        self.tasks_started = 0
        self.tasks_completed = 0
        self.executed_per_depth: List[int] = [0] * accel.schedule.depth
        self.matches_seen = 0
        self.children_spawned = 0
        self.roots_added = 0

        # Tree lifecycle.
        self.tree_completions = 0
        self._done_tree_ids: Set[int] = set()
        self.partitions_received = 0

        # Memory traffic (counted independently of MemorySystem).
        self.l1_lines = 0
        self.windowed_lines = 0
        self.graph_lines = 0

        # NoC.
        self.noc_sends = 0

        self._last_now = accel.engine.now

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, accel: "Accelerator") -> "InvariantChecker":
        """Instrument every hook point of ``accel`` and return the checker."""
        checker = cls(accel)
        for pe in accel.pes:
            checker._wrap_pe(pe)
            checker._wrap_policy(pe.policy)
        checker._wrap_memory()
        return checker

    # -- wrapping ------------------------------------------------------
    def _violate(self, code: str, message: str) -> None:
        self.violations.append(Violation(code, message, self.accel.engine.now))

    def _observe_time(self) -> None:
        now = self.accel.engine.now
        if now < self._last_now:
            self._violate(
                "time-monotonic",
                f"engine time moved backwards: {self._last_now} -> {now}",
            )
        self._last_now = now

    def _wrap_pe(self, pe) -> None:
        original_start = pe._start_task
        original_complete = pe._complete_task
        width = pe.config.execution_width
        tree = getattr(pe.policy, "tree", None)

        def start_task(task: "SimTask"):
            self._observe_time()
            result = original_start(task)
            self.tasks_started += 1
            if not 0 <= pe.slots_used <= width:
                self._violate(
                    "slot-occupancy",
                    f"pe{pe.pe_id} slots_used={pe.slots_used} "
                    f"outside [0, {width}] after task start",
                )
            if tree is not None:
                self._check_tokens(pe.pe_id, tree)
            return result

        def complete_task(task: "SimTask"):
            self._observe_time()
            result = original_complete(task)
            self.tasks_completed += 1
            self.executed_per_depth[task.depth] += 1
            if task.depth >= pe.schedule.max_depth:
                self.matches_seen += 1
            elif task.children_vertices is not None:
                # Snapshot before any later split-harvest truncation:
                # shipped candidates are counted exactly once, here.
                self.children_spawned += len(task.children_vertices)
            if pe.slots_used < 0:
                self._violate(
                    "slot-occupancy",
                    f"pe{pe.pe_id} slots_used={pe.slots_used} negative "
                    "after task completion",
                )
            if tree is not None:
                self._check_tokens(pe.pe_id, tree)
            return result

        pe._start_task = start_task
        pe._complete_task = complete_task

    def _wrap_policy(self, policy) -> None:
        original_add_root = policy.add_root
        original_tree_finished = policy._tree_finished

        def add_root(vertex: int):
            self._observe_time()
            self.roots_added += 1
            return original_add_root(vertex)

        def tree_finished():
            self._observe_time()
            self.tree_completions += 1
            return original_tree_finished()

        policy.add_root = add_root
        policy._tree_finished = tree_finished

        tree = getattr(policy, "tree", None)
        if tree is not None and hasattr(tree, "on_tree_done"):
            original_done = tree.on_tree_done

            def on_tree_done(tree_id: int):
                if tree_id in self._done_tree_ids:
                    self._violate(
                        "tree-completion",
                        f"search tree {tree_id} completed more than once",
                    )
                self._done_tree_ids.add(tree_id)
                return original_done(tree_id)

            tree.on_tree_done = on_tree_done

        if hasattr(policy, "receive_partition"):
            original_receive = policy.receive_partition

            def receive_partition(partition):
                self._observe_time()
                self.partitions_received += 1
                return original_receive(partition)

            policy.receive_partition = receive_partition

    def _check_tokens(
        self, pe_id: int, tree: "TaskTree", *, drained: bool = False
    ) -> None:
        """Reconcile one task tree's SoA token book (``token-accounting``).

        For each non-leaf depth with ``T`` tokens: the free count lies in
        ``[0, T]``, the free stack holds distinct tokens, and the
        ``T - free`` held ones are exactly the ``e_token >= 0`` values
        of that depth's in-use bunches — distinct, and disjoint from the
        free stack.  ``drained`` (end of run) also requires every token
        back on its stack.
        """
        s = tree.state
        total = s.tokens_per_depth
        cap = s.cap
        tok_n = s.tok_n.tolist()
        tok_free = s.tok_free.tolist()
        e_token = s.e_token.tolist()
        in_use = s.b_in_use.tolist()
        for depth in range(tree.max_depth):
            label = f"token pool pe{pe_id}/depth{depth}"
            n_free = tok_n[depth]
            if not 0 <= n_free <= total:
                self._violate(
                    "token-accounting",
                    f"{label}: free count {n_free} outside [0, {total}]",
                )
                continue
            free = tok_free[depth * total:depth * total + n_free]
            held = [
                token
                for b in range(int(s.d_start[depth]), int(s.d_end[depth]))
                if in_use[b]
                for token in e_token[b * cap:(b + 1) * cap]
                if token >= 0
            ]
            if len(set(free)) != n_free:
                self._violate(
                    "token-accounting",
                    f"{label}: free stack {free} repeats a token",
                )
            if (
                len(held) != total - n_free
                or len(set(held)) != len(held)
                or not set(held).isdisjoint(free)
            ):
                self._violate(
                    "token-accounting",
                    f"{label}: {total - n_free} token(s) held but in-use "
                    f"entries carry {sorted(held)} (free stack {free})",
                )
            if drained and n_free != total:
                self._violate(
                    "token-accounting",
                    f"{label} still holds {total - n_free} token(s) after "
                    "the run drained",
                )

    def _wrap_memory(self) -> None:
        memory = self.accel.memory
        original_fetch = memory.fetch_intermediate
        original_fetch_line = memory.fetch_intermediate_line
        original_fetch_span = memory.fetch_intermediate_span
        original_graph = memory.fetch_graph
        original_graph_spans = memory.fetch_graph_spans
        original_transfer = memory.noc.transfer

        def fetch_intermediate(pe_id, line_addrs, now, *, record_window=True):
            n = len(line_addrs)
            self.l1_lines += n
            if record_window:
                self.windowed_lines += n
            return original_fetch(pe_id, line_addrs, now, record_window=record_window)

        def fetch_intermediate_line(pe_id, line_addr, now):
            self.l1_lines += 1
            return original_fetch_line(pe_id, line_addr, now)

        def fetch_intermediate_span(pe_id, first_line, last_line, now, *, record_window=True):
            n = last_line - first_line + 1
            self.l1_lines += n
            if record_window:
                self.windowed_lines += n
            return original_fetch_span(
                pe_id, first_line, last_line, now, record_window=record_window
            )

        def fetch_graph(pe_id, line_addrs, now):
            self.graph_lines += len(line_addrs)
            return original_graph(pe_id, line_addrs, now)

        def fetch_graph_spans(pe_id, spans, now):
            self.graph_lines += sum(last - first + 1 for first, last in spans)
            return original_graph_spans(pe_id, spans, now)

        def transfer(lines, ready_time):
            self.noc_sends += 1
            return original_transfer(lines, ready_time)

        memory.fetch_intermediate = fetch_intermediate
        memory.fetch_intermediate_line = fetch_intermediate_line
        memory.fetch_intermediate_span = fetch_intermediate_span
        memory.fetch_graph = fetch_graph
        memory.fetch_graph_spans = fetch_graph_spans
        memory.noc.transfer = transfer

    # -- reconciliation ------------------------------------------------
    def finalize(self, metrics: Optional["RunMetrics"] = None) -> List[Violation]:
        """Reconcile all books against the simulator; returns violations.

        Idempotent: a second call returns the first call's findings
        without double-recording them.
        """
        if self._finalized:
            return self.violations
        self._finalized = True
        accel = self.accel
        memory = accel.memory

        if self.tasks_started != self.tasks_completed:
            self._violate(
                "task-conservation",
                f"{self.tasks_started} tasks started but "
                f"{self.tasks_completed} completed",
            )
        pe_executed = sum(pe.tasks_executed for pe in accel.pes)
        if pe_executed != self.tasks_completed:
            self._violate(
                "task-conservation",
                f"PEs report {pe_executed} executed tasks, checker "
                f"observed {self.tasks_completed} completions",
            )
        if metrics is not None and metrics.tasks_executed != self.tasks_completed:
            self._violate(
                "task-conservation",
                f"metrics report {metrics.tasks_executed} executed tasks, "
                f"checker observed {self.tasks_completed}",
            )
        if metrics is not None and list(metrics.tasks_per_depth) != self.executed_per_depth:
            self._violate(
                "task-conservation",
                f"metrics tasks_per_depth={metrics.tasks_per_depth} but "
                f"checker observed {self.executed_per_depth}",
            )

        expected = self.roots_added + self.children_spawned
        if self.tasks_completed != expected:
            self._violate(
                "spawn-conservation",
                f"executed {self.tasks_completed} tasks but roots + spawned "
                f"children = {self.roots_added} + {self.children_spawned} "
                f"= {expected}",
            )

        ctx = accel.context
        if ctx.candidates_seen != ctx.children_kept + ctx.children_pruned:
            self._violate(
                "pruning-conservation",
                f"candidates_seen={ctx.candidates_seen} != kept+pruned="
                f"{ctx.children_kept}+{ctx.children_pruned}",
            )
        if ctx.children_kept != self.children_spawned:
            self._violate(
                "pruning-conservation",
                f"context kept {ctx.children_kept} children but completion "
                f"snapshots spawned {self.children_spawned}",
            )

        expected_trees = self.roots_added + self.partitions_received
        if self.tree_completions != expected_trees:
            self._violate(
                "tree-completion",
                f"{self.tree_completions} tree completions but roots + "
                f"partitions = {self.roots_added} + {self.partitions_received} "
                f"= {expected_trees}",
            )
        policy_trees = sum(pe.policy.trees_completed for pe in accel.pes)
        if policy_trees != self.tree_completions:
            self._violate(
                "tree-completion",
                f"policies report {policy_trees} completed trees, checker "
                f"observed {self.tree_completions}",
            )
        if metrics is not None and metrics.trees_completed != self.tree_completions:
            self._violate(
                "tree-completion",
                f"metrics report {metrics.trees_completed} completed trees, "
                f"checker observed {self.tree_completions}",
            )

        pe_matches = sum(pe.matches for pe in accel.pes)
        leaf_completions = (
            self.executed_per_depth[-1] if self.executed_per_depth else 0
        )
        if not (self.matches_seen == pe_matches == leaf_completions):
            self._violate(
                "match-conservation",
                f"leaf completions={leaf_completions}, checker matches="
                f"{self.matches_seen}, PE matches={pe_matches}",
            )
        if metrics is not None and metrics.matches != self.matches_seen:
            self._violate(
                "match-conservation",
                f"metrics report {metrics.matches} matches, checker "
                f"observed {self.matches_seen}",
            )

        l1_accesses = sum(c.hits + c.misses for c in memory.l1s)
        l1_misses = sum(c.misses for c in memory.l1s)
        if not (self.l1_lines == memory.intermediate_line_fetches == l1_accesses):
            self._violate(
                "cache-accounting",
                f"intermediate lines: checker={self.l1_lines}, memory counter="
                f"{memory.intermediate_line_fetches}, L1 hits+misses={l1_accesses}",
            )
        if self.graph_lines != memory.graph_line_fetches:
            self._violate(
                "cache-accounting",
                f"graph lines: checker={self.graph_lines}, memory counter="
                f"{memory.graph_line_fetches}",
            )
        l2_accesses = memory.l2.hits + memory.l2.misses
        if l2_accesses != self.graph_lines + l1_misses:
            self._violate(
                "cache-accounting",
                f"L2 accesses={l2_accesses} != graph lines + L1 misses = "
                f"{self.graph_lines} + {l1_misses}",
            )
        window_samples = sum(w.samples for w in memory.l1_windows)
        if window_samples != self.windowed_lines:
            self._violate(
                "cache-accounting",
                f"latency-window samples={window_samples} != windowed "
                f"intermediate lines={self.windowed_lines}",
            )

        for pe in accel.pes:
            tree = getattr(pe.policy, "tree", None)
            if tree is not None:
                self._check_tokens(pe.pe_id, tree, drained=True)

        if not (self.noc_sends == memory.noc.messages):
            self._violate(
                "noc-conservation",
                f"checker observed {self.noc_sends} NoC sends but the NoC "
                f"counted {memory.noc.messages} messages",
            )
        if not (accel.partitions_sent == self.partitions_received == self.noc_sends):
            self._violate(
                "noc-conservation",
                f"partitions sent={accel.partitions_sent}, received="
                f"{self.partitions_received}, NoC sends={self.noc_sends}",
            )

        if accel._footprint != 0:
            self._violate(
                "footprint",
                f"live candidate-set footprint is {accel._footprint} bytes "
                "after the run drained (expected 0)",
            )
        if accel.peak_footprint < 0:
            self._violate(
                "footprint", f"peak footprint {accel.peak_footprint} negative"
            )
        return self.violations

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """Whether no law has been violated so far."""
        return not self.violations

    def report(self) -> str:
        """Human-readable digest of the checker's findings."""
        head = (
            f"invariants[{self.accel.policy_name}]: "
            f"{self.tasks_completed} tasks ({self.roots_added} roots + "
            f"{self.children_spawned} spawned), "
            f"{self.tree_completions} trees, {self.matches_seen} matches, "
            f"{self.l1_lines} L1 lines, {self.graph_lines} graph lines"
        )
        if not self.violations:
            return head + " — all invariants hold"
        lines = [head + f" — {len(self.violations)} VIOLATION(S):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def checked_simulate(
    graph,
    schedule,
    *,
    policy: str = "shogun",
    config=None,
):
    """Simulate with an attached checker; returns ``(metrics, checker)``.

    The checker is already finalized against the returned metrics —
    callers inspect ``checker.violations`` / ``checker.report()``.
    """
    from ..sim.accelerator import Accelerator
    from ..sim.config import DEFAULT_CONFIG

    accel = Accelerator(graph, schedule, config or DEFAULT_CONFIG, policy)
    checker = InvariantChecker.attach(accel)
    metrics = accel.run()
    checker.finalize(metrics)
    return metrics, checker
