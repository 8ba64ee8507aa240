"""Live conservation-law checking for accelerator simulations.

The :class:`InvariantChecker` attaches to an
:class:`~repro.sim.accelerator.Accelerator` exactly the way
:class:`~repro.sim.trace.TraceRecorder` does — by wrapping each PE's
task start/completion and the policy hooks with counting shims.  It adds
no simulation events, changes no timing and reroutes nothing: a checked
PE books through the same path as an unchecked one, the compiled
macro-step core and the compiled event lane included, so a checked run
produces bit-identical metrics.  What the checker adds is an
independent set of task-flow books that
:meth:`InvariantChecker.finalize` reconciles against the simulator's
own counters after the run.  Leaves the event lane runs in C never
reach the shims; the lane keeps flat counters of its own (leaves
started and completed, vertex fetches, slot-occupancy breaks, slots
completed twice, buckets drained out of time order), which
:meth:`~InvariantChecker.finalize` folds into the books before the
laws are checked.  Memory and NoC traffic are not
intercepted at all: the laws over them reconcile flat counters that the
per-event path and the compiled core both update in place (cache
hit/miss arrays, ``MemorySystem`` line counts, latency windows, the NoC
message count).

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
  accesses equal graph line fetches plus L1 misses, and latency-window
  samples equal intermediate line fetches minus the task vertex fetches
  (the one intermediate read that skips the window — counted from the
  observed starts whose parent holds a set address)
  (``cache-accounting``);
* each depth's task-tree token book reconciles at every observed start
  and completion and at the end: the free count stays within
  ``[0, T]``, the free stack holds distinct tokens, the ``T - free``
  held tokens are exactly the distinct tokens in-use entries carry
  (none of them free), and every token is free once the run drained
  (``token-accounting``);
* NoC send/receive conservation: NoC messages = partition sends =
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

        # Task vertex fetches: the one intermediate read that skips the
        # L1 latency window.
        self.vertex_lines = 0

        self._last_now = accel.engine.now

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, accel: "Accelerator") -> "InvariantChecker":
        """Instrument every hook point of ``accel`` and return the checker."""
        checker = cls(accel)
        for pe in accel.pes:
            checker._wrap_pe(pe)
            checker._wrap_policy(pe.policy)
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
            parent = task.parent
            if parent is not None and parent.set_address is not None:
                self.vertex_lines += 1
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

    def _fold_lane(self, lane) -> None:
        """Add the event lane's leaf starts and completions to the books."""
        self.tasks_started += lane["fast"]
        self.tasks_completed += lane["completed"]
        if self.executed_per_depth:
            self.executed_per_depth[-1] += lane["completed"]
        self.matches_seen += lane["completed"]
        self.vertex_lines += lane["vertex_lines"]
        if lane["slot_violations"]:
            self._violate(
                "slot-occupancy",
                f"the event lane saw slots_used outside [0, width] "
                f"{lane['slot_violations']} time(s)",
            )
        if lane["completed_twice"]:
            self._violate(
                "task-conservation",
                f"the event lane completed {lane['completed_twice']} "
                "slot(s) that held no booked task",
            )
        if lane["regressions"]:
            self._violate(
                "time-monotonic",
                f"the event lane drained {lane['regressions']} bucket(s) "
                "before the current time",
            )

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
        lane = getattr(accel, "lane", None)
        if lane is not None:
            self._fold_lane(lane.counters())

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

        inter_lines = memory.intermediate_line_fetches
        graph_lines = memory.graph_line_fetches
        l1_accesses = sum(c.hits + c.misses for c in memory.l1s)
        l1_misses = sum(c.misses for c in memory.l1s)
        if inter_lines != l1_accesses:
            self._violate(
                "cache-accounting",
                f"intermediate line fetches={inter_lines} != L1 "
                f"hits+misses={l1_accesses}",
            )
        l2_accesses = memory.l2.hits + memory.l2.misses
        if l2_accesses != graph_lines + l1_misses:
            self._violate(
                "cache-accounting",
                f"L2 accesses={l2_accesses} != graph lines + L1 misses = "
                f"{graph_lines} + {l1_misses}",
            )
        window_samples = sum(w.samples for w in memory.l1_windows)
        if window_samples != inter_lines - self.vertex_lines:
            self._violate(
                "cache-accounting",
                f"latency-window samples={window_samples} != intermediate "
                f"lines - vertex fetches = {inter_lines} - {self.vertex_lines}",
            )

        for pe in accel.pes:
            tree = getattr(pe.policy, "tree", None)
            if tree is not None:
                self._check_tokens(pe.pe_id, tree, drained=True)

        messages = memory.noc.messages
        if not (messages == accel.partitions_sent == self.partitions_received):
            self._violate(
                "noc-conservation",
                f"NoC messages={messages}, partitions sent="
                f"{accel.partitions_sent}, received={self.partitions_received}",
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
        memory = self.accel.memory
        head = (
            f"invariants[{self.accel.policy_name}]: "
            f"{self.tasks_completed} tasks ({self.roots_added} roots + "
            f"{self.children_spawned} spawned), "
            f"{self.tree_completions} trees, {self.matches_seen} matches, "
            f"{memory.intermediate_line_fetches} L1 lines, "
            f"{memory.graph_line_fetches} graph lines"
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
