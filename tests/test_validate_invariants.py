"""Tests for the live invariant checker (repro.validate.invariants).

Two halves:

* clean runs — every policy (plus a splitting-heavy workload) passes with
  zero violations, and attaching the checker never changes the metrics;
* mutation smoke tests — corrupt exactly one counter after (or during)
  the run and assert the checker reports exactly that violation class.
  Every mutation runs under ``pure`` (per-event booking) and again under
  ``cext`` (the compiled macro-step core, skipped without cffi), so each
  law is shown to fire on the path that runs by default.
"""

from __future__ import annotations

import json

import pytest

from repro.graph import powerlaw_configuration
from repro.sim import SimConfig, backend
from repro.sim.accelerator import Accelerator, simulate
from repro.validate import InvariantChecker, checked_simulate
from repro.validate.invariants import VIOLATION_CODES
from repro.validate.oracle import ORACLE_POLICIES

HAS_CEXT = backend.available_backends()["cext"][0]


def run_mutated(graph, schedule, config, *, policy="shogun",
                pre_run=None, post_run=None):
    """Attach, optionally sabotage, run, finalize; returns the checker."""
    accel = Accelerator(graph, schedule, config, policy)
    checker = InvariantChecker.attach(accel)
    if pre_run is not None:
        pre_run(accel, checker)
    metrics = accel.run()
    if post_run is not None:
        post_run(accel, checker)
    checker.finalize(metrics)
    return checker


def fired(checker):
    return {v.code for v in checker.violations}


class TestCleanRuns:
    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    def test_all_policies_clean(self, small_er, sched_tc, policy):
        metrics, checker = checked_simulate(
            small_er, sched_tc, policy=policy, config=SimConfig(num_pes=2)
        )
        assert checker.ok, checker.report()
        assert metrics.matches == checker.matches_seen
        assert "all invariants hold" in checker.report()

    def test_finalize_is_idempotent(self, small_er, sched_tc):
        _, checker = checked_simulate(
            small_er, sched_tc, config=SimConfig(num_pes=2)
        )
        first = list(checker.finalize())
        second = list(checker.finalize())
        assert first == second == []

    def test_splitting_run_clean(self, sched_4cl):
        # Hub-heavy graph + tight LB interval: splitting actually fires,
        # exercising the NoC/partition conservation laws.
        graph = powerlaw_configuration(
            200, target_avg_degree=12.0, exponent=1.7, seed=5, name="pl200"
        )
        config = SimConfig(
            num_pes=8, enable_splitting=True, lb_check_interval=50,
            l1_kb=4, l2_kb=64,
        )
        _, checker = checked_simulate(graph, sched_4cl, config=config)
        assert checker.accel.partitions_sent > 0
        assert checker.partitions_received == checker.accel.partitions_sent
        assert checker.ok, checker.report()

    def test_checker_is_non_invasive(self, small_er, sched_4cl):
        config = SimConfig(num_pes=2)
        plain = simulate(small_er, sched_4cl, policy="shogun", config=config)
        checked, checker = checked_simulate(
            small_er, sched_4cl, policy="shogun", config=config
        )
        assert checker.ok, checker.report()
        assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
            checked.to_dict(), sort_keys=True
        )

    def test_checked_shogun_run_takes_the_ops(self, small_er, sched_4cl):
        accel = Accelerator(small_er, sched_4cl, SimConfig(num_pes=2), "shogun")
        checker = InvariantChecker.attach(accel)
        checker.finalize(accel.run())
        assert checker.ok, checker.report()
        for op in ("select", "complete"):
            assert sum(
                pe.policy.tree.op_calls[f"{op}_kernel"] for pe in accel.pes
            ) > 0
        if accel.macro is not None:
            # The checker observes the compiled core instead of
            # rerouting tasks around it.
            assert accel.macro.coverage()["drained"] > 0

    def test_spawn_books_balance(self, medium_er, sched_4cl):
        _, checker = checked_simulate(
            medium_er, sched_4cl, config=SimConfig(num_pes=4)
        )
        assert checker.ok, checker.report()
        assert checker.tasks_completed == (
            checker.roots_added + checker.children_spawned
        )


#: Every counter the cache-accounting law reconciles, as
#: ``(owner from the memory system, attribute)``.
CACHE_COUNTERS = (
    (lambda memory: memory.l1s[0], "hits"),
    (lambda memory: memory.l2, "misses"),
    (lambda memory: memory.l1_windows[0], "samples"),
    (lambda memory: memory, "intermediate_line_fetches"),
    (lambda memory: memory, "graph_line_fetches"),
)


class TestMutations:
    """Each test corrupts one counter and expects exactly one law to fire.

    Runs per-event (``pure``); :class:`TestMutationsCompiled` reruns every
    test on the compiled macro-step core.
    """

    backend_name = "pure"

    @pytest.fixture(autouse=True)
    def _restore_backend(self):
        before = backend.active()
        yield
        backend._install(before)

    @pytest.fixture()
    def base(self, small_er, sched_tc):
        return small_er, sched_tc, SimConfig(num_pes=2, backend=self.backend_name)

    def test_task_conservation(self, base):
        def drop_completion(accel, checker):
            accel.pes[0].tasks_executed -= 1

        checker = run_mutated(*base, post_run=drop_completion)
        assert fired(checker) == {"task-conservation"}

    def test_match_conservation(self, base):
        def double_count_match(accel, checker):
            accel.pes[0].matches += 1

        checker = run_mutated(*base, post_run=double_count_match)
        assert fired(checker) == {"match-conservation"}

    def test_cache_accounting(self, base):
        for owner_of, attr in CACHE_COUNTERS:
            def bump(accel, checker):
                owner = owner_of(accel.memory)
                setattr(owner, attr, getattr(owner, attr) + 1)

            checker = run_mutated(*base, post_run=bump)
            assert fired(checker) == {"cache-accounting"}, attr

    def test_noc_conservation(self, base):
        def phantom_message(accel, checker):
            accel.memory.noc.messages += 1

        checker = run_mutated(*base, post_run=phantom_message)
        assert fired(checker) == {"noc-conservation"}

    def test_tree_completion_count(self, base):
        def phantom_tree(accel, checker):
            accel.pes[0].policy.trees_completed += 1

        checker = run_mutated(*base, post_run=phantom_tree)
        assert fired(checker) == {"tree-completion"}

    def test_tree_completed_twice(self, base):
        def replay_done(accel, checker):
            tree_id = next(iter(checker._done_tree_ids))
            # Re-deliver a completion the checker already saw; the wrapped
            # callback flags the duplicate immediately.
            accel.pes[0].policy.tree.on_tree_done(tree_id)

        checker = run_mutated(*base, post_run=replay_done)
        assert fired(checker) == {"tree-completion"}
        assert any("more than once" in v.message for v in checker.violations)

    def test_token_accounting(self, base):
        def leak_token(accel, checker):
            pools = accel.pes[0].policy.tree.tokens
            # Drop a free-count unit: held rises without an acquire.
            next(iter(pools.values()))._count[0] -= 1

        checker = run_mutated(*base, post_run=leak_token)
        assert fired(checker) == {"token-accounting"}

    def test_token_free_stack_duplicate(self, base):
        def duplicate_free_token(accel, checker):
            state = accel.pes[0].policy.tree.state
            # Depth 0's free stack names one token twice.
            state.tok_free[1] = state.tok_free[0]

        checker = run_mutated(*base, post_run=duplicate_free_token)
        assert fired(checker) == {"token-accounting"}

    def test_pruning_conservation(self, base):
        def phantom_prune(accel, checker):
            accel.context.children_pruned += 1

        checker = run_mutated(*base, post_run=phantom_prune)
        assert fired(checker) == {"pruning-conservation"}

    def test_footprint(self, base):
        def leak_bytes(accel, checker):
            accel._footprint = 64

        checker = run_mutated(*base, post_run=leak_bytes)
        assert fired(checker) == {"footprint"}

    def test_time_monotonic(self, base):
        def rewind_clock(accel, checker):
            checker._last_now = accel.engine.now + 1
            checker._observe_time()

        checker = run_mutated(*base, post_run=rewind_clock)
        assert fired(checker) == {"time-monotonic"}

    def test_slot_occupancy(self, base):
        def oversubscribe(accel, checker):
            pe = accel.pes[0]
            width = pe.config.execution_width
            inner = pe._start_task  # the checker's wrapper

            def outer(task):
                # Inflate occupancy only while the checker looks at it, so
                # the simulation itself is unaffected.
                pe.slots_used += width
                try:
                    return inner(task)
                finally:
                    pe.slots_used -= width

            pe._start_task = outer

        checker = run_mutated(*base, pre_run=oversubscribe)
        assert fired(checker) == {"slot-occupancy"}

    def test_spawn_conservation(self, base):
        def phantom_spawn(accel, checker):
            checker.children_spawned += 1

        checker = run_mutated(*base, post_run=phantom_spawn)
        # children_spawned feeds both the spawn ledger and the pruning
        # cross-check, so the pruning law may fire alongside.
        assert "spawn-conservation" in fired(checker)
        assert fired(checker) <= {"spawn-conservation", "pruning-conservation"}

    def test_every_code_is_catalogued(self, base):
        mutants = [
            "task-conservation", "spawn-conservation", "pruning-conservation",
            "tree-completion", "match-conservation", "slot-occupancy",
            "cache-accounting", "token-accounting", "noc-conservation",
            "footprint", "time-monotonic",
        ]
        assert set(mutants) == set(VIOLATION_CODES)


@pytest.mark.skipif(not HAS_CEXT, reason="the cext backend did not build here")
class TestMutationsCompiled(TestMutations):
    """Every mutation again, booked by the compiled macro-step core."""

    backend_name = "cext"
