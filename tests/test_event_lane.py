"""The compiled event lane: its queue contract and whole-run parity.

Under a compiled backend a Shogun accelerator drains through the event
lane (``repro_lane_drain`` in ``sim/backend/cext.py``, driven by
``EventLane`` in ``sim/backend/engine_loop.py``): the time queue lives
in C and leaf tasks complete, re-dispatch and re-book there.  Two
layers hold it to the Python reference:

* **Queue contract** — random ``at``/``after``/``post`` streams
  (same-time storms, callbacks scheduling at ``now``, ``until``
  cut-offs, a raising callback) run on a bare C queue and on a Python
  :class:`Engine` drained one event at a time by ``legacy_drain``:
  identical event order, clock and ``pending()`` at every step.
* **Whole runs** — pure and cext simulations agree on ``RunMetrics``
  for every benchmark schedule under Shogun, FINGERS, DFS and BFS, and
  on every ``TraceRecorder`` span and ``InvariantChecker`` count with
  both attached, across configurations that hand events back to Python
  (Shogun: epoch boundaries, merging, splitting, static dispatch, a
  pinned conservative mode; pseudo-DFS: vertex misses, partial groups,
  static dispatch, one PE).

Skipped when the cext backend did not build.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.graph import erdos_renyi_gnm
from repro.patterns import benchmark_schedule, benchmark_schedules
from repro.sim import Engine, SimConfig, backend
from repro.sim.accelerator import Accelerator
from repro.sim.backend.engine_loop import LANE_COUNTERS, EventLane
from repro.sim.pe import PE, LanePE
from repro.sim.trace import TraceRecorder
from repro.validate import InvariantChecker
from tests.oracles import legacy_drain, unbind_macro

HAS_CEXT = backend.available_backends()["cext"][0]

pytestmark = pytest.mark.skipif(
    not HAS_CEXT, reason="the cext backend did not build here"
)


@pytest.fixture(autouse=True)
def _restore_backend():
    before = backend.active()
    yield
    backend._install(before)


# ----------------------------------------------------------------------
# queue contract
# ----------------------------------------------------------------------

class _Owner:
    def __init__(self, log, engine):
        self.log = log
        self.engine = engine

    def dispatch_event(self, payload):
        payload()


def _c_engine() -> Engine:
    engine = Engine()
    EventLane(engine, backend._get_instance("cext").lane_bind())
    return engine


#: One scheduled event: (time offset, shape, fan-out, child delay).
EVENT = st.tuples(
    st.sampled_from((0, 0, 0, 1, 2, 3.5, 7)),
    st.sampled_from(("at", "after", "post")),
    st.integers(0, 3),
    st.sampled_from((0, 0, 1, 2.5)),
)


def _program(engine, log, events, boom):
    """Schedule ``events`` on ``engine``; each run logs ``(tag, now,
    pending())`` and schedules its fan-out (up to depth 2); the
    ``boom``-th executed event raises."""
    owner = _Owner(log, engine)
    executed = [0]

    def schedule(tag, shape, time, fanout, delay, depth):
        def run():
            log.append((tag, engine.now, engine.pending()))
            executed[0] += 1
            if executed[0] == boom:
                raise RuntimeError(tag)
            if depth < 2:
                for i in range(fanout):
                    schedule(f"{tag}.{i}", shape, engine.now + delay,
                             fanout - i, delay, depth + 1)

        if shape == "at":
            engine.at(time, run)
        elif shape == "after":
            engine.after(time - engine.now, run)
        else:
            engine.post(time, owner, run)

    for i, (time, shape, fanout, delay) in enumerate(events):
        schedule(str(i), shape, time, fanout, delay, 0)


def _drive(engine, drain, events, boom, until):
    """Run a program to the end, ``until`` first; returns what it saw."""
    log = []
    _program(engine, log, events, boom)
    seen = []
    for bound in (until, None):
        try:
            executed = drain(engine, bound)
        except RuntimeError as exc:
            executed = f"raised {exc}"
        seen.append((list(log), executed, engine.now, engine.pending()))
    return seen


class TestQueueContract:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        events=st.lists(EVENT, min_size=1, max_size=12),
        boom=st.none() | st.integers(1, 40),
        until=st.none() | st.sampled_from((0, 1, 2.5, 4)),
    )
    def test_c_queue_matches_legacy_drain(self, events, boom, until):
        c_side = _drive(
            _c_engine(), lambda e, u: e.run(until=u), events, boom, until
        )
        legacy = _drive(
            Engine(), lambda e, u: legacy_drain(e, 10**9, until=u),
            events, boom, until,
        )
        assert c_side == legacy

    def test_same_time_storm_runs_in_scheduling_order(self):
        engine = _c_engine()
        log = []
        for tag in range(50):
            engine.at(3, lambda t=tag: log.append(t))
        engine.at(3, lambda: engine.after(0, lambda: log.append("late")))
        assert engine.run() == 52
        assert log == list(range(50)) + ["late"]
        assert engine.now == 3.0 and engine.pending() == 0

    def test_rejects_past_times_and_negative_delays(self):
        engine = _c_engine()
        engine.at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.post(1.0, _Owner([], engine), lambda: None)
        with pytest.raises(SimulationError):
            engine.after(-1, lambda: None)

    def test_queue_grows_past_its_initial_size(self):
        engine = _c_engine()
        log = []
        for i in range(5000):
            engine.at(float(i % 97), lambda i=i: log.append(i))
        assert engine.pending() == 5000
        engine.run()
        assert len(log) == 5000
        assert log == sorted(log, key=lambda i: (i % 97, i))


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------

SCHEDULES = benchmark_schedules()

#: The policies whose accelerators bind the lane under cext.
LANE_POLICIES = ("shogun", "fingers", "pseudo-dfs", "dfs")

#: Configurations whose runs hand the lane's events back to Python.
CONFIGS = {
    "default": {},
    "small-l1": {"l1_kb": 1, "l2_kb": 64},
    "epochs": {"monitor_epoch_cycles": 64, "l1_kb": 1},
    "merging": {"enable_merging": True},
    "splitting": {"enable_splitting": True, "lb_check_interval": 50, "num_pes": 6},
    "static": {"root_dispatch": "static", "execution_width": 3},
    "conservative": {"conservative_override": True, "tokens_per_depth": 2},
}

#: Configurations whose pseudo-DFS runs hand the lane's events back:
#: vertex-line misses (the rest of a pass), groups narrower than the
#: parent's children (several chunks per leaf level), static root
#: dispatch and a single PE; merging, which only Shogun acts on, must
#: leave the lane running.
PSEUDO_DFS_CONFIGS = {
    "default": {},
    "small-l1": {"l1_kb": 1, "l2_kb": 64},
    "width-3": {"execution_width": 3},
    "static": {"root_dispatch": "static", "execution_width": 3},
    "one-pe": {"num_pes": 1, "l1_kb": 1},
    "merging": {"enable_merging": True},
}


def _run(graph, schedule, policy, backend_name, overrides, observe=False):
    config = SimConfig(**dict({"num_pes": 4, "backend": backend_name}, **overrides))
    accel = Accelerator(graph, schedule, config, policy)
    recorder = checker = None
    if observe:
        recorder = TraceRecorder.attach(accel)
        checker = InvariantChecker.attach(accel)
    metrics = accel.run()
    if checker is not None:
        checker.finalize(metrics)
    return accel, metrics, recorder, checker


def _counts(checker):
    return (
        checker.tasks_started, checker.tasks_completed,
        checker.executed_per_depth, checker.matches_seen,
        checker.children_spawned, checker.roots_added,
        checker.tree_completions, checker.vertex_lines,
    )


def _l1_state(accel):
    """Every L1's tags and LRU stamps: which lines each vertex fetch
    touched, and in what order."""
    return [(c._tags.tolist(), c._stamps.tolist()) for c in accel.memory.l1s]


def _observed_parity(graph, pattern, policy, overrides):
    """Pure and cext runs with a recorder and a checker attached agree
    on metrics, spans, checker counts and L1 state; returns the cext
    run's lane counters."""
    schedule = benchmark_schedule(pattern)
    runs = {}
    for backend_name in ("pure", "cext"):
        accel, metrics, recorder, checker = _run(
            graph, schedule, policy, backend_name, overrides, observe=True,
        )
        assert checker.ok, checker.report()
        runs[backend_name] = (
            metrics.to_dict(), recorder.spans, _counts(checker),
            _l1_state(accel),
        )
    assert runs["cext"] == runs["pure"], pattern
    assert len(runs["cext"][1]) == runs["cext"][0]["tasks_executed"]
    return accel.lane.counters()


class TestWholeRuns:
    @settings(max_examples=2, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(20, 32),
        degree=st.integers(2, 4),
    )
    def test_metrics_match_pure(self, seed, n, degree):
        graph = erdos_renyi_gnm(n, degree * n, seed=seed, name="er")
        for schedule in SCHEDULES:
            for policy in ("shogun", "fingers", "dfs", "bfs"):
                ref = _run(graph, schedule, policy, "pure", {})[1]
                accel, metrics, _, _ = _run(graph, schedule, policy, "cext", {})
                assert (accel.lane is not None) == (policy != "bfs")
                assert metrics.to_dict() == ref.to_dict(), (
                    schedule.name, policy,
                )

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_spans_and_invariants_match_pure(self, name):
        graph = erdos_renyi_gnm(36, 150, seed=3, name="er36")
        for pattern in ("tc", "tt_e", "4cl"):
            _observed_parity(graph, pattern, "shogun", CONFIGS[name])

    @pytest.mark.parametrize("name", sorted(PSEUDO_DFS_CONFIGS))
    def test_pseudo_dfs_spans_and_invariants_match_pure(self, skewed_graph, name):
        for pattern in ("tc", "tt_e", "4cyc_v"):
            lane = _observed_parity(
                skewed_graph, pattern, "fingers", PSEUDO_DFS_CONFIGS[name]
            )
            assert lane["completed"] > 0 or pattern == "tc", pattern

    def test_a_full_span_ring_hands_back_and_loses_nothing(self):
        _full_ring_run("shogun")

    def test_a_full_pseudo_dfs_span_ring_loses_nothing(self):
        _full_ring_run("fingers")


def _full_ring_run(policy):
    """A ring with room for one dispatch pass: the drain returns "ring
    full" between lane events and the recorder drains it."""
    graph = erdos_renyi_gnm(36, 150, seed=3, name="er36")
    schedule = benchmark_schedule("tt_e")
    ref = _run(graph, schedule, policy, "pure", {}, observe=True)[2]
    accel = Accelerator(graph, schedule, SimConfig(num_pes=4, backend="cext"), policy)
    width = accel.config.execution_width
    lane = accel.lane
    lane._ring = lane.ops.attach_ring(width + 1)
    batches = []
    lane._sinks.append(lambda ints, times, n: batches.append(n))
    recorder = TraceRecorder.attach(accel)
    accel.run()
    counters = lane.counters()
    # Unbounded, one batch reaches dozens of records on this run.
    assert max(batches) <= width + 1
    assert sum(batches) == counters["fast"] + counters["completed"]
    assert recorder.spans == ref.spans


#: A lane counter corrupted after the run -> the one law it feeds.
LANE_MUTATIONS = (
    ("fast", {"task-conservation"}),
    ("completed_twice", {"task-conservation"}),
    ("slot_violations", {"slot-occupancy"}),
    ("vertex_lines", {"cache-accounting"}),
    ("regressions", {"time-monotonic"}),
)


class TestCheckerReadsTheLane:
    @pytest.mark.parametrize("counter,law", LANE_MUTATIONS, ids=lambda v: str(v))
    def test_corrupted_lane_counter_fires_its_law(self, small_er, counter, law):
        accel = Accelerator(
            small_er, benchmark_schedule("tt_e"), SimConfig(num_pes=2, backend="cext"), "shogun"
        )
        checker = InvariantChecker.attach(accel)
        metrics = accel.run()
        assert accel.lane.counters()["fast"] > 0
        ops = accel.lane.ops
        if counter == "regressions":
            ops.qs[2] += 1
        else:
            ops.stat[LANE_COUNTERS.index(counter)] += 1
        checker.finalize(metrics)
        assert {v.code for v in checker.violations} == law


class TestBinding:
    def test_lane_binds_exactly_for_compiled_shogun_and_pseudo_dfs(
        self, small_er, sched_tc
    ):
        for policy in ("shogun", "fingers", "pseudo-dfs", "dfs", "bfs", "parallel-dfs"):
            for name in ("pure", "cext"):
                accel = Accelerator(
                    small_er, sched_tc, SimConfig(num_pes=2, backend=name), policy
                )
                lane = name == "cext" and policy in LANE_POLICIES
                assert (accel.lane is not None) == lane
                assert (accel.engine._lane is not None) == lane
                assert all(type(pe) is (LanePE if lane else PE) for pe in accel.pes)

    def test_leaves_drain_in_c(self, small_er):
        accel = Accelerator(
            small_er, benchmark_schedule("tt_e"), SimConfig(num_pes=2, backend="cext"), "shogun"
        )
        metrics = accel.run()
        lane = accel.lane.counters()
        assert lane["completed"] > 0 and lane["fast"] >= lane["completed"]
        assert lane["regressions"] == lane["slot_violations"] == 0
        coverage = accel.macro.coverage()
        assert coverage["tasks"] == metrics.tasks_executed
        assert sum(accel.macro.counters.values()) + lane["fast"] == metrics.tasks_executed

    @pytest.mark.parametrize("l1_kb", (1, 32))
    def test_lane_books_what_the_macro_core_would(self, medium_er, l1_kb):
        coverage = _lane_vs_macro(medium_er, "shogun", l1_kb)
        assert coverage["counters"]["vertex_miss"] > 0 or l1_kb == 32

    @pytest.mark.parametrize("l1_kb", (1, 32))
    @pytest.mark.parametrize("policy", ("fingers", "dfs"))
    def test_pseudo_dfs_lane_books_what_the_macro_core_would(
        self, skewed_graph, policy, l1_kb
    ):
        coverage = _lane_vs_macro(skewed_graph, policy, l1_kb)
        # DFS reads its parent's set line by line and never misses.
        misses = coverage["counters"]["vertex_miss"]
        assert misses > 0 or l1_kb == 32 or policy == "dfs"

    def test_pseudo_dfs_leaves_drain_in_c(self, medium_er):
        accel = Accelerator(
            medium_er, benchmark_schedule("tt_e"),
            SimConfig(num_pes=2, backend="cext"), "fingers",
        )
        metrics = accel.run()
        lane = accel.lane.counters()
        leaves = metrics.tasks_per_depth[-1]
        # Only a level's last completion returns to Python.
        assert lane["completed"] > leaves // 2
        assert lane["fast"] >= lane["completed"]
        assert lane["regressions"] == lane["slot_violations"] == 0
        assert lane["completed_twice"] == 0

    def test_unbinding_restores_the_python_queue(self, small_er, sched_4cl):
        ref = _run(small_er, sched_4cl, "shogun", "pure", {})[1]
        accel = Accelerator(
            small_er, sched_4cl, SimConfig(num_pes=4, backend="cext"), "shogun"
        )
        unbind_macro(accel)
        assert accel.lane is None and accel.engine._lane is None
        for name in ("at", "after", "post", "pending"):
            assert name not in accel.engine.__dict__
        assert all("kick" not in pe.__dict__ for pe in accel.pes)
        assert accel.run().to_dict() == ref.to_dict()


def _lane_vs_macro(graph, policy, l1_kb):
    """The same tt_e run with and without the lane: the lane must
    fast-book exactly the leaves MacroCore.start would (vertex misses
    and all), so metrics and coverage match counter for counter.
    Returns the coverage."""
    runs = []
    for lane in (True, False):
        accel = Accelerator(
            graph, benchmark_schedule("tt_e"),
            SimConfig(num_pes=4, backend="cext", l1_kb=l1_kb), policy,
        )
        if not lane:
            accel.lane.unbind()
            accel.lane = None
        metrics = accel.run()
        runs.append((metrics.to_dict(), accel.macro.coverage()))
    assert runs[0] == runs[1]
    assert runs[0][1]["tasks"] == runs[0][0]["tasks_executed"]
    return runs[0][1]
