"""Macro-step engine core: differential parity and escape correctness.

The macro-step core (``sim/backend/macro.py`` over the C fast path
``repro_task_fastpath`` in ``sim/backend/cext.py``) is bound exactly
when the active kernel backend is compiled, and it must be
*bit-identical* to the per-event booking path — not approximately
equal: ``repro validate`` and the golden registry diff every metric
field.  The reference is the same cell under the pure backend, which
books per-event by construction; the macro side runs on cext, so those
tests skip when cext did not build.  Three layers enforce it here:

* **Booking parity** — whole simulations, all five policies × both
  golden patterns, cext macro core vs pure per-event booking:
  identical ``RunMetrics`` dicts.
* **Hooked PEs** — a ``TraceRecorder`` and an ``InvariantChecker`` on
  the PEs observe the macro core without rerouting it: tasks still
  drain compiled, every task is traced, every law holds and no
  accounted metric changes.
* **Escape/resume** — wrapped booking calls force escapes at random
  tasks (``tests/oracles.py`` ``inject_escapes``); since escapes replay
  through the exact slow path, any mixture of fast/slow bookings must
  leave metrics unchanged.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import load_dataset
from repro.patterns import benchmark_schedule
from repro.sim import SimConfig, backend, simulate
from repro.sim.accelerator import Accelerator
from repro.sim.trace import TraceRecorder
from repro.validate import InvariantChecker
from repro.validate.oracle import ORACLE_POLICIES
from tests.oracles import inject_escapes

HAS_CEXT = backend.available_backends()["cext"][0]

needs_cext = pytest.mark.skipif(
    not HAS_CEXT, reason="the cext backend did not build here"
)

SCALE = 0.2
PATTERNS = ("tc", "4cl")

#: The per-event reference; the macro core runs on ``MACRO``.
CONFIG = SimConfig(backend="pure")
MACRO = CONFIG.replace(backend="cext")


@pytest.fixture(autouse=True)
def _restore_backend():
    before = backend.active()
    yield
    backend._install(before)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wi", scale=SCALE)


@pytest.fixture(scope="module")
def schedules():
    return {p: benchmark_schedule(p) for p in PATTERNS}


@pytest.fixture(scope="module")
def per_event_metrics(graph, schedules):
    """Per-event reference metrics for every (pattern, policy) cell."""
    ref = {}
    for pattern in PATTERNS:
        for policy in ORACLE_POLICIES:
            metrics = simulate(
                graph, schedules[pattern], policy=policy, config=CONFIG
            )
            ref[pattern, policy] = metrics.to_dict()
    return ref


class TestMacroParity:
    """Macro vs per-event: byte-identical metrics on every cell."""

    @needs_cext
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    def test_macro_matches_per_event(
        self, graph, schedules, per_event_metrics, pattern, policy
    ):
        accel = Accelerator(graph, schedules[pattern], MACRO, policy=policy)
        metrics = accel.run()
        cov = accel.macro.coverage()
        assert cov["tasks"] == metrics.tasks_executed
        assert cov["drained"] > 0, "fast path never drained"
        assert metrics.to_dict() == per_event_metrics[pattern, policy], (
            f"macro-step metrics diverged on {pattern}/{policy}"
        )

    def test_macro_auto_resolution(self, graph, schedules):
        """The core is bound exactly when the backend is compiled."""
        accel = Accelerator(graph, schedules["tc"], CONFIG, policy="shogun")
        assert accel.macro is None
        assert all(pe._macro is None for pe in accel.pes)
        if HAS_CEXT:
            accel = Accelerator(
                graph, schedules["tc"], MACRO, policy="shogun"
            )
            assert accel.macro is not None
            assert len(accel.macro.books) == len(accel.pes)
            assert all(pe._macro is accel.macro for pe in accel.pes)


@needs_cext
class TestInstrumentedFallback:
    """Recorder/checker hooks ride the macro core; nothing falls back."""

    def test_hooks_observe_the_macro_core(
        self, graph, schedules, per_event_metrics
    ):
        accel = Accelerator(graph, schedules["tc"], MACRO, policy="shogun")
        recorder = TraceRecorder.attach(accel)
        checker = InvariantChecker.attach(accel)
        metrics = accel.run()
        checker.finalize(metrics)
        counters = accel.macro.counters
        assert counters["fast"] + counters["partial"] > 0
        assert checker.ok, checker.report()
        assert len(recorder.spans) == metrics.tasks_executed
        assert metrics.to_dict() == per_event_metrics["tc", "shogun"]

    def test_uninstrumented_pe_drains_fast(self, graph, schedules):
        accel = Accelerator(graph, schedules["tc"], MACRO, policy="shogun")
        metrics = accel.run()
        cov = accel.macro.coverage()
        assert cov["tasks"] == metrics.tasks_executed
        assert cov["drained_fraction"] > 0.5


@needs_cext
class TestEscapeResume:
    """Random escape points resume without dropping or reordering work."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_random_fault_injection_is_invisible(
        self, graph, schedules, per_event_metrics, seed, rate
    ):
        rng = random.Random(seed)
        accel = Accelerator(graph, schedules["tc"], MACRO, policy="shogun")
        injected = inject_escapes(accel, lambda: rng.random() < rate)
        metrics = accel.run()
        assert injected[0] > 0
        assert accel.macro.coverage()["tasks"] == metrics.tasks_executed
        assert metrics.to_dict() == per_event_metrics["tc", "shogun"]

    def test_alternating_escapes(self, graph, schedules, per_event_metrics):
        """Deterministic worst case: every other task escapes."""
        accel = Accelerator(graph, schedules["4cl"], MACRO, policy="shogun")
        toggle = [False]

        def every_other():
            toggle[0] = not toggle[0]
            return toggle[0]

        injected = inject_escapes(accel, every_other)
        metrics = accel.run()
        assert injected[0] > 0
        assert metrics.to_dict() == per_event_metrics["4cl", "shogun"]
