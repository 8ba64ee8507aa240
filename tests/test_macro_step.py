"""Macro-step engine core: differential parity and escape correctness.

The macro-step fast path (``sim/backend/macro.py`` +
``_loops.task_fastpath_loop`` and its compiled mirrors) must be
*bit-identical* to the per-event booking path — not approximately equal:
``repro validate`` and the golden registry diff every metric field.
Three layers enforce it here:

* **Booking parity** — whole simulations, all five policies × both
  golden patterns, macro forced on (interpreted reference loop under
  pure, plus every compiled backend that built) vs the per-event path:
  identical ``RunMetrics`` dicts.
* **Instrumented fallback** — a ``TraceRecorder`` on the PEs must push
  every task down the per-event path (hooks see per-stage behavior)
  while changing no accounted metric.
* **Escape/resume** — a hypothesis-driven fault hook forces escapes at
  random tasks; since escapes replay through the exact slow path,
  any mixture of fast/slow bookings must leave metrics unchanged.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import load_dataset
from repro.patterns import benchmark_schedule
from repro.sim import SimConfig, backend, simulate
from repro.sim.accelerator import Accelerator
from repro.sim.trace import TraceRecorder
from repro.validate.oracle import ORACLE_POLICIES

#: Backends that actually built on this machine (pure is always first).
AVAILABLE = ["pure"] + (
    ["cext"] if backend.available_backends()["cext"][0] else []
)

SCALE = 0.2
PATTERNS = ("tc", "4cl")

CONFIG = SimConfig(backend="pure")


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
                graph,
                schedules[pattern],
                policy=policy,
                config=CONFIG.replace(macro_step=False),
            )
            ref[pattern, policy] = metrics.to_dict()
    return ref


class TestMacroParity:
    """Macro vs per-event: byte-identical metrics on every cell."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    def test_macro_matches_per_event(
        self, graph, schedules, per_event_metrics, pattern, policy
    ):
        for name in AVAILABLE:
            accel = Accelerator(
                graph,
                schedules[pattern],
                CONFIG.replace(backend=name, macro_step=True),
                policy=policy,
            )
            metrics = accel.run()
            assert accel.macro is not None
            cov = accel.macro.coverage()
            assert cov["tasks"] == metrics.tasks_executed
            assert cov["drained"] > 0, f"{name}: fast path never drained"
            assert metrics.to_dict() == per_event_metrics[pattern, policy], (
                f"backend {name} macro-step metrics diverged on "
                f"{pattern}/{policy}"
            )

    def test_macro_auto_resolution(self, graph, schedules):
        """auto = on exactly when the active backend is compiled;
        False pins the per-event path even there."""
        accel = Accelerator(
            graph, schedules["tc"], CONFIG, policy="shogun"
        )
        assert accel.macro is None  # pure + auto: interpreted loop loses
        compiled = [n for n in AVAILABLE if n != "pure"]
        if compiled:
            accel = Accelerator(
                graph,
                schedules["tc"],
                CONFIG.replace(backend=compiled[0]),
                policy="shogun",
            )
            assert accel.macro is not None
            accel = Accelerator(
                graph,
                schedules["tc"],
                CONFIG.replace(backend=compiled[0], macro_step=False),
                policy="shogun",
            )
            assert accel.macro is None


class TestInstrumentedFallback:
    """Recorder/checker hooks force the per-event path, metrics intact."""

    def test_trace_recorder_forces_per_event(
        self, graph, schedules, per_event_metrics
    ):
        accel = Accelerator(
            graph,
            schedules["tc"],
            CONFIG.replace(macro_step=True),
            policy="shogun",
        )
        recorder = TraceRecorder.attach(accel)
        metrics = accel.run()
        counters = accel.macro.counters
        assert counters["instrumented"] == metrics.tasks_executed
        assert counters["fast"] == 0 and counters["partial"] == 0
        assert metrics.to_dict() == per_event_metrics["tc", "shogun"]
        assert recorder.spans  # the hooks really observed the tasks

    def test_uninstrumented_pe_drains_fast(self, graph, schedules):
        accel = Accelerator(
            graph,
            schedules["tc"],
            CONFIG.replace(macro_step=True),
            policy="shogun",
        )
        metrics = accel.run()
        cov = accel.macro.coverage()
        assert cov["tasks"] == metrics.tasks_executed
        assert cov["drained_fraction"] > 0.5


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
        import random

        rng = random.Random(seed)
        accel = Accelerator(
            graph,
            schedules["tc"],
            CONFIG.replace(macro_step=True),
            policy="shogun",
        )
        accel.macro.fault_hook = lambda pe, task: rng.random() < rate
        metrics = accel.run()
        counters = accel.macro.counters
        assert counters["injected"] > 0
        assert metrics.to_dict() == per_event_metrics["tc", "shogun"]

    def test_alternating_escapes(self, graph, schedules, per_event_metrics):
        """Deterministic worst case: every other task escapes."""
        accel = Accelerator(
            graph,
            schedules["4cl"],
            CONFIG.replace(macro_step=True),
            policy="shogun",
        )
        toggle = [False]

        def hook(pe, task):
            toggle[0] = not toggle[0]
            return toggle[0]

        accel.macro.fault_hook = hook
        metrics = accel.run()
        assert accel.macro.counters["injected"] > 0
        assert metrics.to_dict() == per_event_metrics["4cl", "shogun"]
