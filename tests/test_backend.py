"""Tests for the kernel backend layer (repro.sim.backend).

Selection and fallback rules, instrumentation, the typed-event engine
path the backends share, and the config/CLI surface.  Numerical parity
across backends lives in ``tests/test_backend_parity.py``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.mining import setops
from repro.sim import SimConfig
from repro.sim import backend
from repro.sim.backend.compiled import BackendUnavailable
from repro.sim.engine import Engine


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-global backend as it found it."""
    before = backend.active()
    yield
    backend._install(before)


def _arr(*values):
    return np.asarray(values, dtype=np.int64)


class TestSelection:
    def test_resolve_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "pure")
        assert backend.resolve_name("cext") == "cext"

    def test_resolve_env_wins_over_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "pure")
        assert backend.resolve_name(None) == "pure"

    def test_resolve_defaults_to_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend.resolve_name(None) == "auto"

    def test_unknown_env_value_warns_and_uses_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        backend._warned.clear()
        with pytest.warns(RuntimeWarning, match="fortran"):
            assert backend.resolve_name(None) == "auto"

    def test_numba_env_warns_once_and_uses_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        backend._warned.clear()
        with pytest.warns(RuntimeWarning, match="numba"):
            assert backend.resolve_name(None) == "auto"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backend.resolve_name(None) == "auto"

    def test_activate_pure_installs_pure(self):
        kernels = backend.activate("pure")
        assert kernels.name == "pure"
        assert not kernels.compiled
        assert backend.active() is kernels
        # The setops dispatchers are rebound with the kernel set.
        assert setops._intersect_impl is kernels.intersect
        assert setops._subtract_impl is kernels.subtract
        assert setops._intersect_multi_impl is kernels.intersect_multi

    def test_auto_picks_first_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        kernels = backend.activate("auto")
        availability = backend.available_backends()
        expected = next(
            name for name in backend.AUTO_ORDER if availability[name][0]
        )
        assert kernels.name == expected

    def test_unavailable_backend_falls_back_with_warning(self, monkeypatch):
        def refuse(name):
            if name == "cext":
                raise BackendUnavailable("synthetic outage")
            return real_get(name)

        real_get = backend._get_instance
        monkeypatch.setattr(backend, "_get_instance", refuse)
        backend._warned.clear()
        with pytest.warns(RuntimeWarning, match="cext"):
            kernels = backend.activate("cext")
        assert kernels.name == "pure"

    def test_pure_always_available(self):
        availability = backend.available_backends()
        assert availability["pure"][0] is True

    def test_failure_details_are_reported(self):
        for name, (ok, detail) in backend.available_backends().items():
            assert isinstance(detail, str) and detail


class TestInstrument:
    def test_counts_calls_and_restores(self):
        kernels = backend.activate("pure")
        a = _arr(1, 2, 3, 5)
        b = _arr(2, 3, 4)
        with backend.instrument() as stats:
            setops.intersect(a, b)
            setops.intersect(a, b)
            setops.subtract(a, b)
        assert stats["intersect"][0] == 2
        assert stats["subtract"][0] == 1
        assert stats["intersect"][1] >= 0.0
        # Wrappers removed: the dispatchers are the originals again.
        assert setops._intersect_impl is kernels.intersect

    def test_empty_operands_bypass_the_kernel(self):
        backend.activate("pure")
        with backend.instrument() as stats:
            setops.intersect(_arr(), _arr(1, 2))
        assert stats["intersect"][0] == 0


class TestConfigKnob:
    def test_default_is_none(self):
        assert SimConfig().backend is None

    @pytest.mark.parametrize("name", ["auto", "pure", "cext"])
    def test_valid_names_accepted(self, name):
        assert SimConfig(backend=name).backend == name

    def test_numba_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            SimConfig(backend="numba")

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            SimConfig(backend="fortran")

    def test_config_backend_activates_at_construction(self, tiny_graph, monkeypatch):
        from repro.patterns import benchmark_schedule
        from repro.sim.accelerator import Accelerator

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        config = SimConfig(num_pes=1, backend="pure")
        Accelerator(tiny_graph, benchmark_schedule("tc"), config, "shogun")
        assert backend.active().name == "pure"


class _Sink:
    """Typed-event owner recording how dispatch reached it."""

    def __init__(self, order=None):
        self.single = []
        self.batches = []
        self.order = [] if order is None else order

    def dispatch_event(self, payload):
        self.single.append(payload)
        self.order.append(payload)

    def dispatch_events(self, payloads):
        self.batches.append(list(payloads))


class TestTypedEvents:
    def test_post_runs_through_owner(self):
        engine = Engine()
        sink = _Sink()
        engine.post(1.0, sink, "a")
        engine.run()
        assert sink.single == ["a"]
        assert sink.batches == []

    def test_consecutive_same_owner_events_batch(self):
        """Same-owner events in one bucket still dispatch singly, in FIFO order."""
        engine = Engine()
        sink = _Sink()
        for payload in ("a", "b", "c"):
            engine.post(2.0, sink, payload)
        engine.run()
        assert sink.single == ["a", "b", "c"]
        assert sink.batches == []

    def test_mixed_bucket_preserves_fifo_order(self):
        engine = Engine()
        order = []
        sink, other = _Sink(order), _Sink(order)
        engine.post(1.0, sink, 1)
        engine.post(1.0, sink, 2)
        engine.at(1.0, lambda: order.append("call"))
        engine.post(1.0, sink, 3)
        engine.post(1.0, other, 4)
        engine.run()
        # Two owners and a callable share one FIFO order.
        assert order == [1, 2, "call", 3, 4]
        assert sink.single == [1, 2, 3]
        assert other.single == [4]
        assert sink.batches == other.batches == []

    def test_post_rejects_past_times(self):
        engine = Engine()
        engine.at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.post(1.0, _Sink(), "late")


class TestPendingCounter:
    def test_counts_all_event_shapes(self):
        engine = Engine()
        engine.at(1.0, lambda: None)
        engine.after(2.0, lambda: None)
        engine.post(3.0, _Sink(), "x")
        assert engine.pending() == 3
        engine.run()
        assert engine.pending() == 0

    def test_events_scheduled_during_drain_counted(self):
        engine = Engine()

        def chain():
            engine.after(1.0, lambda: None)

        engine.at(1.0, chain)
        engine.run(until=1.0)
        assert engine.pending() == 1

    def test_exception_drops_bucket_consistently(self):
        engine = Engine()

        def boom():
            raise RuntimeError("boom")

        engine.at(1.0, boom)
        engine.at(1.0, lambda: None)  # dropped with its bucket
        engine.at(2.0, lambda: None)  # later timestamps stay queued
        with pytest.raises(RuntimeError):
            engine.run()
        assert engine.pending() == 1


class TestInstrumentedDispatchFallback:
    def test_wrapped_complete_task_sees_every_event(self, tiny_graph):
        """A ``_complete_task`` hook on the instance sees every completion."""
        from repro.patterns import benchmark_schedule
        from repro.sim.accelerator import Accelerator

        accel = Accelerator(
            tiny_graph, benchmark_schedule("tc"), SimConfig(num_pes=1), "shogun"
        )
        pe = accel.pes[0]
        seen = []
        original = pe._complete_task
        pe._complete_task = lambda task: (seen.append(task), original(task))[1]
        metrics = accel.run()
        assert len(seen) == metrics.tasks_executed
