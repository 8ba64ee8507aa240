"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine
from tests.oracles import legacy_drain


class TestScheduling:
    def test_time_order(self):
        engine = Engine()
        log = []
        engine.at(5, lambda: log.append("b"))
        engine.at(2, lambda: log.append("a"))
        engine.at(9, lambda: log.append("c"))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        engine = Engine()
        log = []
        for tag in "abc":
            engine.at(1, lambda t=tag: log.append(t))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_after(self):
        engine = Engine()
        seen = []
        engine.at(10, lambda: engine.after(5, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [15]

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.at(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.after(-1, lambda: None)

    def test_zero_delay_runs_same_time(self):
        engine = Engine()
        log = []
        engine.at(3, lambda: engine.after(0, lambda: log.append(engine.now)))
        engine.run()
        assert log == [3]


class TestRunControl:
    def test_until(self):
        engine = Engine()
        log = []
        engine.at(1, lambda: log.append(1))
        engine.at(100, lambda: log.append(100))
        engine.run(until=50)
        assert log == [1]
        assert engine.pending() == 1

    def test_cascading_events(self):
        engine = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10:
                engine.after(1, tick)

        engine.after(1, tick)
        engine.run()
        assert count[0] == 10
        assert engine.now == 10

    def test_empty_run(self):
        engine = Engine()
        assert engine.run() == 0
        assert engine.now == 0.0


class TestDeterminism:
    """Regression tests pinning event order across runs and drain loops."""

    @staticmethod
    def _storm(engine, log):
        """A same-cycle-heavy workload: cascading callbacks that schedule
        zero-delay and future events from inside the drain loop."""
        def emit(tag):
            log.append((engine.now, tag))
            if len(tag) < 3:
                engine.after(0, lambda: emit(tag + "x"))
                engine.after(3, lambda: emit(tag + "y"))

        for start, tag in ((2, "a"), (2, "b"), (5, "c"), (11, "d")):
            engine.at(start, lambda t=tag: emit(t))

    def test_event_order_identical_across_runs(self):
        logs = []
        for _ in range(2):
            engine = Engine()
            log = []
            self._storm(engine, log)
            engine.run()
            logs.append(log)
        assert logs[0] == logs[1]
        assert len(logs[0]) > 10  # the storm actually cascaded

    def test_coalesced_and_legacy_loops_agree(self):
        # Engine.run takes the same-cycle coalescing drain loop; the
        # oracle drains one event at a time.  Both must produce the
        # identical (time, tag) sequence, event count and final clock.
        runs = []
        for drain in (lambda e: e.run(), lambda e: legacy_drain(e, 10_000)):
            engine = Engine()
            log = []
            self._storm(engine, log)
            executed = drain(engine)
            runs.append((log, executed, engine.now))
        assert runs[0] == runs[1]

    def test_coalesced_until_boundary_matches_legacy(self):
        runs = []
        for drain in (
            lambda e: e.run(until=5),
            lambda e: legacy_drain(e, 10_000, until=5),
        ):
            engine = Engine()
            log = []
            self._storm(engine, log)
            executed = drain(engine)
            runs.append((log, executed, engine.now, engine.pending()))
        assert runs[0] == runs[1]
