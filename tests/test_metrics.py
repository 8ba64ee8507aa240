"""Unit tests for metrics containers and aggregation helpers."""

import pytest

from repro.sim import PEMetrics, RunMetrics, geomean


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geomean([3.0]) == 3.0

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geomean([0.0, -1.0, 4.0]) == 4.0

    def test_identity(self):
        assert geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)


class TestRunMetrics:
    def test_speedup_over(self):
        fast = RunMetrics(policy="a", cycles=50.0)
        slow = RunMetrics(policy="b", cycles=100.0)
        assert fast.speedup_over(slow) == pytest.approx(2.0)
        assert slow.speedup_over(fast) == pytest.approx(0.5)

    def test_speedup_zero_cycles(self):
        zero = RunMetrics(policy="a", cycles=0.0)
        other = RunMetrics(policy="b", cycles=10.0)
        assert zero.speedup_over(other) == float("inf")

    def test_summary_contains_key_numbers(self):
        m = RunMetrics(policy="shogun", cycles=123.0, matches=7)
        text = m.summary()
        assert "shogun" in text and "123" in text and "7" in text

    def test_default_collections(self):
        m = RunMetrics(policy="x")
        assert m.per_pe == []
        assert m.extra == {}


class TestPEMetrics:
    def test_hit_rate(self):
        pm = PEMetrics(pe_id=0, l1_hits=3, l1_misses=1)
        assert pm.l1_hit_rate == pytest.approx(0.75)

    def test_hit_rate_no_accesses(self):
        assert PEMetrics(pe_id=0).l1_hit_rate == 0.0


class TestSerialization:
    def _run(self) -> RunMetrics:
        return RunMetrics(
            policy="shogun",
            cycles=1234.5,
            matches=42,
            split_rounds=3,
            extra={"custom": 1.5},
            per_pe=[
                PEMetrics(pe_id=0, tasks_executed=10, l1_hits=9, l1_misses=1),
                PEMetrics(pe_id=1, iu_utilization=0.5, token_stalls=2),
            ],
        )

    def test_round_trip_equality(self):
        original = self._run()
        assert RunMetrics.from_dict(original.to_dict()) == original

    def test_round_trip_through_json(self):
        import json

        original = self._run()
        rebuilt = RunMetrics.from_dict(json.loads(json.dumps(original.to_dict())))
        assert rebuilt == original
        assert rebuilt.per_pe[0].l1_hit_rate == pytest.approx(0.9)

    def test_pe_metrics_round_trip(self):
        pm = PEMetrics(pe_id=3, busy_slot_cycles=7.5, conservative_entries=2)
        assert PEMetrics.from_dict(pm.to_dict()) == pm

    def test_unknown_keys_ignored(self):
        data = self._run().to_dict()
        data["added_in_future_version"] = 99
        data["per_pe"][0]["novel_counter"] = 1
        rebuilt = RunMetrics.from_dict(data)
        assert rebuilt.matches == 42

    def test_repeated_round_trips_are_exact(self):
        # from_dict resolves each class's field names once; every later
        # call must rebuild the same objects, every field included.
        import dataclasses

        original = self._run()
        data = original.to_dict()
        for _ in range(3):
            rebuilt = RunMetrics.from_dict(data)
            assert rebuilt == original
            assert rebuilt.to_dict() == data
        assert {f.name for f in dataclasses.fields(RunMetrics)} == set(data)
