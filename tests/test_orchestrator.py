"""Tests for the parallel experiment orchestrator and its result cache.

Covers the acceptance criteria: identical results serial vs. jobs=2,
100% cache hits on a repeated run, cache invalidation on SimConfig
changes, and worker failures landing in the failure report without
killing the sweep.
"""

import pytest

from repro.experiments import clear_run_cache, eval_config, figure3a
from repro.orchestrator import (
    CellSpec,
    Orchestrator,
    ResultCache,
    attach_persistent_cache,
    cell_key,
    plan_experiment,
)
from repro.orchestrator import scheduler as scheduler_module

SCALE = 0.12
OVERRIDES = {"figure3a": {"widths": (1, 2)}}  # 4 cells, fast


@pytest.fixture(autouse=True)
def _clean_memo():
    clear_run_cache()
    yield
    clear_run_cache()


def _spec(**changes) -> CellSpec:
    base = dict(
        dataset="wi", pattern="tc", policy="shogun",
        scale=SCALE, config=eval_config(), verify=True,
    )
    base.update(changes)
    return CellSpec(**base)


class TestCellKeys:
    def test_stable_for_equal_specs(self):
        assert cell_key(_spec()) == cell_key(_spec())

    def test_config_field_changes_key(self):
        assert cell_key(_spec()) != cell_key(_spec(config=eval_config(l1_kb=4)))

    def test_coordinates_change_key(self):
        assert cell_key(_spec()) != cell_key(_spec(policy="fingers"))
        assert cell_key(_spec()) != cell_key(_spec(scale=SCALE * 2))

    def test_salt_changes_key(self, monkeypatch):
        from repro.orchestrator.cells import code_salt

        base = cell_key(_spec())
        monkeypatch.setenv("REPRO_CACHE_SALT", "different-code-version")
        code_salt.cache_clear()
        try:
            assert cell_key(_spec()) != base
        finally:
            monkeypatch.delenv("REPRO_CACHE_SALT")
            code_salt.cache_clear()

    def test_key_and_label_match_the_uncached_formula(self, monkeypatch):
        # Keys and labels resolve the config's fields and fingerprint once
        # per config; they must stay byte-identical to the direct formula.
        import dataclasses
        import hashlib
        import json

        from repro.orchestrator.cells import code_salt

        def fields(config):
            return {
                f.name: getattr(config, f.name)
                for f in dataclasses.fields(config)
            }

        def old_key(spec):
            payload = {
                "dataset": spec.dataset, "pattern": spec.pattern,
                "policy": spec.policy, "scale": repr(spec.scale),
                "verify": spec.verify, "config": fields(spec.config),
                "salt": code_salt(),
            }
            blob = json.dumps(payload, sort_keys=True, default=repr)
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()

        def old_label(spec):
            fingerprint = hashlib.sha256(
                json.dumps(fields(spec.config), sort_keys=True, default=repr).encode()
            ).hexdigest()[:6]
            return (
                f"{spec.dataset}-{spec.pattern}/{spec.policy}"
                f"@{spec.scale:g}+cfg:{fingerprint}"
            )

        monkeypatch.setenv("REPRO_CACHE_SALT", "pinned-for-the-key-test")
        code_salt.cache_clear()
        try:
            configs = (
                eval_config(),
                eval_config(l1_kb=4, conservative_override=True),
                eval_config(execution_width=2, enable_splitting=True),
            )
            for config in configs:
                for policy in ("shogun", "fingers"):
                    for _ in range(2):  # cold, then cached
                        spec = _spec(config=config, policy=policy)
                        assert cell_key(spec) == old_key(spec)
                        assert spec.label() == old_label(spec)
        finally:
            monkeypatch.delenv("REPRO_CACHE_SALT")
            code_salt.cache_clear()


class TestPlanning:
    def test_figure3a_plan(self):
        plan = plan_experiment("figure3a", SCALE, OVERRIDES["figure3a"])
        assert len(plan) == 4  # 2 widths x 2 policies
        assert all(isinstance(s, CellSpec) for s in plan.values())

    def test_direct_experiments_plan_empty(self):
        assert plan_experiment("table3", SCALE) == {}

    def test_planning_does_not_pollute_memo(self):
        from repro.experiments.runner import _RUNS

        plan_experiment("figure3a", SCALE, OVERRIDES["figure3a"])
        assert not _RUNS

    def test_figures_9_and_10_deduplicate(self):
        grid = {"grid": [("wi", "tc")]}
        nine = plan_experiment("figure9", SCALE, grid)
        ten = plan_experiment("figure10", SCALE, grid)
        assert set(ten) <= set(nine)  # figure10's shogun runs are a subset


class TestParallelEquivalence:
    def test_jobs2_matches_serial_render(self, tmp_path):
        serial = figure3a(widths=(1, 2), scale=SCALE).render()
        clear_run_cache()
        orch = Orchestrator(jobs=2, cache=ResultCache(tmp_path / "cache"))
        run = orch.run_experiments(["figure3a"], scale=SCALE, overrides=OVERRIDES)
        assert run.ok
        assert run.rendered["figure3a"] == serial

    def test_pool_unavailable_falls_back_in_process(self, tmp_path, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", broken_pool)
        serial = figure3a(widths=(1, 2), scale=SCALE).render()
        clear_run_cache()
        orch = Orchestrator(jobs=2, cache=ResultCache(tmp_path / "cache"))
        run = orch.run_experiments(["figure3a"], scale=SCALE, overrides=OVERRIDES)
        assert run.ok
        assert run.rendered["figure3a"] == serial


class TestPersistentCache:
    def test_second_run_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = Orchestrator(jobs=1, cache=cache).run_experiments(
            ["figure3a"], scale=SCALE, overrides=OVERRIDES
        )
        assert first.manifest.computed == first.manifest.total == 4
        clear_run_cache()
        second = Orchestrator(jobs=1, cache=cache).run_experiments(
            ["figure3a"], scale=SCALE, overrides=OVERRIDES
        )
        assert second.manifest.cached == second.manifest.total == 4
        assert second.manifest.computed == 0
        assert second.rendered["figure3a"] == first.rendered["figure3a"]

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        orch = Orchestrator(cache=cache)
        spec_a = _spec()
        key_a = cell_key(spec_a)
        orch.run_cells({key_a: spec_a})
        spec_b = _spec(config=eval_config(l1_kb=4))
        key_b = cell_key(spec_b)
        assert key_b != key_a
        results, failures = orch.run_cells({key_b: spec_b})
        assert not failures
        assert cache.info().entries == 2  # recomputed, not replayed

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        key = cell_key(spec)
        Orchestrator(cache=cache).run_cells({key: spec})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()  # corrupt file removed

    def test_info_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        Orchestrator(cache=cache).run_cells({cell_key(spec): spec})
        info = cache.info()
        assert info.entries == 1 and info.bytes > 0
        assert cache.clear() == 1
        assert cache.info().entries == 0

    def test_attach_persistent_cache_replays(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner
        from repro.experiments import run_cell

        calls = {"n": 0}
        real = runner.simulate_cell

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "simulate_cell", counting)
        cache = ResultCache(tmp_path / "cache")
        detach = attach_persistent_cache(cache)
        try:
            first = run_cell("wi", "tc", "shogun", scale=SCALE)
            assert calls["n"] == 1
        finally:
            detach()
        clear_run_cache()  # simulate a fresh process
        detach = attach_persistent_cache(cache)
        try:
            second = run_cell("wi", "tc", "shogun", scale=SCALE)
        finally:
            detach()
        assert calls["n"] == 1  # served from disk, not resimulated
        assert second == first


class TestFailureHandling:
    def test_worker_failure_reported_not_fatal(self, tmp_path):
        good = _spec()
        bad = _spec(policy="no-such-policy")
        specs = {cell_key(good): good, cell_key(bad): bad}
        orch = Orchestrator(jobs=2, cache=ResultCache(tmp_path / "cache"), retries=0)
        from repro.orchestrator import RunManifest

        manifest = RunManifest(jobs=2)
        results, failures = orch.run_cells(specs, manifest)
        assert cell_key(good) in results
        assert cell_key(bad) in failures
        assert failures[cell_key(bad)]["type"] == "SimulationError"
        assert manifest.failed == 1 and manifest.computed == 1
        # The failure report carries the execution context: worker pid
        # and how the dataset was materialized.
        [failed] = manifest.failures()
        assert isinstance(failed.worker["pid"], int)
        assert failed.worker["dataset_source"] in (
            "arena", "memo", "binary-cache", "rebuilt"
        )
        assert failed.worker["graph_seconds"] >= 0
        rendered = manifest.render()
        assert "FAILED" in rendered
        assert f"pid {failed.worker['pid']}" in rendered
        assert "staged 1 graph(s)" in rendered  # wi@SCALE, both cells

    def test_retries_are_bounded(self):
        bad = _spec(policy="no-such-policy")
        from repro.orchestrator import RunManifest

        manifest = RunManifest()
        orch = Orchestrator(jobs=1, cache=None, retries=2)
        _, failures = orch.run_cells({cell_key(bad): bad}, manifest)
        assert manifest.failures()[0].attempts == 3  # initial + 2 retries

    def test_experiment_depending_on_failed_cell_is_marked(self, monkeypatch, tmp_path):
        # Sabotage simulate_cell so every parallel-dfs cell fails: the
        # figure needing it must be marked failed, the sweep must finish.
        import repro.experiments.runner as runner

        real = runner.simulate_cell

        def flaky(dataset, pattern, policy, **kwargs):
            if policy == "parallel-dfs":
                raise RuntimeError("injected failure")
            return real(dataset, pattern, policy, **kwargs)

        monkeypatch.setattr(runner, "simulate_cell", flaky)
        orch = Orchestrator(jobs=1, cache=None, retries=0)
        run = orch.run_experiments(
            ["figure3a", "table3"], scale=SCALE, overrides=OVERRIDES
        )
        statuses = {e.name: e.status for e in run.manifest.experiments}
        assert statuses["figure3a"] == "failed"
        assert statuses["table3"] == "ok"  # sweep survived
        assert run.manifest.failed == 2  # both parallel-dfs widths
        assert not run.ok


class TestManifest:
    def test_counts_and_speedup(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run = Orchestrator(jobs=1, cache=cache).run_experiments(
            ["figure3a"], scale=SCALE, overrides=OVERRIDES
        )
        m = run.manifest
        assert m.total == 4 and m.done == 4 and m.failed == 0
        assert m.wall_seconds > 0
        assert m.serial_estimate_seconds > 0
        text = m.render()
        assert "4 total" in text and "0 failed" in text

    def test_manifest_saved_next_to_cache(self, tmp_path):
        import json

        cache = ResultCache(tmp_path / "cache")
        Orchestrator(jobs=1, cache=cache).run_experiments(
            ["table3"], scale=SCALE
        )
        data = json.loads((cache.root / "last-run.json").read_text())
        assert data["totals"]["failed"] == 0
        assert data["experiments"][0]["name"] == "table3"
