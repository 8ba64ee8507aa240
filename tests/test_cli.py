"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.graph import save_edge_list


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_requires_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "--pattern", "tc"])

    def test_dataset_and_edge_list_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["count", "--dataset", "wi", "--edge-list", "x.txt", "--pattern", "tc"]
            )

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    def test_all_experiments_resolvable(self):
        import repro.experiments as experiments

        for name in EXPERIMENTS:
            assert callable(getattr(experiments, name))


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Wiki-Vote" in out and "Orkut" in out

    def test_count_dataset(self, capsys):
        assert main(["count", "--dataset", "wi", "--scale", "0.1", "--pattern", "tc"]) == 0
        assert "matches" in capsys.readouterr().out

    def test_count_edge_list(self, tmp_path, capsys, small_er):
        path = tmp_path / "g.txt"
        save_edge_list(small_er, path)
        assert main(["count", "--edge-list", str(path), "--pattern", "tc"]) == 0
        assert "matches" in capsys.readouterr().out

    def test_simulate_multiple_policies(self, capsys):
        assert main(
            ["simulate", "--dataset", "wi", "--scale", "0.1", "--pattern", "tc",
             "--policy", "fingers", "shogun", "--pes", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup vs fingers" in out

    def test_simulate_with_optimizations(self, capsys):
        assert main(
            ["simulate", "--dataset", "wi", "--scale", "0.1", "--pattern", "tc",
             "--policy", "shogun", "--pes", "2", "--splitting", "--merging",
             "--width", "4"]
        ) == 0

    def test_profile(self, tmp_path, capsys, monkeypatch):
        # --backend exports REPRO_BACKEND; monkeypatch restores it.
        monkeypatch.setenv("REPRO_BACKEND", "pure")
        out_json = tmp_path / "prof.json"
        assert main(
            ["profile", "--dataset", "wi", "--scale", "0.1", "--pattern", "tc",
             "--top", "5", "--json", str(out_json), "--backend", "pure"]
        ) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out and "instrumented wall" in out
        import json

        payload = json.loads(out_json.read_text())
        assert payload["pattern"] == "tc" and payload["policy"] == "shogun"
        assert len(payload["hotspots"]) == 5
        top = payload["hotspots"][0]
        assert {"function", "file", "line", "ncalls", "tottime_s", "cumtime_s"} <= set(top)
        assert payload["matches"] > 0
        assert payload["scheduler"]["ops"]["select"] > 0

    def test_profile_tottime_sort(self, capsys):
        assert main(
            ["profile", "--dataset", "wi", "--scale", "0.1", "--pattern", "tc",
             "--sort", "tottime", "--top", "3"]
        ) == 0
        assert "internal time" in capsys.readouterr().out

    def test_experiment(self, capsys):
        assert main(["experiment", "table3", "--no-cache"]) == 0
        assert "178" in capsys.readouterr().out

    def test_experiment_prints_manifest(self, capsys):
        assert main(["experiment", "table3", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_experiment_parallel_with_cache(self, tmp_path, capsys):
        args = ["experiment", "figure3a", "--scale", "0.12", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"), "--quiet"]
        from repro.experiments import clear_run_cache

        clear_run_cache()
        assert main(args) == 0
        first = capsys.readouterr().out
        clear_run_cache()
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 computed" in second and "0 failed" in second  # warm cache
        # Identical figure rows across cold parallel and warm cached runs
        # (everything above the manifest block).
        assert first.split("cells:")[0] == second.split("cells:")[0]

    def test_experiment_scale_from_environment(self, monkeypatch, capsys):
        # REPRO_SCALE set after import must reach the orchestrator path.
        monkeypatch.setenv("REPRO_SCALE", "0.12")
        assert main(["experiment", "table4", "--no-cache"]) == 0
        out_small = capsys.readouterr().out
        monkeypatch.delenv("REPRO_SCALE")
        assert main(["experiment", "table4", "--no-cache"]) == 0
        out_full = capsys.readouterr().out
        assert out_small != out_full


class TestCacheCommands:
    def test_info_empty(self, tmp_path, capsys):
        assert main(["cache", "info", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries:    0" in out

    def test_populate_then_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert main(["experiment", "figure3a", "--scale", "0.12",
                     "--cache-dir", cache_dir, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "entries:    8" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 8" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "entries:    0" in capsys.readouterr().out


class TestValidateCLI:
    def test_validate_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate"])

    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["validate", "fuzz"])
        assert args.runs == 20 and args.seed == 0 and args.replay is None

    def test_invariants(self, capsys):
        assert main(["validate", "invariants", "--scale", "0.1",
                     "--datasets", "wi", "--patterns", "tc"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "validate invariants: PASS" in out

    def test_oracle(self, capsys):
        assert main(["validate", "oracle", "--scale", "0.1", "--no-cache",
                     "--datasets", "wi", "--patterns", "tc"]) == 0
        out = capsys.readouterr().out
        assert "oracle wi@0.1" in out
        assert "validate oracle: PASS" in out

    def test_fuzz_burst(self, tmp_path, capsys):
        assert main(["validate", "fuzz", "--runs", "1", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        assert "all passed" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    def test_golden_update_then_check(self, tmp_path, capsys):
        golden_dir = str(tmp_path / "golden")
        assert main(["validate", "golden", "--update", "--no-cache",
                     "--dir", golden_dir, "--scale", "0.1"]) == 0
        assert "10 created" in capsys.readouterr().out
        assert main(["validate", "golden", "--no-cache",
                     "--dir", golden_dir, "--scale", "0.1"]) == 0
        assert "10 ok" in capsys.readouterr().out

    def test_golden_missing_fails(self, tmp_path, capsys):
        assert main(["validate", "golden", "--no-cache",
                     "--dir", str(tmp_path / "empty"), "--scale", "0.1"]) == 1
        assert "missing" in capsys.readouterr().out

    def test_fuzz_replay(self, tmp_path, capsys):
        from repro.validate.fuzz import make_case, run_case, write_bundle

        case = make_case(7, 0)
        bundle = write_bundle(tmp_path, case, run_case(case))
        assert main(["validate", "fuzz", "--replay", str(bundle)]) == 0
        assert "all" not in capsys.readouterr().err
