"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import sys
from multiprocessing import shared_memory
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cells  # noqa: E402
import run  # noqa: E402
from layers import Tracer, install_sim  # noqa: E402


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """No result cache or graph store; kernels where the benchmark keeps them."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(run.build_dir() / "kernels"))


def _simulate(cell: cells.Cell):
    from repro.experiments import eval_config
    from repro.patterns import benchmark_schedule
    from repro.sim import Accelerator

    graph = cells.build_graph(cell.dataset, cell.scale, cells.DEFAULT_SEED)
    accel = Accelerator(graph, benchmark_schedule(cell.pattern), eval_config(), cell.policy)
    return accel, accel.run()


def test_benchmark_json_names_what_the_runner_runs():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.END_TO_END
    assert tuple(m["name"] for m in spec["per_layer"]) == run.PER_LAYER
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.metric_unit(metric["name"])
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_every_pinned_cell_belongs_to_a_workload():
    keys = {c.key for w in cells.SIM_WORKLOADS.values() for c in w.cells}
    assert set(cells.load_pins()["cells"]) == keys


def test_perturbed_metrics_fail_the_digest_check():
    cell = cells.SIM_WORKLOADS["sim-expand"].cells[0]
    pin = cells.load_pins()["cells"][cell.key]
    _, metrics = _simulate(cell)
    assert cells.metrics_digest(metrics.to_dict()) == pin["digest"]
    metrics.cycles += 1.0
    assert cells.metrics_digest(metrics.to_dict()) != pin["digest"]


def test_planted_arena_segment_fails_the_shm_check():
    creator = os.getpid()
    segment = shared_memory.SharedMemory(
        create=True, size=8, name=f"{run.SHM_PREFIX}{creator}-planted"
    )
    try:
        assert run.live_segments([creator]) == [segment.name]
    finally:
        segment.close()
        segment.unlink()
    assert run.live_segments([creator]) == []


def _observed(accel, metrics):
    trees = [pe.policy.tree.op_calls for pe in accel.pes]
    counters = accel.macro.counters if accel.macro is not None else None
    return cells.metrics_digest(metrics.to_dict()), counters, trees


def test_trace_wrappers_keep_the_program_path():
    cell = cells.Cell("wi", "4cl", "shogun", 0.3)
    untraced = _observed(*_simulate(cell))
    tracer = Tracer()
    install_sim(tracer)
    try:
        accel, metrics = _simulate(cell)
    finally:
        tracer.uninstall()
    assert _observed(accel, metrics) == untraced
    for pe in accel.pes:
        assert "_start_task" not in pe.__dict__
        assert "_complete_task" not in pe.__dict__
    assert tracer.totals["sim.pe.complete"][2] > 0
    assert tracer.totals["core.policy.select"][2] > 0
    if accel.macro is not None:
        started = tracer.totals["sim.backend.macro"][2]
        assert started == sum(accel.macro.counters.values())

    from repro.sim.pe import PE

    assert not hasattr(PE._derive, "__wrapped__")


def test_seeded_graphs_relabel_the_registry_graph():
    import numpy as np

    default = cells.build_graph("lj", 1.0, cells.DEFAULT_SEED)
    seeded = cells.build_graph("lj", 1.0, 3)
    assert np.array_equal(seeded.degrees, default.degrees)
    assert not np.array_equal(seeded.indices, default.indices)
    again = cells.build_graph("lj", 1.0, 3)
    assert np.array_equal(again.indices, seeded.indices)
