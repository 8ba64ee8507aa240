"""The measured process of a benchmark run.

``run.py`` spawns this script once per measured process, so every
timing starts in a fresh interpreter with the garbage collector on::

    python3 perfbench/child.py '<json spec>'

The spec names a mode (``prepare``, ``sim`` or ``sweep``), the
workload inputs and the file the result JSON goes to.
Set-up time runs from ``spec["t_spawn"]`` (``time.monotonic()`` in the
parent just before the spawn) to the first ``simulate`` or
``run_experiments`` call.  Module imports of ``repro`` happen inside the
timed set-up, so this file imports only the standard library and the
benchmark's own modules at load time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from cells import (
    DEFAULT_SEED,
    SIM_WORKLOADS,
    SWEEP_EXPERIMENT,
    SWEEP_JOBS,
    SWEEP_SCALE,
    build_graph,
    load_pins,
    metrics_digest,
    text_digest,
)
from layers import Tracer, install_sim, install_sweep, merge_dumps


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------

def _import_sim():
    import numpy  # noqa: F401

    import repro  # noqa: F401
    from repro.experiments import eval_config
    from repro.patterns import benchmark_schedule
    from repro.sim import Accelerator, backend

    return eval_config, benchmark_schedule, Accelerator, backend


def _sim_setup(spec: dict, setup: Tracer):
    """Imports, backend activation, every cell's graph and schedule."""
    eval_config, benchmark_schedule, Accelerator, backend = setup.span(
        "setup.import", _import_sim
    )
    setup.span("sim.backend.load", backend.activate, None)
    workload = SIM_WORKLOADS[spec["workload"]]
    graphs, schedules = {}, {}
    for cell in workload.cells:
        if (cell.dataset, cell.scale) not in graphs:
            graphs[(cell.dataset, cell.scale)] = setup.span(
                "graph.build", build_graph, cell.dataset, cell.scale, spec["seed"]
            )
        if cell.pattern not in schedules:
            schedules[cell.pattern] = setup.span(
                "patterns.schedule", benchmark_schedule, cell.pattern
            )
    inputs = [
        (cell, graphs[(cell.dataset, cell.scale)], schedules[cell.pattern])
        for cell in workload.cells
    ]
    return inputs, eval_config(), Accelerator, backend


def _tree_calls(accel):
    """(kernel, object) task-tree decision counts over every PE."""
    kernel = obj = 0
    for pe in accel.pes:
        tree = getattr(pe.policy, "tree", None)
        if tree is None:
            continue
        for op, calls in tree.op_calls.items():
            if op.endswith("_kernel"):
                kernel += calls
            else:
                obj += calls
    return kernel, obj


def _sim_pass(inputs, config, Accelerator):
    """Simulate every cell once, each starting when the previous ends."""
    runs = []
    for cell, graph, schedule in inputs:
        start = time.perf_counter()
        accel = Accelerator(graph, schedule, config, cell.policy)
        metrics = accel.run()
        elapsed = time.perf_counter() - start
        coverage = accel.macro.coverage() if accel.macro is not None else None
        runs.append({
            "cell": cell.key,
            "seconds": elapsed,
            "tasks": metrics.tasks_executed,
            "matches": metrics.matches,
            "cycles": metrics.cycles,
            "digest": metrics_digest(metrics.to_dict()),
            "drained": (
                [coverage["drained"], coverage["tasks"]] if coverage else [0, 0]
            ),
            "tree": list(_tree_calls(accel)),
        })
    return runs


def _sim_checks(spec, inputs, config, Accelerator, passes):
    """Failed checks of the run's simulated results (empty = all good)."""
    from repro.mining.engine import count_matches

    failures = []
    first = passes[0]
    for later in passes[1:]:
        for a, b in zip(first, later):
            if a["digest"] != b["digest"]:
                failures.append(f"{a['cell']}: passes disagree")
    if spec["seed"] == DEFAULT_SEED:
        pins = load_pins()["cells"]
        for run in first:
            pin = pins[run["cell"]]
            for field in ("digest", "matches", "tasks", "cycles"):
                if run[field] != pin[field]:
                    failures.append(
                        f"{run['cell']}: {field} {run[field]} != pinned {pin[field]}"
                    )
    if not spec["checks"]:
        return failures
    for (cell, graph, schedule), run in zip(inputs, first):
        expected = count_matches(graph, schedule)
        if run["matches"] != expected:
            failures.append(
                f"{cell.key}: {run['matches']} matches, reference miner {expected}"
            )
    if SIM_WORKLOADS[spec["workload"]].backend == "pure":
        # Backend parity: the compiled default must simulate the same.
        compiled = config.replace(backend="cext")
        for (cell, graph, schedule), run in zip(inputs, first):
            metrics = Accelerator(graph, schedule, compiled, cell.policy).run()
            if metrics_digest(metrics.to_dict()) != run["digest"]:
                failures.append(f"{cell.key}: pure and cext metrics differ")
    return failures


def run_sim(spec: dict) -> dict:
    setup = Tracer()
    inputs, config, Accelerator, backend = _sim_setup(spec, setup)
    result = {
        "setup_s": time.monotonic() - spec["t_spawn"],
        "setup_layers": setup.totals,
        "backend": backend.resolution()["resolved"],
    }
    passes = []
    start = time.perf_counter()
    if spec["trace"]:
        # Untraced cold and warm passes, then the traced pass compared
        # against the warm one.
        passes.append(_sim_pass(inputs, config, Accelerator))
        passes.append(_sim_pass(inputs, config, Accelerator))
        tracer = Tracer()
        install_sim(tracer)
        try:
            traced = _sim_pass(inputs, config, Accelerator)
        finally:
            tracer.uninstall()
        passes.append(traced)
        result["trace"] = tracer.totals
    else:
        # A cold pass and at least one warm one; stop at the pass that
        # ends closest to the time budget.
        while True:
            passes.append(_sim_pass(inputs, config, Accelerator))
            elapsed = time.perf_counter() - start
            mean = elapsed / len(passes)
            if len(passes) >= 2 and elapsed + mean / 2 >= spec["seconds"]:
                break
    result["passes"] = passes
    result["peak_rss_mb"] = _peak_rss_mb()
    result["failures"] = _sim_checks(spec, inputs, config, Accelerator, passes)
    return result


# ----------------------------------------------------------------------
# the figure9 sweep
# ----------------------------------------------------------------------

def _import_sweep():
    import numpy  # noqa: F401

    import repro  # noqa: F401
    import repro.experiments  # noqa: F401
    from repro.orchestrator import Orchestrator, ResultCache
    from repro.sim import backend

    return Orchestrator, ResultCache, backend


def run_sweep(spec: dict) -> dict:
    """One figure9 pass against ``spec["root"]`` (cold when it is empty)."""
    setup = Tracer()
    Orchestrator, ResultCache, backend = setup.span("setup.import", _import_sweep)
    setup.span("sim.backend.load", backend.activate, None)
    cache = ResultCache(spec["root"])
    orchestrator = Orchestrator(SWEEP_JOBS, cache=cache)
    tracer = None
    if spec["trace"]:
        tracer = Tracer(dump_dir=spec["dump_dir"])
        install_sim(tracer)
        install_sweep(tracer)
    setup_s = time.monotonic() - spec["t_spawn"]
    start = time.perf_counter()
    try:
        run = orchestrator.run_experiments([SWEEP_EXPERIMENT], scale=SWEEP_SCALE)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    manifest = run.manifest
    computed = [c for c in manifest.cells if c.status == "computed"]
    figure = run.results.get(SWEEP_EXPERIMENT)
    cells = {}
    for outcome in manifest.cells:
        entry = cache.get(outcome.key)
        if entry is not None:
            cells[outcome.key] = (
                entry.metrics.tasks_executed, metrics_digest(entry.metrics.to_dict())
            )
    result = {
        "setup_s": setup_s,
        "setup_layers": setup.totals,
        "wall_s": wall,
        "cached": manifest.cached,
        "computed": manifest.computed,
        "failed": manifest.failed,
        "experiments_ok": run.ok,
        "worker_pids": sorted({c.worker["pid"] for c in computed if c.worker}),
        "cell_seconds": [c.seconds for c in computed],
        "graph_seconds": sorted({
            (c.worker["pid"], c.label.split("/")[0], c.worker["graph_seconds"])
            for c in computed if c.worker
        }),
        "rendered_digest": text_digest(run.rendered.get(SWEEP_EXPERIMENT, "")),
        "geomean": figure.raw["geomean"] if figure is not None else 0.0,
        "tasks": sum(tasks for tasks, _ in cells.values()),
        "cells_digest": text_digest(
            json.dumps(sorted((k, d) for k, (_, d) in cells.items()))
        ),
        "peak_rss_mb": _peak_rss_mb(),
        "worker_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    if tracer is not None:
        result["trace"] = tracer.totals
        result["worker_trace"] = merge_dumps(spec["dump_dir"])
    return result


# ----------------------------------------------------------------------

def prepare(spec: dict) -> dict:
    """Build the compiled kernels and byte-compile every module used."""
    import repro.experiments  # noqa: F401
    import repro.orchestrator  # noqa: F401
    from repro.sim import backend

    backend.activate(None)
    return {"backend": backend.resolution()}


MODES = {"prepare": prepare, "sim": run_sim, "sweep": run_sweep}


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = MODES[spec["mode"]](spec)
    tmp = spec["out"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, spec["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
