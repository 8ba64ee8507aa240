"""Repository benchmark: simulator throughput and figure9 sweep walls.

Run from the repository root::

    python3 perfbench/run.py --workload sim-expand --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` every
end-to-end metric of BENCHMARK.json, with ``--trace 1`` every per-layer
metric.  Workloads, metrics and the reasons behind them are described in
``perfbench/README.md``.

Every measured process is a fresh interpreter started by this script
(see ``child.py``).  Builds, kernel caches, result caches and temporary
files live under ``$CARGO_TARGET_DIR`` (default ``.bench_build``) in the
repository root; nothing else is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from cells import SIM_WORKLOADS, SWEEP_JOBS, SWEEP_WORKLOAD, load_pins
from layers import CALLS, SELF, SPAN, TALLY, covered_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

WORKLOADS = tuple(SIM_WORKLOADS) + (SWEEP_WORKLOAD,)

END_TO_END = ("setup_s", "tasks_per_s", "cold_wall_s", "warm_wall_s", "peak_rss_mb")

#: Fresh measured processes per simulator run, each given an equal share
#: of ``--seconds`` for a cold pass and at least one warm pass.
SIM_PROCESSES = 3
#: Fewest warm passes of a sweep run, whatever ``--seconds`` says.
MIN_WARM_PASSES = 8
#: Warm passes of each kind (traced, untraced) in a traced sweep run.
TRACED_WARM_PASSES = 3
#: Wall-clock limit of one child process.
CHILD_TIMEOUT_S = 150
#: Grace period for a finished sweep's process group to exit.
REAP_GRACE_S = 5.0

SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-arena-"

#: Traced layers; each reports its self time as ``<layer>_s``.
LAYERS = (
    "setup.import", "graph.build", "patterns.schedule", "sim.backend.load",
    "sim.accelerator.build", "sim.accelerator.run", "sim.engine.self",
    "sim.pe.dispatch", "sim.pe.complete", "sim.pe.derive", "sim.pe.book",
    "sim.backend.macro", "sim.memory", "sim.fu.submit",
    "core.policy.select", "core.policy.complete",
    "mining.tree.expand", "mining.tree.children", "mining.engine.reference",
    "orchestrator.run", "orchestrator.plan", "graph.stage",
    "orchestrator.pool_wait", "orchestrator.worker",
    "orchestrator.cache_put", "orchestrator.cache_get",
    "experiments.render", "orchestrator.manifest",
)
LAYER_SECONDS = tuple(f"{layer}_s" for layer in LAYERS)
#: Call-count metric -> layer.
LAYER_CALLS = {
    "sim.memory.calls": "sim.memory",
    "core.policy.select_calls": "core.policy.select",
    "core.policy.complete_calls": "core.policy.complete",
    "mining.tree.expand_calls": "mining.tree.expand",
    "mining.engine.reference_calls": "mining.engine.reference",
    "orchestrator.cache_puts": "orchestrator.cache_put",
}
#: Parent-side layers of a warm sweep pass, reported as ``warm.<metric>``.
WARM_LAYERS = (
    "orchestrator.run_s", "orchestrator.plan_s", "orchestrator.cache_get_s",
    "experiments.render_s", "orchestrator.manifest_s",
)
DERIVED = (
    "sim.engine.cohort_size", "sim.backend.macro.drained_frac",
    "core.task_tree.kernel_frac", "sim.tasks",
    "graph.arena.attach_s", "orchestrator.cell_s", "orchestrator.cell_p50_s",
    "orchestrator.cell_p90_s", "orchestrator.worker_busy_frac",
    "orchestrator.worker_rss_mb", "orchestrator.cache_hit_frac",
    "experiments.figure9.geomean",
    "trace.wall_s", "trace.coverage", "trace.overhead",
    "warm.trace.wall_s", "warm.trace.coverage", "warm.trace.overhead",
    "error_rate",
)
PER_LAYER = (
    tuple(LAYER_SECONDS) + tuple(LAYER_CALLS)
    + tuple(f"warm.{m}" for m in WARM_LAYERS) + DERIVED
)


def metric_unit(name: str) -> str:
    if name == "tasks_per_s":
        return "tasks/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", ".coverage", ".overhead", "error_rate")):
        return "fraction"
    if name.endswith(".geomean"):
        return "x"
    if name.endswith("cohort_size"):
        return "tasks"
    return "count"


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

class ChildFailed(RuntimeError):
    """A measured process crashed or overran its time limit."""


def child_env(build: Path, **extra: str) -> Dict[str, str]:
    """The environment of a measured process: no inherited REPRO_* knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_KERNEL_CACHE=str(build / "kernels"),
        TMPDIR=str(build / "tmp"),
    )
    env.update(extra)
    return env


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of one process group."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def reap_group(pgid: int) -> List[int]:
    """Wait for a process group to exit; kill and return any stragglers."""
    deadline = time.monotonic() + REAP_GRACE_S
    while time.monotonic() < deadline:
        if not group_members(pgid):
            return []
        time.sleep(0.02)
    stragglers = group_members(pgid)
    for pid in stragglers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return stragglers


def spawn(spec: dict, env: Dict[str, str], tmp: Path) -> dict:
    """Run one child to completion; returns its result JSON.

    The child leads its own process group, so pool workers it forks are
    found, and killed, if they outlive it; ``result["stragglers"]``
    lists them.
    """
    out = tmp / f"child-{time.monotonic_ns()}.json"
    spec = dict(spec, out=str(out), t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=str(ROOT), env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"{spec['mode']} child exceeded {CHILD_TIMEOUT_S}s")
    finally:
        stragglers = reap_group(proc.pid)
    if code != 0 or not out.is_file():
        raise ChildFailed(f"{spec['mode']} child exited with code {code}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    result["pid"] = proc.pid
    result["stragglers"] = stragglers
    return result


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------

def pass_seconds(runs: List[dict]) -> float:
    return sum(r["seconds"] for r in runs)


def sim_metrics(results: List[dict]) -> Dict[str, float]:
    """End-to-end metrics over a run's measured processes.

    Co-tenant load on a shared host slows a whole stretch of samples
    down, in phases lasting tens of seconds, so no wall here is a plain
    median.  The warm wall sums each cell's fastest warm simulation:
    load only ever slows a sample, and the fastest one stays comparable
    between runs.  The cold wall is that warm wall times the median,
    over processes, of a process's first pass over its second one.  The
    two passes run back to back, so the ratio cancels a load phase that
    spans both, and keeps what the first pass costs extra.
    """
    first_pass = results[0]["passes"][0]
    warm: Dict[str, List[float]] = {}
    for result in results:
        for runs in result["passes"][1:]:
            for r in runs:
                warm.setdefault(r["cell"], []).append(r["seconds"])
    warm_wall = sum(min(warm[r["cell"]]) for r in first_pass)
    cold_ratio = statistics.median(
        pass_seconds(result["passes"][0]) / pass_seconds(result["passes"][1])
        for result in results
    )
    return {
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "tasks_per_s": sum(r["tasks"] for r in first_pass) / warm_wall,
        "cold_wall_s": warm_wall * cold_ratio,
        "warm_wall_s": warm_wall,
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
    }


def _rec(totals: Dict[str, list], layer: str) -> list:
    return totals.get(layer, [0, 0, 0, 0])


def layer_metrics(*totals_list: Dict[str, list]) -> Dict[str, float]:
    """Seconds and call counts of every named layer, summed over totals."""
    merged: Dict[str, list] = {}
    for totals in totals_list:
        for layer, rec in totals.items():
            into = merged.setdefault(layer, [0, 0, 0, 0])
            for i, value in enumerate(rec):
                into[i] += value
    out = {f"{layer}_s": _rec(merged, layer)[SELF] / 1e9 for layer in LAYERS}
    out.update({name: float(_rec(merged, layer)[CALLS]) for name, layer in LAYER_CALLS.items()})
    # Every completed task reaches its policy's on_task_complete once.
    dispatches = _rec(merged, "sim.pe.complete")[CALLS]
    tasks = _rec(merged, "core.policy.complete")[CALLS]
    out["sim.engine.cohort_size"] = tasks / dispatches if dispatches else 0.0
    get = _rec(merged, "orchestrator.cache_get")
    out["orchestrator.cache_hit_frac"] = get[TALLY] / get[CALLS] if get[CALLS] else 0.0
    return out


def sim_trace_metrics(result: dict) -> Dict[str, float]:
    """Per-layer split of the traced pass, plus its fidelity checks."""
    out = {name: 0.0 for name in PER_LAYER}
    out.update(layer_metrics(result["setup_layers"], result["trace"]))
    baseline, traced = result["passes"][1], result["passes"][2]
    wall = pass_seconds(traced)
    drained = [sum(r["drained"][i] for r in traced) for i in (0, 1)]
    tree = [sum(r["tree"][i] for r in traced) for i in (0, 1)]
    out.update({
        "sim.backend.macro.drained_frac": drained[0] / drained[1] if drained[1] else 0.0,
        "core.task_tree.kernel_frac": tree[0] / sum(tree) if sum(tree) else 0.0,
        "sim.tasks": float(sum(r["tasks"] for r in traced)),
        "trace.wall_s": wall,
        "trace.coverage": covered_seconds(result["trace"]) / wall,
        "trace.overhead": wall / pass_seconds(baseline) - 1.0,
    })
    return out


def trace_fidelity(result: dict) -> List[str]:
    """The traced pass must simulate exactly what the untraced one did."""
    failures = []
    for a, b in zip(result["passes"][1], result["passes"][2]):
        for field in ("digest", "drained", "tree"):
            if a[field] != b[field]:
                failures.append(f"{a['cell']}: tracing changed {field}")
    return failures


def run_sim(name: str, args, build: Path, tmp: Path):
    workload = SIM_WORKLOADS[name]
    extra = {"REPRO_CACHE": "0"}
    if workload.backend:
        extra["REPRO_BACKEND"] = workload.backend
    env = child_env(build, **extra)
    spec = {"mode": "sim", "workload": name, "seed": args.seed,
            "trace": bool(args.trace), "checks": True}
    if args.trace:
        results = [spawn(dict(spec, seconds=0), env, tmp)]
    else:
        # The reference miner and backend parity run in the first
        # process only; every process checks determinism and pins.
        share = args.seconds / SIM_PROCESSES
        results = [
            spawn(dict(spec, seconds=share, checks=i == 0), env, tmp)
            for i in range(SIM_PROCESSES)
        ]
    failures = [f for r in results for f in r["failures"]]
    first = [r["digest"] for r in results[0]["passes"][0]]
    if any([r["digest"] for r in res["passes"][0]] != first for res in results):
        failures.append("processes simulated different metrics")
    attempted = sum(len(runs) for r in results for runs in r["passes"])
    if args.trace:
        failures += trace_fidelity(results[0])
        metrics = sim_trace_metrics(results[0])
        log_split(metrics, metrics["trace.wall_s"])
    else:
        metrics = sim_metrics(results)
    log(f"{name}: backend {results[0]['backend']}, {attempted} simulate() calls")
    return metrics, attempted, failures


# ----------------------------------------------------------------------
# figure9 sweep
# ----------------------------------------------------------------------

def live_segments(creators: List[int]) -> List[str]:
    """Shared-memory graph segments created by any of ``creators``."""
    prefixes = tuple(f"{SHM_PREFIX}{pid}-" for pid in creators)
    try:
        return sorted(n for n in os.listdir(SHM_DIR) if n.startswith(prefixes))
    except OSError:
        return []


def sweep_pass(kind: str, root: Path, trace: bool, env, tmp: Path) -> dict:
    """One cold or warm figure9 pass, checked; adds ``failures``."""
    dump_dir = Path(tempfile.mkdtemp(prefix="dump-", dir=tmp))
    try:
        spec = {"mode": "sweep", "root": str(root), "trace": trace,
                "dump_dir": str(dump_dir)}
        # The graph store and count sidecars follow REPRO_CACHE_DIR.
        result = spawn(spec, dict(env, REPRO_CACHE_DIR=str(root)), tmp)
    finally:
        shutil.rmtree(dump_dir, ignore_errors=True)
    pins = load_pins()["sweep"]
    failures = []
    if result["failed"] or not result["experiments_ok"]:
        failures.append(f"{kind} pass: {result['failed']} cells failed")
    if result["rendered_digest"] != pins["rendered_digest"]:
        failures.append(f"{kind} pass: rendered figure9 differs from the pinned table")
    if kind == "cold" and len(result["worker_pids"]) < SWEEP_JOBS:
        failures.append(f"cold pass ran on {len(result['worker_pids'])} worker pid(s)")
    if kind == "warm" and result["computed"]:
        failures.append(f"warm pass computed {result['computed']} cells")
    if result["stragglers"]:
        failures.append(f"{kind} pass: processes outlived it: {result['stragglers']}")
    leaked = live_segments([result["pid"]])
    if leaked:
        failures.append(f"{kind} pass leaked shared memory: {leaked}")
    result["failures"] = failures
    return result


def fresh_root(tmp: Path) -> Path:
    return Path(tempfile.mkdtemp(prefix="sweep-", dir=tmp))


def run_sweep(args, build: Path, tmp: Path):
    env = child_env(build)
    start = time.monotonic()
    roots = []
    try:
        roots.append(fresh_root(tmp))
        cold = sweep_pass("cold", roots[-1], False, env, tmp)
        passes = [cold]
        if args.trace:
            # An untraced cold pass for the overhead, then the traced one
            # in a second empty root; warm passes alternate on that root.
            roots.append(fresh_root(tmp))
            traced = sweep_pass("cold", roots[-1], True, env, tmp)
            warm, warm_traced = [], []
            for _ in range(TRACED_WARM_PASSES):
                warm.append(sweep_pass("warm", roots[-1], False, env, tmp))
                warm_traced.append(sweep_pass("warm", roots[-1], True, env, tmp))
            passes += [traced] + warm + warm_traced
        else:
            until = start + args.seconds
            while len(passes) <= MIN_WARM_PASSES or time.monotonic() < until:
                passes.append(sweep_pass("warm", roots[-1], False, env, tmp))
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["cached"] + p["computed"] + p["failed"] + 1 for p in passes)
    if args.trace:
        metrics = sweep_trace_metrics(cold, traced, warm, warm_traced)
        if traced["cells_digest"] != cold["cells_digest"]:
            failures.append("tracing changed the simulated figure9 cells")
        log("parent, share of the cold wall:")
        log_split(layer_metrics(traced["trace"]), metrics["trace.wall_s"])
        log("pool workers, share of the summed cell seconds:")
        log_split(layer_metrics(traced["worker_trace"]), metrics["orchestrator.cell_s"])
    else:
        # The warm wall is best-of, as for the simulator workloads
        # (sim_metrics); one cold pass fills most of a run.
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "tasks_per_s": cold["tasks"] / cold["wall_s"],
            "cold_wall_s": cold["wall_s"],
            "warm_wall_s": min(p["wall_s"] for p in passes[1:]),
            "peak_rss_mb": max(cold["peak_rss_mb"], cold["worker_rss_mb"]),
        }
    log(f"{SWEEP_WORKLOAD}: {len(passes)} passes, cold {cold['computed']} computed")
    return metrics, attempted, failures


def sweep_trace_metrics(cold, traced, warm, warm_traced) -> Dict[str, float]:
    out = {name: 0.0 for name in PER_LAYER}
    out.update(layer_metrics(traced["setup_layers"], traced["trace"], traced["worker_trace"]))
    wall = traced["wall_s"]
    cells = traced["cell_seconds"]
    pool_wall = _rec(traced["trace"], "orchestrator.pool_wait")[SPAN] / 1e9
    out.update({
        "sim.tasks": float(traced["tasks"]),
        "graph.arena.attach_s": sum(s for _, _, s in traced["graph_seconds"]),
        "orchestrator.cell_s": sum(cells),
        "orchestrator.cell_p50_s": statistics.median(cells),
        "orchestrator.cell_p90_s": statistics.quantiles(cells, n=10)[-1],
        "orchestrator.worker_busy_frac": (
            sum(cells) / (SWEEP_JOBS * pool_wall) if pool_wall else 0.0
        ),
        "orchestrator.worker_rss_mb": traced["worker_rss_mb"],
        "experiments.figure9.geomean": traced["geomean"],
        "trace.wall_s": wall,
        "trace.coverage": covered_seconds(traced["trace"]) / wall,
        "trace.overhead": wall / cold["wall_s"] - 1.0,
    })
    # The warm pass's parent-side split: the median traced warm pass.
    middle = sorted(warm_traced, key=lambda p: p["wall_s"])[len(warm_traced) // 2]
    warm_layers = layer_metrics(middle["trace"])
    for name in WARM_LAYERS:
        out[f"warm.{name}"] = warm_layers[name]
    out["warm.trace.wall_s"] = middle["wall_s"]
    out["warm.trace.coverage"] = covered_seconds(middle["trace"]) / middle["wall_s"]
    out["warm.trace.overhead"] = (
        middle["wall_s"] / statistics.median(p["wall_s"] for p in warm) - 1.0
    )
    return out


# ----------------------------------------------------------------------

def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def log_split(metrics: Dict[str, float], wall: float) -> None:
    """The traced split as shares of the traced wall, on stderr."""
    rows = sorted(
        ((v, k) for k, v in metrics.items() if k in LAYER_SECONDS and v > 0),
        reverse=True,
    )
    for value, name in rows:
        log(f"  {name:32s} {value:9.4f} s  {value / wall:6.1%}")


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def prepare(build: Path, tmp: Path) -> None:
    """Build the compiled kernels before any timed process starts."""
    resolved = spawn({"mode": "prepare"}, child_env(build), tmp)["backend"]
    log(f"kernel backend: {resolved}")


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        log("--seed must be non-negative")
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro package under {ROOT / 'src'}; run from a full checkout")
        return 2
    build = build_dir()
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # A terminated run unwinds through spawn(), which kills the child's
    # process group, and through the removal of sweep cache roots.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        prepare(build, tmp)
        if args.workload == SWEEP_WORKLOAD:
            metrics, attempted, failures = run_sweep(args, build, tmp)
        else:
            metrics, attempted, failures = run_sim(args.workload, args, build, tmp)
    except ChildFailed as exc:
        log(f"benchmark failed: {exc}")
        return 1
    for failure in failures:
        log(f"FAILED: {failure}")
    failed = min(len(failures), attempted)
    names = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        metrics["error_rate"] = failed / attempted
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": metric_unit(name)} for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
