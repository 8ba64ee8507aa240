"""Command-line interface: count, simulate and regenerate experiments.

Usage (also via ``python -m repro``)::

    repro datasets                                  # list Table-4 stand-ins
    repro count --dataset wi --pattern 4cl          # exact software count
    repro count --edge-list g.txt --pattern tc      # your own graph
    repro simulate --dataset wi --pattern 4cl --policy shogun fingers
    repro profile --dataset lj --pattern 4cl --top 15 --json prof.json
    repro experiment figure9 table2 --jobs 4        # regenerate artifacts
    repro cache info                                # persistent result cache
    repro cache clear
    repro cache graphs info                         # binary graph store
    repro cache graphs clear
    repro validate all --scale 0.3                  # oracle + invariants + goldens
    repro validate golden --update                  # re-bless golden snapshots
    repro validate fuzz --runs 20 --seed 7          # randomized differential tests
    repro serve --socket .repro-serve.sock --jobs 4 # persistent daemon
    repro submit --dataset wi --pattern tc --policy shogun --watch
    repro jobs                                      # daemon job board
    repro shutdown                                  # drain and stop the daemon
    repro experiment figure3a --workers unix:/tmp/sweep.sock --spawn-workers 2
    repro worker unix:/tmp/sweep.sock               # join a distributed sweep

``repro experiment`` routes through :mod:`repro.orchestrator`: cells
are deduplicated, satisfied from ``.repro-cache/`` when possible, and
executed on a process pool with ``--jobs N``.  Every ``--scale``
defaults to the ``REPRO_SCALE`` environment variable (then 1.0).

``repro serve`` keeps that machinery warm between invocations: one
daemon stages graphs and workers once, answers ``repro submit`` over a
unix or TCP socket, coalesces identical in-flight cells and serves
repeats from the cache (see docs/service.md).  The socket defaults to
``REPRO_SERVE_SOCKET``, then ``.repro-serve.sock``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .experiments import default_scale, eval_config
from .graph import compute_stats, dataset_codes, get_spec, load_dataset, load_edge_list
from .mining import mine
from .patterns import BENCHMARK_CODES, benchmark_schedule
from .sim import POLICIES, simulate

#: Experiment names accepted by ``repro experiment``.
EXPERIMENTS = (
    "table1", "table2", "table3", "table4",
    "figure3a", "figure3b", "figure9", "figure10", "figure11",
    "figure12", "figure13a", "figure13b", "figure14",
    "ablation_conservative_mode", "ablation_tokens", "ablation_pipeline_throughput",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shogun (ISCA 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="list the Table-4 dataset stand-ins")
    _add_scale_arg(datasets)

    count = sub.add_parser("count", help="exact match counting (software miner)")
    _add_graph_args(count)
    count.add_argument("--pattern", required=True, choices=BENCHMARK_CODES)
    _add_backend_arg(count)

    sim = sub.add_parser("simulate", help="simulate the accelerator")
    _add_graph_args(sim)
    _add_backend_arg(sim)
    sim.add_argument("--pattern", required=True, choices=BENCHMARK_CODES)
    sim.add_argument(
        "--policy", nargs="+", default=["shogun"], choices=sorted(POLICIES)
    )
    sim.add_argument("--pes", type=int, default=None, help="override PE count")
    sim.add_argument("--width", type=int, default=None, help="override execution width")
    sim.add_argument("--splitting", action="store_true", help="enable task-tree splitting")
    sim.add_argument("--merging", action="store_true", help="enable search-tree merging")

    profile = sub.add_parser(
        "profile",
        help="cProfile one simulated cell and report hotspots (docs/performance.md)",
    )
    _add_graph_args(profile)
    _add_backend_arg(profile)
    profile.add_argument("--pattern", required=True, choices=BENCHMARK_CODES)
    profile.add_argument("--policy", default="shogun", choices=sorted(POLICIES))
    profile.add_argument(
        "--top", type=int, default=20, help="number of hotspot rows to report"
    )
    profile.add_argument(
        "--sort", default="cumulative", choices=("cumulative", "tottime"),
        help="hotspot ranking key",
    )
    profile.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the hotspot table as JSON",
    )

    experiment = sub.add_parser(
        "experiment",
        help="regenerate paper artifacts (parallel, cached — see docs/orchestrator.md)",
    )
    experiment.add_argument("names", nargs="+", choices=EXPERIMENTS)
    _add_scale_arg(experiment)
    _add_backend_arg(experiment)
    experiment.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for evaluation cells (1 = in-process)",
    )
    experiment.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache for this invocation",
    )
    experiment.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: REPRO_CACHE_DIR or .repro-cache)",
    )
    experiment.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock limit in seconds (pool mode only)",
    )
    experiment.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts granted to a failed cell (default 1)",
    )
    experiment.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    experiment.add_argument(
        "--workers", default=None, metavar="ADDR",
        help="distributed mode: listen on ADDR (unix:/path, tcp:host:port "
             "or a socket path) and execute cells on registered workers "
             "(see docs/distributed.md)",
    )
    experiment.add_argument(
        "--spawn-workers", type=int, default=0, metavar="N",
        help="with --workers: also spawn N local worker subprocesses",
    )
    experiment.add_argument(
        "--worker-slots", type=int, default=1,
        help="with --spawn-workers: concurrent cells per spawned worker",
    )
    experiment.add_argument(
        "--heartbeat-interval", type=float, default=1.0,
        help="with --workers: seconds between worker heartbeats",
    )
    experiment.add_argument(
        "--heartbeat-timeout", type=float, default=5.0,
        help="with --workers: heartbeat silence before a worker is "
             "declared dead and its cells retried elsewhere",
    )
    experiment.add_argument(
        "--register-timeout", type=float, default=120.0,
        help="with --workers: seconds to tolerate having no live worker "
             "before failing the remaining cells",
    )
    experiment.add_argument(
        "--spawn-faults", default=None, metavar="SPEC",
        help="with --spawn-workers: REPRO_FAULTS spec injected into the "
             "first spawned worker (chaos testing, e.g. kill:cell:1)",
    )

    validate = sub.add_parser(
        "validate",
        help="differential validation: oracles, invariants, goldens, fuzz "
             "(docs/validation.md)",
    )
    vsub = validate.add_subparsers(dest="validate_command", required=True)

    def _add_cache_args(p):
        p.add_argument(
            "--no-cache", action="store_true",
            help="skip the persistent result cache for this invocation",
        )
        p.add_argument(
            "--cache-dir", default=None,
            help="cache directory (default: REPRO_CACHE_DIR or .repro-cache)",
        )
        _add_backend_arg(p)

    v_all = vsub.add_parser(
        "all", help="oracle + invariant + golden checks (the CI smoke gate)"
    )
    _add_scale_arg(v_all)
    _add_cache_args(v_all)
    v_all.add_argument(
        "--datasets", nargs="+", default=["wi", "as"], choices=dataset_codes(),
        help="datasets the oracle sweeps (goldens always use the pinned matrix)",
    )
    v_all.add_argument(
        "--patterns", nargs="+", default=["tc", "4cl"], choices=BENCHMARK_CODES,
    )

    v_oracle = vsub.add_parser(
        "oracle", help="cross-policy + reference-miner (+ naive) agreement"
    )
    _add_scale_arg(v_oracle)
    _add_cache_args(v_oracle)
    v_oracle.add_argument(
        "--datasets", nargs="+", default=["wi", "as"], choices=dataset_codes()
    )
    v_oracle.add_argument(
        "--patterns", nargs="+", default=["tc", "4cl"], choices=BENCHMARK_CODES
    )

    v_inv = vsub.add_parser(
        "invariants", help="run every policy under the live InvariantChecker"
    )
    _add_scale_arg(v_inv)
    v_inv.add_argument(
        "--datasets", nargs="+", default=["wi"], choices=dataset_codes()
    )
    v_inv.add_argument(
        "--patterns", nargs="+", default=["tc", "4cl"], choices=BENCHMARK_CODES
    )
    _add_backend_arg(v_inv)

    v_golden = vsub.add_parser(
        "golden", help="diff RunMetrics against committed snapshots"
    )
    _add_scale_arg(v_golden)
    _add_cache_args(v_golden)
    v_golden.add_argument(
        "--update", action="store_true",
        help="rewrite the snapshots instead of diffing (then commit them)",
    )
    v_golden.add_argument(
        "--dir", default=None,
        help="snapshot directory (default: REPRO_GOLDEN_DIR or tests/golden)",
    )

    v_fuzz = vsub.add_parser(
        "fuzz", help="randomized graphs/configs through oracle + invariants"
    )
    v_fuzz.add_argument("--runs", type=int, default=20)
    v_fuzz.add_argument("--seed", type=int, default=0)
    v_fuzz.add_argument(
        "--out", default=None,
        help="repro-bundle directory for failures (default: .repro-fuzz-failures)",
    )
    v_fuzz.add_argument(
        "--replay", default=None, metavar="BUNDLE",
        help="re-run the case stored in a repro bundle instead of fuzzing",
    )
    _add_backend_arg(v_fuzz)

    serve = sub.add_parser(
        "serve",
        help="run the persistent simulation daemon (see docs/service.md)",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket path (default: REPRO_SERVE_SOCKET, then "
             ".repro-serve.sock)",
    )
    serve.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="also listen on a TCP address (port 0 picks a free port)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="worker parallelism (1 = a single warm in-process worker)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="max jobs queued-or-running before submits are rejected",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock limit in seconds",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="serve without the persistent result cache",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: REPRO_CACHE_DIR or .repro-cache)",
    )
    serve.add_argument(
        "--log", default=None, metavar="PATH",
        help="also append server events to this file (always on stderr)",
    )

    worker = sub.add_parser(
        "worker",
        help="run a distributed sweep worker against a scheduler "
             "(see docs/distributed.md)",
    )
    worker.add_argument(
        "address",
        help="scheduler address: unix:/path, tcp:host:port, or a socket path",
    )
    worker.add_argument(
        "--name", default=None, help="worker name (default: worker-<pid>)"
    )
    worker.add_argument(
        "--slots", type=int, default=1,
        help="concurrent cells this worker executes (default 1)",
    )
    worker.add_argument(
        "--connect-timeout", type=float, default=30.0,
        help="seconds to keep retrying the scheduler connection",
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress worker log lines"
    )
    _add_backend_arg(worker)

    submit = sub.add_parser(
        "submit", help="submit one cell to a running daemon"
    )
    submit.add_argument("--dataset", required=True, choices=dataset_codes())
    submit.add_argument("--pattern", required=True, choices=BENCHMARK_CODES)
    submit.add_argument(
        "--policy", default="shogun", choices=sorted(POLICIES)
    )
    _add_scale_arg(submit)
    submit.add_argument(
        "--no-verify", action="store_true",
        help="skip the reference-count check inside the cell",
    )
    submit.add_argument(
        "--config", action="append", default=[], metavar="FIELD=VALUE",
        help="SimConfig override (repeatable), e.g. --config num_pes=8",
    )
    submit.add_argument(
        "--watch", action="store_true",
        help="stream queued/staging/running events while waiting",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print the terminal event as JSON instead of a summary",
    )
    _add_service_address_arg(submit)

    jobs_cmd = sub.add_parser("jobs", help="show a running daemon's job board")
    _add_service_address_arg(jobs_cmd)

    shutdown = sub.add_parser("shutdown", help="stop a running daemon")
    shutdown.add_argument(
        "--no-drain", action="store_true",
        help="cancel the running cell instead of letting it finish",
    )
    _add_service_address_arg(shutdown)

    cache = sub.add_parser("cache", help="inspect or clear the persistent caches")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for action, text in (("info", "show entry count, size and code salt"),
                         ("clear", "remove every cached result")):
        action_parser = cache_sub.add_parser(action, help=text)
        action_parser.add_argument(
            "--cache-dir", default=None,
            help="cache directory (default: REPRO_CACHE_DIR or .repro-cache)",
        )
    graphs = cache_sub.add_parser(
        "graphs", help="inspect or clear the binary graph store"
    )
    graphs_sub = graphs.add_subparsers(dest="graphs_command", required=True)
    for action, text in (
        ("info", "show stored graphs, count sidecars, size and graph salt"),
        ("clear", "remove every stored graph and count sidecar"),
    ):
        action_parser = graphs_sub.add_parser(action, help=text)
        action_parser.add_argument(
            "--graph-dir", default=None,
            help="graph store directory (default: <cache-root>/graphs)",
        )
    return parser


def _add_service_address_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", default=None, metavar="ADDR",
        help="daemon address: a unix socket path or tcp:HOST:PORT "
             "(default: REPRO_SERVE_SOCKET, then .repro-serve.sock)",
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=10.0,
        help="seconds to keep retrying the connection (default 10)",
    )


def _service_address(args) -> str:
    import os

    return args.socket or os.environ.get("REPRO_SERVE_SOCKET") or ".repro-serve.sock"


def _add_scale_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale factor (default: REPRO_SCALE env var, then 1.0)",
    )


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default=None, choices=("auto", "pure", "cext"),
        help="kernel backend for the simulator hot path "
             "(default: REPRO_BACKEND env var, then auto; see docs/performance.md)",
    )


def _apply_backend(args):
    """Activate the requested kernel backend; returns the active set.

    Also exports ``REPRO_BACKEND`` so worker processes (orchestrator
    pools, the serve daemon) inherit the selection.
    """
    import os

    from .sim import backend as kernel_backend

    name = getattr(args, "backend", None)
    if name:
        os.environ["REPRO_BACKEND"] = name
    return kernel_backend.activate(name)


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=dataset_codes())
    source.add_argument("--edge-list", help="path to a SNAP-style edge list")
    _add_scale_arg(parser)


def _resolve_scale(args) -> float:
    return args.scale if args.scale is not None else default_scale()


def _load_graph(args):
    if args.dataset:
        return load_dataset(args.dataset, scale=_resolve_scale(args))
    return load_edge_list(args.edge_list)


def cmd_datasets(args) -> int:
    for code in dataset_codes():
        spec = get_spec(code)
        stats = compute_stats(load_dataset(code, scale=_resolve_scale(args)))
        print(f"{code}: {spec.paper_name:12s} {stats.describe()}")
        print(f"    {spec.notes}")
    return 0


def cmd_count(args) -> int:
    _apply_backend(args)
    graph = _load_graph(args)
    schedule = benchmark_schedule(args.pattern)
    start = time.time()
    result = mine(graph, schedule)
    elapsed = time.time() - start
    print(f"graph: {compute_stats(graph).describe()}")
    print(f"pattern {args.pattern}: {result.count} matches "
          f"({result.stats.total_tasks} tasks, {elapsed:.2f}s)")
    return 0


def cmd_simulate(args) -> int:
    _apply_backend(args)
    graph = _load_graph(args)
    schedule = benchmark_schedule(args.pattern)
    overrides = {}
    if args.pes:
        overrides["num_pes"] = args.pes
    if args.width:
        overrides.update(
            execution_width=args.width,
            bunch_entries=args.width,
            tokens_per_depth=args.width,
        )
    if args.splitting:
        overrides["enable_splitting"] = True
    if args.merging:
        overrides["enable_merging"] = True
    config = eval_config(**overrides)
    baseline = None
    for policy in args.policy:
        metrics = simulate(graph, schedule, policy=policy, config=config)
        line = metrics.summary()
        if baseline is None:
            baseline = metrics
        else:
            line += f"  speedup vs {baseline.policy}: {metrics.speedup_over(baseline):.2f}x"
        print(line)
    return 0


def _scheduler_attribution(accel):
    """Task-tree op calls per decision, summed over PEs (``None`` = no trees)."""
    trees = [
        tree for pe in accel.pes
        if (tree := getattr(pe.policy, "tree", None)) is not None
    ]
    if not trees:
        return None
    ops = {
        op: sum(t.op_calls[f"{op}_kernel"] for t in trees)
        for op in ("select", "fill", "complete")
    }
    return {"calls": sum(ops.values()), "ops": ops}


def cmd_profile(args) -> int:
    import cProfile
    import json
    import pstats

    from .sim import backend as kernel_backend

    from .sim.accelerator import Accelerator

    kernels = _apply_backend(args)
    graph = _load_graph(args)
    schedule = benchmark_schedule(args.pattern)
    config = eval_config()
    profiler = cProfile.Profile()
    start = time.time()
    with kernel_backend.instrument() as kernel_stats:
        profiler.enable()
        # Constructed directly (not through simulate()) so the
        # macro-step core's fast-path coverage counters and the task
        # trees' op counters survive the run.
        accel = Accelerator(graph, schedule, config, args.policy)
        metrics = accel.run()
        profiler.disable()
    elapsed = time.time() - start
    print(metrics.summary())
    print(f"instrumented wall: {elapsed:.3f}s "
          "(cProfile overhead included; compare profiled runs only with "
          "profiled runs — see docs/performance.md)")
    print(f"kernel backend: {kernels.name} "
          f"({'compiled' if kernels.compiled else 'interpreted'})")
    for kernel in kernel_backend.KernelSet.KERNELS:
        calls, seconds = kernel_stats[kernel]
        print(f"  {kernel:20s} {calls:>12,d} calls  {seconds:9.3f}s")
    coverage = accel.macro.coverage() if accel.macro is not None else None
    if coverage is not None:
        print(
            f"macro-step fast path: {coverage['drained']:,d}/"
            f"{coverage['tasks']:,d} tasks drained in the compiled core "
            f"({coverage['drained_fraction']:.1%})"
        )
        for key, count in coverage["counters"].items():
            if count:
                print(f"  {key:20s} {count:>12,d}")
    else:
        print("macro-step fast path: off (per-event booking)")
    scheduler = _scheduler_attribution(accel)
    if scheduler is not None:
        print(f"scheduler (task tree): {scheduler['calls']:,d} tree-op calls")
        for op, calls in scheduler["ops"].items():
            print(f"  {op:20s} {calls:>12,d}")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.json:
        key = 3 if args.sort == "cumulative" else 2
        rows = sorted(
            stats.stats.items(), key=lambda item: item[1][key], reverse=True
        )[: args.top]
        payload = {
            "graph": args.dataset or args.edge_list,
            "pattern": args.pattern,
            "policy": args.policy,
            "scale": _resolve_scale(args) if args.dataset else None,
            "sort": args.sort,
            "backend": kernels.name,
            "kernels": {
                kernel: {"calls": calls, "seconds": seconds}
                for kernel, (calls, seconds) in kernel_stats.items()
            },
            "macro_step": coverage,
            "scheduler": scheduler,
            "instrumented_wall_s": elapsed,
            "cycles": metrics.cycles,
            "matches": metrics.matches,
            "tasks_executed": metrics.tasks_executed,
            "hotspots": [
                {
                    "function": func,
                    "file": filename,
                    "line": line,
                    "ncalls": ncalls,
                    "tottime_s": tottime,
                    "cumtime_s": cumtime,
                }
                for (filename, line, func),
                    (_, ncalls, tottime, cumtime, _) in rows
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def cmd_experiment(args) -> int:
    from .orchestrator import Orchestrator, ResultCache, cache_enabled

    _apply_backend(args)
    cache = None
    if not args.no_cache and cache_enabled():
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    progress = None if args.quiet else (lambda line: print(line, file=sys.stderr))
    if args.workers:
        from .distributed import DistributedOrchestrator

        orchestrator = DistributedOrchestrator(
            args.workers,
            spawn_workers=args.spawn_workers,
            worker_slots=args.worker_slots,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            register_timeout=args.register_timeout,
            spawn_faults=args.spawn_faults,
            cache=cache,
            timeout=args.timeout,
            retries=args.retries,
            progress=progress,
        )
    else:
        orchestrator = Orchestrator(
            jobs=args.jobs,
            cache=cache,
            timeout=args.timeout,
            retries=args.retries,
            progress=progress,
        )
    run = orchestrator.run_experiments(args.names, scale=_resolve_scale(args))
    for name in args.names:
        if name in run.rendered:
            print(run.rendered[name])
            print()
    print(run.manifest.render())
    return 0 if run.ok else 1


def _attach_validate_cache(args):
    """Route run_cell through the persistent cache; returns a detach callable."""
    from .orchestrator import ResultCache, attach_persistent_cache, cache_enabled

    if getattr(args, "no_cache", False) or not cache_enabled():
        return lambda: None
    cache = ResultCache(args.cache_dir) if getattr(args, "cache_dir", None) else None
    return attach_persistent_cache(cache)


def cmd_validate(args) -> int:
    from pathlib import Path

    from .validate import fuzz as fuzz_mod
    from .validate import (
        ORACLE_POLICIES,
        check_golden,
        oracle_cell,
        run_fuzz,
    )
    from .validate.invariants import checked_simulate

    _apply_backend(args)
    command = args.validate_command
    ok = True

    if command == "fuzz":
        if args.replay:
            report = fuzz_mod.replay_bundle(args.replay)
            print(report.render())
            return 0 if report.ok else 1
        report = run_fuzz(
            args.runs, args.seed,
            out_dir=args.out,
            progress=lambda line: print(line, file=sys.stderr),
        )
        print(report.render())
        return 0 if report.ok else 1

    if command == "golden":
        detach = _attach_validate_cache(args)
        try:
            golden_dir = Path(args.dir) if args.dir else None
            scale = args.scale if args.scale is not None else 0.3
            report = check_golden(
                scale=scale, golden_dir=golden_dir, update=args.update
            )
        finally:
            detach()
        print(report.render())
        return 0 if report.ok else 1

    scale = _resolve_scale(args)
    if command in ("all", "oracle"):
        detach = _attach_validate_cache(args)
        try:
            if command == "all":
                golden = check_golden(scale=scale)
                print(golden.render())
                print()
                ok = ok and golden.ok
            for dataset in args.datasets:
                for pattern in args.patterns:
                    report = oracle_cell(dataset, pattern, scale=scale)
                    print(report.render())
                    ok = ok and report.ok
        finally:
            detach()

    if command in ("all", "invariants"):
        from .experiments.runner import eval_config, get_graph, get_schedule

        datasets = args.datasets if command == "invariants" else ["wi"]
        print()
        for dataset in datasets:
            graph = get_graph(dataset, scale)
            for pattern in args.patterns:
                schedule = get_schedule(pattern)
                for policy in ORACLE_POLICIES:
                    _, checker = checked_simulate(
                        graph, schedule, policy=policy, config=eval_config()
                    )
                    print(f"{dataset}@{scale:g} × {pattern}: {checker.report()}")
                    ok = ok and checker.ok

    print()
    print(f"validate {command}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_serve(args) -> int:
    import asyncio

    from .orchestrator import ResultCache, cache_enabled
    from .service import serve

    cache = None
    if not args.no_cache and cache_enabled():
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()

    log_file = open(args.log, "a", encoding="utf-8") if args.log else None

    def log(line: str) -> None:
        stamped = f"[{time.strftime('%H:%M:%S')}] {line}"
        print(stamped, file=sys.stderr)
        if log_file is not None:
            log_file.write(stamped + "\n")
            log_file.flush()

    # parse_address treats a bare path as a unix socket, so the same
    # REPRO_SERVE_SOCKET value works for serve and for the clients.
    addresses = [_service_address(args)]
    if args.tcp:
        addresses.append(f"tcp:{args.tcp}")

    def ready(listeners) -> None:
        for listener in listeners:
            log(f"listening on {listener.describe()}")

    try:
        stats = asyncio.run(serve(
            addresses,
            jobs=args.jobs,
            cache=cache,
            queue_limit=args.queue_limit,
            timeout=args.timeout,
            log=log,
            ready=ready,
        ))
    finally:
        if log_file is not None:
            log_file.close()
    print(f"served {stats.get('submitted', 0)} submission(s): "
          f"{stats.get('cache_hits', 0)} from cache, "
          f"{stats.get('coalesced', 0)} coalesced, "
          f"{stats.get('executed', 0)} executed, "
          f"{stats.get('failed', 0)} failed")
    return 0


def _parse_config_overrides(pairs) -> dict:
    """``FIELD=VALUE`` strings to a wire config dict (JSON-ish values)."""
    import json

    overrides = {}
    for pair in pairs:
        field_name, sep, raw = pair.partition("=")
        if not sep or not field_name:
            raise SystemExit(f"--config needs FIELD=VALUE, got {pair!r}")
        try:
            overrides[field_name] = json.loads(raw)
        except ValueError:
            overrides[field_name] = raw  # bare strings (policy names etc.)
    return overrides


def cmd_submit(args) -> int:
    import json

    from .service import call
    from .sim.metrics import RunMetrics

    cell = {
        "dataset": args.dataset,
        "pattern": args.pattern,
        "policy": args.policy,
        "verify": not args.no_verify,
    }
    if args.scale is not None:
        cell["scale"] = args.scale
    overrides = _parse_config_overrides(args.config)
    if overrides:
        cell["config"] = overrides

    def on_event(event: dict) -> None:
        if not args.json:
            print(f"[{event.get('event')}] job={event.get('job')} "
                  f"t={event.get('ts', 0.0):.2f}s", file=sys.stderr)

    async def exchange(client):
        return await client.submit(cell, watch=args.watch,
                                   on_event=on_event if args.watch else None)

    final = call(_service_address(args), exchange,
                 timeout=args.connect_timeout)
    if args.json:
        print(json.dumps(final, indent=2, sort_keys=True))
        return 0 if final.get("event") == "done" else 1
    if final.get("event") == "done":
        metrics = RunMetrics.from_dict(final["metrics"])
        print(metrics.summary())
        print(f"source={final.get('source')} seconds={final.get('seconds', 0.0):.2f} "
              f"job={final.get('job')}")
        return 0
    error = final.get("error", {})
    print(f"submit failed: {error.get('type', 'Error')}: "
          f"{error.get('message', '')}", file=sys.stderr)
    return 1


def cmd_worker(args) -> int:
    from .distributed import run_worker

    _apply_backend(args)
    log = None
    if args.quiet:
        log = lambda line: None  # noqa: E731 - explicit no-op sink
    return run_worker(
        args.address,
        name=args.name,
        slots=args.slots,
        connect_timeout=args.connect_timeout,
        log=log,
    )


def cmd_jobs(args) -> int:
    from .service import call

    async def exchange(client):
        return await client.jobs()

    reply = call(_service_address(args), exchange, timeout=args.connect_timeout)
    jobs = reply.get("jobs", [])
    if not jobs:
        print("no jobs")
    for job in jobs:
        line = (f"{job.get('job')}: {job.get('label')} "
                f"[{job.get('state')}] subscribers={job.get('subscribers', 0)}")
        if job.get("source"):
            line += f" source={job['source']}"
        if job.get("seconds"):
            line += f" {job['seconds']:.2f}s"
        print(line)
    staging = reply.get("staging", [])
    if staging:
        print("staged graphs: " + ", ".join(
            f"{record.get('dataset')}@{record.get('scale'):g} "
            f"({record.get('source')})"
            for record in staging
        ))
    return 0


def cmd_shutdown(args) -> int:
    from .service import call

    async def exchange(client):
        return await client.shutdown(drain=not args.no_drain)

    reply = call(_service_address(args), exchange, timeout=args.connect_timeout)
    mode = "drain" if reply.get("drain", True) else "immediate"
    print(f"shutdown requested ({mode})")
    return 0


def cmd_cache(args) -> int:
    from .graph.arena import GraphStore
    from .orchestrator import ResultCache

    if args.cache_command == "graphs":
        store = GraphStore(args.graph_dir) if args.graph_dir else GraphStore()
        if args.graphs_command == "info":
            print(store.info().render())
        else:
            removed = store.clear()
            print(f"removed {removed} stored graph file(s) from {store.root}")
        return 0
    cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    if args.cache_command == "info":
        print(cache.info().render())
        print()
        print(GraphStore().info().render())
    else:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "count": cmd_count,
        "simulate": cmd_simulate,
        "profile": cmd_profile,
        "experiment": cmd_experiment,
        "validate": cmd_validate,
        "serve": cmd_serve,
        "worker": cmd_worker,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
        "shutdown": cmd_shutdown,
        "cache": cmd_cache,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
