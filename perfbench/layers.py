"""Per-layer self-time tracing of `repro`, installed from outside it.

A :class:`Tracer` replaces the methods and functions at the layer
boundaries that :func:`install_sim` and :func:`install_sweep` list with
timing wrappers, at class or module level only.  Instance attributes
would change what the simulator runs: an instance
``_start_task``/``_complete_task`` on a PE (or ``acquire``/``release`` on
a token pool) sends every task down the per-event booking path and pins
the task tree to its object path.  Install before the ``Accelerator`` is
built, because a PE binds some of these methods at construction.

Per-task boundaries fire hundreds of thousands of times in one run, so
each layer keeps only running totals: self nanoseconds (its span minus
the spans of wrapped calls inside it) and calls, plus the total span and
a tally of results on the few boundaries that need them.  Pool workers
inherit the wrappers through ``fork``; the worker-group wrapper resets
the inherited totals on first use in a new process and dumps the
worker's totals to a JSON file after every group, which the benchmark
merges after the pass.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Per-layer record layout: [self_ns, span_ns, calls, tally].
SELF, SPAN, CALLS, TALLY = range(4)


def _hit(result) -> int:
    return 0 if result is None else 1


class Tracer:
    """Running per-layer totals plus the wrappers that feed them."""

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self.totals: Dict[str, List[int]] = {}
        self.dump_dir = dump_dir
        self.origin = self.pid = os.getpid()
        # Child-span accumulators of the open wrapped calls; the bottom
        # entry collects time spent in top-level spans.
        self._stack: List[int] = [0]
        self._open: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def record(self, layer: str) -> List[int]:
        return self.totals.setdefault(layer, [0, 0, 0, 0])

    def _wrapper(
        self,
        fn: Callable,
        layer: str,
        tally: Optional[Callable] = None,
        scope: bool = False,
        unless_in: Optional[str] = None,
        span: bool = False,
    ) -> Callable:
        rec = self.record(layer)
        stack = self._stack
        opened = self._open
        perf = time.perf_counter_ns

        if tally is None and not scope and unless_in is None and not span:
            # The hot shape, for per-task boundaries: no span total.
            def wrapper(*args, **kwargs):
                stack.append(0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    rec[0] += dt - child
                    rec[2] += 1

        else:

            def wrapper(*args, **kwargs):
                if unless_in is not None and opened.get(unless_in):
                    return fn(*args, **kwargs)
                if scope:
                    opened[layer] = opened.get(layer, 0) + 1
                stack.append(0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                    if tally is not None:
                        rec[3] += tally(result)
                    return result
                finally:
                    dt = perf() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    rec[0] += dt - child
                    rec[1] += dt
                    rec[2] += 1
                    if scope:
                        opened[layer] -= 1

        return functools.update_wrapper(wrapper, fn)

    def wrap(self, owner, attr: str, layer: str, **options) -> None:
        """Replace ``owner.attr`` (a class or module) with a timed wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._wrapper(original, layer, **options))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` once as a span of ``layer`` (set-up phases)."""
        return self._wrapper(fn, layer)(*args, **kwargs)

    def reset(self) -> None:
        for rec in self.totals.values():
            rec[:] = [0, 0, 0, 0]
        self._stack[:] = [0]
        self._open.clear()

    # ------------------------------------------------------------------
    def wrap_worker_entry(self, owner, attr: str) -> None:
        """Wrap a pool's per-task entry point for totals hand-back.

        The wrapper keeps the original's module and name, so the pool
        pickles it by reference and workers resolve it to themselves.
        """
        fn = getattr(owner, attr)
        timed = self._wrapper(fn, "orchestrator.worker")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                # First group in a forked worker: drop the parent's
                # totals and open spans inherited through fork.
                self.pid = os.getpid()
                self.reset()
            try:
                return timed(*args, **kwargs)
            finally:
                self.dump()

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def dump(self) -> None:
        """Write this worker's totals (the creating process never dumps)."""
        if self.dump_dir is None or os.getpid() == self.origin:
            return
        path = os.path.join(self.dump_dir, f"trace-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.totals, handle)
        os.replace(tmp, path)


def merge_dumps(dump_dir: str) -> Dict[str, List[int]]:
    """Sum the totals every worker dumped into ``dump_dir``."""
    merged: Dict[str, List[int]] = {}
    for name in sorted(os.listdir(dump_dir)):
        if not (name.startswith("trace-") and name.endswith(".json")):
            continue
        with open(os.path.join(dump_dir, name), encoding="utf-8") as handle:
            for layer, rec in json.load(handle).items():
                into = merged.setdefault(layer, [0, 0, 0, 0])
                for i, value in enumerate(rec):
                    into[i] += value
    return merged


# ----------------------------------------------------------------------
# layer boundaries
# ----------------------------------------------------------------------

#: Simulator memory-system entry points (DRAM and NoC modelling inside).
MEMORY_METHODS = (
    "fetch_intermediate", "fetch_intermediate_span", "fetch_intermediate_line",
    "fetch_graph", "fetch_graph_spans", "install_intermediate",
    "install_intermediate_span", "warm_l1", "warm_l1_span",
)

#: Per-event booking stages of a PE (the path the macro core escapes to).
BOOK_METHODS = ("_book_task", "_book_front", "_book_leaf", "_book_body", "_book_tail")


def _defining_class(cls: type, attr: str) -> Optional[type]:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    return None


def install_sim(tracer: Tracer) -> None:
    """Wrap every simulator boundary (one accelerator run and below)."""
    from repro.core.policies.base import SchedulingPolicy
    from repro.mining.tree import SearchContext
    from repro.sim import backend
    from repro.sim.accelerator import POLICIES, Accelerator
    from repro.sim.backend.macro import MacroCore
    from repro.sim.engine import Engine
    from repro.sim.fu import IUPool
    from repro.sim.memory import MemorySystem
    from repro.sim.pe import PE

    tracer.wrap(backend, "activate", "sim.backend.load")
    tracer.wrap(Accelerator, "__init__", "sim.accelerator.build")
    tracer.wrap(Accelerator, "run", "sim.accelerator.run")
    tracer.wrap(Engine, "run", "sim.engine.self")
    tracer.wrap(PE, "_dispatch", "sim.pe.dispatch")
    tracer.wrap(PE, "dispatch_events", "sim.pe.complete")
    tracer.wrap(PE, "dispatch_event", "sim.pe.complete")
    tracer.wrap(PE, "_derive", "sim.pe.derive")
    for name in BOOK_METHODS:
        tracer.wrap(PE, name, "sim.pe.book")
    tracer.wrap(MacroCore, "start", "sim.backend.macro")
    for name in MEMORY_METHODS:
        tracer.wrap(MemorySystem, name, "sim.memory")
    tracer.wrap(IUPool, "submit", "sim.fu.submit")
    tracer.wrap(SearchContext, "expand", "mining.tree.expand")
    tracer.wrap(SearchContext, "children", "mining.tree.children")
    seen = set()
    for policy in POLICIES.values():
        for attr, layer in (
            ("select_task", "core.policy.select"),
            ("select_tasks", "core.policy.select"),
            ("on_task_complete", "core.policy.complete"),
        ):
            owner = _defining_class(policy, attr)
            if owner is None or owner is SchedulingPolicy or (owner, attr) in seen:
                continue
            seen.add((owner, attr))
            tracer.wrap(owner, attr, layer)


def install_sweep(tracer: Tracer) -> None:
    """Wrap the orchestration boundaries, parent and pool-worker side."""
    from repro.experiments import runner
    from repro.orchestrator import scheduler
    from repro.orchestrator.cache import ResultCache
    from repro.orchestrator.manifest import RunManifest

    tracer.wrap(scheduler.Orchestrator, "run_experiments", "orchestrator.run")
    tracer.wrap(scheduler, "plan_experiment", "orchestrator.plan", scope=True)
    tracer.wrap(scheduler.Orchestrator, "_stage_graphs", "graph.stage")
    tracer.wrap(
        scheduler.Orchestrator, "_run_wave_pool", "orchestrator.pool_wait", span=True
    )
    tracer.wrap(ResultCache, "get", "orchestrator.cache_get", tally=_hit)
    tracer.wrap(ResultCache, "put", "orchestrator.cache_put")
    tracer.wrap(
        scheduler, "_call_experiment", "experiments.render",
        unless_in="orchestrator.plan",
    )
    tracer.wrap(RunManifest, "save", "orchestrator.manifest")
    tracer.wrap(runner, "count_matches", "mining.engine.reference")
    tracer.wrap_worker_entry(scheduler, "_execute_cell_group")


def covered_seconds(totals: Dict[str, List[int]]) -> float:
    """Σ self time of every layer."""
    return sum(rec[SELF] for rec in totals.values()) / 1e9
