"""Kernel benchmarks: vectorized hot paths vs the in-repo pure-Python
references, plus an end-to-end cell timing, emitted as ``BENCH_kernels.json``.

Each kernel benchmark times the production (numpy-vectorized) implementation
against the reference implementation this repository keeps as its test
oracle, on workloads drawn from a real dataset cell (``lj`` adjacency
sets).  Correctness is asserted inline — the speedup numbers are only
meaningful if both sides compute the same thing.

Output and regression gate
--------------------------
The final test aggregates every record into ``BENCH_kernels.json`` at the
repository root and compares the end-to-end cell timings against the
committed baseline ``benchmarks/BENCH_kernels_baseline.json``:

* a cell regressing more than 25% versus the baseline **fails** the test;
* any kernel whose measured speedup drops below 1.0× versus its in-repo
  reference loop **fails** the test (vectorized paths must never lose);
* baseline cell times are rescaled by a pure-Python calibration loop
  measured in the same process, so a uniformly slower/faster CI machine
  does not trip (or mask) the gate;
* ``REPRO_UPDATE_BENCH_BASELINE=1`` rewrites the baseline in place;
* ``REPRO_BENCH_GATE=0`` disables the gate (records only).

Timing methodology follows docs/performance.md: best-of-N, no profiler
instrumentation.  Kernel vec/ref pairs use the wall clock (the ratio is
load-immune — both sides run back-to-back); the absolute cell timings
gated against the baseline use ``process_time``, which co-tenant load
cannot touch.
"""

import gc
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import eval_config
from repro.graph import load_dataset
from repro.mining import (
    as_sorted_array,
    intersect,
    intersect_multi,
    intersect_multi_reference,
    intersect_reference,
)
from repro.patterns import benchmark_schedule
from repro.sim import Accelerator, Engine, simulate
from repro.sim import backend as kernel_backend
from tests.oracles import legacy_drain, unbind_macro

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_kernels.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_kernels_baseline.json"
REGRESSION_LIMIT = 1.25
#: Allowance for the frozen cross-session anchor (``PR9_GATE_CELL``).
#: Wider than ``REGRESSION_LIMIT``: the committed baseline is re-recorded
#: on the measuring machine so only short-term drift separates the two
#: runs, while the anchor crosses sessions on shared single-vCPU runners
#: whose co-tenant regime can shift the memory-heavy cells' CPI further
#: than the L1-resident calibration spin registers.  It still catches a
#: gross control-plane regression (the failure mode it exists for)
#: without flapping under host contention.
ANCHOR_LIMIT = 1.4

#: The PR 9 perf-smoke record for the Shogun gate cell (cext, scale
#: 0.3, this container), frozen as the compiled-control-plane
#: regression anchor: the SoA scheduler rework runs on exactly this
#: cell's path, so its CPU time must stay within ``REGRESSION_LIMIT``
#: of the record after the usual calibration rescale.  CPU time, not
#: the wall-clock kernel pairs — absolute cross-session comparisons
#: need a clock that is blind to co-tenant load (see ``_best_of``).  A
#: constant, not a baseline-file field, so a baseline regen cannot
#: silently move the anchor.
PR9_GATE_CELL = {
    "name": "lj:4cl:shogun",
    "scale": 0.3,
    "cpu_s": 0.17817530199999965,
    "calibration_cpu_s": 0.018286314999997444,
    "backend": "cext",
}

#: Shared across the tests in this module; ``test_zz_emit_and_gate`` (which
#: sorts last in file order) writes the file and applies the gate.
RESULTS = {"kernels": {}, "cells": {}}


def _best_of(fn, repeats=7, clock=time.perf_counter):
    """Best-of-N timing: robust to scheduler noise on shared runners.

    Garbage collection is paused across the timed region (``timeit``'s
    methodology): an incidental gen-2 collection landing inside one
    repeat is pure noise, and on the allocation-heavy simulator cells it
    is large enough to flip a marginal kernel across the 1.0× gate.

    Kernel vec/ref pairs keep the default wall clock — both sides run
    back-to-back in the same machine state, so load cancels out of the
    ratio.  The *absolute* cell timings gated against a committed
    baseline pass ``time.process_time`` instead: CPU time is blind to
    co-tenant load, which routinely swings wall clock by tens of
    percent on shared runners (frequency/IPC drift is what the
    calibration rescale is for).

    One untimed warm-up call runs before the clock starts: first-call
    costs — a compiled backend's shared-library load, a cold dataset
    memo — are startup artifacts, not kernel cost, and
    best-of-N only dilutes them instead of excluding them when every
    repeat pays the same lazy bill.
    """
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fn()
        for _ in range(repeats):
            start = clock()
            fn()
            best = min(best, clock() - start)
            gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return best


def _record_kernel(name, vectorized_s, reference_s, detail):
    RESULTS["kernels"][name] = {
        "vectorized_s": vectorized_s,
        "reference_s": reference_s,
        "speedup": reference_s / vectorized_s if vectorized_s > 0 else float("inf"),
        "detail": detail,
    }


def _calibration_cpu():
    """A fixed pure-Python workload; its CPU time tracks interpreter speed."""
    def spin():
        total = 0
        for i in range(400_000):
            total += i * i
        return total

    return _best_of(spin, repeats=3, clock=time.process_time)


@pytest.fixture(scope="module")
def adjacency():
    """Representative sorted neighbor sets: the ``lj`` stand-in's densest
    vertices at full scale, exactly the operands a 4-clique cell feeds the
    set-op FU.  Kernel operands deliberately ignore ``REPRO_SCALE`` — a
    scaled-down graph shrinks the sets until numpy call overhead, not the
    kernel, dominates; only the end-to-end cell timing honors the scale."""
    graph = load_dataset("lj", scale=1.0)
    order = np.argsort(graph.degrees)[::-1]
    sets = [graph.neighbors(int(v)) for v in order[:128]]
    return [s for s in sets if len(s) >= 2]


class TestKernelSetOps:
    def test_intersect_vs_reference(self, adjacency):
        pairs = [
            (adjacency[i], adjacency[(i * 7 + 3) % len(adjacency)])
            for i in range(len(adjacency))
        ]
        for a, b in pairs[:16]:
            assert list(intersect(a, b)) == intersect_reference(list(a), list(b))
        list_pairs = [(list(a), list(b)) for a, b in pairs]
        vec = _best_of(lambda: [intersect(a, b) for a, b in pairs])
        ref = _best_of(lambda: [intersect_reference(a, b) for a, b in list_pairs])
        _record_kernel(
            "setops_intersect", vec, ref,
            f"{len(pairs)} adjacency-pair intersections, lj top-degree sets",
        )

    def test_intersect_multi_vs_reference(self, adjacency):
        triples = [
            [adjacency[i], adjacency[(i * 5 + 1) % len(adjacency)],
             adjacency[(i * 11 + 2) % len(adjacency)]]
            for i in range(len(adjacency))
        ]
        for arrays in triples[:8]:
            assert list(intersect_multi(arrays)) == intersect_multi_reference(
                [list(a) for a in arrays]
            )
        list_triples = [[list(a) for a in arrays] for arrays in triples]
        vec = _best_of(lambda: [intersect_multi(t) for t in triples])
        ref = _best_of(lambda: [intersect_multi_reference(t) for t in list_triples])
        _record_kernel(
            "setops_intersect_multi", vec, ref,
            f"{len(triples)} three-way intersections, lj top-degree sets",
        )

    def test_as_sorted_array_fast_path(self, adjacency):
        arrays = [np.asarray(a, dtype=np.int64) for a in adjacency]
        for arr in arrays[:8]:
            assert list(as_sorted_array(arr)) == list(as_sorted_array(list(arr)))
        vec = _best_of(lambda: [as_sorted_array(a) for a in arrays])
        # The pre-fast-path behaviour for ndarray input: materialize a list,
        # then sort-unique it — that conversion is part of the "before".
        ref = _best_of(lambda: [as_sorted_array(list(a)) for a in arrays])
        _record_kernel(
            "as_sorted_array_ndarray_fast_path", vec, ref,
            f"{len(arrays)} already-sorted neighbor arrays vs list round-trip",
        )


class TestKernelBackendCompiled:
    """Compiled kernel backend vs the pure reference kernel set.

    Operands mirror the simulator's real call shapes: neighbor sets for
    the three set-op kernels, plus the macro-step core's whole-cell
    drain.  The set-op corpus mixes the wi stand-in's sets (small: the
    stand-in truncates hub degrees) with hub-scale sorted sets at the
    degree range of the paper's real datasets (wiki-Vote hubs reach
    ~1000 neighbors) — set-op cost grows with operand size, so hub
    expansions dominate real mining wall time and a time-weighted mix is
    what the speedup should measure.  Correctness is asserted inline
    (outputs must match pure exactly); the gate in
    ``test_zz_emit_and_gate`` requires at least three ``backend_*``
    kernels at >= 2x when a compiled backend is present, which with the
    three set-op records means all of them.
    """

    @pytest.fixture(scope="class")
    def kernel_sets(self):
        if not kernel_backend.available_backends()["cext"][0]:
            pytest.skip("no compiled backend available (cffi/cc missing)")
        return (
            kernel_backend._get_instance("cext"),
            kernel_backend._get_instance("pure"),
        )

    @pytest.fixture(scope="class")
    def neighbor_sets(self):
        """wi stand-in top-degree sets plus hub-scale synthetic sets,
        sorted by size.

        Pairing walks this sorted list, so operands meet like-sized
        partners — the shape of same-depth expansions, and the merge
        regime where set-op wall time actually accumulates (cost grows
        with operand size, so hub-hub merges dominate real runs).
        """
        graph = load_dataset("wi", scale=1.0)
        order = np.argsort(graph.degrees)[::-1]
        sets = [graph.neighbors(int(v)) for v in order[:64]]
        sets = [s for s in sets if len(s) >= 4]
        rng = np.random.default_rng(20230613)
        for size in (256, 384, 512, 768, 1024, 1400, 2048):
            for _ in range(10):
                sets.append(as_sorted_array(
                    np.unique(rng.integers(0, size * 4, size * 2))
                ))
        return sorted(sets, key=len)

    def test_backend_intersect(self, kernel_sets, neighbor_sets):
        compiled, pure = kernel_sets
        last = len(neighbor_sets) - 1
        pairs = [
            (neighbor_sets[i], neighbor_sets[min(i + 1, last)])
            for i in range(last)
        ]
        for a, b in pairs[:16]:
            assert list(compiled.intersect(a, b)) == list(pure.intersect(a, b))
        vec = _best_of(lambda: [compiled.intersect(a, b) for a, b in pairs])
        ref = _best_of(lambda: [pure.intersect(a, b) for a, b in pairs])
        _record_kernel(
            "backend_intersect", vec, ref,
            f"{len(pairs)} like-sized neighbor-set intersections "
            f"(wi + hub-scale), {compiled.name} backend vs pure/numpy",
        )

    def test_backend_subtract(self, kernel_sets, neighbor_sets):
        compiled, pure = kernel_sets
        last = len(neighbor_sets) - 1
        pairs = [
            (neighbor_sets[i], neighbor_sets[min(i + 2, last)])
            for i in range(last)
        ]
        for a, b in pairs[:16]:
            assert list(compiled.subtract(a, b)) == list(pure.subtract(a, b))
        vec = _best_of(lambda: [compiled.subtract(a, b) for a, b in pairs])
        ref = _best_of(lambda: [pure.subtract(a, b) for a, b in pairs])
        _record_kernel(
            "backend_subtract", vec, ref,
            f"{len(pairs)} like-sized neighbor-set subtractions "
            f"(wi + hub-scale), {compiled.name} backend vs pure/numpy",
        )

    def test_backend_intersect_multi(self, kernel_sets, neighbor_sets):
        """Chained intersections through the live setops dispatcher."""
        compiled, pure = kernel_sets
        last = len(neighbor_sets) - 1
        triples = [
            [neighbor_sets[i], neighbor_sets[min(i + 1, last)],
             neighbor_sets[min(i + 2, last)]]
            for i in range(last)
        ]
        before = kernel_backend.active()
        try:
            kernel_backend._install(compiled)
            for arrays in triples[:8]:
                assert list(intersect_multi(arrays)) == intersect_multi_reference(
                    [list(a) for a in arrays]
                )
            vec = _best_of(lambda: [intersect_multi(t) for t in triples])
            kernel_backend._install(pure)
            ref = _best_of(lambda: [intersect_multi(t) for t in triples])
        finally:
            kernel_backend._install(before)
        _record_kernel(
            "backend_intersect_multi", vec, ref,
            f"{len(triples)} like-sized three-way intersections "
            f"(wi + hub-scale) through the setops dispatcher, "
            f"{compiled.name} vs pure",
        )

    def test_engine_macro_drain(self, kernel_sets):
        """Macro-step compiled drain vs per-event booking, end to end.

        A policy-light 4-clique run (lj, plain BFS — scheduler time is
        not drain cost) under the compiled backend, once with the
        macro-step engine core draining whole task bookings in C and
        once on the same accelerator with the core unbound, so every
        task books per-event (``tests/oracles.py``).  Metrics are
        asserted identical before timing — the macro core's acceptance
        bar is bit-identity, the speedup is only meaningful against an
        equivalent run.  Like the set-op operands above, this kernel
        deliberately ignores ``REPRO_SCALE``: the drain's advantage
        grows with span length (one C call replaces a whole multi-line
        fetch/issue/writeback pipeline), and the reduced-scale stand-in
        truncates spans below the regime the core targets.  Recorded
        only when a compiled backend exists (this class skips
        otherwise): the core is bound only under a compiled backend.
        """
        compiled, _ = kernel_sets
        graph = load_dataset("lj", scale=1.0)
        schedule = benchmark_schedule("4cl")
        config = eval_config().replace(backend=compiled.name)

        def run_macro():
            return simulate(graph, schedule, policy="bfs", config=config)

        def run_per_event():
            accel = Accelerator(graph, schedule, config, "bfs")
            return unbind_macro(accel).run()

        before = kernel_backend.active()
        try:
            vec = _best_of(run_macro, repeats=5, clock=time.process_time)
            ref = _best_of(run_per_event, repeats=5, clock=time.process_time)
            assert run_macro().to_dict() == run_per_event().to_dict()
        finally:
            kernel_backend._install(before)
        _record_kernel(
            "engine_macro_drain", vec, ref,
            f"lj 4-clique BFS end-to-end at full scale, {compiled.name} "
            f"macro-step drain vs per-event booking "
            f"(bit-identical metrics)",
        )


class TestKernelTaskTree:
    """Task-tree ops: cext vs the pure backend's interpreted ops.

    The scheduler ops (``select``/``fill``, bound by each backend's
    ``tree_bind``) run over a real ``TaskTreeState`` built from the
    evaluation config.  Both sides start from one snapshot and the full
    array state is asserted equal afterwards — a speedup over a
    divergent computation would be meaningless.
    """

    @pytest.fixture(scope="class")
    def kernel_sets(self):
        if not kernel_backend.available_backends()["cext"][0]:
            pytest.skip("no compiled backend available (cffi/cc missing)")
        return (
            kernel_backend._get_instance("cext"),
            kernel_backend._get_instance("pure"),
        )

    @staticmethod
    def _make_state(max_depth=5):
        from repro.core.task_tree import TaskTreeState

        return TaskTreeState(eval_config(), max_depth)

    _ARRAYS = (
        "b_in_use", "b_tree", "b_quiesced", "b_active", "b_executing",
        "ring", "ring_head", "ring_len",
        "e_vertex", "e_child_index", "e_token",
        "tok_free", "tok_n", "ctl",
    )

    @classmethod
    def _snapshot(cls, state):
        return {name: getattr(state, name).copy() for name in cls._ARRAYS}

    @classmethod
    def _restore(cls, state, snap):
        # In place: the cext struct binder pinned these buffers.
        for name, saved in snap.items():
            getattr(state, name)[:] = saved

    @classmethod
    def _assert_state_equal(cls, a, b):
        for name in cls._ARRAYS:
            np.testing.assert_array_equal(
                getattr(a, name), getattr(b, name), err_msg=name
            )

    @classmethod
    def _fill_all(cls, state, ops, vertices):
        """Admit a full candidate span into every bunch (depths >= 1)."""
        for b in range(int(state.d_start[1]), state.nb):
            ops.fill(b, 1, 0, vertices, 0, int(state.b_cap[b]))

    def test_tree_select(self, kernel_sets):
        """Batch selection over a fully loaded tree: sibling preference,
        round-robin, token acquisition, and — once each non-leaf depth's
        pool drains — the fruitless token-validity stall scans."""
        compiled, pure = kernel_sets
        vertices = np.arange(64, dtype=np.int64)

        def drain(state, ops):
            while ops.select(0, 8):
                pass

        sides = {}
        for name, kernels in (("compiled", compiled), ("pure", pure)):
            state = self._make_state()
            ops = kernels.tree_bind(state)
            self._fill_all(state, ops, vertices)
            snap = self._snapshot(state)
            drain(state, ops)
            sides[name] = state

            def run(state=state, ops=ops, snap=snap):
                for _ in range(40):
                    self._restore(state, snap)
                    drain(state, ops)

            sides[name + "_s"] = _best_of(run)
        self._assert_state_equal(sides["compiled"], sides["pure"])
        _record_kernel(
            "tree_select", sides["compiled_s"], sides["pure_s"],
            f"40 full-tree batch-select drains ({compiled.name} vs "
            "pure tree ops), tokens exhausting per non-leaf depth",
        )

    def test_tree_fill(self, kernel_sets):
        """Batch child admission: every bunch filled from one contiguous
        candidate span per restore."""
        compiled, pure = kernel_sets
        vertices = np.arange(64, dtype=np.int64)

        sides = {}
        for name, kernels in (("compiled", compiled), ("pure", pure)):
            state = self._make_state()
            ops = kernels.tree_bind(state)
            snap = self._snapshot(state)
            self._fill_all(state, ops, vertices)
            sides[name] = state

            def run(state=state, ops=ops, snap=snap):
                for _ in range(100):
                    self._restore(state, snap)
                    self._fill_all(state, ops, vertices)

            sides[name + "_s"] = _best_of(run)
        self._assert_state_equal(sides["compiled"], sides["pure"])
        _record_kernel(
            "tree_fill", sides["compiled_s"], sides["pure_s"],
            f"100 whole-tree bunch admissions ({compiled.name} vs "
            "pure tree ops), 8-entry spans",
        )


def _noop():
    pass


class TestKernelEngine:
    @staticmethod
    def _storm(engine, fanout=1000):
        def emit(depth):
            if depth < 3:
                for _ in range(2):
                    engine.after(0, lambda: emit(depth + 1))
                engine.after(1, lambda: emit(3))

        for i in range(fanout):
            engine.at(i % 7, lambda: emit(0))

    @staticmethod
    def _prefill(engine, groups=1500, ties=64):
        at = engine.at
        for t in range(groups):
            ft = float(t)
            for _ in range(ties):
                at(ft, _noop)

    def test_coalesced_vs_legacy_drain_loop(self):
        """The same-cycle coalescing drain loop (``Engine.run``) vs the
        per-event loop it replaced (``legacy_drain`` in
        ``tests/oracles.py``, given an unreachable ``max_events``).

        Equivalence is asserted on a callback-heavy storm (events
        scheduling same-cycle events mid-drain), but the *timing* uses a
        prefilled tie-heavy queue of no-op callbacks: in the storm the
        closures and ``after`` calls dominate the wall, diluting the
        drain-loop difference below measurement noise.
        """
        coalesced = Engine.run

        def legacy(engine):
            return legacy_drain(engine, 10_000_000)

        def run_storm(drain):
            engine = Engine()
            self._storm(engine)
            executed = drain(engine)
            return executed, engine.now

        assert run_storm(coalesced) == run_storm(legacy)

        proto = Engine()
        self._prefill(proto)

        def run_drain(drain):
            engine = Engine()
            # Copy the prefilled time heap and buckets so the (identical)
            # fill cost stays out of the timed drain.
            engine._times = proto._times.copy()
            engine._buckets = {t: list(b) for t, b in proto._buckets.items()}
            engine._pending = proto._pending
            executed = drain(engine)
            return executed, engine.now

        assert run_drain(coalesced) == run_drain(legacy)
        vec = _best_of(lambda: run_drain(coalesced))
        ref = _best_of(lambda: run_drain(legacy))
        _record_kernel(
            "engine_coalesced_drain", vec, ref,
            "96k-event tie-heavy no-op drain (1500 cycles x 64 ties), "
            "coalesced vs per-event loop, queue prefilled outside the clock",
        )


class TestKernelGraphLoad:
    """Dataset staging kernels: text parse, binary store, arena attach.

    All three compare against the path they replaced — the line-by-line
    text parser and the synthetic generator rebuild — on the ``lj``
    stand-in at full scale (the largest graph the orchestrator stages).
    """

    def test_edge_list_text_parse(self, tmp_path_factory):
        from repro.graph import load_edge_list_reference, save_edge_list
        from repro.graph.builders import from_edge_array
        from repro.graph.io import _parse_edge_bytes

        graph = load_dataset("lj", scale=1.0)
        path = tmp_path_factory.mktemp("bench-io") / "lj.txt"
        save_edge_list(graph, path)
        data = path.read_bytes()

        def fast():
            pairs = _parse_edge_bytes(data)
            assert pairs is not None  # the fast path must cover this file
            return from_edge_array(pairs, name="lj")

        parsed = fast()
        reference = load_edge_list_reference(path, name="lj")
        assert np.array_equal(parsed.indptr, reference.indptr)
        assert np.array_equal(parsed.indices, reference.indices)
        vec = _best_of(fast, repeats=3)
        ref = _best_of(lambda: load_edge_list_reference(path, name="lj"), repeats=3)
        _record_kernel(
            "graph_load_text", vec, ref,
            f"lj edge list ({graph.num_edges} edges), vectorized tokenizer "
            "vs line-by-line reference parser",
        )

    def test_binary_store_vs_rebuild(self, tmp_path_factory):
        from repro.graph.arena import GraphStore
        from repro.graph.datasets import get_spec

        spec = get_spec("lj")
        graph = load_dataset("lj", scale=1.0)
        store = GraphStore(tmp_path_factory.mktemp("bench-store"))
        store.put("lj", 1.0, graph)

        loaded = store.get("lj", 1.0)
        assert np.array_equal(loaded.indptr, graph.indptr)
        assert np.array_equal(loaded.indices, graph.indices)
        vec = _best_of(lambda: store.get("lj", 1.0), repeats=3)
        ref = _best_of(lambda: spec.builder(1.0), repeats=3)
        _record_kernel(
            "graph_load_binary", vec, ref,
            "lj@1.0 from the content-addressed npz store vs generator rebuild",
        )

    def test_arena_attach_vs_rebuild(self):
        from repro.graph import arena as arena_module
        from repro.graph import datasets as datasets_module
        from repro.graph.arena import GraphArena
        from repro.graph.datasets import get_spec

        if not GraphArena.available():
            pytest.skip("no usable shared memory here")
        spec = get_spec("lj")
        graph = load_dataset("lj", scale=1.0)
        with GraphArena() as arena:
            handle = arena.stage("lj", 1.0, graph)

            def attach_once():
                # Attach from scratch each repeat: drop this process's
                # segment memo, and keep the dataset memo untouched.
                arena_module._reset_local()
                saved = datasets_module._CACHE.pop(("lj", 1.0), None)
                attached = arena_module.attach(handle)
                if saved is not None:
                    datasets_module._CACHE[("lj", 1.0)] = saved
                return attached

            attached = attach_once()
            assert np.array_equal(attached.indptr, graph.indptr)
            assert np.array_equal(attached.indices, graph.indices)
            vec = _best_of(attach_once, repeats=5)
            ref = _best_of(lambda: spec.builder(1.0), repeats=3)
            arena_module._reset_local()
        _record_kernel(
            "arena_attach", vec, ref,
            "lj@1.0 zero-copy shared-memory attach vs generator rebuild",
        )


class TestKernelService:
    def test_service_roundtrip_vs_direct(self, scale, tmp_path_factory):
        """Submit→result latency of a *cached* cell over the in-process
        transport vs executing the same cell directly.  This is the
        daemon's read-through fast path: the whole protocol stack
        (codec round-trip, dispatch, cache lookup, event delivery) must
        stay far cheaper than one simulation."""
        import asyncio

        from repro.experiments.runner import simulate_cell
        from repro.orchestrator import CellSpec, ResultCache, cell_key
        from repro.service import AsyncServiceClient, serve_inproc

        config = eval_config()

        def direct():
            return simulate_cell(
                "wi", "tc", "shogun", config=config, scale=scale, verify=True
            )

        cache = ResultCache(tmp_path_factory.mktemp("bench-service"))
        metrics = direct()
        spec = CellSpec("wi", "tc", "shogun", scale, config, True)
        cache.put(spec, cell_key(spec), metrics, 0.0)
        cell = {"dataset": "wi", "pattern": "tc", "policy": "shogun",
                "scale": scale}

        async def timed_roundtrips():
            async with serve_inproc(jobs=1, cache=cache) as (service, listener):
                async with AsyncServiceClient.inproc(listener) as client:
                    warm = await client.submit_metrics(dict(cell))
                    assert warm["source"] == "cache"
                    assert warm["metrics"]["matches"] == metrics.matches
                    best = float("inf")
                    for _ in range(30):
                        start = time.perf_counter()
                        final = await client.submit_metrics(dict(cell))
                        best = min(best, time.perf_counter() - start)
                        assert final["source"] == "cache"
                    assert service.executor.executions == 0
            return best

        vec = asyncio.run(timed_roundtrips())
        ref = _best_of(direct, repeats=3)
        _record_kernel(
            "service_roundtrip", vec, ref,
            "wi:tc:shogun cached submit over the in-proc transport "
            "(protocol + dispatch + read-through) vs direct execution",
        )


class TestEndToEndCell:
    @staticmethod
    def _time_cell(name, scale, pattern, policy):
        graph = load_dataset("lj", scale=scale)
        schedule = benchmark_schedule(pattern)
        config = eval_config()

        def run():
            return simulate(graph, schedule, policy=policy, config=config)

        metrics = run()
        assert metrics.matches > 0
        cpu = _best_of(run, repeats=5, clock=time.process_time)
        RESULTS["cells"][name] = {
            "scale": scale,
            "cpu_s": cpu,
            "cycles": metrics.cycles,
            "matches": metrics.matches,
            "tasks_executed": metrics.tasks_executed,
        }

    def test_cell_lj_4cl_shogun(self, scale):
        """Policy-heavy gate cell: shogun's monitor + splitting in the loop."""
        self._time_cell("lj:4cl:shogun", scale, "4cl", "shogun")

    def test_cell_lj_tc_bfs(self, scale):
        """Policy-light gate cell: plain BFS, memory system dominates."""
        self._time_cell("lj:tc:bfs", scale, "tc", "bfs")


def test_zz_emit_and_gate(scale):
    """Aggregate, write ``BENCH_kernels.json``, and gate cell walls against
    the committed baseline (name sorts last so every record exists)."""
    assert RESULTS["kernels"] and RESULTS["cells"], "kernel tests did not run"
    calibration = _calibration_cpu()
    payload = {
        "scale": scale,
        "backend": kernel_backend.active().name,
        "calibration_cpu_s": calibration,
        "kernels": RESULTS["kernels"],
        "cells": RESULTS["cells"],
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    if os.environ.get("REPRO_UPDATE_BENCH_BASELINE") == "1":
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        pytest.skip(f"baseline rewritten at {BASELINE_PATH}")
    if os.environ.get("REPRO_BENCH_GATE") == "0":
        pytest.skip("regression gate disabled via REPRO_BENCH_GATE=0")
    if not BASELINE_PATH.exists():
        pytest.skip("no committed baseline to gate against")

    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("scale") != scale:
        pytest.skip(
            f"baseline recorded at scale {baseline.get('scale')}, "
            f"current run at {scale}"
        )
    # Rescale baseline CPU times by relative machine speed before
    # comparing (pre-CPU-clock baselines lack the key: skip the cell
    # gate, the kernel floors below still apply).
    baseline_calibration = baseline.get("calibration_cpu_s")
    failures = []
    # Cell timings are only comparable under the same kernel backend: a
    # baseline recorded under cext would make every pure-leg run look
    # like a regression.  Kernel speedup floors below still apply.
    if (
        baseline_calibration
        and baseline.get("backend", payload["backend"]) == payload["backend"]
    ):
        # The rescale only ever *widens* the allowance (slower machine →
        # larger budget).  A ratio below 1.0 is not trusted to shrink
        # it: the L1-resident spin loop can speed up under the very
        # co-tenant load that inflates the memory-heavy cells' CPI, and
        # letting that tighten the gate manufactures false failures.
        speed_ratio = max(calibration / baseline_calibration, 1.0)
        for cell, current in RESULTS["cells"].items():
            before = baseline["cells"].get(cell)
            if before is None or "cpu_s" not in before:
                continue
            allowed = before["cpu_s"] * speed_ratio * REGRESSION_LIMIT
            if current["cpu_s"] > allowed:
                failures.append(
                    f"{cell}: {current['cpu_s']:.3f}s > allowed {allowed:.3f}s "
                    f"(baseline {before['cpu_s']:.3f}s × speed {speed_ratio:.2f} "
                    f"× {REGRESSION_LIMIT})"
                )
    # Every kernel must beat its reference outright: a vectorized path
    # slower than the loop it replaced is a regression regardless of the
    # end-to-end cells (this is what caught engine_coalesced_drain at
    # 0.94×).  Kernel timings are noisier than cell walls, so the floor
    # is 1.0×, not 1.0× + margin.
    for name, record in RESULTS["kernels"].items():
        if record["speedup"] < 1.0:
            failures.append(
                f"kernel {name}: speedup {record['speedup']:.3f}× < 1.0× "
                f"(vectorized {record['vectorized_s']:.4f}s vs reference "
                f"{record['reference_s']:.4f}s)"
            )
    # When a compiled backend ran, it must earn its keep: at least three
    # of the backend_* kernels at >= 2x over pure (the backend layer's
    # acceptance bar — anything less means the C path is not worth
    # its complexity on this machine).
    backend_records = {
        name: record
        for name, record in RESULTS["kernels"].items()
        if name.startswith("backend_")
    }
    if backend_records:
        fast = [n for n, r in backend_records.items() if r["speedup"] >= 2.0]
        if len(fast) < 3:
            summary = ", ".join(
                f"{n}={r['speedup']:.2f}×" for n, r in backend_records.items()
            )
            failures.append(
                f"compiled backend reached 2× on only {len(fast)} kernels "
                f"(need >=3): {summary}"
            )
    # The macro-step engine core's own acceptance bar: when the drain
    # kernel was recorded (i.e. a compiled backend was available), the
    # whole-task compiled drain must at least halve the end-to-end cell
    # wall versus per-event booking — less than 2× means the escape
    # protocol's overhead ate the win and the core needs investigating.
    macro = RESULTS["kernels"].get("engine_macro_drain")
    if macro is not None and macro["speedup"] < 2.0:
        failures.append(
            f"engine_macro_drain: macro-step drain at "
            f"{macro['speedup']:.2f}× < 2.0× over per-event booking "
            f"(macro {macro['vectorized_s']:.3f}s vs per-event "
            f"{macro['reference_s']:.3f}s)"
        )
    # The compiled control plane's acceptance bars (the SoA task tree):
    # the cext select and fill ops must each reach 2x over the pure tree
    # ops, and the Shogun gate cell must not regress past the frozen
    # PR 9 record — the tree ops are that cell's control plane, so
    # slowing it down would mean they cost more than they earn back.
    for name in ("tree_select", "tree_fill"):
        record = RESULTS["kernels"].get(name)
        if record is not None and record["speedup"] < 2.0:
            failures.append(
                f"{name}: cext tree op at {record['speedup']:.2f}× < 2.0× "
                "over the pure tree ops"
            )
    anchor_cell = RESULTS["cells"].get(PR9_GATE_CELL["name"])
    if (
        anchor_cell is not None
        and payload["backend"] == PR9_GATE_CELL["backend"]
        and scale == PR9_GATE_CELL["scale"]
    ):
        anchor_speed = max(
            calibration / PR9_GATE_CELL["calibration_cpu_s"], 1.0
        )
        allowed = (
            PR9_GATE_CELL["cpu_s"] * anchor_speed * ANCHOR_LIMIT
        )
        if anchor_cell["cpu_s"] > allowed:
            failures.append(
                f"{PR9_GATE_CELL['name']}: {anchor_cell['cpu_s']:.3f}s > "
                f"allowed {allowed:.3f}s (PR 9 anchor "
                f"{PR9_GATE_CELL['cpu_s']:.3f}s × speed "
                f"{anchor_speed:.2f} × {ANCHOR_LIMIT})"
            )
    assert not failures, "performance regression:\n" + "\n".join(failures)
