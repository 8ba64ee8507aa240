"""Task-tree ops: one scheduler path, held to two references.

Every task-tree decision — select, fill, complete — runs through the
ops the active kernel backend binds over the tree's struct-of-arrays
state (``kernels.tree_bind``): the pure backend's interpreted closures,
or the C extension's ``repro_tree_t`` binder that mirrors them
statement for statement.  Every accounted metric, the scheduler's own
stall/wait counters included, feeds ``repro validate`` and the golden
registry, so the ops answer to two references:

* **Backend parity** — whole simulations under the C ops and the pure
  ops give identical ``RunMetrics``: all five policies × {tc, 4cl},
  token exhaustion, pinned conservative mode and hypothesis-random tree
  geometries.
* **Golden cells** — the pinned shogun snapshots hold under each
  backend's ops, with the ops taking every decision.

The parity cells unbind the cext macro-step core so both sides book
per-event and only the tree ops differ; the core's composition with the
ops (random escapes included) gets its own cell.  Instrumentation
observes the ops instead of rerouting them: a ``TraceRecorder``-attached
run keeps the ops and its metrics.

The op contract itself — ``select`` returning one ``(slot, vertex,
child_index, token, tree)`` record per pick, into a buffer the ops own
and never overrun — is held by scripted fill/select/complete sequences
run under every backend.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task_tree import (
    CTL_READY,
    CTL_SCHEDULED,
    CTL_STALLS,
    DONE_EXTENDED,
    TaskTreeState,
)
from repro.experiments import eval_config
from repro.graph import load_dataset
from repro.patterns import benchmark_schedule
from repro.sim import SimConfig, backend, simulate
from repro.sim.accelerator import Accelerator
from repro.sim.trace import TraceRecorder
from repro.validate.golden import (
    GOLDEN_SCALE,
    diff_values,
    load_snapshot,
    snapshot_path,
)
from repro.validate.oracle import ORACLE_POLICIES
from tests.oracles import inject_escapes, unbind_macro

#: Backends whose tree ops run here: pure always, cext when it built.
BACKENDS = ["pure"] + (
    ["cext"] if backend.available_backends()["cext"][0] else []
)

#: The parity cells compare the C ops against the pure ones.
needs_cext = pytest.mark.skipif(
    "cext" not in BACKENDS, reason="the cext backend did not build here"
)

SCALE = 0.2
PATTERNS = ("tc", "4cl")
OPS = ("select", "fill", "complete")

CONFIG = SimConfig(backend="pure")


@pytest.fixture(autouse=True)
def _restore_backend():
    before = backend.active()
    yield
    backend._install(before)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wi", scale=SCALE)


@pytest.fixture(scope="module")
def schedules():
    return {p: benchmark_schedule(p) for p in PATTERNS}


def _op_calls(accel, op):
    """Calls of one tree op, summed over the PEs' task trees."""
    return sum(
        pe.policy.tree.op_calls[f"{op}_kernel"]
        for pe in accel.pes
        if hasattr(pe.policy, "tree")
    )


def _parity(graph, schedule, config, policy="shogun"):
    """Run one cell under the pure and the C ops; metrics must match.

    Both sides book per-event: the cext run's macro core is unbound.
    """
    pure = simulate(graph, schedule, policy=policy, config=config)
    accel = Accelerator(graph, schedule, config.replace(backend="cext"), policy)
    cext = unbind_macro(accel).run()
    assert cext.to_dict() == pure.to_dict(), (
        f"cext tree ops diverged from the pure ops on {policy}"
    )
    return pure


class TestKernelParity:
    """C ops vs the pure backend's interpreted ops, every cell."""

    @needs_cext
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    def test_kernels_match_object_path(self, graph, schedules, pattern, policy):
        _parity(graph, schedules[pattern], CONFIG, policy)


class TestGoldenCells:
    """The pinned shogun snapshots hold under every backend's ops."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("name", BACKENDS)
    def test_golden_cell(self, name, pattern):
        accel = Accelerator(
            load_dataset("wi", scale=GOLDEN_SCALE),
            benchmark_schedule(pattern),
            eval_config().replace(backend=name),
            "shogun",
        )
        metrics = accel.run()
        golden = load_snapshot(
            snapshot_path("wi", pattern, "shogun", GOLDEN_SCALE)
        )
        assert diff_values(golden["metrics"], metrics.to_dict()) == []
        for op in OPS:
            assert _op_calls(accel, op) > 0, f"{name}: {op} op never ran"


class TestInstrumentedRuns:
    """Instrumentation observes the ops instead of rerouting them."""

    def test_trace_recorder_keeps_the_ops(self, graph, schedules):
        for name in BACKENDS:
            config = CONFIG.replace(backend=name)
            plain = simulate(graph, schedules["tc"], policy="shogun", config=config)
            accel = Accelerator(graph, schedules["tc"], config, policy="shogun")
            recorder = TraceRecorder.attach(accel)
            metrics = accel.run()
            assert metrics.to_dict() == plain.to_dict()
            for op in OPS:
                assert _op_calls(accel, op) > 0, f"{name}: {op} op never ran"
            assert recorder.spans  # the hooks really observed the tasks


class TestEdgeCells:
    """Token exhaustion, pinned conservative mode, macro composition."""

    @needs_cext
    def test_token_exhaustion_parity(self, graph, schedules):
        metrics = _parity(
            graph, schedules["tc"], CONFIG.replace(tokens_per_depth=1)
        )
        assert sum(pm.token_stalls for pm in metrics.per_pe) > 0  # really starves

    @needs_cext
    @pytest.mark.parametrize("conservative", (True, False))
    def test_pinned_conservative_parity(self, graph, schedules, conservative):
        _parity(
            graph,
            schedules["4cl"],
            CONFIG.replace(conservative_override=conservative),
        )

    @needs_cext
    def test_macro_drain_composition(self, graph, schedules):
        """Macro-step booking + batch dispatch + C tree ops together
        (the production fast path) match pure per-event booking, with
        random macro escapes mixed in."""
        ref = simulate(
            graph, schedules["4cl"], policy="shogun", config=CONFIG
        ).to_dict()
        rng = random.Random(0xC0FFEE)
        accel = Accelerator(
            graph, schedules["4cl"], CONFIG.replace(backend="cext"), "shogun"
        )
        injected = inject_escapes(accel, lambda: rng.random() < 0.3)
        metrics = accel.run()
        assert injected[0] > 0
        assert metrics.to_dict() == ref, "macro + tree-op composition diverged"


class TestRandomGeometries:
    """Random tree shapes: parity must hold for any legal geometry."""

    @needs_cext
    @settings(max_examples=8, deadline=None)
    @given(
        bunches=st.integers(min_value=1, max_value=4),
        entries=st.integers(min_value=2, max_value=8),
        tokens=st.integers(min_value=1, max_value=8),
        conservative=st.sampled_from((None, True, False)),
    )
    def test_random_geometry_parity(
        self, graph, schedules, bunches, entries, tokens, conservative
    ):
        _parity(
            graph,
            schedules["tc"],
            CONFIG.replace(
                bunches_per_depth=bunches,
                bunch_entries=entries,
                tokens_per_depth=tokens,
                conservative_override=conservative,
            ),
        )


#: Every array a tree op may write.
SOA_ARRAYS = (
    "b_in_use", "b_tree", "b_quiesced", "b_active", "b_executing",
    "ring", "ring_head", "ring_len",
    "e_vertex", "e_child_index", "e_token",
    "tok_free", "tok_n", "ctl",
)


def _records(flat):
    """Split a ``select`` result into its 5-word records."""
    assert len(flat) % 5 == 0
    return [tuple(flat[i:i + 5]) for i in range(0, len(flat), 5)]


def _script(name):
    """One scripted op sequence on a fresh tree; returns what it saw.

    Fills every bunch, then drains with alternating conservative mode
    and varying ``k``.  Each round extends every other picked entry
    that holds a token (it re-enters its ring still holding it) and
    idles the rest, so later drains hit token-stall scans with
    token-holding entries to find.  Every record is checked against the
    SoA row it came from, right after its ``select`` call.
    """
    config = eval_config().replace(tokens_per_depth=2, bunches_per_depth=3)
    state = TaskTreeState(config, 3)
    ops = backend._get_instance(name).tree_bind(state)
    for b in range(state.nb):
        count = int(state.b_cap[b])
        vertices = np.arange(100 * b, 100 * b + count, dtype=np.int64)
        ops.fill(b, 7 + b, 0, vertices, 0, count)
    seen = []
    ks = (1, 3, 8, 2, 5, 4)
    for step in range(24):
        k = ks[step % len(ks)]
        flat = ops.select(1 if step % 3 == 1 else 0, k)
        assert len(flat) <= 5 * k
        records = _records(flat)
        for slot, vertex, child_index, token, tree in records:
            assert vertex == state.e_vertex[slot]
            assert child_index == state.e_child_index[slot]
            assert token == state.e_token[slot]
            assert tree == state.b_tree[slot // state.cap]
        seen.append(records)
        for i, (slot, vertex, child_index, token, tree) in enumerate(records):
            b = slot // state.cap
            extend = token >= 0 and i % 2 == 0
            # The bunch's parent span decides: one unexplored candidate
            # (vertex + 1000 at child_index) to extend onto, or none.
            if extend:
                kids = np.full(child_index + 1, vertex + 1000, dtype=np.int64)
                ops.span(b, kids, child_index + 1, child_index, -1)
            else:
                ops.span(b, None, 0, 0, -1)
            action = ops.complete(slot, b, 0, None, 0, 0, -1, 0)
            if extend:
                assert action == DONE_EXTENDED
    snapshot = {field: getattr(state, field).copy() for field in SOA_ARRAYS}
    return seen, snapshot


class TestSelectRecords:
    """``select`` returns task records from a buffer the ops own."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_records_match_their_rows(self, name):
        seen, snapshot = _script(name)
        assert sum(len(records) for records in seen) > 0
        assert snapshot["ctl"][CTL_STALLS] > 0  # token-stall scans ran

    @needs_cext
    def test_backends_agree(self):
        pure_seen, pure_state = _script("pure")
        cext_seen, cext_state = _script("cext")
        assert cext_seen == pure_seen
        for field in SOA_ARRAYS:
            np.testing.assert_array_equal(
                cext_state[field], pure_state[field], err_msg=field
            )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_k_above_entry_count_is_bounded(self, name):
        """A ``k`` above ``nb * cap`` (the record buffer's room) returns
        at most that many records, the same ones ``k = nb * cap`` does."""

        def drain(k):
            state = TaskTreeState(eval_config(), 3)
            ops = backend._get_instance(name).tree_bind(state)
            for b in range(state.nb):
                count = int(state.b_cap[b])
                ops.fill(b, 1 + b, 0, np.arange(count, dtype=np.int64), 0, count)
            ready = int(state.ctl[CTL_READY])
            records = _records(ops.select(0, k))
            assert len(records) == int(state.ctl[CTL_SCHEDULED])
            assert int(state.ctl[CTL_READY]) == ready - len(records)
            return state.nb * state.cap, records

        bound, records = drain(10 ** 6)
        assert 0 < len(records) <= bound
        assert len({slot for slot, *_ in records}) == len(records)
        assert drain(bound) == (bound, records)
