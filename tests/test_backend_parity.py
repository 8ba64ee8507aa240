"""Differential parity tests: every kernel backend against pure.

Three layers, mirroring how the backends are built:

* **Loop parity** — the C extension's array-level loops, called
  directly with a caller-owned output buffer, against the numpy
  reference on fuzzed inputs covering both regimes (merge and gallop),
  so a loop bug cannot hide behind the kernel glue.
* **Kernel parity** — every *available* backend's kernel set against
  pure: identical outputs.
* **Simulation parity** — whole fuzz-corpus simulations must produce
  byte-identical ``RunMetrics`` under every available backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mining.setops import (
    as_sorted_array,
    intersect,
    intersect_multi,
    subtract,
)
from repro.sim import SimConfig, backend, simulate
from repro.sim.backend import pure as pure_backend
from repro.validate.fuzz import build_config, build_graph, case_rng, make_case

#: Backends that actually built on this machine (pure is always first).
AVAILABLE = ["pure"] + (
    ["cext"] if backend.available_backends()["cext"][0] else []
)


@pytest.fixture(autouse=True)
def _restore_backend():
    before = backend.active()
    yield
    backend._install(before)


def _sorted_set(rng, size, universe):
    values = sorted(rng.sample(range(universe), min(size, universe)))
    return as_sorted_array(values)


def _operand_cases(seed=7, count=40):
    """Fuzzed operand pairs spanning both loop regimes (merge + gallop)."""
    rng = case_rng(seed, 0)
    cases = []
    for _ in range(count):
        universe = rng.choice((30, 200, 5000))
        a = _sorted_set(rng, rng.randint(0, 60), universe)
        b = _sorted_set(rng, rng.randint(0, 2000), universe)
        cases.append((a, b))
    # Deterministic extremes: empty, singleton, disjoint, identical,
    # and a gallop-regime pair (len(a) * 32 < len(b)).
    cases += [
        (as_sorted_array([]), as_sorted_array([])),
        (as_sorted_array([3]), as_sorted_array([1, 2, 3, 4])),
        (as_sorted_array([1, 2]), as_sorted_array([10, 20])),
        (as_sorted_array([5, 9]), as_sorted_array([5, 9])),
        (as_sorted_array([10, 5000]), as_sorted_array(list(range(0, 9000, 2)))),
    ]
    return cases


class TestLoopParity:
    """The C extension's array-level loops vs the numpy reference."""

    @pytest.fixture(scope="class")
    def lib(self):
        if "cext" not in AVAILABLE:
            pytest.skip("the cext backend did not build here")
        from repro.sim.backend import cext

        return cext._CLib()

    @pytest.mark.parametrize("a,b", _operand_cases())
    def test_intersect_loop(self, lib, a, b):
        out = np.empty(max(len(a), 1), dtype=np.int64)
        small, large = (a, b) if len(a) <= len(b) else (b, a)
        k = lib.intersect_loop(small, large, out)
        np.testing.assert_array_equal(out[:k], np.intersect1d(a, b))

    @pytest.mark.parametrize("a,b", _operand_cases(seed=11))
    def test_subtract_loop(self, lib, a, b):
        out = np.empty(max(len(a), 1), dtype=np.int64)
        k = lib.subtract_loop(a, b, out)
        np.testing.assert_array_equal(out[:k], np.setdiff1d(a, b))


class TestKernelParity:
    @pytest.mark.parametrize("name", AVAILABLE)
    @pytest.mark.parametrize("a,b", _operand_cases(seed=3, count=15))
    def test_intersect_and_subtract(self, name, a, b):
        kernels = backend.activate(name)
        np.testing.assert_array_equal(
            kernels.intersect(a, b), pure_backend.intersect(a, b)
        )
        np.testing.assert_array_equal(
            kernels.subtract(a, b), pure_backend.subtract(a, b)
        )

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_intersect_multi_kernel(self, name):
        """Direct kernel parity on presorted chains (the dispatcher's
        general case), including chains whose survivor goes empty."""
        kernels = backend.activate(name)
        rng = case_rng(29, 4)
        for count in (2, 3, 4, 6):
            for _ in range(10):
                arrays = sorted(
                    (_sorted_set(rng, rng.randint(1, 80), 150)
                     for _ in range(count)),
                    key=len,
                )
                if not len(arrays[0]):
                    continue
                np.testing.assert_array_equal(
                    kernels.intersect_multi(arrays),
                    pure_backend.intersect_multi(arrays),
                )
        # Disjoint chain: the survivor empties mid-way.
        disjoint = [
            as_sorted_array([1, 2, 3]),
            as_sorted_array([10, 20, 30]),
            as_sorted_array([100, 200, 300]),
        ]
        assert len(kernels.intersect_multi(disjoint)) == 0

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_dispatched_setops_match_numpy_oracle(self, name):
        backend.activate(name)
        rng = case_rng(13, 2)
        for _ in range(25):
            a = _sorted_set(rng, rng.randint(0, 50), 300)
            b = _sorted_set(rng, rng.randint(0, 50), 300)
            c = _sorted_set(rng, rng.randint(0, 50), 300)
            np.testing.assert_array_equal(intersect(a, b), np.intersect1d(a, b))
            np.testing.assert_array_equal(subtract(a, b), np.setdiff1d(a, b))
            np.testing.assert_array_equal(
                intersect_multi([a, b, c]),
                np.intersect1d(np.intersect1d(a, b), c),
            )


class TestSimulationParity:
    """Whole-run byte-identity across every available backend."""

    @pytest.mark.parametrize("index", [0, 3, 5])
    def test_fuzz_case_metrics_identical(self, index):
        if len(AVAILABLE) < 2:
            pytest.skip("only the pure backend is available")
        case = make_case(seed=2024, index=index)
        graph = build_graph(case)
        config = build_config(case)
        from repro.patterns import benchmark_schedule

        schedule = benchmark_schedule(case.pattern)
        results = {}
        for name in AVAILABLE:
            run_config = config.replace(backend=name)
            metrics = simulate(graph, schedule, policy="shogun", config=run_config)
            results[name] = metrics.to_dict()
        reference = results.pop("pure")
        for name, result in results.items():
            assert result == reference, f"backend {name} diverged from pure"

    def test_golden_cell_identical_across_backends(self):
        if len(AVAILABLE) < 2:
            pytest.skip("only the pure backend is available")
        from repro.experiments import eval_config
        from repro.graph import load_dataset
        from repro.patterns import benchmark_schedule

        graph = load_dataset("wi", scale=0.1)
        schedule = benchmark_schedule("tc")
        results = {}
        for name in AVAILABLE:
            config = eval_config().replace(backend=name)
            results[name] = simulate(
                graph, schedule, policy="shogun", config=config
            ).to_dict()
        reference = results.pop("pure")
        for name, result in results.items():
            assert result == reference, f"backend {name} diverged from pure"
