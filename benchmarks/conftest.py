"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper table/figure at the dataset scale
given by the ``REPRO_SCALE`` environment variable (default 1.0; use e.g.
``REPRO_SCALE=0.3`` for a quick pass) and writes the rendered rows to
``results/<name>.txt`` so EXPERIMENTS.md can reference them.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"

# The kernel benchmarks time fast paths against the test oracles in
# ``tests/oracles.py``: keep the repository root importable from any
# working directory.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "1.0"))


@pytest.fixture(scope="session", autouse=True)
def persistent_cell_cache():
    """Route every run_cell through the on-disk orchestrator cache.

    The first benchmark session pays the simulations and fills
    ``.repro-cache/``; repeat sessions (and ``repro experiment``
    invocations sharing the directory) replay them near-instantly.
    Set ``REPRO_CACHE=0`` to opt out.
    """
    from repro.orchestrator import attach_persistent_cache

    detach = attach_persistent_cache()
    yield
    detach()


@pytest.fixture(scope="session")
def full_scale(scale) -> bool:
    """Whether the paper's shape claims are expected to manifest.

    Below ~0.8x the datasets are too small for the locality/imbalance
    phenomena, so quick passes only validate that the harness runs and
    counts exactly; the shape assertions are skipped.
    """
    return scale >= 0.8


def save(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Write one regenerated artifact and echo it (visible with -s)."""
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print()
    print(text)
