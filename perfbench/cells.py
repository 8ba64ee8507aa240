"""Workload inputs: simulator cells, seeded graphs and pinned results.

Seed 0 is the default: it simulates the registry datasets, whose results
are pinned in ``pins.json``.  Any other seed relabels each registry
graph by a seed-drawn permutation of its vertex ids before the
registry's descending-degree sort, so equal-degree vertices change order
and with them the search trees, the task order and every simulated
address, while degrees, structure and match counts stay those of the
registry graph.  Those runs cannot be pinned; the reference miner and
backend parity check them instead.

Regenerating the graphs from the registry generators with other
generator seeds was tried first and rejected: it moved a cell's task
count by up to 1.75x (lj x tt_e at 0.3: 167k to 390k tasks), so walls
spread more between seeds than any regression bound allows.

The figure9 sweep always runs on the registry datasets (the
orchestrator loads datasets by code), so its rendered table is pinned
for every seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple

PINS_PATH = Path(__file__).with_name("pins.json")

#: Seed that selects the registry datasets and the pinned results.
DEFAULT_SEED = 0


class Cell(NamedTuple):
    dataset: str
    pattern: str
    policy: str
    scale: float

    @property
    def key(self) -> str:
        return f"{self.dataset}:{self.pattern}:{self.policy}@{self.scale:g}"


class SimWorkload(NamedTuple):
    cells: Tuple[Cell, ...]
    #: ``REPRO_BACKEND`` for the measured processes (None = default).
    backend: Optional[str]


#: The simulator workloads; "why" for each lives in BENCHMARK.json and
#: README.md.
SIM_WORKLOADS: Dict[str, SimWorkload] = {
    "sim-expand": SimWorkload((
        Cell("lj", "tc", "bfs", 1.0),
        Cell("lj", "4cl", "shogun", 1.0),
        Cell("or", "4cl", "shogun", 1.0),
        Cell("pa", "4cyc_v", "fingers", 1.0),
    ), None),
    # Scale 0.2, not 0.3: a pass of about 3 s fits three fresh
    # processes, each a cold and a warm pass, into one run.
    "sim-leaf": SimWorkload((
        Cell("lj", "tt_e", "shogun", 0.2),
        Cell("yo", "tt_e", "fingers", 0.2),
    ), None),
    "sim-pure": SimWorkload((
        Cell("lj", "tc", "bfs", 1.0),
        Cell("lj", "4cl", "shogun", 1.0),
    ), "pure"),
}

SWEEP_WORKLOAD = "sweep-fig9"
SWEEP_EXPERIMENT = "figure9"
SWEEP_SCALE = 0.1
SWEEP_JOBS = 2


def build_graph(code: str, scale: float, seed: int):
    """The dataset graph a workload simulates under ``seed``."""
    import numpy as np

    from repro.graph.builders import from_edge_array
    from repro.graph.datasets import load_dataset
    from repro.graph.generators import degree_sorted

    graph = load_dataset(code, scale=scale)
    if seed == DEFAULT_SEED:
        return graph
    perm = np.random.default_rng(seed).permutation(graph.num_vertices)
    src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    edges = np.stack([perm[src], perm[graph.indices]], axis=1)
    return degree_sorted(from_edge_array(edges, graph.num_vertices, name=code))


def metrics_digest(metrics_dict: dict) -> str:
    """SHA-256 of a ``RunMetrics.to_dict()`` in canonical JSON."""
    blob = json.dumps(metrics_dict, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))
