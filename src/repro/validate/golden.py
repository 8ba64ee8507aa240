"""Golden-metrics registry: committed RunMetrics snapshots.

A *golden* pins the complete :class:`~repro.sim.metrics.RunMetrics` of
one evaluation cell — (dataset, pattern, policy, scale, config) — as a
JSON file under ``tests/golden/``.  Simulations are deterministic, so
any field drifting from its snapshot means a behavior change the author
must either fix or consciously re-bless with ``repro validate golden
--update`` (then commit the diff).  The registry diffs **field by
field**, recursing into per-PE metrics, and renders the exact paths that
changed — far more actionable than "cycles differ".

The default matrix is all five policies × triangle + 4-clique on the
``wi`` stand-in at scale 0.3 with the evaluation configuration; the
snapshot embeds the config fields so config drift is reported as its own
diff instead of masquerading as a metrics change.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..sim.config import SimConfig
from ..sim.metrics import RunMetrics
from .oracle import ORACLE_POLICIES

#: The committed snapshot matrix (dataset × pattern × policy).
GOLDEN_DATASETS: Tuple[str, ...] = ("wi",)
GOLDEN_PATTERNS: Tuple[str, ...] = ("tc", "4cl")
GOLDEN_POLICIES: Tuple[str, ...] = ORACLE_POLICIES
GOLDEN_SCALE = 0.3

#: Snapshot schema version (bump on incompatible layout changes).
SCHEMA_VERSION = 1


def default_golden_dir() -> Path:
    """Snapshot directory: ``REPRO_GOLDEN_DIR`` or ``<repo>/tests/golden``."""
    env = os.environ.get("REPRO_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_matrix(
    scale: float = GOLDEN_SCALE,
) -> Iterator[Tuple[str, str, str, float]]:
    """The (dataset, pattern, policy, scale) cells the registry pins."""
    for dataset in GOLDEN_DATASETS:
        for pattern in GOLDEN_PATTERNS:
            for policy in GOLDEN_POLICIES:
                yield dataset, pattern, policy, scale


def snapshot_path(
    dataset: str, pattern: str, policy: str, scale: float,
    *, golden_dir: Optional[Path] = None,
) -> Path:
    """File path of one cell's snapshot."""
    root = golden_dir if golden_dir is not None else default_golden_dir()
    return root / f"{dataset}-{pattern}-{policy}-s{scale:g}.json"


def _config_dict(config: SimConfig) -> Dict[str, object]:
    out = dataclasses.asdict(config)
    # The kernel backend is a speed knob, not a model knob: every backend
    # produces byte-identical metrics (enforced by the parity tests), so
    # goldens are backend-independent by construction and recording the
    # selection would only manufacture spurious config drift.
    out.pop("backend", None)
    return out


def make_snapshot(
    dataset: str, pattern: str, policy: str, scale: float,
    config: SimConfig, metrics: RunMetrics,
) -> Dict[str, object]:
    """The JSON payload pinned for one cell."""
    return {
        "schema": SCHEMA_VERSION,
        "dataset": dataset,
        "pattern": pattern,
        "policy": policy,
        "scale": scale,
        "config": _config_dict(config),
        "metrics": metrics.to_dict(),
    }


def load_snapshot(path: Path) -> Dict[str, object]:
    """Read one snapshot file."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_snapshot(path: Path, payload: Dict[str, object]) -> None:
    """Write one snapshot file atomically (stable key order, trailing
    newline) — parallel ``--update`` runs cannot tear a snapshot."""
    from ..ioutil import atomic_write_json

    atomic_write_json(path, payload, indent=2, sort_keys=True, newline=True)


def diff_values(expected: object, actual: object, path: str = "") -> List[str]:
    """Recursive field-by-field diff; returns readable mismatch lines."""
    diffs: List[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected:
                diffs.append(f"{sub}: unexpected new field = {actual[key]!r}")
            elif key not in actual:
                diffs.append(f"{sub}: missing (golden has {expected[key]!r})")
            else:
                diffs.extend(diff_values(expected[key], actual[key], sub))
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            diffs.append(
                f"{path}: length {len(actual)} != golden length {len(expected)}"
            )
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs.extend(diff_values(e, a, f"{path}[{i}]"))
    else:
        if expected != actual:
            diffs.append(f"{path}: golden {expected!r} != actual {actual!r}")
    return diffs


@dataclass
class GoldenCellResult:
    """Outcome of checking one cell against its snapshot."""

    dataset: str
    pattern: str
    policy: str
    scale: float
    path: Path
    status: str  # "ok" | "missing" | "diff" | "updated" | "created"
    diffs: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.dataset}-{self.pattern}-{self.policy}@{self.scale:g}"


@dataclass
class GoldenReport:
    """Aggregate outcome of a golden check/update pass."""

    cells: List[GoldenCellResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status in ("ok", "updated", "created") for c in self.cells)

    def render(self) -> str:
        lines = []
        for cell in self.cells:
            lines.append(f"golden {cell.label}: {cell.status}")
            for diff in cell.diffs[:20]:
                lines.append(f"    {diff}")
            if len(cell.diffs) > 20:
                lines.append(f"    … {len(cell.diffs) - 20} more difference(s)")
        counts: Dict[str, int] = {}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        summary = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
        lines.append(f"golden: {summary}")
        if not self.ok:
            lines.append(
                "golden: run `repro validate golden --update` and commit the "
                "refreshed snapshots if the change is intentional"
            )
        return "\n".join(lines)


def _run_cell(dataset, pattern, policy, scale, config) -> RunMetrics:
    from ..experiments import runner

    return runner.run_cell(
        dataset, pattern, policy, config=config, scale=scale, verify=False
    )


def check_golden(
    *,
    scale: float = GOLDEN_SCALE,
    golden_dir: Optional[Path] = None,
    config: Optional[SimConfig] = None,
    update: bool = False,
) -> GoldenReport:
    """Diff (or, with ``update``, rewrite) every cell of the matrix.

    Simulations route through :func:`repro.experiments.runner.run_cell`,
    so golden checks share results with the oracle and the persistent
    cache within one process.
    """
    from ..experiments import runner

    cfg = config if config is not None else runner.eval_config()
    report = GoldenReport()
    for dataset, pattern, policy, cell_scale in golden_matrix(scale):
        path = snapshot_path(
            dataset, pattern, policy, cell_scale, golden_dir=golden_dir
        )
        metrics = _run_cell(dataset, pattern, policy, cell_scale, cfg)
        payload = make_snapshot(dataset, pattern, policy, cell_scale, cfg, metrics)
        cell = GoldenCellResult(
            dataset=dataset, pattern=pattern, policy=policy,
            scale=cell_scale, path=path, status="ok",
        )
        if not path.exists():
            if update:
                write_snapshot(path, payload)
                cell.status = "created"
            else:
                cell.status = "missing"
                cell.diffs.append(f"snapshot file {path} does not exist")
        else:
            expected = load_snapshot(path)
            diffs = diff_values(expected, payload)
            if diffs:
                if update:
                    write_snapshot(path, payload)
                    cell.status = "updated"
                    cell.diffs = diffs
                else:
                    cell.status = "diff"
                    cell.diffs = diffs
        report.cells.append(cell)
    return report


def update_golden(
    *,
    scale: float = GOLDEN_SCALE,
    golden_dir: Optional[Path] = None,
    config: Optional[SimConfig] = None,
) -> GoldenReport:
    """Rewrite every snapshot of the matrix (``repro validate golden --update``)."""
    return check_golden(
        scale=scale, golden_dir=golden_dir, config=config, update=True
    )
