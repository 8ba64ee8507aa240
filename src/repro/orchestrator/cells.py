"""Evaluation-cell identity: specs and content-addressed cache keys.

One **cell** is the atomic unit of experiment work: simulate
``(dataset, pattern, policy)`` at one scale under one
:class:`~repro.sim.config.SimConfig`.  Cells are value objects — two
figures that loop over the same grid produce *equal* specs, which is
what lets the scheduler deduplicate work across an invocation and the
cache deduplicate it across processes.

The cache key is a SHA-256 over a canonical JSON encoding of every
input that determines the result:

* the cell coordinates (dataset, scale, pattern, policy, verify flag),
* every ``SimConfig`` field by name (so adding a knob automatically
  widens the key), and
* a **code-version salt** — a digest of the source of the packages that
  define simulation semantics (``sim``, ``core``, ``mining``,
  ``patterns``, ``graph`` and the runner).  Editing any of them
  invalidates every cached result, so stale metrics cannot survive a
  behavioural change.  ``REPRO_CACHE_SALT`` overrides the salt for
  tests or pinned deployments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..sim.config import SimConfig

#: Bump when the cache entry format changes; part of the key, so old
#: entries simply become misses instead of needing a migration.
CACHE_SCHEMA = 1

#: Package subtrees (or single modules) whose source feeds the salt.
SALT_SOURCES = ("sim", "core", "mining", "patterns", "graph", "experiments/runner.py")


@dataclass(frozen=True)
class CellSpec:
    """One evaluation cell, fully resolved (no None defaults left)."""

    dataset: str
    pattern: str
    policy: str
    scale: float
    config: SimConfig
    verify: bool = True

    def label(self) -> str:
        """Short human-readable identifier for progress/failure lines.

        The config fingerprint distinguishes cells that differ only in
        SimConfig (width sweeps, ablation overrides).
        """
        return (
            f"{self.dataset}-{self.pattern}/{self.policy}"
            f"@{self.scale:g}+cfg:{_config_fingerprint(self.config)}"
        )

    def coordinates(self) -> dict:
        """The non-config coordinates (manifest/cache metadata)."""
        return {
            "dataset": self.dataset,
            "pattern": self.pattern,
            "policy": self.policy,
            "scale": self.scale,
            "verify": self.verify,
        }


@lru_cache(maxsize=1024)
def _config_fields(config: SimConfig) -> dict:
    """Every ``SimConfig`` field by name, once per (frozen) config."""
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}


@lru_cache(maxsize=1024)
def _config_fingerprint(config: SimConfig) -> str:
    """The short config digest of :meth:`CellSpec.label`."""
    return hashlib.sha256(
        json.dumps(_config_fields(config), sort_keys=True, default=repr).encode()
    ).hexdigest()[:6]


def group_key(spec: CellSpec) -> "tuple[str, str, float]":
    """Placement group of one cell: ``(dataset, pattern, scale)``.

    Cells in one group share a staged graph *and* a mined reference
    count, so a worker that runs the whole group materializes both
    exactly once.  The batch scheduler's per-process grouping and the
    distributed scheduler's locality-aware placement both key on this.
    """
    return (spec.dataset, spec.pattern, float(spec.scale))


def graph_key(spec: CellSpec) -> "tuple[str, float]":
    """The staged-graph identity of one cell: ``(dataset, scale)``."""
    return (spec.dataset, float(spec.scale))


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Digest of the simulation-defining source (or ``REPRO_CACHE_SALT``)."""
    env = os.environ.get("REPRO_CACHE_SALT")
    if env:
        return env
    digest = hashlib.sha256()
    package_root = Path(__file__).resolve().parents[1]  # src/repro
    for rel in SALT_SOURCES:
        path = package_root / rel
        sources = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for source in sources:
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(source.read_bytes())
    digest.update(str(CACHE_SCHEMA).encode())
    return digest.hexdigest()[:16]


def cell_key(spec: CellSpec) -> str:
    """Stable content-addressed key for one cell (hex SHA-256)."""
    payload = {
        "dataset": spec.dataset,
        "pattern": spec.pattern,
        "policy": spec.policy,
        # repr() keeps full float precision; json would round-trip too,
        # but repr makes the canonical form explicit.
        "scale": repr(spec.scale),
        "verify": spec.verify,
        "config": _config_fields(spec.config),
        "salt": code_salt(),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
