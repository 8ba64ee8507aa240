"""Metrics containers for simulation runs.

Everything the evaluation section reports is collected here: cycles
(performance/speedups, Figs. 9/11/12/13/14), IU utilization rates
(Figs. 3(a)/10), L1 hit rates and average access latencies (Fig. 3(b)),
memory footprints (Table 1), barrier idle time, and the optimization
event counters (splitting rounds, merges, quiesces).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List


@functools.lru_cache(maxsize=None)
def _field_names(cls) -> FrozenSet[str]:
    """A dataclass's field names, resolved once per class (warm cache
    reads rebuild thousands of metrics objects)."""
    return frozenset(f.name for f in dataclasses.fields(cls))


@dataclass
class PEMetrics:
    """Per-PE statistics of one run."""

    pe_id: int
    tasks_executed: int = 0
    matches: int = 0
    trees_completed: int = 0
    busy_slot_cycles: float = 0.0
    idle_with_work_cycles: float = 0.0
    finish_cycle: float = 0.0
    iu_busy_cycles: float = 0.0
    iu_utilization: float = 0.0
    l1_hits: int = 0
    l1_misses: int = 0
    l1_avg_latency: float = 0.0
    conservative_entries: int = 0
    conservative_fraction: float = 0.0
    spawn_waits: int = 0
    token_stalls: int = 0
    tasks_per_depth: List[int] = field(default_factory=list)

    @property
    def l1_hit_rate(self) -> float:
        """L1 hit fraction for this PE."""
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (see :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PEMetrics":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored."""
        known = _field_names(cls)
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class RunMetrics:
    """Whole-accelerator statistics of one run."""

    policy: str
    cycles: float = 0.0
    matches: int = 0
    tasks_executed: int = 0
    trees_completed: int = 0
    iu_utilization: float = 0.0
    l1_hit_rate: float = 0.0
    l1_avg_latency: float = 0.0
    l2_hit_rate: float = 0.0
    dram_requests: int = 0
    dram_utilization: float = 0.0
    noc_messages: int = 0
    noc_lines: int = 0
    peak_footprint_bytes: int = 0
    slot_utilization: float = 0.0
    barrier_idle_fraction: float = 0.0
    split_rounds: int = 0
    partitions_sent: int = 0
    merges: int = 0
    quiesces: int = 0
    conservative_fraction: float = 0.0
    tasks_per_depth: List[int] = field(default_factory=list)
    per_pe: List[PEMetrics] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def speedup_over(self, baseline: "RunMetrics") -> float:
        """How much faster this run is than ``baseline`` (>1 = faster)."""
        if self.cycles <= 0:
            return float("inf")
        return baseline.cycles / self.cycles

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation, recursing into ``per_pe``.

        The persistent result cache (``repro.orchestrator``) stores runs
        in this form; :meth:`from_dict` round-trips it exactly.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunMetrics":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored
        so cache entries written by a newer schema still load."""
        known = _field_names(cls)
        payload = {k: v for k, v in data.items() if k in known}
        payload["per_pe"] = [PEMetrics.from_dict(p) for p in data.get("per_pe", [])]
        return cls(**payload)

    def summary(self) -> str:
        """One-line human-readable digest used by examples."""
        return (
            f"[{self.policy}] cycles={self.cycles:.0f} matches={self.matches} "
            f"tasks={self.tasks_executed} iu_util={self.iu_utilization:.3f} "
            f"l1_hit={self.l1_hit_rate:.3f} slot_util={self.slot_utilization:.3f} "
            f"peak_mem={self.peak_footprint_bytes}B"
        )


def geomean(values: List[float]) -> float:
    """Geometric mean (the paper's average-speedup aggregation)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))
