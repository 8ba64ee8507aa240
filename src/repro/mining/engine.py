"""Reference software miner: exact counts + workload statistics.

This is the pattern-aware DFS miner the accelerator implements in
hardware (Algorithm 1 generalized to any schedule).  It serves three
roles in the reproduction:

* **ground truth** — every simulated scheduling policy must report the
  exact same match count (completeness & uniqueness, §2.1);
* **workload characterization** — per-depth task counts, set-operation
  work and intermediate-data sizes drive Table 2 and the analytic parts
  of the evaluation narrative;
* **fast counting API** — downstream users who just want counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..patterns.schedule import MatchingSchedule
from .tree import Expansion, SearchContext

#: Elements per 64-byte cache line (16 four-byte vertex ids), Table 2.
ELEMENTS_PER_LINE = 16


def lines_for(elements: int, elements_per_line: int = ELEMENTS_PER_LINE) -> int:
    """Cache lines needed to hold ``elements`` vertex ids (ceil division)."""
    if elements <= 0:
        return 0
    return -(-int(elements) // int(elements_per_line))


@dataclass
class MiningStats:
    """Aggregate workload statistics of one mining run."""

    match_count: int = 0
    tasks_per_depth: List[int] = field(default_factory=list)
    children_spawned: int = 0
    children_pruned: int = 0
    total_comparisons: int = 0
    materialized_elements: int = 0
    intermediate_input_lines: int = 0
    intermediate_input_elements: int = 0
    expanding_tasks: int = 0

    @property
    def total_tasks(self) -> int:
        """All executing (non-pruned) tasks across all depths."""
        return sum(self.tasks_per_depth)

    @property
    def avg_intermediate_lines_per_task(self) -> float:
        """Average intermediate-data cache lines per expanding task.

        This is the Table 2 metric: how many cache lines of previously
        materialized candidate sets one task reads as set-operation input.
        Leaf tasks perform no set operation and are excluded (they would
        only dilute the average with zeros).
        """
        if self.expanding_tasks == 0:
            return 0.0
        return self.intermediate_input_lines / self.expanding_tasks


@dataclass
class MiningResult:
    """Match count, statistics and (optionally) the embeddings."""

    count: int
    stats: MiningStats
    embeddings: Optional[List[Tuple[int, ...]]] = None


def mine(
    graph: CSRGraph,
    schedule: MatchingSchedule,
    *,
    collect_embeddings: bool = False,
    max_matches: Optional[int] = None,
) -> MiningResult:
    """Run the reference miner and return exact counts plus statistics.

    ``max_matches`` stops early once that many matches are found (useful
    for smoke tests on large inputs); counts are then lower bounds.
    """
    ctx = SearchContext(graph, schedule)
    stats = MiningStats(tasks_per_depth=[0] * schedule.depth)
    embeddings: Optional[List[Tuple[int, ...]]] = [] if collect_embeddings else None
    max_depth = schedule.max_depth

    # sets[e] holds the candidate set *for* depth e along the current path.
    sets: List[Optional[np.ndarray]] = [None] * (schedule.depth + 1)

    def visit(embedding: List[int]) -> bool:
        """Execute the task for ``embedding``; returns False to stop early."""
        depth = len(embedding) - 1
        stats.tasks_per_depth[depth] += 1
        if depth == max_depth:
            stats.match_count += 1
            if embeddings is not None:
                embeddings.append(tuple(embedding))
            return max_matches is None or stats.match_count < max_matches

        expansion = ctx.expand(embedding, sets)
        _account(stats, expansion)
        next_depth = depth + 1
        sets[next_depth] = expansion.candidates
        children = ctx.children(embedding, expansion.candidates)
        stats.children_spawned += len(children)
        stats.children_pruned += len(expansion.candidates) - len(children)
        for child in children:
            embedding.append(int(child))
            keep_going = visit(embedding)
            embedding.pop()
            if not keep_going:
                return False
        sets[next_depth] = None
        return True

    for root in ctx.roots():
        if not visit([root]):
            break

    return MiningResult(count=stats.match_count, stats=stats, embeddings=embeddings)


def _account(stats: MiningStats, expansion: Expansion) -> None:
    stats.expanding_tasks += 1
    stats.total_comparisons += expansion.total_comparisons
    stats.materialized_elements += len(expansion.candidates)
    for inp in expansion.intermediate_inputs:
        stats.intermediate_input_lines += lines_for(inp.size)
        stats.intermediate_input_elements += inp.size


def count_matches(graph: CSRGraph, schedule: MatchingSchedule) -> int:
    """Exact number of unique matches of ``schedule`` in ``graph``."""
    return mine(graph, schedule).count
