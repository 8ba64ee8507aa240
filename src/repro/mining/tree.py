"""Logical search-tree expansion shared by the miner and the simulator.

Pattern-aware mining explores one search tree per data vertex (Figure 1
of the paper).  A tree node at depth ``d`` matches one data vertex to
pattern-order position ``d``; *executing* the corresponding task computes
the **candidate set** for depth ``d + 1`` with set operations over
neighbor sets and previously materialized intermediate results
(Algorithm 1: ``S1 = N(u1) ∩ S0``).

:class:`SearchContext` encapsulates that semantics once, so the software
reference miner and every simulated scheduling policy execute *exactly*
the same logical workload — the completeness/uniqueness invariant of
§2.1 then holds for all of them by construction and is checked in tests.

Intermediate-result reuse
-------------------------
The candidate set for depth ``d+1`` is
``(∩_{e∈conn} N(emb[e]))  [\\  ∪_{e∈disc} N(emb[e])]``.
Instead of recomputing from raw neighbor sets, the expansion starts from
the deepest ancestor candidate set whose formula is a sub-formula of the
target (clique chains reduce to ``S_d = N(v) ∩ S_{d-1}``), which is what
gives graph mining its intermediate-data locality: sibling tasks share
the same ancestor set as an input (§2.2, "tasks with the same parent task
use the same intermediate results from previous depths").

Hot-path notes
--------------
This module sits on the per-task critical path of both the miner and the
cycle simulator, so the trace records (:class:`SetOpInput`,
:class:`SetOp`, :class:`Expansion`) are ``NamedTuple``s (C-speed
construction, same field API as the earlier frozen dataclasses), the
neighbor fetches go through the graph's :class:`~..graph.csr.NeighborArena`
(pre-built read-only slices), and ancestor recomputation is memoized per
``(depth, relevant-prefix)`` key.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ScheduleError
from ..graph.csr import CSRGraph
from ..patterns.schedule import MatchingSchedule
from . import setops


class SetOpInput(NamedTuple):
    """One input of a set operation.

    ``kind`` is ``"intermediate"`` (an ancestor candidate set, identified
    by the depth it feeds: ``ref = e`` means the candidate set computed by
    the depth ``e - 1`` ancestor task), ``"neighbors"`` (the adjacency of
    data vertex ``ref``, streamed from the CSR region) or ``"spm"`` (a
    partial result held in the PE scratchpad).
    """

    kind: str
    ref: int
    size: int


class SetOp(NamedTuple):
    """One two-input sorted-merge set operation with its accounting."""

    op: str  # "intersect" | "subtract" | "fetch"
    left: Optional[SetOpInput]
    right: Optional[SetOpInput]
    output_size: int

    @property
    def comparisons(self) -> int:
        """Merge-cost element comparisons of this operation."""
        left = self.left.size if self.left is not None else 0
        right = self.right.size if self.right is not None else 0
        return setops.merge_cost(left, right)


class Expansion(NamedTuple):
    """Result of executing one task: the next-depth candidate set.

    ``comparisons`` and ``neighbors`` carry accounting that
    :meth:`SearchContext.expand` precomputes while building ``ops`` (the
    simulator reads them once per task); when an ``Expansion`` is built
    by hand with only the first three fields, the properties fall back to
    deriving the same values from ``ops``.
    """

    candidates: np.ndarray
    ops: Tuple[SetOp, ...]
    reused_depth: Optional[int]
    comparisons: Optional[int] = None
    neighbors: Optional[Tuple[SetOpInput, ...]] = None

    @property
    def total_comparisons(self) -> int:
        """Total merge comparisons across all ops of this expansion."""
        if self.comparisons is not None:
            return self.comparisons
        return sum(op.comparisons for op in self.ops)

    @property
    def intermediate_inputs(self) -> List[SetOpInput]:
        """The intermediate-kind inputs (for locality accounting)."""
        out = []
        for op in self.ops:
            for inp in (op.left, op.right):
                if inp is not None and inp.kind == "intermediate":
                    out.append(inp)
        return out

    @property
    def neighbor_inputs(self) -> List[SetOpInput]:
        """The neighbor-set inputs (CSR / graph-region traffic)."""
        if self.neighbors is not None:
            return list(self.neighbors)
        out = []
        for op in self.ops:
            for inp in (op.left, op.right):
                if inp is not None and inp.kind == "neighbors":
                    out.append(inp)
        return out


class SearchContext:
    """Schedule-driven search-tree semantics over one graph.

    The context is stateless with respect to exploration order: any
    scheduling policy may call :meth:`expand` / :meth:`children` in any
    order, which is precisely the paper's Insight 1 (tasks without a
    parent-child relationship are independent).
    """

    #: Bound on the ancestor-recomputation memo (entries, then cleared).
    RECOMPUTE_MEMO_LIMIT = 8192

    def __init__(self, graph: CSRGraph, schedule: MatchingSchedule) -> None:
        self.graph = graph
        self.schedule = schedule
        self._nbr = graph.arena().slices
        # Precompute, per target depth, the deepest reusable ancestor depth
        # and the residual intersect / subtract depth lists.
        self._plan: List[Tuple[Optional[int], Tuple[int, ...], Tuple[int, ...]]] = []
        for d in range(schedule.depth):
            self._plan.append(self._make_plan(d))
        # Per depth: embedding positions that can appear in the candidate
        # set.  A position in connected[d] is auto-excluded (no vertex is
        # its own neighbor), so only the rest need the used-vertex filter.
        self._used_positions: List[Tuple[int, ...]] = [
            tuple(p for p in range(d) if p not in set(schedule.connected[d]))
            for d in range(schedule.depth)
        ]
        self._bound_depths = schedule.upper_bound_depths
        self._recompute_memo: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}
        # Workload counters consumed by the validation harness
        # (``repro.validate``): every candidate presented to
        # :meth:`children` is either kept (spawned as a child task) or
        # pruned by the symmetry bound / used-vertex filter, so
        # ``candidates_seen == children_kept + children_pruned`` is a
        # conservation law any caller may assert.
        self.expansions = 0
        self.candidates_seen = 0
        self.children_kept = 0
        self.children_pruned = 0

    # ------------------------------------------------------------------
    def _make_plan(
        self, d: int
    ) -> Tuple[Optional[int], Tuple[int, ...], Tuple[int, ...]]:
        """Reuse plan for computing the candidate set *for* depth ``d``.

        Returns ``(reused_depth, residual_intersections, residual_subtractions)``
        where ``reused_depth = e`` means "start from the candidate set for
        depth ``e``" (the ancestor task at depth ``e - 1`` materialized it).
        """
        if d == 0:
            return (None, (), ())
        schedule = self.schedule
        conn = set(schedule.connected[d])
        disc = set(schedule.disconnected[d]) if schedule.induced else set()
        best: Optional[int] = None
        for e in range(1, d):
            e_conn = set(schedule.connected[e])
            e_disc = set(schedule.disconnected[e]) if schedule.induced else set()
            if e_conn <= conn and e_disc <= disc:
                if best is None or len(e_conn) + len(e_disc) > len(
                    set(schedule.connected[best])
                ) + (len(set(schedule.disconnected[best])) if schedule.induced else 0):
                    best = e
        if best is None:
            residual_conn = tuple(sorted(conn))
            residual_disc = tuple(sorted(disc))
        else:
            residual_conn = tuple(sorted(conn - set(schedule.connected[best])))
            residual_disc = tuple(
                sorted(disc - (set(schedule.disconnected[best]) if schedule.induced else set()))
            )
        return (best, residual_conn, residual_disc)

    # ------------------------------------------------------------------
    def reuse_plan(self, d: int) -> Tuple[Optional[int], Tuple[int, ...], Tuple[int, ...]]:
        """Reuse plan for the candidate set feeding depth ``d``.

        Returns ``(reused_depth, residual_intersections, residual_subtractions)``;
        exposed so policies can reason about set lifetimes.
        """
        return self._plan[d]

    def roots(self) -> range:
        """Every data vertex roots one search tree (line 1 of Algorithm 1)."""
        return range(self.graph.num_vertices)

    def expand(
        self,
        embedding: Sequence[int],
        ancestor_sets: Optional[Sequence[np.ndarray]] = None,
    ) -> Expansion:
        """Execute the task matching ``embedding[-1]`` at depth ``len - 1``.

        Computes the candidate set for depth ``len(embedding)`` together
        with the set-operation trace.  ``ancestor_sets[e]`` may supply the
        already-materialized candidate set *for* depth ``e`` (index 0
        unused); when omitted, reusable ancestors are recomputed —
        functionally identical, just slower.

        Expanding a full-length embedding is a logic error: leaf tasks
        have no next depth.
        """
        d = len(embedding)
        if d < 1 or d > self.schedule.depth:
            raise ScheduleError(f"embedding length {d} out of range")
        if d == self.schedule.depth:
            raise ScheduleError("leaf tasks have no candidate set to compute")
        self.expansions += 1

        reused_depth, residual_conn, residual_disc = self._plan[d]
        nbr = self._nbr
        ops: List[SetOp] = []
        neighbor_inputs: List[SetOpInput] = []
        comparisons = 0

        if reused_depth is not None:
            if ancestor_sets is not None and ancestor_sets[reused_depth] is not None:
                current = ancestor_sets[reused_depth]
            else:
                current = self._recompute_set(embedding, reused_depth)
            size = len(current)
            current_input = SetOpInput("intermediate", reused_depth, size)
            if not residual_conn and not residual_disc:
                # The target formula equals an ancestor's: the task only
                # re-reads that set (one streaming pass, no merge work).
                ops.append(SetOp("fetch", current_input, None, size))
                comparisons = size
        else:
            # Start from the first residual neighbor set.
            first = residual_conn[0]
            v = embedding[first]
            nbrs = nbr[v]
            current = nbrs
            size = len(nbrs)
            current_input = SetOpInput("neighbors", int(v), size)
            neighbor_inputs.append(current_input)
            residual_conn = residual_conn[1:]
            if not residual_conn and not residual_disc:
                # Pure fetch (e.g. the root task: S0 = N(u0)).
                ops.append(SetOp("fetch", current_input, None, size))
                comparisons = size

        size = len(current)
        for e in residual_conn:
            v = embedding[e]
            nbrs = nbr[v]
            rhs = SetOpInput("neighbors", int(v), len(nbrs))
            neighbor_inputs.append(rhs)
            out = setops.intersect(current, nbrs)
            comparisons += size + len(nbrs)
            size = len(out)
            ops.append(SetOp("intersect", current_input, rhs, size))
            current = out
            # Partial results live in the PE scratchpad, not the L1
            # intermediate-result region, hence the distinct kind.
            current_input = SetOpInput("spm", d, size)
        for e in residual_disc:
            v = embedding[e]
            nbrs = nbr[v]
            rhs = SetOpInput("neighbors", int(v), len(nbrs))
            neighbor_inputs.append(rhs)
            out = setops.subtract(current, nbrs)
            comparisons += size + len(nbrs)
            size = len(out)
            ops.append(SetOp("subtract", current_input, rhs, size))
            current = out
            current_input = SetOpInput("spm", d, size)

        return Expansion(
            current, tuple(ops), reused_depth, comparisons, tuple(neighbor_inputs)
        )

    def _recompute_set(self, embedding: Sequence[int], e: int) -> np.ndarray:
        """Recompute the candidate set for depth ``e`` from neighbor sets.

        Memoized per ``(e, relevant embedding prefix)``: sibling and
        repeat expansions (partition intake, merging, ancestor-free
        calls) share one materialization instead of re-running the merge
        chain.  The memo holds read-only arrays, so sharing is safe.
        """
        conn = self.schedule.connected[e]
        induced = self.schedule.induced
        disc = self.schedule.disconnected[e] if induced else ()
        key = (e, tuple(int(embedding[f]) for f in conn + tuple(disc)))
        memo = self._recompute_memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        nbr = self._nbr
        current = setops.intersect_multi([nbr[embedding[f]] for f in conn])
        for f in disc:
            current = setops.subtract(current, nbr[embedding[f]])
        if current.flags.writeable:
            current = current.view()
            current.flags.writeable = False
        if len(memo) >= self.RECOMPUTE_MEMO_LIMIT:
            memo.clear()
        memo[key] = current
        return current

    def children(
        self, embedding: Sequence[int], candidates: np.ndarray
    ) -> np.ndarray:
        """Valid child vertices at depth ``len(embedding)``.

        Applies the symmetry-breaking upper bound (ascending scan cut-off)
        and drops vertices already used by the embedding.  The returned
        ``int64`` array is ascending — the order in which the task tree
        fetches candidate vertices — and is one contiguous span per
        parent, which is what the task tree's ``fill`` op consumes
        directly.  Callers must treat it as
        read-only: it may alias the candidate set.
        """
        d = len(embedding)
        total = len(candidates)
        depths = self._bound_depths[d]
        if depths and total:
            bound = min(int(embedding[i]) for i in depths)
            kept = candidates[: int(np.searchsorted(candidates, bound, side="left"))]
        else:
            kept = candidates
        check = self._used_positions[d]
        if check and len(kept):
            hits: List[int] = []
            for p in check:
                v = int(embedding[p])
                i = int(np.searchsorted(kept, v))
                if i < len(kept) and kept[i] == v:
                    hits.append(i)
            if hits:
                # Embedding vertices are distinct, so hit indices are too.
                kept = np.delete(kept, hits)
        self.candidates_seen += total
        self.children_kept += len(kept)
        self.children_pruned += total - len(kept)
        return kept

    def is_leaf_depth(self, depth: int) -> bool:
        """Whether ``depth`` is the final search depth (no spawning)."""
        return depth == self.schedule.max_depth
