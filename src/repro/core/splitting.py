"""Task-tree splitting: fine-grained load balance across PEs (§4.1).

Root vertices are dispatched to PEs dynamically, so imbalance appears at
the *tail* of a run: most PEs drain their last search trees while a few
grind through heavy ones.  The system scheduler detects this state and
instructs heavily loaded PEs to split their task trees.

Splitting is deliberately conservative and hardware-friendly: only the
depth-0 task's **unexplored depth-1 candidate range** is divided.  That
choice needs just a range split in the donor's task tree, and the only
intermediate data the helpers need is the root's neighbor set (its
depth-1 candidate set) — one bounded transfer instead of ongoing proxy
traffic.  The scheduler grants at most ``lb_max_helpers`` (4) idle PEs
per busy PE per round and re-runs the procedure if imbalance remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .policies.shogun import ShogunPolicy


@dataclass(frozen=True)
class Partition:
    """One partition message bundle (the three §4.1 message types).

    ``prefix`` is the embedding down to (and including) the split task —
    just the root vertex in the paper's depth-0-only scheme.
    ``set_lines`` is the payload of the prefix's candidate-set cache
    lines; the prefix + range and the set sizes ride along as two extra
    header lines on the NoC.
    """

    prefix: Tuple[int, ...]
    children: Tuple[int, ...]
    set_lines: int
    donor_pe: int

    @property
    def message_lines(self) -> int:
        """Total NoC payload (headers + set data) in cache lines."""
        return self.set_lines + 2


def plan_partitions(policy: "ShogunPolicy", helpers: int) -> List[Partition]:
    """Donor side: split the best task's candidate range into shares.

    The donor keeps the first share (its task tree just sees a truncated
    candidate list); each remaining share becomes a :class:`Partition`
    for one helper.  Returns an empty list when nothing is splittable —
    the multi-round procedure will try again later if imbalance remains.
    """
    if helpers < 1:
        return []
    task = policy.tree.splittable_task(policy.pe.config.split_depth_limit)
    if task is None or task.children_vertices is None:
        return []
    pool = policy.tree.harvest_split_pool(task)
    if len(pool) < 2:
        # Put whatever was withdrawn back; nothing worth shipping.
        task.children_vertices = task.children_vertices + pool
        return []
    chunk = -(-len(pool) // (helpers + 1))
    shares = [pool[i : i + chunk] for i in range(0, len(pool), chunk)]
    # Donor keeps the first share: re-append it to its candidate list.
    task.children_vertices = task.children_vertices + shares[0]
    line_bytes = policy.pe.config.cache_line_bytes
    set_lines = 0
    node = task
    while node is not None:
        if node.candidates is not None:
            set_lines += -(-len(node.candidates) * 4 // line_bytes)
        node = node.parent
    return [
        Partition(
            prefix=tuple(task.embedding),
            children=tuple(share),
            set_lines=set_lines,
            donor_pe=policy.pe.pe_id,
        )
        for share in shares[1:]
    ]


def apportion_helpers(
    busy: Sequence[int], idle: Sequence[int], max_helpers: int
) -> Dict[int, List[int]]:
    """Evenly apportion idle PEs to busy PEs (§4.1 step 1).

    Returns ``{busy_pe: [idle_pe, ...]}`` granting at most ``max_helpers``
    helpers per busy PE; leftover idle PEs stay unassigned until the next
    round.
    """
    assignment: Dict[int, List[int]] = {pe: [] for pe in busy}
    if not busy or not idle:
        return assignment
    pool = list(idle)
    cursor = 0
    while pool:
        target = busy[cursor % len(busy)]
        if len(assignment[target]) >= max_helpers:
            if all(len(assignment[b]) >= max_helpers for b in busy):
                break
            cursor += 1
            continue
        assignment[target].append(pool.pop(0))
        cursor += 1
    return assignment
