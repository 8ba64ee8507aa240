"""Scheduling policies: BFS, DFS, pseudo-DFS (FINGERS), parallel-DFS, Shogun."""

from .base import SchedulingPolicy
from .bfs import BFSPolicy
from .group_dfs import DFSPolicy, GroupDFSPolicy
from .parallel_dfs import ParallelDFSPolicy
from .shogun import ShogunPolicy

__all__ = [
    "BFSPolicy",
    "DFSPolicy",
    "GroupDFSPolicy",
    "ParallelDFSPolicy",
    "SchedulingPolicy",
    "ShogunPolicy",
]
