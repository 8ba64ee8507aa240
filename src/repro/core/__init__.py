"""Shogun core: tasks, the task tree, tokens, scheduling policies."""

from .locality import LocalityMonitor
from .merging import MergeController
from .policies.base import SchedulingPolicy
from .policies.bfs import BFSPolicy
from .policies.group_dfs import DFSPolicy, GroupDFSPolicy
from .policies.parallel_dfs import ParallelDFSPolicy
from .policies.shogun import ShogunPolicy
from .splitting import Partition, apportion_helpers, plan_partitions
from .task import SimTask
from .task_tree import TaskTree
from .tokens import INTERMEDIATE_REGION_BASE, SetBufferMap

__all__ = [
    "BFSPolicy",
    "DFSPolicy",
    "GroupDFSPolicy",
    "INTERMEDIATE_REGION_BASE",
    "LocalityMonitor",
    "MergeController",
    "ParallelDFSPolicy",
    "Partition",
    "SchedulingPolicy",
    "SetBufferMap",
    "ShogunPolicy",
    "SimTask",
    "TaskTree",
    "apportion_helpers",
    "plan_partitions",
]
