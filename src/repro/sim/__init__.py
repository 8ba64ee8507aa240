"""Accelerator simulator: event engine, memory system, PEs, device."""

from .accelerator import POLICIES, Accelerator, policy_factory, simulate
from .config import DEFAULT_CONFIG, SimConfig
from .dram import DRAMModel
from .engine import Engine
from .fu import IUPool
from .memory import Cache, MemorySystem, PELatencyWindow, Scratchpad
from .metrics import PEMetrics, RunMetrics, geomean
from .noc import NoC
from .pe import PE
from .trace import TaskSpan, TraceRecorder

__all__ = [
    "Accelerator",
    "Cache",
    "DEFAULT_CONFIG",
    "DRAMModel",
    "Engine",
    "IUPool",
    "MemorySystem",
    "NoC",
    "PE",
    "PELatencyWindow",
    "PEMetrics",
    "POLICIES",
    "RunMetrics",
    "Scratchpad",
    "TaskSpan",
    "TraceRecorder",
    "SimConfig",
    "geomean",
    "policy_factory",
    "simulate",
]
