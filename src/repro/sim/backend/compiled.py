"""Object-level glue for the compiled kernel backend (the C extension).

The C extension exposes loop kernels taking flat ``int64`` numpy
buffers (``intersect_loop(a, b, out)``, ``subtract_loop(a, b, out)``,
``intersect_multi_loop(arrays, out, scratch)``, each returning a
count); the object-level adaptation lives here: operand normalization
and output allocation.

The adapters preserve the pure backend's exact observable behavior:
identical result arrays (sorted unique ``int64``; the shared ``EMPTY``
singleton for empty results).
"""

from __future__ import annotations

import threading

import numpy as np

from ...mining.setops import EMPTY

_INT64 = np.dtype(np.int64)


class BackendUnavailable(RuntimeError):
    """Raised when a backend's dependency or toolchain is missing."""


def _norm(arr: np.ndarray) -> np.ndarray:
    """C-contiguous ``int64`` view/copy of ``arr`` (no-op on the hot path)."""
    if arr.dtype is _INT64 and arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr, dtype=np.int64)


class KernelSet:
    """One selectable backend: named kernel callables as instance attrs.

    Attributes are plain functions (not methods), so the profiler's
    instrumentation can swap timed wrappers in and out per instance and
    ``setops`` can bind them directly as its implementation globals.
    """

    def __init__(self, name, compiled, intersect, subtract, intersect_multi,
                 tree_bind, macro_bind=None, derive_bind=None,
                 lane_bind=None):
        self.name = name
        self.compiled = compiled
        self.intersect = intersect
        self.subtract = subtract
        self.intersect_multi = intersect_multi
        #: Task-tree binder ``(state) -> ops`` whose ``select``/``fill``/
        #: ``complete`` take every ``TaskTree`` decision over one
        #: ``TaskTreeState`` (interpreted closures for pure; the C
        #: extension pre-marshals the tree's array pointers into one
        #: struct).
        self.tree_bind = tree_bind
        #: Macro-step binder ``(accel, spans, result) -> (books, cores,
        #: pinned)``, one whole-task booking call per PE (the C extension
        #: pre-marshals pointers into per-PE structs); ``None`` for the
        #: pure backend, which books per-event.
        self.macro_bind = macro_bind
        #: Compiled-expansion binder ``(accel, spans) -> ops`` (the C
        #: extension's ``DeriveOps``; ``None`` if the schedule is too
        #: deep): one call derives a non-leaf task, writing its graph
        #: spans into the macro core's ``spans``.  ``None`` for the pure
        #: backend, whose ``PE._derive`` runs ``SearchContext``.
        self.derive_bind = derive_bind
        #: Event-lane binder ``(accel=None) -> ops`` (the C extension's
        #: time queue plus the leaf-task cycle of Shogun and pseudo-DFS;
        #: a bare queue without ``accel``).  ``None`` for the pure
        #: backend, whose engine drains in Python.
        self.lane_bind = lane_bind

    #: Kernel attributes eligible for per-kernel instrumentation.
    KERNELS = ("intersect", "subtract", "intersect_multi")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KernelSet({self.name!r}, compiled={self.compiled})"


def make_kernel_set(name: str, lib) -> KernelSet:
    """Build a :class:`KernelSet` over array-level loop kernels ``lib``."""

    lib_intersect = lib.intersect_loop
    lib_subtract = lib.subtract_loop
    lib_multi = lib.intersect_multi_loop
    empty = np.empty

    # Reusable result buffers: the loop kernels write into these and the
    # adapters copy the live prefix out, so per-call output allocation —
    # and, for the C backend, per-call marshalling of the output pointer
    # (the adapter caches pointers by object identity) — stays off the
    # hot path.  A result can be at most as long as the smallest
    # operand, so sizing to that operand always suffices.  Each thread
    # gets its own pair: the C calls release the GIL, so simulations
    # running in threads of one process (the in-process cell executor)
    # would otherwise write into each other's results mid-call.
    buffers = threading.local()

    def _out_buffer(n):
        out = getattr(buffers, "out", None)
        if out is None or n > out.shape[0]:
            size = max(n, 256 if out is None else out.shape[0] * 2)
            out = buffers.out = empty(size, dtype=np.int64)
            buffers.scratch = empty(size, dtype=np.int64)
        return out

    def intersect(a, b):
        if len(a) > len(b):
            a, b = b, a
        a = _norm(a)
        b = _norm(b)
        out = _out_buffer(a.shape[0])
        k = lib_intersect(a, b, out)
        if k == 0:
            return EMPTY
        return out[:k].copy()

    def subtract(a, b):
        a = _norm(a)
        b = _norm(b)
        out = _out_buffer(a.shape[0])
        k = lib_subtract(a, b, out)
        if k == 0:
            return EMPTY
        return out[:k].copy()

    def intersect_multi(arrays):
        operands = [_norm(a) for a in arrays]
        out = _out_buffer(operands[0].shape[0])
        k = lib_multi(operands, out, buffers.scratch)
        if k == 0:
            return EMPTY
        return out[:k].copy()

    return KernelSet(
        name, True, intersect, subtract, intersect_multi, lib.tree_bind,
        macro_bind=lib.macro_bind, derive_bind=lib.derive_bind,
        lane_bind=lib.lane_bind,
    )
