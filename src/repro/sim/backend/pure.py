"""Pure python/numpy kernel backend — the reference implementation.

These are the exact kernels the simulator ran before the backend layer
existed: the searchsorted set operations from ``mining.setops`` and the
tiered span-residency / EMA folds lifted verbatim out of
``sim/memory.py``.  The compiled backend is differential-tested against
this one (``tests/test_backend_parity.py``).  There is no macro-step
core here: under this backend every task books per-event, which is the
reference the compiled core is tested against.

Kernel contracts
----------------
``intersect(a, b)`` / ``subtract(a, b)``
    General case only — both operands non-empty sorted unique ``int64``
    arrays; the trivial cases live in the ``setops`` dispatchers so all
    backends share them.  Results are sorted unique ``int64``.

``intersect_multi(arrays)``
    Chained intersection of two or more operands, presorted
    smallest-first by the dispatcher, first operand non-empty.  One
    kernel call per chain lets compiled backends amortize their call
    overhead across all operands.

``span_resident_stamp(cache, first_line, last_line)``
    If every line of the span is resident in ``cache``, stamp the hit
    ways in address order with consecutive ticks (advancing
    ``cache._tick``) and return True; otherwise change nothing and
    return False.  Hit/miss *statistics* are the caller's job — the
    writeback path refreshes LRU without counting hits.

``ema_fold(window, latency, n)``
    Fold ``n`` identical latencies into a ``PELatencyWindow``.

``tree_bind(state)``
    The ``select``/``fill``/``complete`` ops every ``TaskTree``
    decision goes through, bound over one tree's struct-of-arrays
    state (see :func:`tree_bind`).

``derive_bind(accel, spans)``
    Compiled backends only (``None`` here): one call derives a
    non-leaf task — its reuse plan's set operations, comparison count,
    graph spans (written into the macro core's ``spans``), working-set
    sizes and kept children.  Under this backend ``PE._derive`` runs
    ``SearchContext.expand``/``children``, the reference the compiled
    call mirrors.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ...mining.setops import (
    _intersect_multi_numpy,
    _intersect_numpy,
    _subtract_numpy,
)

intersect = _intersect_numpy
subtract = _subtract_numpy
intersect_multi = _intersect_multi_numpy


def span_resident_stamp(cache, first_line: int, last_line: int) -> bool:
    """Tiered all-resident probe + batch LRU stamp (see module docs).

    The tiers mirror the span sizes the simulator produces: a scalar
    dict walk for narrow spans (numpy setup costs more than a few dict
    probes), a listcomp probe with batch stamping for mid-size spans,
    and the vectorized tag-array probe for very wide ones.  All three
    leave identical state: hit ways stamped in address order with
    consecutive ticks, nothing touched on a miss.
    """
    n = last_line - first_line + 1
    tick = cache._tick
    if n >= 64:
        sets, hit_ways, mask = cache._span_probe(first_line, last_line)
        if not mask.all():
            return False
        cache._stamps[sets * cache.assoc + hit_ways.argmax(axis=1)] = np.arange(
            tick, tick + n, dtype=np.int64
        )
    elif n >= 8:
        where_get = cache._where.get
        slots = [where_get(addr) for addr in range(first_line, last_line + 1)]
        if None in slots:
            return False
        cache._stamps[slots] = np.arange(tick, tick + n, dtype=np.int64)
    else:
        where_get = cache._where.get
        slots = []
        append = slots.append
        for addr in range(first_line, last_line + 1):
            slot = where_get(addr)
            if slot is None:
                return False
            append(slot)
        stamps = cache._stampv
        for slot in slots:
            stamps[slot] = tick
            tick += 1
        cache._tick = tick
        return True
    cache._tick = tick + n
    return True


def ema_fold(window, latency: float, n: int) -> None:
    """Per-access EMA folds of ``n`` identical latencies (exact loop)."""
    alpha = window.alpha
    value = window.value
    total = window.total_latency
    for _ in range(n):
        value += alpha * (latency - value)
        total += latency
    window.value = value
    window.total_latency = total
    window.samples += n


def tree_bind(state):
    """Interpreted task-tree ops over one ``TaskTreeState``.

    The reference the C extension's ``repro_tree_t`` binder mirrors
    statement for statement; the task-tree parity suite proves the two
    bit-identical on whole runs.  Each op is a closure over the tree's
    arrays, written in the cheap CPython idioms for numpy scalars:
    ``int()`` on reads that feed arithmetic, truthiness for emptiness.
    ``ctl`` word indices and ``DONE_*`` codes are the constants of
    :mod:`repro.core.task_tree`, inlined as in the C source.

    ``select(conservative, k)``
        Schedule up to ``k`` Ready entries (clamped to ``nb * cap``,
        every entry of the tree): sibling preference, then
        round-robin; conservative mode keeps to the executing bunch
        while anything executes.  Returns one flat list of Python ints
        holding a ``(slot, vertex, child_index, token, tree)`` record
        per pick.
    ``fill(b, tree_id, quiesced, vertices, first, count)``
        Admit ``vertices[first:first + count]`` as tokenless Ready rows
        of idle bunch ``b``.
    ``complete(slot, b, has_children, children, first, navail,
    parent_unexplored, ext_vertex, ext_position, tree_quiesced)``
        One completion transition: spawn-or-wait with children (the
        filled bunch and count land in ``done``), extend-or-idle
        without.  Returns a ``DONE_*`` code; the cold recycle edge
        stays with the caller.
    ``done``
        The ops' own 2-word spawn result ``[bunch, count]``.
    """
    b_depth = state.b_depth
    b_cap = state.b_cap
    b_in_use = state.b_in_use
    b_tree = state.b_tree
    b_quiesced = state.b_quiesced
    b_active = state.b_active
    b_executing = state.b_executing
    ring = state.ring
    ring_head = state.ring_head
    ring_len = state.ring_len
    e_vertex = state.e_vertex
    e_child_index = state.e_child_index
    e_token = state.e_token
    tok_free = state.tok_free
    tok_n = state.tok_n
    d_start = state.d_start
    d_end = state.d_end
    ctl = state.ctl
    nb = state.nb
    cap = state.cap
    max_depth = state.max_depth
    tokens_per_depth = state.tokens_per_depth
    records_cap = nb * cap
    done = [0, 0]

    def schedule(b):
        """Schedule one Ready entry out of bunch ``b`` (-1: token stall)."""
        depth = int(b_depth[b])
        leaf = depth >= max_depth
        base = b * cap
        head = int(ring_head[b])
        length = int(ring_len[b])
        if leaf or tok_n[depth] > 0:
            slot = int(ring[base + head])
            ring_head[b] = (head + 1) % cap
            ring_len[b] = length - 1
        else:
            # Pool drained: an entry already holding a token is still
            # valid (ordered middle deletion from the ready ring).
            for j in range(length):
                slot = int(ring[base + (head + j) % cap])
                if e_token[slot] >= 0:
                    for m in range(j, length - 1):
                        ring[base + (head + m) % cap] = (
                            ring[base + (head + m + 1) % cap]
                        )
                    ring_len[b] = length - 1
                    break
            else:
                ctl[6] += 1  # CTL_STALLS
                return -1
        ctl[0] -= 1  # CTL_READY
        if not leaf and e_token[slot] < 0:
            n_free = int(tok_n[depth]) - 1
            tok_n[depth] = n_free
            e_token[slot] = tok_free[depth * tokens_per_depth + n_free]
        b_executing[b] += 1
        ctl[1] += 1  # CTL_EXECUTING
        ctl[3] = b  # CTL_EXEC_BUNCH
        ctl[2] = b  # CTL_LAST_BUNCH
        ctl[5] += 1  # CTL_SCHEDULED
        return slot

    def select(conservative, k):
        if k > records_cap:
            k = records_cap
        out = []
        count = 0
        while count < k and ctl[0]:  # CTL_READY
            if conservative and ctl[1] > 0:  # CTL_EXECUTING
                # Conservative: only the executing bunch, no fallback.
                b = int(ctl[3])
                if b < 0 or not ring_len[b] or b_quiesced[b]:
                    break
                slot = schedule(b)
            else:
                last = int(ctl[2])
                slot = -1
                if last >= 0 and ring_len[last] and not b_quiesced[last]:
                    slot = schedule(last)
                if slot < 0:
                    start = int(ctl[4])  # CTL_RR_CURSOR
                    for offset in range(nb):
                        b = (start + offset) % nb
                        if b == last or not ring_len[b] or b_quiesced[b]:
                            continue
                        ctl[4] = (start + offset + 1) % nb
                        slot = schedule(b)
                        if slot >= 0:
                            break
            if slot < 0:
                break
            out += (slot, int(e_vertex[slot]), int(e_child_index[slot]),
                    int(e_token[slot]), int(b_tree[slot // cap]))
            count += 1
        return out

    def fill(b, tree_id, quiesced, vertices, first, count):
        b_in_use[b] = 1
        b_tree[b] = tree_id
        b_quiesced[b] = quiesced
        base = b * cap
        for i in range(count):
            slot = base + i
            e_vertex[slot] = vertices[first + i]
            e_child_index[slot] = first + i
            e_token[slot] = -1
            ring[slot] = slot
        ring_head[b] = 0
        ring_len[b] = count
        ctl[0] += count  # CTL_READY
        b_active[b] = count
        return count

    def complete(slot, b, has_children, children, first, navail,
                 parent_unexplored, ext_vertex, ext_position, tree_quiesced):
        b_executing[b] -= 1
        ctl[1] -= 1  # CTL_EXECUTING
        if has_children:
            child_depth = int(b_depth[b]) + 1
            for target in range(int(d_start[child_depth]), int(d_end[child_depth])):
                if not b_in_use[target]:
                    break
            else:
                ctl[7] += 1  # CTL_WAITS
                return 1  # DONE_WAITING
            count = min(int(b_cap[target]), navail - first)
            if count <= 0:
                return 5  # DONE_UNDERFLOW: nothing left to spawn
            fill(target, b_tree[b], tree_quiesced, children, first, count)
            done[0] = target
            done[1] = count
            return 0  # DONE_SPAWNED
        if parent_unexplored > 0:
            # Extend: the entry and its address token explore the
            # parent's next unexplored candidate.
            e_vertex[slot] = ext_vertex
            e_child_index[slot] = ext_position
            ring[b * cap + (int(ring_head[b]) + int(ring_len[b])) % cap] = slot
            ring_len[b] += 1
            ctl[0] += 1  # CTL_READY
            return 2  # DONE_EXTENDED
        token = int(e_token[slot])
        if token >= 0:
            depth = int(b_depth[b])
            n_free = int(tok_n[depth])
            tok_free[depth * tokens_per_depth + n_free] = token
            tok_n[depth] = n_free + 1
            e_token[slot] = -1
        active = int(b_active[b]) - 1
        b_active[b] = active
        if active < 0:
            return 5  # DONE_UNDERFLOW
        return 3 if active else 4  # DONE_IDLED / DONE_RECYCLE

    return SimpleNamespace(select=select, fill=fill, complete=complete, done=done)
