"""Loop-form reference bodies of the compiled kernels.

Each function here is the scalar-loop formulation of one backend kernel:
plain ``while``/``for`` loops over flat ``int64``/``float64`` buffers.
The C extension backend mirrors these bodies statement for statement;
the parity tests run them *interpreted* against the pure reference, and
the pure backend runs :func:`task_fastpath_loop` as the macro-step
core's interpreted oracle.  The task-tree ops have no body here: the C
extension mirrors the pure backend's interpreted tree binder
(:func:`.pure.tree_bind`) instead, and the task-tree parity suite
proves the two equal.

Floating-point kernels (:func:`ema_fold_loop`) use exactly the same
double-precision expressions, in the same order, as the pure backend's
Python loops — IEEE-754 doubles make the results bit-identical, which is
what keeps golden metrics byte-identical across backends.  The C
extension is compiled with ``-ffp-contract=off`` so no fused
multiply-adds sneak in.
"""

from __future__ import annotations


def intersect_loop(a, b, out) -> int:
    """Intersection of sorted unique ``a`` into ``out``; returns the count.

    ``a`` is the smaller operand (caller swaps).  Two regimes, picked by
    the size ratio exactly like the C kernel: a galloping binary-search
    sweep when ``b`` dwarfs ``a`` (the searchsorted regime the numpy
    backend always uses), otherwise the classic two-pointer merge.
    """
    na = a.shape[0]
    nb = b.shape[0]
    k = 0
    if na * 32 < nb:
        lo = 0
        for i in range(na):
            v = a[i]
            left = lo
            right = nb
            while left < right:
                mid = (left + right) >> 1
                if b[mid] < v:
                    left = mid + 1
                else:
                    right = mid
            lo = left
            if left < nb and b[left] == v:
                out[k] = v
                k += 1
    else:
        i = 0
        j = 0
        while i < na and j < nb:
            x = a[i]
            y = b[j]
            if x == y:
                out[k] = x
                k += 1
                i += 1
                j += 1
            elif x < y:
                i += 1
            else:
                j += 1
    return k


def subtract_loop(a, b, out) -> int:
    """Elements of sorted unique ``a`` not in ``b``; returns the count."""
    na = a.shape[0]
    nb = b.shape[0]
    k = 0
    if nb > na * 32:
        lo = 0
        for i in range(na):
            v = a[i]
            left = lo
            right = nb
            while left < right:
                mid = (left + right) >> 1
                if b[mid] < v:
                    left = mid + 1
                else:
                    right = mid
            lo = left
            if left >= nb or b[left] != v:
                out[k] = v
                k += 1
    else:
        j = 0
        for i in range(na):
            v = a[i]
            while j < nb and b[j] < v:
                j += 1
            if j >= nb or b[j] != v:
                out[k] = v
                k += 1
    return k


def resident_stamp_loop(tags, stamps, num_sets, assoc, first_line, last_line, tick) -> bool:
    """All-resident probe + LRU stamp of a line span (flat cache arrays).

    Pass 1 verifies every line of ``[first_line, last_line]`` is resident
    (no state change on failure); pass 2 stamps the hit ways in address
    order with consecutive ticks — exactly the state a sequential
    ``Cache.lookup`` sweep would leave.  Returns whether the span was
    fully resident; the caller advances ``cache._tick`` by the span
    length on success.
    """
    for addr in range(first_line, last_line + 1):
        base = (addr % num_sets) * assoc
        hit = False
        for way in range(assoc):
            if tags[base + way] == addr:
                hit = True
                break
        if not hit:
            return False
    for addr in range(first_line, last_line + 1):
        base = (addr % num_sets) * assoc
        for way in range(assoc):
            if tags[base + way] == addr:
                stamps[base + way] = tick
                tick += 1
                break
    return True


def task_fastpath_loop(
    now,
    is_leaf,
    vertex_line,
    inter_first,
    inter_last,
    out_first,
    out_last,
    out_count,
    segments,
    spans,
    nspans,
    result,
    decode_free,
    dispatch_free,
    issue_free,
    spawn_free,
    l1_tags,
    l1_stamps,
    l1_meta,
    l1_sets,
    l1_assoc,
    l1_window,
    l2_tags,
    l2_stamps,
    l2_meta,
    l2_sets,
    l2_assoc,
    bank_free,
    mem_stats,
    iu_free,
    iu_acc,
    unit_interval,
    decode_cycles,
    dispatch_cycles,
    post_spawn_cycles,
    leaf_cycles,
    l1_hit,
    l2_hit,
    l2_service,
    hop,
    alpha,
    segment_cycles,
    num_dividers,
    fetch_ports,
    stream_ok,
) -> int:
    """Book one task through every pipeline stage in a single call.

    The macro-step engine core: decode → dispatch → vertex fetch →
    input-span fetches → issue → IU service → writeback → spawn, with
    every float expression copied statement for statement from
    ``PE._book_front`` / ``PE._book_body`` / ``PE._book_tail``,
    ``MemorySystem.fetch_*`` and ``IUPool.submit`` so the booked state
    is bit-identical to the per-event path.

    Probe-then-commit escape protocol: phase 1 verifies every
    precondition side-effect-free (tag scans only); any failure returns
    a negative escape code **having mutated nothing**, and the caller
    replays the task through the exact Python slow path:

    * ``-3`` — the vertex line misses the L1,
    * ``-4`` — the intermediate span is not fully L1-resident,
    * ``-5`` — a graph span is not fully L2-resident.

    Phase 2 commits.  Two outcomes:

    * ``0`` — complete: the task finished spawn; ``result[0]`` is the
      completion-event time (the caller posts it).
    * ``1`` — partial: the output span is not fully L1-resident, so the
      writeback needs cache fills and L2 spills.  The core has committed
      decode through IU service; ``result[0]`` is the post-IU time and
      the caller runs writeback + spawn in Python (``PE._book_tail``).

    Per-PE state arrives as 1-element views (pipeline frees) and the
    owning objects' storage arrays (cache ``_tags``/``_stamps``/
    ``_meta``, window ``_state``, pool ``_server_free``/``_acc``); the
    shared L2/bank/stat arrays are the same objects every PE sees.
    ``spans`` holds ``nspans`` ``(first, last)`` graph spans flattened;
    counters ride in the int64 ``_meta``/``_stats`` arrays.  The cext
    backend mirrors this body statement for statement in C.
    """
    # ------------------------------------------------------------ probe
    if vertex_line >= 0:
        base = (vertex_line % l1_sets) * l1_assoc
        hit = False
        for way in range(l1_assoc):
            if l1_tags[base + way] == vertex_line:
                hit = True
                break
        if not hit:
            return -3
    if is_leaf == 0:
        if inter_first >= 0:
            for addr in range(inter_first, inter_last + 1):
                base = (addr % l1_sets) * l1_assoc
                hit = False
                for way in range(l1_assoc):
                    if l1_tags[base + way] == addr:
                        hit = True
                        break
                if not hit:
                    return -4
        for s in range(nspans):
            for addr in range(spans[2 * s], spans[2 * s + 1] + 1):
                base = (addr % l2_sets) * l2_assoc
                hit = False
                for way in range(l2_assoc):
                    if l2_tags[base + way] == addr:
                        hit = True
                        break
                if not hit:
                    return -5
    # ----------------------------------------------------------- commit
    # Decode + dispatch booking (PE._book_front).
    free = decode_free[0]
    start = now if now >= free else free
    decode_free[0] = start + unit_interval
    t = start + decode_cycles
    free = dispatch_free[0]
    start = t if t >= free else free
    dispatch_free[0] = start + unit_interval
    t = start + dispatch_cycles
    # Vertex fetch — guaranteed L1 hit (fetch_intermediate_line).
    if vertex_line >= 0:
        mem_stats[1] += 1
        base = (vertex_line % l1_sets) * l1_assoc
        for way in range(l1_assoc):
            if l1_tags[base + way] == vertex_line:
                l1_stamps[base + way] = l1_meta[0]
                break
        l1_meta[0] += 1
        l1_meta[1] += 1
        finish = t + l1_hit
        if finish > t:
            t = finish
    if is_leaf != 0:
        # Leaf task: spawn booking only (PE._book_leaf).
        free = spawn_free[0]
        at = t + leaf_cycles
        start = at if at >= free else free
        spawn_free[0] = start + unit_interval
        result[0] = start + post_spawn_cycles
        return 0
    # Intermediate span — all L1 hits (fetch_intermediate_span).
    t_inter = t
    if inter_first >= 0:
        n = inter_last - inter_first + 1
        tick = l1_meta[0]
        for addr in range(inter_first, inter_last + 1):
            base = (addr % l1_sets) * l1_assoc
            for way in range(l1_assoc):
                if l1_tags[base + way] == addr:
                    l1_stamps[base + way] = tick
                    tick += 1
                    break
        l1_meta[0] = tick
        l1_meta[1] += n
        mem_stats[1] += n
        value = l1_window[0]
        total = l1_window[1]
        for _ in range(n):
            value += alpha * (l1_hit - value)
            total += l1_hit
        l1_window[0] = value
        l1_window[1] = total
        l1_window[2] += n
        finish = (t + (n - 1) // fetch_ports) + l1_hit
        t_inter = finish if finish > t else t
    # Graph spans — all L2 hits (fetch_graph_spans).
    t_graph = t
    if nspans > 0:
        nbanks = bank_free.shape[0]
        tick = l2_meta[0]
        hits = 0
        done = t
        i = 0
        for s in range(nspans):
            first = spans[2 * s]
            last = spans[2 * s + 1]
            if last == first:
                base = (first % l2_sets) * l2_assoc
                for way in range(l2_assoc):
                    if l2_tags[base + way] == first:
                        l2_stamps[base + way] = tick
                        tick += 1
                        break
                hits += 1
                issue = t + i // fetch_ports
                arrive = issue + hop
                bank = first % nbanks
                queued = bank_free[bank]
                start = queued if queued >= arrive else arrive
                bank_free[bank] = start + l2_service
                back = start + l2_hit + hop
                if back > done:
                    done = back
                i += 1
                continue
            n = last - first + 1
            for addr in range(first, last + 1):
                base = (addr % l2_sets) * l2_assoc
                for way in range(l2_assoc):
                    if l2_tags[base + way] == addr:
                        l2_stamps[base + way] = tick
                        tick += 1
                        break
            hits += n
            bank = first % nbanks
            head = nbanks if (stream_ok != 0 and n > nbanks) else n
            streaming = True
            for _ in range(head):
                issue = t + i // fetch_ports
                arrive = issue + hop
                queued = bank_free[bank]
                if queued >= arrive:
                    start = queued
                    if queued > arrive:
                        streaming = False
                else:
                    start = arrive
                bank_free[bank] = start + l2_service
                back = start + l2_hit + hop
                if back > done:
                    done = back
                i += 1
                bank += 1
                if bank == nbanks:
                    bank = 0
            rest = n - head
            if rest > 0:
                if streaming:
                    last_k = i + rest - 1
                    back = ((t + last_k // fetch_ports) + hop) + l2_hit + hop
                    if back > done:
                        done = back
                    lim = rest if rest < nbanks else nbanks
                    for _ in range(lim):
                        arrive = (t + last_k // fetch_ports) + hop
                        b = (first + (last_k - i) + head) % nbanks
                        bank_free[b] = arrive + l2_service
                        last_k -= 1
                    i += rest
                else:
                    for _ in range(rest):
                        issue = t + i // fetch_ports
                        arrive = issue + hop
                        queued = bank_free[bank]
                        start = queued if queued >= arrive else arrive
                        bank_free[bank] = start + l2_service
                        back = start + l2_hit + hop
                        if back > done:
                            done = back
                        i += 1
                        bank += 1
                        if bank == nbanks:
                            bank = 0
        l2_meta[0] = tick
        l2_meta[1] += hits
        mem_stats[0] += i
        t_graph = done
    # Issue booking + IU service (PE._book_body + IUPool.submit).
    ready = t_inter if t_inter >= t_graph else t_graph
    free = issue_free[0]
    start = ready if ready >= free else free
    issue_free[0] = start + unit_interval
    ready_time = start + 1.0
    if segments <= 0:
        t = ready_time
    else:
        formed = ready_time + segments / num_dividers
        k = iu_free.shape[0]
        c = segment_cycles
        if iu_acc[0] <= formed:
            q = segments // k
            r = segments - q * k
            if q == 0:
                # Replace the `segments` least-loaded servers with done:
                # done exceeds every entry, so iterated argmin-overwrite
                # touches exactly the `segments` smallest values.
                done = formed + c
                for _ in range(segments):
                    mi = 0
                    mv = iu_free[0]
                    for j in range(1, k):
                        if iu_free[j] < mv:
                            mv = iu_free[j]
                            mi = j
                    iu_free[mi] = done
                finish = done
            else:
                done = formed
                for _ in range(q):
                    done = done + c
                if r > 0:
                    finish = done + c
                    for j in range(k - r):
                        iu_free[j] = done
                    for j in range(k - r, k):
                        iu_free[j] = finish
                else:
                    finish = done
                    for j in range(k):
                        iu_free[j] = done
            iu_acc[0] = finish
        else:
            finish = formed
            for _ in range(segments):
                mi = 0
                mv = iu_free[0]
                for j in range(1, k):
                    if iu_free[j] < mv:
                        mv = iu_free[j]
                        mi = j
                fv = iu_free[mi]
                st = fv if fv >= formed else formed
                done = st + c
                iu_free[mi] = done
                if done > finish:
                    finish = done
            if finish > iu_acc[0]:
                iu_acc[0] = finish
        iu_acc[1] += segments * c
        iu_acc[2] += segments
        t = finish
    # Writeback — commit only when the output span is fully resident
    # (a pure LRU refresh: stamps in address order, no hits, no
    # evictions, Cache.insert_span's resident fast path).  Otherwise
    # return the post-IU time and let Python run the full writeback.
    if out_count > 0:
        resident = True
        for addr in range(out_first, out_last + 1):
            base = (addr % l1_sets) * l1_assoc
            hit = False
            for way in range(l1_assoc):
                if l1_tags[base + way] == addr:
                    hit = True
                    break
            if not hit:
                resident = False
                break
        if not resident:
            result[0] = t
            return 1
        tick = l1_meta[0]
        for addr in range(out_first, out_last + 1):
            base = (addr % l1_sets) * l1_assoc
            for way in range(l1_assoc):
                if l1_tags[base + way] == addr:
                    l1_stamps[base + way] = tick
                    tick += 1
                    break
        l1_meta[0] = tick
        wb = out_count / fetch_ports
        t += wb if wb > 1.0 else 1.0
    # Spawn booking (PE._book_tail).
    free = spawn_free[0]
    start = t if t >= free else free
    spawn_free[0] = start + unit_interval
    result[0] = start + post_spawn_cycles
    return 0


def ema_fold_loop(state, alpha, latency, n) -> None:
    """Fold ``n`` identical latencies into an EMA window.

    ``state`` is a 2-element float64 buffer: ``state[0]`` the moving
    average, ``state[1]`` the running latency total.  The loop body is
    the exact expression of ``PELatencyWindow.record`` — kept as a loop
    (not a closed form) so the float rounding matches the per-access
    folds bit for bit.
    """
    value = state[0]
    total = state[1]
    for _ in range(n):
        value += alpha * (latency - value)
        total += latency
    state[0] = value
    state[1] = total

