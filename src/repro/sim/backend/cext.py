"""C-extension kernel backend (cffi, no setuptools).

The kernels are C loops over flat buffers, written below and held to
the pure backend (:mod:`.pure`) by the kernel-parity suite: the set
operations and span stamp produce identical outputs and cache state,
the EMA fold repeats the pure loop's double expressions, the task-tree
ops mirror :func:`.pure.tree_bind` statement for statement, and the
macro-step core mirrors the per-event booking path.  They are compiled
on demand with the system C compiler into a shared object
cached under ``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro/kernels``)
keyed by a hash of the source and compiler, so every process after the
first just loads the cached ``.so``.  Neither path needs
setuptools/distutils — the compiler is driven directly:

* **API mode** (preferred) — cffi emits the CPython extension source
  (``emit_c_code``), which is compiled against the interpreter's
  headers.  Calls through an API-mode ``lib`` are native extension
  calls, several times cheaper than ABI-mode's ``libffi`` trampolines —
  and on these microsecond kernels the call overhead *is* the price of
  admission.  Requires ``Python.h``; the cache key includes the
  interpreter version because the module links against its C API.
* **ABI mode** (fallback) — the plain C source is compiled standalone
  and ``dlopen``\\ ed: declare, open, call.  Works without Python
  headers; calls are slower.

Two flags matter for metric byte-identity:

* ``-ffp-contract=off`` — gcc at ``-O2`` may otherwise fuse the EMA's
  multiply-add into an FMA, which rounds once instead of twice and
  drifts from the Python loop's doubles.
* no ``-ffast-math`` — IEEE semantics throughout.

Anything missing (cffi, a C compiler, a writable cache dir, a failed
compile) raises :class:`BackendUnavailable`; the registry falls back to
the next backend and the simulator keeps running pure.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

from .compiled import BackendUnavailable, make_kernel_set

C_SOURCE = r"""
#include <stdint.h>

int64_t repro_intersect(const int64_t *a, int64_t na,
                        const int64_t *b, int64_t nb, int64_t *out)
{
    int64_t k = 0;
    if (na * 32 < nb) {
        int64_t lo = 0;
        for (int64_t i = 0; i < na; i++) {
            int64_t v = a[i];
            int64_t left = lo, right = nb;
            while (left < right) {
                int64_t mid = (left + right) >> 1;
                if (b[mid] < v) left = mid + 1; else right = mid;
            }
            lo = left;
            if (left < nb && b[left] == v) out[k++] = v;
        }
    } else {
        int64_t i = 0, j = 0;
        while (i < na && j < nb) {
            int64_t x = a[i], y = b[j];
            if (x == y) { out[k++] = x; i++; j++; }
            else if (x < y) i++;
            else j++;
        }
    }
    return k;
}

int64_t repro_subtract(const int64_t *a, int64_t na,
                       const int64_t *b, int64_t nb, int64_t *out)
{
    int64_t k = 0;
    if (nb > na * 32) {
        int64_t lo = 0;
        for (int64_t i = 0; i < na; i++) {
            int64_t v = a[i];
            int64_t left = lo, right = nb;
            while (left < right) {
                int64_t mid = (left + right) >> 1;
                if (b[mid] < v) left = mid + 1; else right = mid;
            }
            lo = left;
            if (left >= nb || b[left] != v) out[k++] = v;
        }
    } else {
        int64_t j = 0;
        for (int64_t i = 0; i < na; i++) {
            int64_t v = a[i];
            while (j < nb && b[j] < v) j++;
            if (j >= nb || b[j] != v) out[k++] = v;
        }
    }
    return k;
}

int repro_resident_stamp(const int64_t *tags, int64_t *stamps,
                         int64_t num_sets, int64_t assoc,
                         int64_t first_line, int64_t last_line, int64_t tick)
{
    for (int64_t addr = first_line; addr <= last_line; addr++) {
        const int64_t *ways = tags + (addr % num_sets) * assoc;
        int hit = 0;
        for (int64_t w = 0; w < assoc; w++) {
            if (ways[w] == addr) { hit = 1; break; }
        }
        if (!hit) return 0;
    }
    for (int64_t addr = first_line; addr <= last_line; addr++) {
        int64_t base = (addr % num_sets) * assoc;
        for (int64_t w = 0; w < assoc; w++) {
            if (tags[base + w] == addr) { stamps[base + w] = tick++; break; }
        }
    }
    return 1;
}

void repro_ema_fold(double *state, double alpha, double latency, int64_t n)
{
    double value = state[0];
    double total = state[1];
    for (int64_t i = 0; i < n; i++) {
        value += alpha * (latency - value);
        total += latency;
    }
    state[0] = value;
    state[1] = total;
}

/* Macro-step engine core: one task booked through every pipeline stage.
 *
 * Mirrors the Python per-event path — PE._book_front, _book_body and
 * _book_tail in sim/pe.py, MemorySystem.fetch_*_span and
 * install_intermediate_span in sim/memory.py, IUPool.submit in
 * sim/fu.py — with the same double expressions in the same order, so
 * the booked state is bit-identical.  Phase 1 probes every cache
 * precondition without side effects; phase 2 commits.  One struct per
 * PE holds pre-offset pointers into the owning objects' numpy storage
 * plus the config scalars, so a call marshals only the per-task
 * scalars.
 *
 * Returns 0 (complete, result[0] = completion time), 1 (partial —
 * output span not L1-resident; committed through IU service, result[0]
 * = post-IU time), or a negative escape having mutated nothing:
 * -3 vertex L1 miss, -4 intermediate-span L1 miss, -5 graph L2 miss.
 */
typedef struct {
    double *decode_free;     /* 1-elem views into the PE's state row */
    double *dispatch_free;
    double *issue_free;
    double *spawn_free;
    int64_t *l1_tags;        /* this PE's L1: tags/stamps/meta */
    int64_t *l1_stamps;
    int64_t *l1_meta;        /* [tick, hits, misses] */
    int64_t l1_sets;
    int64_t l1_assoc;
    double *l1_window;       /* latency window [value, total, samples] */
    int64_t *l2_tags;        /* shared L2 */
    int64_t *l2_stamps;
    int64_t *l2_meta;
    int64_t l2_sets;
    int64_t l2_assoc;
    double *bank_free;       /* shared L2 bank free times */
    int64_t nbanks;
    int64_t *mem_stats;      /* [graph_line_fetches, intermediate_line_fetches] */
    double *iu_free;         /* this PE's IU pool server frees */
    int64_t num_ius;
    double *iu_acc;          /* [max_free, busy_cycles, segments_processed] */
    int64_t *spans;          /* shared span marshalling buffer */
    double *result;          /* shared [time, unused] */
    double unit_interval;
    double decode_cycles;
    double dispatch_cycles;
    double post_spawn_cycles;
    double leaf_cycles;
    double l1_hit;
    double l2_hit;
    double l2_service;
    double hop;
    double alpha;
    double segment_cycles;
    double num_dividers;
    int64_t fetch_ports;
    int64_t stream_ok;
} repro_core_t;

int64_t repro_task_fastpath(repro_core_t *c, double now, int64_t is_leaf,
                            int64_t vertex_line,
                            int64_t inter_first, int64_t inter_last,
                            int64_t out_first, int64_t out_last,
                            int64_t out_count, int64_t segments,
                            int64_t nspans)
{
    const int64_t l1_sets = c->l1_sets, l1_assoc = c->l1_assoc;
    const int64_t l2_sets = c->l2_sets, l2_assoc = c->l2_assoc;
    const int64_t ports = c->fetch_ports;
    int64_t base, way, addr, s;
    int hit;

    /* ------------------------------------------------------ probe */
    if (vertex_line >= 0) {
        base = (vertex_line % l1_sets) * l1_assoc;
        hit = 0;
        for (way = 0; way < l1_assoc; way++) {
            if (c->l1_tags[base + way] == vertex_line) { hit = 1; break; }
        }
        if (!hit) return -3;
    }
    if (!is_leaf) {
        if (inter_first >= 0) {
            for (addr = inter_first; addr <= inter_last; addr++) {
                base = (addr % l1_sets) * l1_assoc;
                hit = 0;
                for (way = 0; way < l1_assoc; way++) {
                    if (c->l1_tags[base + way] == addr) { hit = 1; break; }
                }
                if (!hit) return -4;
            }
        }
        for (s = 0; s < nspans; s++) {
            for (addr = c->spans[2 * s]; addr <= c->spans[2 * s + 1]; addr++) {
                base = (addr % l2_sets) * l2_assoc;
                hit = 0;
                for (way = 0; way < l2_assoc; way++) {
                    if (c->l2_tags[base + way] == addr) { hit = 1; break; }
                }
                if (!hit) return -5;
            }
        }
    }

    /* ----------------------------------------------------- commit */
    double free_t = c->decode_free[0];
    double start = now >= free_t ? now : free_t;
    c->decode_free[0] = start + c->unit_interval;
    double t = start + c->decode_cycles;
    free_t = c->dispatch_free[0];
    start = t >= free_t ? t : free_t;
    c->dispatch_free[0] = start + c->unit_interval;
    t = start + c->dispatch_cycles;

    if (vertex_line >= 0) {
        c->mem_stats[1] += 1;
        base = (vertex_line % l1_sets) * l1_assoc;
        for (way = 0; way < l1_assoc; way++) {
            if (c->l1_tags[base + way] == vertex_line) {
                c->l1_stamps[base + way] = c->l1_meta[0];
                break;
            }
        }
        c->l1_meta[0] += 1;
        c->l1_meta[1] += 1;
        double finish = t + c->l1_hit;
        if (finish > t) t = finish;
    }

    if (is_leaf) {
        free_t = c->spawn_free[0];
        double at = t + c->leaf_cycles;
        start = at >= free_t ? at : free_t;
        c->spawn_free[0] = start + c->unit_interval;
        c->result[0] = start + c->post_spawn_cycles;
        return 0;
    }

    double t_inter = t;
    if (inter_first >= 0) {
        int64_t n = inter_last - inter_first + 1;
        int64_t tick = c->l1_meta[0];
        for (addr = inter_first; addr <= inter_last; addr++) {
            base = (addr % l1_sets) * l1_assoc;
            for (way = 0; way < l1_assoc; way++) {
                if (c->l1_tags[base + way] == addr) {
                    c->l1_stamps[base + way] = tick++;
                    break;
                }
            }
        }
        c->l1_meta[0] = tick;
        c->l1_meta[1] += n;
        c->mem_stats[1] += n;
        double value = c->l1_window[0];
        double total = c->l1_window[1];
        for (int64_t i = 0; i < n; i++) {
            value += c->alpha * (c->l1_hit - value);
            total += c->l1_hit;
        }
        c->l1_window[0] = value;
        c->l1_window[1] = total;
        c->l1_window[2] += (double)n;
        double finish = (t + (double)((n - 1) / ports)) + c->l1_hit;
        t_inter = finish > t ? finish : t;
    }

    double t_graph = t;
    if (nspans > 0) {
        const int64_t nbanks = c->nbanks;
        int64_t tick = c->l2_meta[0];
        int64_t hits = 0;
        double done = t;
        int64_t i = 0;
        for (s = 0; s < nspans; s++) {
            int64_t first = c->spans[2 * s];
            int64_t last = c->spans[2 * s + 1];
            if (last == first) {
                base = (first % l2_sets) * l2_assoc;
                for (way = 0; way < l2_assoc; way++) {
                    if (c->l2_tags[base + way] == first) {
                        c->l2_stamps[base + way] = tick++;
                        break;
                    }
                }
                hits += 1;
                double issue = t + (double)(i / ports);
                double arrive = issue + c->hop;
                int64_t bank = first % nbanks;
                double queued = c->bank_free[bank];
                double st = queued >= arrive ? queued : arrive;
                c->bank_free[bank] = st + c->l2_service;
                double back = st + c->l2_hit + c->hop;
                if (back > done) done = back;
                i += 1;
                continue;
            }
            int64_t n = last - first + 1;
            for (addr = first; addr <= last; addr++) {
                base = (addr % l2_sets) * l2_assoc;
                for (way = 0; way < l2_assoc; way++) {
                    if (c->l2_tags[base + way] == addr) {
                        c->l2_stamps[base + way] = tick++;
                        break;
                    }
                }
            }
            hits += n;
            int64_t bank = first % nbanks;
            int64_t head = (c->stream_ok && n > nbanks) ? nbanks : n;
            int streaming = 1;
            for (int64_t h = 0; h < head; h++) {
                double issue = t + (double)(i / ports);
                double arrive = issue + c->hop;
                double queued = c->bank_free[bank];
                double st;
                if (queued >= arrive) {
                    st = queued;
                    if (queued > arrive) streaming = 0;
                } else {
                    st = arrive;
                }
                c->bank_free[bank] = st + c->l2_service;
                double back = st + c->l2_hit + c->hop;
                if (back > done) done = back;
                i += 1;
                bank += 1;
                if (bank == nbanks) bank = 0;
            }
            int64_t rest = n - head;
            if (rest > 0) {
                if (streaming) {
                    int64_t last_k = i + rest - 1;
                    double back =
                        ((t + (double)(last_k / ports)) + c->hop)
                        + c->l2_hit + c->hop;
                    if (back > done) done = back;
                    int64_t lim = rest < nbanks ? rest : nbanks;
                    for (int64_t h = 0; h < lim; h++) {
                        double arrive =
                            (t + (double)(last_k / ports)) + c->hop;
                        int64_t b = (first + (last_k - i) + head) % nbanks;
                        c->bank_free[b] = arrive + c->l2_service;
                        last_k -= 1;
                    }
                    i += rest;
                } else {
                    for (int64_t h = 0; h < rest; h++) {
                        double issue = t + (double)(i / ports);
                        double arrive = issue + c->hop;
                        double queued = c->bank_free[bank];
                        double st = queued >= arrive ? queued : arrive;
                        c->bank_free[bank] = st + c->l2_service;
                        double back = st + c->l2_hit + c->hop;
                        if (back > done) done = back;
                        i += 1;
                        bank += 1;
                        if (bank == nbanks) bank = 0;
                    }
                }
            }
        }
        c->l2_meta[0] = tick;
        c->l2_meta[1] += hits;
        c->mem_stats[0] += i;
        t_graph = done;
    }

    double ready = t_inter >= t_graph ? t_inter : t_graph;
    free_t = c->issue_free[0];
    start = ready >= free_t ? ready : free_t;
    c->issue_free[0] = start + c->unit_interval;
    double ready_time = start + 1.0;
    if (segments <= 0) {
        t = ready_time;
    } else {
        double formed = ready_time + (double)segments / c->num_dividers;
        const int64_t k = c->num_ius;
        const double cy = c->segment_cycles;
        double finish;
        if (c->iu_acc[0] <= formed) {
            int64_t q = segments / k;
            int64_t r = segments - q * k;
            double done;
            if (q == 0) {
                /* done exceeds every entry, so iterated argmin-
                 * overwrite replaces exactly the `segments` smallest. */
                done = formed + cy;
                for (int64_t m = 0; m < segments; m++) {
                    int64_t mi = 0;
                    double mv = c->iu_free[0];
                    for (int64_t j = 1; j < k; j++) {
                        if (c->iu_free[j] < mv) { mv = c->iu_free[j]; mi = j; }
                    }
                    c->iu_free[mi] = done;
                }
                finish = done;
            } else {
                done = formed;
                for (int64_t m = 0; m < q; m++) done = done + cy;
                if (r > 0) {
                    finish = done + cy;
                    for (int64_t j = 0; j < k - r; j++) c->iu_free[j] = done;
                    for (int64_t j = k - r; j < k; j++) c->iu_free[j] = finish;
                } else {
                    finish = done;
                    for (int64_t j = 0; j < k; j++) c->iu_free[j] = done;
                }
            }
            c->iu_acc[0] = finish;
        } else {
            finish = formed;
            for (int64_t m = 0; m < segments; m++) {
                int64_t mi = 0;
                double mv = c->iu_free[0];
                for (int64_t j = 1; j < k; j++) {
                    if (c->iu_free[j] < mv) { mv = c->iu_free[j]; mi = j; }
                }
                double fv = c->iu_free[mi];
                double st = fv >= formed ? fv : formed;
                double done = st + cy;
                c->iu_free[mi] = done;
                if (done > finish) finish = done;
            }
            if (finish > c->iu_acc[0]) c->iu_acc[0] = finish;
        }
        c->iu_acc[1] += (double)segments * cy;
        c->iu_acc[2] += (double)segments;
        t = finish;
    }

    if (out_count > 0) {
        int resident = 1;
        for (addr = out_first; addr <= out_last; addr++) {
            base = (addr % l1_sets) * l1_assoc;
            hit = 0;
            for (way = 0; way < l1_assoc; way++) {
                if (c->l1_tags[base + way] == addr) { hit = 1; break; }
            }
            if (!hit) { resident = 0; break; }
        }
        if (!resident) {
            c->result[0] = t;
            return 1;
        }
        /* All-resident writeback: pure LRU refresh, no hits counted. */
        int64_t tick = c->l1_meta[0];
        for (addr = out_first; addr <= out_last; addr++) {
            base = (addr % l1_sets) * l1_assoc;
            for (way = 0; way < l1_assoc; way++) {
                if (c->l1_tags[base + way] == addr) {
                    c->l1_stamps[base + way] = tick++;
                    break;
                }
            }
        }
        c->l1_meta[0] = tick;
        double wb = (double)out_count / (double)ports;
        t += wb > 1.0 ? wb : 1.0;
    }

    free_t = c->spawn_free[0];
    start = t >= free_t ? t : free_t;
    c->spawn_free[0] = start + c->unit_interval;
    c->result[0] = start + c->post_spawn_cycles;
    return 0;
}

/* Task-tree ops: C mirrors of the pure backend's interpreted tree ops
 * (tree_bind in pure.py), statement for statement; the task-tree parity
 * suite proves the two bit-identical on whole runs.  One struct per
 * task tree holds the pinned pointers into the tree's struct-of-arrays
 * numpy state plus its layout scalars, so an op call marshals only the
 * per-call scalars.  The ops also own their result buffers: select
 * writes one (slot, vertex, child_index, token, tree) record per pick
 * into records (room for records_cap = nb * cap picks, every entry of
 * the tree; k is clamped to it as the bounds check), and a spawning
 * complete writes (bunch, count) into done.  The ctl word
 * indices and DONE_* return codes are the module constants of
 * repro.core.task_tree.
 */
typedef struct {
    int64_t *b_depth;
    int64_t *b_cap;
    int64_t *b_in_use;
    int64_t *b_tree;
    int64_t *b_quiesced;
    int64_t *b_active;
    int64_t *b_executing;
    int64_t *ring;
    int64_t *ring_head;
    int64_t *ring_len;
    int64_t *e_vertex;
    int64_t *e_child_index;
    int64_t *e_token;
    int64_t *tok_free;
    int64_t *tok_n;
    int64_t *d_start;
    int64_t *d_end;
    int64_t *ctl;
    int64_t nb;
    int64_t cap;
    int64_t max_depth;
    int64_t tokens_per_depth;
    int64_t *records;
    int64_t records_cap;
    int64_t *done;
} repro_tree_t;

/* Schedule one Ready entry out of bunch b; -1 = token stall. */
static int64_t repro_tree_sched(repro_tree_t *t, int64_t b)
{
    int64_t depth = t->b_depth[b];
    int leaf = depth >= t->max_depth;
    int64_t cap = t->cap;
    int64_t base = b * cap;
    int64_t head = t->ring_head[b];
    int64_t length = t->ring_len[b];
    int64_t slot = -1;
    if (leaf || t->tok_n[depth] > 0) {
        slot = t->ring[base + head];
        t->ring_head[b] = (head + 1) % cap;
        t->ring_len[b] = length - 1;
    } else {
        /* Pool drained: an entry already holding a token is still
         * valid (ordered middle deletion from the ready ring). */
        for (int64_t j = 0; j < length; j++) {
            int64_t cand = t->ring[base + (head + j) % cap];
            if (t->e_token[cand] >= 0) {
                slot = cand;
                for (int64_t m = j; m < length - 1; m++) {
                    t->ring[base + (head + m) % cap] =
                        t->ring[base + (head + m + 1) % cap];
                }
                t->ring_len[b] = length - 1;
                break;
            }
        }
        if (slot < 0) {
            t->ctl[6] += 1;  /* CTL_STALLS */
            return -1;
        }
    }
    t->ctl[0] -= 1;  /* CTL_READY */
    if (!leaf && t->e_token[slot] < 0) {
        int64_t n_free = t->tok_n[depth] - 1;
        t->tok_n[depth] = n_free;
        t->e_token[slot] = t->tok_free[depth * t->tokens_per_depth + n_free];
    }
    t->b_executing[b] += 1;
    t->ctl[1] += 1;  /* CTL_EXECUTING */
    t->ctl[3] = b;   /* CTL_EXEC_BUNCH */
    t->ctl[2] = b;   /* CTL_LAST_BUNCH */
    t->ctl[5] += 1;  /* CTL_SCHEDULED */
    return slot;
}

int64_t repro_tree_select(repro_tree_t *t, int64_t conservative, int64_t k)
{
    int64_t count = 0;
    int64_t nb = t->nb;
    int64_t *rec = t->records;
    if (k > t->records_cap) k = t->records_cap;
    while (count < k) {
        if (t->ctl[0] == 0) break;
        int64_t picked = -1;
        if (conservative == 1 && t->ctl[1] > 0) {
            /* Conservative: only the executing bunch, no fallback. */
            int64_t b = t->ctl[3];
            if (b >= 0 && t->ring_len[b] != 0 && t->b_quiesced[b] == 0)
                picked = repro_tree_sched(t, b);
        } else {
            int64_t last = t->ctl[2];
            int64_t start = t->ctl[4];  /* CTL_RR_CURSOR */
            if (last >= 0 && t->ring_len[last] != 0 &&
                t->b_quiesced[last] == 0)
                picked = repro_tree_sched(t, last);
            if (picked < 0) {
                for (int64_t off = 0; off < nb; off++) {
                    int64_t b = (start + off) % nb;
                    if (b == last || t->ring_len[b] == 0 ||
                        t->b_quiesced[b] != 0)
                        continue;
                    t->ctl[4] = (start + off + 1) % nb;
                    picked = repro_tree_sched(t, b);
                    if (picked >= 0) break;
                }
            }
        }
        if (picked < 0) break;
        rec[0] = picked;
        rec[1] = t->e_vertex[picked];
        rec[2] = t->e_child_index[picked];
        rec[3] = t->e_token[picked];
        rec[4] = t->b_tree[picked / t->cap];
        rec += 5;
        count++;
    }
    return count;
}

int64_t repro_tree_fill(repro_tree_t *t, int64_t b, int64_t tree_id,
                        int64_t quiesced, const int64_t *vertices,
                        int64_t first, int64_t count)
{
    t->b_in_use[b] = 1;
    t->b_tree[b] = tree_id;
    t->b_quiesced[b] = quiesced;
    int64_t base = b * t->cap;
    for (int64_t i = 0; i < count; i++) {
        int64_t slot = base + i;
        t->e_vertex[slot] = vertices[first + i];
        t->e_child_index[slot] = first + i;
        t->e_token[slot] = -1;
        t->ring[slot] = slot;
    }
    t->ring_head[b] = 0;
    t->ring_len[b] = count;
    t->ctl[0] += count;
    t->b_active[b] = count;
    return count;
}

int64_t repro_tree_complete(repro_tree_t *t, int64_t slot, int64_t b,
                            int64_t has_children, const int64_t *children,
                            int64_t first, int64_t navail,
                            int64_t parent_unexplored, int64_t ext_vertex,
                            int64_t ext_position, int64_t tree_quiesced)
{
    t->b_executing[b] -= 1;
    t->ctl[1] -= 1;
    if (has_children == 1) {
        int64_t child_depth = t->b_depth[b] + 1;
        int64_t target = -1;
        for (int64_t bb = t->d_start[child_depth];
             bb < t->d_end[child_depth]; bb++) {
            if (t->b_in_use[bb] == 0) { target = bb; break; }
        }
        if (target < 0) {
            t->ctl[7] += 1;  /* CTL_WAITS */
            return 1;        /* DONE_WAITING */
        }
        int64_t cnt = navail - first;
        if (cnt > t->b_cap[target]) cnt = t->b_cap[target];
        if (cnt <= 0) return 5;  /* DONE_UNDERFLOW */
        t->b_in_use[target] = 1;
        t->b_tree[target] = t->b_tree[b];
        t->b_quiesced[target] = tree_quiesced;
        int64_t tbase = target * t->cap;
        for (int64_t i = 0; i < cnt; i++) {
            int64_t ts = tbase + i;
            t->e_vertex[ts] = children[first + i];
            t->e_child_index[ts] = first + i;
            t->e_token[ts] = -1;
            t->ring[ts] = ts;
        }
        t->ring_head[target] = 0;
        t->ring_len[target] = cnt;
        t->ctl[0] += cnt;
        t->b_active[target] = cnt;
        t->done[0] = target;
        t->done[1] = cnt;
        return 0;  /* DONE_SPAWNED */
    }
    if (parent_unexplored > 0) {
        /* Extend: entry and address token explore the parent's next
         * unexplored candidate. */
        t->e_vertex[slot] = ext_vertex;
        t->e_child_index[slot] = ext_position;
        t->ring[b * t->cap +
                (t->ring_head[b] + t->ring_len[b]) % t->cap] = slot;
        t->ring_len[b] += 1;
        t->ctl[0] += 1;
        return 2;  /* DONE_EXTENDED */
    }
    int64_t tok = t->e_token[slot];
    if (tok >= 0) {
        int64_t depth = t->b_depth[b];
        int64_t n_free = t->tok_n[depth];
        t->tok_free[depth * t->tokens_per_depth + n_free] = tok;
        t->tok_n[depth] = n_free + 1;
        t->e_token[slot] = -1;
    }
    t->b_active[b] -= 1;
    if (t->b_active[b] < 0) return 5;  /* DONE_UNDERFLOW */
    if (t->b_active[b] == 0) return 4; /* DONE_RECYCLE */
    return 3;  /* DONE_IDLED */
}

"""

CDEF = """
int64_t repro_intersect(const int64_t *a, int64_t na,
                        const int64_t *b, int64_t nb, int64_t *out);
int64_t repro_subtract(const int64_t *a, int64_t na,
                       const int64_t *b, int64_t nb, int64_t *out);
int repro_resident_stamp(const int64_t *tags, int64_t *stamps,
                         int64_t num_sets, int64_t assoc,
                         int64_t first_line, int64_t last_line, int64_t tick);
void repro_ema_fold(double *state, double alpha, double latency, int64_t n);
typedef struct {
    double *decode_free;
    double *dispatch_free;
    double *issue_free;
    double *spawn_free;
    int64_t *l1_tags;
    int64_t *l1_stamps;
    int64_t *l1_meta;
    int64_t l1_sets;
    int64_t l1_assoc;
    double *l1_window;
    int64_t *l2_tags;
    int64_t *l2_stamps;
    int64_t *l2_meta;
    int64_t l2_sets;
    int64_t l2_assoc;
    double *bank_free;
    int64_t nbanks;
    int64_t *mem_stats;
    double *iu_free;
    int64_t num_ius;
    double *iu_acc;
    int64_t *spans;
    double *result;
    double unit_interval;
    double decode_cycles;
    double dispatch_cycles;
    double post_spawn_cycles;
    double leaf_cycles;
    double l1_hit;
    double l2_hit;
    double l2_service;
    double hop;
    double alpha;
    double segment_cycles;
    double num_dividers;
    int64_t fetch_ports;
    int64_t stream_ok;
} repro_core_t;
int64_t repro_task_fastpath(repro_core_t *c, double now, int64_t is_leaf,
                            int64_t vertex_line,
                            int64_t inter_first, int64_t inter_last,
                            int64_t out_first, int64_t out_last,
                            int64_t out_count, int64_t segments,
                            int64_t nspans);
typedef struct {
    int64_t *b_depth;
    int64_t *b_cap;
    int64_t *b_in_use;
    int64_t *b_tree;
    int64_t *b_quiesced;
    int64_t *b_active;
    int64_t *b_executing;
    int64_t *ring;
    int64_t *ring_head;
    int64_t *ring_len;
    int64_t *e_vertex;
    int64_t *e_child_index;
    int64_t *e_token;
    int64_t *tok_free;
    int64_t *tok_n;
    int64_t *d_start;
    int64_t *d_end;
    int64_t *ctl;
    int64_t nb;
    int64_t cap;
    int64_t max_depth;
    int64_t tokens_per_depth;
    int64_t *records;
    int64_t records_cap;
    int64_t *done;
} repro_tree_t;
int64_t repro_tree_select(repro_tree_t *t, int64_t conservative, int64_t k);
int64_t repro_tree_fill(repro_tree_t *t, int64_t b, int64_t tree_id,
                        int64_t quiesced, const int64_t *vertices,
                        int64_t first, int64_t count);
int64_t repro_tree_complete(repro_tree_t *t, int64_t slot, int64_t b,
                            int64_t has_children, const int64_t *children,
                            int64_t first, int64_t navail,
                            int64_t parent_unexplored, int64_t ext_vertex,
                            int64_t ext_position, int64_t tree_quiesced);
"""

CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "kernels"


def _find_cc() -> str:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    raise BackendUnavailable("no C compiler found (tried $CC, cc, gcc, clang)")


def _compile(cc, args, tmp_so, so_path):
    """Run one compiler invocation and atomically publish the result."""
    proc = subprocess.run(
        [cc, *args], capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise BackendUnavailable(
            f"kernel compile failed ({cc}): {proc.stderr.strip()[:500]}"
        )
    # Atomic publish: concurrent builders race to an identical file.
    os.replace(tmp_so, so_path)


def build_library(verbose: bool = False) -> Path:
    """Compile (or reuse) the ABI-mode shared object; returns its path."""
    cc = _find_cc()
    key = hashlib.sha256(
        ("\n".join([cc, *CFLAGS, C_SOURCE, CDEF])).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"repro_kernels_{key}.so"
    if so_path.exists():
        return so_path
    try:
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src = Path(tmp) / "kernels.c"
            src.write_text(C_SOURCE)
            tmp_so = Path(tmp) / "kernels.so"
            _compile(cc, [*CFLAGS, "-o", str(tmp_so), str(src)], tmp_so, so_path)
    except OSError as exc:
        raise BackendUnavailable(f"kernel build failed: {exc}") from exc
    if verbose:  # pragma: no cover - debug aid
        print(f"built kernel library: {so_path}")
    return so_path


def _python_include() -> str:
    """The running interpreter's C header directory (must hold Python.h)."""
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise BackendUnavailable(f"Python.h not found under {include}")
    return include


def build_api_module(verbose: bool = False):
    """Compile (or reuse) the API-mode extension; returns (name, path).

    The module name embeds the cache key, so distinct kernel versions
    never collide in ``sys.modules`` and a stale cached ``.so`` is
    simply never looked up again.
    """
    cc = _find_cc()
    tag = (
        f"{sys.implementation.name}-"
        f"{sys.version_info.major}.{sys.version_info.minor}"
    )
    key = hashlib.sha256(
        ("\n".join([cc, tag, *CFLAGS, C_SOURCE, CDEF])).encode()
    ).hexdigest()[:16]
    name = f"_repro_kernels_{key}"
    cache = _cache_dir()
    so_path = cache / f"{name}.so"
    if so_path.exists():
        return name, so_path
    include = _python_include()
    try:
        from cffi import FFI
    except ImportError as exc:
        raise BackendUnavailable(f"cffi is not installed: {exc}") from exc
    try:
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            builder = FFI()
            builder.cdef(CDEF)
            builder.set_source(name, C_SOURCE)
            src = Path(tmp) / f"{name}.c"
            # cffi prints a "generating ..." notice; keep the build quiet.
            import contextlib
            import io

            with contextlib.redirect_stdout(io.StringIO()):
                builder.emit_c_code(str(src))
            tmp_so = Path(tmp) / f"{name}.so"
            _compile(
                cc,
                [*CFLAGS, f"-I{include}", "-o", str(tmp_so), str(src)],
                tmp_so,
                so_path,
            )
    except OSError as exc:
        raise BackendUnavailable(f"kernel build failed: {exc}") from exc
    if verbose:  # pragma: no cover - debug aid
        print(f"built kernel extension: {so_path}")
    return name, so_path


def _load_api_module(name: str, so_path: Path):
    """Import the API-mode extension; returns its (ffi, lib) pair."""
    loader = importlib.machinery.ExtensionFileLoader(name, str(so_path))
    spec = importlib.util.spec_from_file_location(
        name, str(so_path), loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    try:
        loader.exec_module(module)
    except ImportError as exc:
        raise BackendUnavailable(f"kernel extension failed to load: {exc}") from exc
    return module.ffi, module.lib


class _CLib:
    """Array-level adapter over the dlopened C library.

    Presents array-level loop signatures (numpy arrays in, counts
    out) to the shared glue in :mod:`.compiled`.  The
    arrays are already C-contiguous ``int64``/``float64`` — the glue
    normalizes operands — so ``from_buffer`` is a zero-copy cast.

    The adapter exists to make each call as thin as possible: a kernel
    invocation here costs about as much as the C loop it wraps, so
    every hundred nanoseconds of marshalling shows up in the speedup.

    * **Pointer cache** — long-lived state arrays (cache tag/stamp
      arrays, the glue's reusable output buffers) are marshalled once
      and the resulting cdata cached by object identity.  This is safe
      because ``from_buffer`` pins the underlying array: a cached id
      can never be reused by a different array while its entry lives.
      Ephemeral operands (neighbor sets) are never cached — pinning
      them would leak.
    * **EMA state in cdata** — :meth:`ema_fold_window` folds through a
      2-double cdata buffer, skipping the numpy scratch handshake
      (cdata scalar access is cheaper than numpy item access, and
      doubles round-trip bit-exactly).  The buffer is made per call:
      cffi releases the GIL inside the C loop, so one shared buffer
      would race between simulations running in threads of one process.
    """

    #: Pointer-cache capacity; eviction just clears (entries rebuild on
    #: the next call), bounding how many retired buffers stay pinned.
    _PTR_CACHE_MAX = 64

    def __init__(self) -> None:
        try:
            name, so_path = build_api_module()
            ffi, lib = _load_api_module(name, so_path)
            self.mode = "api"
        except BackendUnavailable:
            # No Python headers (or the extension build failed): fall
            # back to the standalone shared object through libffi.
            try:
                from cffi import FFI
            except ImportError as exc:
                raise BackendUnavailable(
                    f"cffi is not installed: {exc}"
                ) from exc
            so_path = build_library()
            ffi = FFI()
            ffi.cdef(CDEF)
            lib = ffi.dlopen(str(so_path))
            self.mode = "abi"
        self._ffi = ffi
        self._lib = lib
        self._i64 = ffi.typeof("int64_t *")
        self._ptr_cache = {}
        self.path = so_path

    def _pinned(self, arr, writable):
        """Cached ``int64_t *`` for a long-lived array (pins ``arr``)."""
        cache = self._ptr_cache
        ptr = cache.get(id(arr))
        if ptr is None:
            if len(cache) >= self._PTR_CACHE_MAX:
                cache.clear()
            ptr = self._ffi.from_buffer(
                self._i64, arr, require_writable=writable
            )
            cache[id(arr)] = ptr
        return ptr

    def intersect_loop(self, a, b, out):
        from_buffer = self._ffi.from_buffer
        i64 = self._i64
        return self._lib.repro_intersect(
            from_buffer(i64, a),
            len(a),
            from_buffer(i64, b),
            len(b),
            self._pinned(out, True),
        )

    def subtract_loop(self, a, b, out):
        from_buffer = self._ffi.from_buffer
        i64 = self._i64
        return self._lib.repro_subtract(
            from_buffer(i64, a),
            len(a),
            from_buffer(i64, b),
            len(b),
            self._pinned(out, True),
        )

    def intersect_multi_loop(self, arrays, out, scratch):
        """Chained intersections entirely in cdata: the survivor ping-
        pongs between the pinned out/scratch pointers, so no numpy view
        is materialized between pairs.  The starting buffer is chosen so
        the final survivor always lands in ``out`` (an odd number of
        pairwise steps ends where it starts)."""
        from_buffer = self._ffi.from_buffer
        i64 = self._i64
        c_intersect = self._lib.repro_intersect
        pout = self._pinned(out, True)
        pscr = self._pinned(scratch, True)
        cur = from_buffer(i64, arrays[0])
        ncur = len(arrays[0])
        dst, alt = (pout, pscr) if len(arrays) % 2 == 0 else (pscr, pout)
        for arr in arrays[1:]:
            ncur = c_intersect(cur, ncur, from_buffer(i64, arr), len(arr), dst)
            if ncur == 0:
                return 0
            cur = dst
            dst, alt = alt, dst
        return ncur

    def resident_stamp_loop(self, tags, stamps, num_sets, assoc, first_line, last_line, tick):
        return bool(
            self._lib.repro_resident_stamp(
                self._pinned(tags, False),
                self._pinned(stamps, True),
                num_sets,
                assoc,
                first_line,
                last_line,
                tick,
            )
        )

    def ema_fold_window(self, window, latency, n):
        state = self._ffi.new("double[2]", (window.value, window.total_latency))
        self._lib.repro_ema_fold(state, window.alpha, latency, n)
        window.value = state[0]
        window.total_latency = state[1]

    def macro_bind(self, accel, spans, result):
        """Per-PE macro-step bindings: ``repro_core_t`` structs with
        pre-offset pointers into the live state buffers (numpy arrays
        and the memoryviews the scalar-only buffers are held as), so a
        fast-path call marshals ten scalars and nothing else.

        Returns ``(books, pinned)``.  Each book is
        ``functools.partial(lib.repro_task_fastpath, core)`` — the
        compiled function itself, with no Python frame around it.
        ``from_buffer`` pins each buffer; the caller keeps ``pinned``
        (the pointer cdata the structs point into) alive as long as the
        books.

        A buffer held as a memoryview is pinned through the array it
        views (``.obj``), never through the view itself.  A finished
        accelerator is a reference cycle, and the cycle collector may
        clear a view before the cdata exporting it is freed; clearing a
        view with a live export fails with ``BufferError`` and leaves
        freed memory behind (an error surfacing in an unrelated later
        call, or a crash).  A numpy array carries no such check.
        """
        ffi = self._ffi
        fastpath = self._lib.repro_task_fastpath
        f64 = ffi.typeof("double *")
        i64 = self._i64
        keep = []

        def pin(ctype, buf):
            if isinstance(buf, memoryview):
                buf = buf.obj
            p = ffi.from_buffer(ctype, buf, require_writable=True)
            keep.append(p)
            return p

        def fp(buf):
            return pin(f64, buf)

        def ip(buf):
            return pin(i64, buf)

        memory = accel.memory
        config = accel.config
        state = accel.pe_state
        l2 = memory.l2
        decode_p = fp(state.decode_free)
        dispatch_p = fp(state.dispatch_free)
        issue_p = fp(state.issue_free)
        spawn_p = fp(state.spawn_free)
        l2_tags_p = ip(l2._tags)
        l2_stamps_p = ip(l2._stamps)
        l2_meta_p = ip(l2._meta)
        bank_p = fp(memory._l2_bank_free)
        stats_p = ip(memory._stats)
        spans_p = ip(spans)
        result_p = fp(result)
        books = []
        for pe in accel.pes:
            row = pe._row
            l1 = memory.l1s[pe.pe_id]
            window = memory.l1_windows[pe.pe_id]
            core = ffi.new("repro_core_t *")
            core.decode_free = decode_p + row
            core.dispatch_free = dispatch_p + row
            core.issue_free = issue_p + row
            core.spawn_free = spawn_p + row
            core.l1_tags = ip(l1._tags)
            core.l1_stamps = ip(l1._stamps)
            core.l1_meta = ip(l1._meta)
            core.l1_sets = l1.num_sets
            core.l1_assoc = l1.assoc
            core.l1_window = fp(window._state)
            core.l2_tags = l2_tags_p
            core.l2_stamps = l2_stamps_p
            core.l2_meta = l2_meta_p
            core.l2_sets = l2.num_sets
            core.l2_assoc = l2.assoc
            core.bank_free = bank_p
            core.nbanks = memory._l2_bank_free.shape[0]
            core.mem_stats = stats_p
            core.iu_free = fp(pe.iu_pool._server_free)
            core.num_ius = pe.iu_pool._server_free.shape[0]
            core.iu_acc = fp(pe.iu_pool._acc)
            core.spans = spans_p
            core.result = result_p
            core.unit_interval = pe._unit_interval
            core.decode_cycles = float(config.decode_cycles)
            core.dispatch_cycles = float(config.dispatch_cycles)
            core.post_spawn_cycles = float(pe._post_spawn_cycles)
            core.leaf_cycles = float(config.leaf_cycles)
            core.l1_hit = memory._l1_hit_cycles_f
            core.l2_hit = float(config.l2_hit_cycles)
            core.l2_service = float(config.l2_service_cycles)
            core.hop = float(memory._hop_cycles)
            core.alpha = window.alpha
            core.segment_cycles = float(config.segment_cycles)
            core.num_dividers = float(config.num_dividers)
            core.fetch_ports = int(config.fetch_ports)
            core.stream_ok = 1 if memory._l2_stream_ok else 0
            books.append(functools.partial(fastpath, core))
        return books, keep

    def tree_bind(self, state):
        """Per-tree scheduler bindings: one ``repro_tree_t`` struct with
        pinned pointers into the tree's struct-of-arrays numpy state.

        The returned ops object carries ``select``/``fill``/``complete``
        closures over the struct (the contract of
        :func:`.pure.tree_bind`); a call marshals only the per-call
        scalars plus the (ephemeral) candidate span.  The ops own their
        result buffers, allocated here: the record buffer has room for
        every entry of the tree (``nb * cap`` picks, the most one
        ``select`` can schedule), ``select`` returns its picks' records
        as one ``ffi.unpack`` of it, and ``done`` is the 2-word spawn
        result.
        ``from_buffer`` pins every array for the life of the ops object,
        which the owning :class:`~repro.core.task_tree.TaskTree` holds.
        """
        ffi = self._ffi
        i64 = self._i64
        keep = []

        def ip(arr):
            p = ffi.from_buffer(i64, arr, require_writable=True)
            keep.append(p)
            return p

        tree = ffi.new("repro_tree_t *")
        tree.b_depth = ip(state.b_depth)
        tree.b_cap = ip(state.b_cap)
        tree.b_in_use = ip(state.b_in_use)
        tree.b_tree = ip(state.b_tree)
        tree.b_quiesced = ip(state.b_quiesced)
        tree.b_active = ip(state.b_active)
        tree.b_executing = ip(state.b_executing)
        tree.ring = ip(state.ring)
        tree.ring_head = ip(state.ring_head)
        tree.ring_len = ip(state.ring_len)
        tree.e_vertex = ip(state.e_vertex)
        tree.e_child_index = ip(state.e_child_index)
        tree.e_token = ip(state.e_token)
        tree.tok_free = ip(state.tok_free)
        tree.tok_n = ip(state.tok_n)
        tree.d_start = ip(state.d_start)
        tree.d_end = ip(state.d_end)
        tree.ctl = ip(state.ctl)
        tree.nb = state.nb
        tree.cap = state.cap
        tree.max_depth = state.max_depth
        tree.tokens_per_depth = state.tokens_per_depth
        records_cap = state.nb * state.cap
        records = ffi.new("int64_t[]", 5 * records_cap)
        done = ffi.new("int64_t[2]")
        tree.records = records
        tree.records_cap = records_cap
        tree.done = done

        lib = self._lib
        from_buffer = ffi.from_buffer

        class _TreeOps:
            __slots__ = ("select", "fill", "complete", "done", "_keep")

        ops = _TreeOps()
        ops.done = done
        ops._keep = (tree, keep, records)

        def select(conservative, k, _t=tree, _f=lib.repro_tree_select,
                   _unpack=ffi.unpack, _r=records):
            return _unpack(_r, 5 * _f(_t, conservative, k))

        def fill(b, tree_id, quiesced, vertices, first, count,
                 _t=tree, _f=lib.repro_tree_fill, _fb=from_buffer, _i64=i64):
            return _f(_t, b, tree_id, quiesced, _fb(_i64, vertices),
                      first, count)

        # Leaf completions (no children) dominate and never read the
        # children span — hand the kernel a static dummy instead of
        # pinning the caller's empty array on every call.
        null_children = ffi.new("int64_t[1]")
        keep.append(null_children)

        def complete(slot, b, has_children, children, first, navail,
                     parent_unexplored, ext_vertex, ext_position,
                     tree_quiesced,
                     _t=tree, _f=lib.repro_tree_complete, _fb=from_buffer,
                     _i64=i64, _null=null_children):
            return _f(_t, slot, b, has_children,
                      _null if not has_children else _fb(_i64, children),
                      first, navail, parent_unexplored, ext_vertex,
                      ext_position, tree_quiesced)

        ops.select = select
        ops.fill = fill
        ops.complete = complete
        return ops


def make_kernels():
    """Build the C-extension kernel set (raises :class:`BackendUnavailable`)."""
    return make_kernel_set("cext", _CLib())
