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
from types import SimpleNamespace

import numpy as np

from .compiled import BackendUnavailable, _norm, make_kernel_set

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

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
 *
 * Sibling state is tree-resident: each in-use bunch records its
 * parent's kept-children span (b_kids, pinned by the binder for as
 * long as the bunch holds it, and b_nkids), the parent's cursor into
 * it (b_next) and the parent's set address (b_paddr, -1 = none), so a
 * childless completion extends from tree state alone.
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
    const int64_t **b_kids;
    int64_t *b_nkids;
    int64_t *b_next;
    int64_t *b_paddr;
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

/* Admit vertices[first:first + count] as tokenless Ready rows of idle
 * bunch b and record the parent span they came from. */
static void repro_tree_admit(repro_tree_t *t, int64_t b, int64_t tree_id,
                             int64_t quiesced, const int64_t *vertices,
                             int64_t first, int64_t count, int64_t navail,
                             int64_t address)
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
    t->b_kids[b] = vertices;
    t->b_nkids[b] = navail;
    t->b_next[b] = first + count;
    t->b_paddr[b] = address;
}

int64_t repro_tree_fill(repro_tree_t *t, int64_t b, int64_t tree_id,
                        int64_t quiesced, const int64_t *vertices,
                        int64_t first, int64_t count, int64_t navail,
                        int64_t address)
{
    repro_tree_admit(t, b, tree_id, quiesced, vertices, first, count,
                     navail, address);
    return count;
}

void repro_tree_span(repro_tree_t *t, int64_t b, const int64_t *vertices,
                     int64_t navail, int64_t next, int64_t address)
{
    t->b_kids[b] = vertices;
    t->b_nkids[b] = navail;
    t->b_next[b] = next;
    t->b_paddr[b] = address;
}

int64_t repro_tree_complete(repro_tree_t *t, int64_t slot, int64_t b,
                            int64_t has_children, const int64_t *children,
                            int64_t first, int64_t navail, int64_t address,
                            int64_t tree_quiesced)
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
        repro_tree_admit(t, target, t->b_tree[b], tree_quiesced, children,
                         first, cnt, navail, address);
        t->done[0] = target;
        t->done[1] = cnt;
        return 0;  /* DONE_SPAWNED */
    }
    int64_t cursor = t->b_next[b];
    if (t->b_nkids[b] - cursor > 0) {
        /* Extend: entry and address token explore the parent's next
         * unexplored candidate. */
        t->e_vertex[slot] = t->b_kids[b][cursor];
        t->e_child_index[slot] = cursor;
        t->ring[b * t->cap +
                (t->ring_head[b] + t->ring_len[b]) % t->cap] = slot;
        t->ring_len[b] += 1;
        t->ctl[0] += 1;
        t->b_next[b] = cursor + 1;
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

/* Compiled expansion: one non-leaf task derived in one call.
 *
 * Mirrors SearchContext.expand and SearchContext.children
 * (mining/tree.py) and the size arithmetic of PE._derive (sim/pe.py)
 * step for step.  The first input is the reused ancestor set, or else
 * N(emb[first]); a plan with no residual op is a fetch costing its size
 * in comparisons, and each residual intersection, then each subtraction,
 * costs len(current) + len(nbrs), empty operands included.  One
 * (first_line, last_line) span per non-empty neighbor input goes
 * straight into the macro core's span buffer, in expand's order.  The
 * child cut (the lower bound of min(emb[bound positions]), then the
 * used-vertex filter by binary search inside the kept prefix) is
 * computed in the same pass.
 *
 * One repro_derive_t per accelerator holds the pinned graph, the
 * per-depth plan rows (PE._derive's binder documents the layout) and
 * the buffers; one repro_frame_t per parent task holds what its
 * children share: their target depth, the embedding prefix and the
 * reused ancestor set with its address.
 *
 * Returns the candidate count (candidates in cand unless info[0] says
 * the plan kept its input; kept children a prefix of the candidates
 * unless info[2] says they were copied to scratch), or a negative
 * escape having written nothing Python reads: -1 the reused ancestor
 * set is missing, -2 a buffer would overflow (or a vertex id is out of
 * range), -3 the reused set has no address.
 */
#define REPRO_DERIVE_MAXD 16
#define REPRO_PLAN_HEAD 6

typedef struct {
    const int64_t *indptr;
    const int64_t *indices;
    int64_t num_vertices;
    const int64_t *first_line;  /* per vertex: first/last graph line */
    const int64_t *last_line;
    const int64_t *plan;        /* plan_words words per target depth */
    int64_t plan_words;
    int64_t *cand;              /* candidates (cap) */
    int64_t *scratch;           /* chain ping-pong, then kept children */
    int64_t cap;
    int64_t *spans;             /* the macro core's span buffer */
    int64_t max_spans;
    int64_t *res;               /* the 8 booking values of PE._derive */
    int64_t *info;              /* [fetch, nkept, kept_copied,
                                    comparisons, reused_size] */
    int64_t line_bytes;
    int64_t segment_elements;
} repro_derive_t;

typedef struct {
    int64_t d;                  /* target depth (child depth + 1) */
    const int64_t *anc;         /* reused ancestor set, NULL = missing */
    int64_t nanc;
    int64_t anc_base;           /* its byte address, -1 = none */
    int64_t emb[REPRO_DERIVE_MAXD];  /* embedding prefix (d - 1) */
} repro_frame_t;

static int64_t repro_lower_bound(const int64_t *a, int64_t n, int64_t v)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (a[mid] < v) lo = mid + 1; else hi = mid;
    }
    return lo;
}

int64_t repro_derive(const repro_derive_t *k, const repro_frame_t *f,
                     int64_t vertex, int64_t set_address)
{
    const int64_t d = f->d;
    const int64_t w = k->plan_words;
    const int64_t D = (w - REPRO_PLAN_HEAD) / 4;
    if (d < 1 || d >= D || d > REPRO_DERIVE_MAXD) return -2;
    const int64_t *row = k->plan + d * w;
    const int64_t reused = row[0];
    const int64_t nconn = row[2], ndisc = row[3];
    const int64_t nbound = row[4], nused = row[5];
    const int64_t *conn = row + REPRO_PLAN_HEAD;
    const int64_t *disc = conn + D;
    const int64_t *bound = disc + D;
    const int64_t *used = bound + D;
    const int64_t lb = k->line_bytes;
    int64_t emb[REPRO_DERIVE_MAXD];
    int64_t hits[REPRO_DERIVE_MAXD];
    int64_t i, j, v, nhits = 0, nspans = 0, graph_lines = 0;
    int64_t comparisons = 0, reused_size = -1;
    int64_t inter_first = -1, inter_last = -1;
    const int64_t *cur;
    int64_t ncur;

    for (i = 0; i < d - 1; i++) emb[i] = f->emb[i];
    emb[d - 1] = vertex;

    if (reused >= 0) {
        if (f->anc == NULL) return -1;
        if (f->anc_base < 0) return -3;
        cur = f->anc;
        ncur = f->nanc;
        reused_size = ncur;
        if (ncur > 0) {
            inter_first = f->anc_base / lb;
            inter_last = (f->anc_base + ncur * 4 - 1) / lb;
        }
    } else {
        v = emb[row[1]];
        if (v < 0 || v >= k->num_vertices) return -2;
        cur = k->indices + k->indptr[v];
        ncur = k->indptr[v + 1] - k->indptr[v];
        if (ncur > 0) {
            k->spans[0] = k->first_line[v];
            k->spans[1] = k->last_line[v];
            graph_lines += k->last_line[v] - k->first_line[v] + 1;
            nspans = 1;
        }
    }
    /* Every later set (op outputs, kept children) is at most this long. */
    if (ncur > k->cap) return -2;
    const int fetch = nconn == 0 && ndisc == 0;
    if (fetch) comparisons = ncur;

    int64_t *dst = k->cand, *alt = k->scratch;
    for (i = 0; i < nconn + ndisc; i++) {
        v = emb[i < nconn ? conn[i] : disc[i - nconn]];
        if (v < 0 || v >= k->num_vertices) return -2;
        const int64_t *nbrs = k->indices + k->indptr[v];
        const int64_t nn = k->indptr[v + 1] - k->indptr[v];
        if (nn > 0) {
            if (nspans >= k->max_spans) return -2;
            k->spans[2 * nspans] = k->first_line[v];
            k->spans[2 * nspans + 1] = k->last_line[v];
            graph_lines += k->last_line[v] - k->first_line[v] + 1;
            nspans++;
        }
        int64_t out;
        if (i >= nconn)
            out = repro_subtract(cur, ncur, nbrs, nn, dst);
        else if (ncur <= nn)
            out = repro_intersect(cur, ncur, nbrs, nn, dst);
        else
            out = repro_intersect(nbrs, nn, cur, ncur, dst);
        comparisons += ncur + nn;
        cur = dst;
        ncur = out;
        dst = alt;
        alt = (int64_t *)cur;
    }
    if (!fetch && cur != k->cand) {
        for (i = 0; i < ncur; i++) k->cand[i] = cur[i];
        cur = k->cand;
    }

    int64_t cut = ncur;
    if (nbound > 0 && ncur > 0) {
        int64_t b = emb[bound[0]];
        for (i = 1; i < nbound; i++)
            if (emb[bound[i]] < b) b = emb[bound[i]];
        cut = repro_lower_bound(cur, ncur, b);
    }
    if (nused > 0 && cut > 0) {
        for (i = 0; i < nused; i++) {
            v = emb[used[i]];
            j = repro_lower_bound(cur, cut, v);
            if (j < cut && cur[j] == v) {
                /* Insertion keeps hits ascending (embedding vertices
                 * are distinct, so hit indices are too). */
                int64_t m = nhits++;
                while (m > 0 && hits[m - 1] > j) { hits[m] = hits[m - 1]; m--; }
                hits[m] = j;
            }
        }
    }
    if (nhits > 0) {
        int64_t n = 0, h = 0;
        for (i = 0; i < cut; i++) {
            if (h < nhits && hits[h] == i) { h++; continue; }
            k->scratch[n++] = cur[i];
        }
    }

    int64_t out_first = -1, out_last = -1, out_count = 0;
    if (set_address >= 0 && ncur > 0) {
        out_first = set_address / lb;
        out_last = (set_address + ncur * 4 - 1) / lb;
        out_count = out_last - out_first + 1;
    }
    int64_t *res = k->res;
    res[0] = inter_first;
    res[1] = inter_last;
    res[2] = nspans;
    res[3] = out_first;
    res[4] = out_last;
    res[5] = out_count;
    res[6] = comparisons > 0
        ? (comparisons + k->segment_elements - 1) / k->segment_elements : 0;
    res[7] = (inter_first >= 0 ? inter_last - inter_first + 1 : 0)
        + graph_lines + out_count;
    int64_t *info = k->info;
    info[0] = fetch;
    info[1] = cut - nhits;
    info[2] = nhits > 0;
    info[3] = comparisons;
    info[4] = reused_size;
    return ncur;
}

/* Compiled event lane: the engine's time queue, plus the whole cycle of
 * a leaf task (completion, kick, dispatch pass, leaf booking) of a
 * Shogun or pseudo-DFS PE.
 *
 * The queue is a binary heap of (time, seq, event) entries; seq is a
 * global push counter, so the heap pops every time's events in FIFO
 * (= scheduling) order, events scheduled at the current time included —
 * the order of the Python engine's per-time buckets.  A bucket is the
 * set of events queued at its time when the drain reaches it: pending
 * (qs[0]) is debited by the whole bucket then, and lane_drop discards
 * the rest of it when a Python event raises, as the Python drain does.
 *
 * An event is an int64 whose low three bits give its kind: a Python
 * event (handle << 3), a lane leaf completion ((slot * num_pes + pe) <<
 * 3 | 1) or a dispatch kick ((pe << 3) | 2).  repro_lane_drain runs lane
 * events in C and returns to Python, in event order, with the code of
 * anything C does not own: a Python event; a completion or a dispatch
 * pass C hands back whole (REPRO_EV_DONE / REPRO_EV_KICK codes); the
 * rest of a dispatch pass's selected records from the first one C
 * cannot book (REPRO_EV_REST, records [handoff[0], handoff[1]) of the
 * PE's tree record buffer); a run-completion check; a full span ring;
 * an allocation failure; or -1 once the queue is empty or past bound.
 *
 * The C mirrors, statement for statement, PE._complete_task and
 * PE._dispatch (sim/pe.py), the leaf branch of MacroCore.start and the
 * policy's side: for a Shogun PE (tree != NULL)
 * ShogunPolicy.on_task_complete and select_tasks, TaskTree.on_complete
 * and select_batch; for a pseudo-DFS PE (walk != NULL) the leaf level of
 * GroupDFSPolicy (core/policies/group_dfs.py) over the walk's flat
 * words: a leaf's completion, the group barrier, the next chunk of the
 * parent's kept children, and a dispatch pass booking the current leaf
 * group's members in order.  Each returns the whole event to Python up
 * front (having written nothing) when a precondition fails: merging, a
 * monitor epoch boundary, a recycling or underflowing bunch, a root to
 * feed; for a pseudo-DFS PE, a completion ending the leaf level and a
 * dispatch whose current group is not a leaf group.
 */
#define REPRO_EV_PY 0
#define REPRO_EV_DONE 1
#define REPRO_EV_KICK 2
#define REPRO_EV_REST 3
#define REPRO_EV_CHECK 4
#define REPRO_EV_RING 5
#define REPRO_EV_NOMEM 6

/* ctl words the lane reads or counts (repro.core.task_tree) */
#define REPRO_CTL_LIVE 8
#define REPRO_CTL_LANE_SELECT 9
#define REPRO_CTL_LANE_COMPLETE 10

/* the pseudo-DFS walk's words (repro.core.policies.group_dfs.W_*) */
#define REPRO_W_LIVE 0
#define REPRO_W_START 1
#define REPRO_W_COUNT 2
#define REPRO_W_NEXT 3
#define REPRO_W_OUT 4
#define REPRO_W_NKIDS 5
#define REPRO_W_PADDR 6
#define REPRO_W_TREE 7

/* lane counters per PE (repro.sim.backend.engine_loop.LANE_COUNTERS) */
#define REPRO_LS_FAST 0
#define REPRO_LS_DONE 1
#define REPRO_LS_VLINES 2
#define REPRO_LS_SLOTS 3
#define REPRO_LS_TWICE 4
#define REPRO_LS_WORDS 5

typedef struct {
    double t;
    int64_t seq;
    int64_t ev;
} repro_qent_t;

typedef struct {
    repro_core_t *core;        /* the PE's macro-step struct */
    repro_tree_t *tree;        /* Shogun: the task-tree ops struct */
    int64_t *walk;             /* pseudo-DFS: the walk's words */
    const int64_t *kids;       /* pseudo-DFS: the leaf level's kept
                                  children, pinned per level */
    const int64_t *live;       /* has work: ctl[CTL_LIVE] or walk[LIVE] */
    int64_t *iw;               /* [slots_used, tasks_executed, matches,
                                  kick_pending] */
    double *fw;                /* [last_integrate, busy_slot_cycles,
                                  idle_with_work_cycles] */
    int64_t *depth_executed;
    const double *policy;      /* [next_epoch, conservative], published */
    const int64_t *roots;      /* root queue feeding this PE, published */
    int64_t *stat;             /* REPRO_LS_WORDS lane counters */
    int64_t *inflight;         /* per entry slot (Shogun) or group member
                                  (pseudo-DFS): booked by the lane */
    int64_t width;
    int64_t size;              /* pseudo-DFS group size */
    int64_t merging;
} repro_lane_pe_t;

typedef struct {
    repro_qent_t *heap;
    int64_t n;
    int64_t cap;
    int64_t seq;
    int64_t left;              /* events left in the current bucket */
    double now;
    int64_t *qs;               /* [pending, executed, regressions,
                                  ring_len] */
    double *clock;             /* [now] for Python */
    int64_t *handoff;          /* REPRO_EV_REST: [first, count] */
    repro_lane_pe_t *pes;
    int64_t num_pes;
    int64_t max_depth;
    int64_t line_bytes;
    int64_t max_width;
    const int64_t *undispatched;
    int64_t *ring;             /* 5 words per span event; NULL = none */
    double *ring_t;
    int64_t ring_cap;
} repro_lane_t;

static int repro_q_less(const repro_qent_t *a, const repro_qent_t *b)
{
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

int64_t repro_lane_init(repro_lane_t *L, int64_t cap)
{
    if (cap < 16) cap = 16;
    L->heap = (repro_qent_t *)malloc((size_t)cap * sizeof(repro_qent_t));
    if (L->heap == NULL) return -1;
    L->cap = cap;
    L->n = 0;
    return 0;
}

void repro_lane_free(repro_lane_t *L)
{
    free(L->heap);
    L->heap = NULL;
    L->n = L->cap = 0;
}

int64_t repro_lane_push(repro_lane_t *L, double t, int64_t ev)
{
    if (L->n == L->cap) {
        int64_t cap = 2 * L->cap;
        repro_qent_t *h = (repro_qent_t *)realloc(
            L->heap, (size_t)cap * sizeof(repro_qent_t));
        if (h == NULL) return -1;
        L->heap = h;
        L->cap = cap;
    }
    repro_qent_t e;
    e.t = t;
    e.seq = L->seq++;
    e.ev = ev;
    int64_t i = L->n++;
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (!repro_q_less(&e, &L->heap[p])) break;
        L->heap[i] = L->heap[p];
        i = p;
    }
    L->heap[i] = e;
    L->qs[0] += 1;
    return 0;
}

static repro_qent_t repro_q_pop(repro_lane_t *L)
{
    repro_qent_t top = L->heap[0];
    int64_t n = --L->n;
    if (n > 0) {
        repro_qent_t last = L->heap[n];
        int64_t i = 0;
        for (;;) {
            int64_t c = 2 * i + 1;
            if (c >= n) break;
            if (c + 1 < n && repro_q_less(&L->heap[c + 1], &L->heap[c])) c++;
            if (!repro_q_less(&L->heap[c], &last)) break;
            L->heap[i] = L->heap[c];
            i = c;
        }
        L->heap[i] = last;
    }
    return top;
}

/* Queued events at time t (the minimum): they form a subtree holding
 * the root, so the walk stops at the first later time on each path. */
static int64_t repro_q_count(const repro_lane_t *L, int64_t i, double t)
{
    if (i >= L->n || L->heap[i].t != t) return 0;
    return 1 + repro_q_count(L, 2 * i + 1, t) + repro_q_count(L, 2 * i + 2, t);
}

void repro_lane_drop(repro_lane_t *L)
{
    while (L->left > 0 && L->n > 0) {
        repro_q_pop(L);
        L->left -= 1;
    }
    L->left = 0;
}

int64_t repro_lane_kick(repro_lane_t *L, int64_t pe)
{
    repro_lane_pe_t *P = &L->pes[pe];
    if (P->iw[3]) return 0;
    P->iw[3] = 1;
    return repro_lane_push(L, L->now, (pe << 3) | REPRO_EV_KICK);
}

static void repro_lane_record(repro_lane_t *L, int64_t kind, int64_t pe,
                              int64_t slot, int64_t vertex, int64_t tree)
{
    int64_t k = L->qs[3];
    if (k >= L->ring_cap) return;  /* the drain keeps room; never taken */
    int64_t *r = L->ring + 5 * k;
    r[0] = kind;
    r[1] = pe;
    r[2] = slot;
    r[3] = vertex;
    r[4] = tree;
    L->ring_t[k] = L->now;
    L->qs[3] = k + 1;
}

/* PE._integrate: slot-occupancy integrals up to now. */
static void repro_lane_integrate(repro_lane_pe_t *P, double now)
{
    double dt = now - P->fw[0];
    if (dt <= 0) return;
    int64_t used = P->iw[0];
    P->fw[1] += (double)used * dt;
    if (*P->live > 0) {
        int64_t idle = P->width - used;
        if (idle > 0) P->fw[2] += (double)idle * dt;
    }
    P->fw[0] = now;
}

/* A lane-booked leaf completes: PE._complete_task, then the policy's
 * on_task_complete (Shogun: the epoch check and the tree's childless
 * complete op; pseudo-DFS: the barrier and the next chunk) and the
 * kick. */
static int64_t repro_lane_complete(repro_lane_t *L, int64_t ev)
{
    const int64_t x = ev >> 3;
    const int64_t pe = x % L->num_pes, slot = x / L->num_pes;
    repro_lane_pe_t *P = &L->pes[pe];
    repro_tree_t *t = P->tree;
    int64_t *w = P->walk;
    int64_t b = 0;
    if (!P->inflight[slot]) P->stat[REPRO_LS_TWICE] += 1;
    P->inflight[slot] = 0;
    if (P->merging || L->now >= P->policy[0]) return ev;
    if (w != NULL) {
        /* The barrier's release with no children left ends the level:
         * Python pops the walk. */
        if (w[REPRO_W_OUT] <= 1 && w[REPRO_W_NEXT] >= w[REPRO_W_COUNT] &&
            w[REPRO_W_START] + w[REPRO_W_COUNT] >= w[REPRO_W_NKIDS])
            return ev;
    } else {
        b = slot / t->cap;
        if (t->b_nkids[b] - t->b_next[b] <= 0 && t->b_active[b] <= 1)
            return ev;  /* the bunch recycles (or underflows): Python */
    }

    if (L->ring != NULL) {
        if (w != NULL)
            repro_lane_record(L, 1, pe, slot,
                              P->kids[w[REPRO_W_START] + slot],
                              w[REPRO_W_TREE]);
        else
            repro_lane_record(L, 1, pe, slot, t->e_vertex[slot],
                              t->b_tree[b]);
    }
    repro_lane_integrate(P, L->now);
    P->iw[1] += 1;
    P->depth_executed[L->max_depth] += 1;
    P->iw[2] += 1;
    P->iw[0] -= 1;
    if (P->iw[0] < 0) P->stat[REPRO_LS_SLOTS] += 1;
    if (w != NULL) {
        w[REPRO_W_OUT] -= 1;
        if (w[REPRO_W_OUT] == 0 && w[REPRO_W_NEXT] >= w[REPRO_W_COUNT]) {
            /* Barrier released: the parent's next chunk. */
            const int64_t start = w[REPRO_W_START] + P->size;
            const int64_t left = w[REPRO_W_NKIDS] - start;
            w[REPRO_W_START] = start;
            w[REPRO_W_COUNT] = left < P->size ? left : P->size;
            w[REPRO_W_NEXT] = 0;
        }
    } else {
        t->ctl[REPRO_CTL_LANE_COMPLETE] += 1;
        repro_tree_complete(t, slot, b, 0, NULL, 0, 0, -1, 0);
    }
    P->stat[REPRO_LS_DONE] += 1;
    if (!P->iw[3]) {
        P->iw[3] = 1;
        if (repro_lane_push(L, L->now, (pe << 3) | REPRO_EV_KICK))
            return REPRO_EV_NOMEM;
    }
    return 0;
}

/* One lane-booked leaf: its slot, counters, span record and completion
 * event (member is its entry slot or group member index). */
static int64_t repro_lane_booked(repro_lane_t *L, repro_lane_pe_t *P,
                                 int64_t pe, int64_t member, int64_t line,
                                 int64_t vertex, int64_t tree_id)
{
    P->iw[0] += 1;
    if (P->iw[0] > P->width) P->stat[REPRO_LS_SLOTS] += 1;
    P->stat[REPRO_LS_FAST] += 1;
    if (line >= 0) P->stat[REPRO_LS_VLINES] += 1;
    P->inflight[member] = 1;
    if (L->ring != NULL) repro_lane_record(L, 0, pe, member, vertex, tree_id);
    return repro_lane_push(L, P->core->result[0],
                           ((member * L->num_pes + pe) << 3) | REPRO_EV_DONE);
}

/* A dispatch pass: PE._dispatch with ShogunPolicy.select_tasks (booking
 * leaf records through the macro-step fast path up to the first record
 * it cannot book) or with GroupDFSPolicy.select_task over the current
 * leaf group (booking its undispatched members in order, up to the
 * first whose vertex line misses). */
static int64_t repro_lane_dispatch(repro_lane_t *L, int64_t pe)
{
    repro_lane_pe_t *P = &L->pes[pe];
    repro_tree_t *t = P->tree;
    int64_t *w = P->walk;
    const double now = L->now;
    const int64_t free_slots = P->width - P->iw[0];
    if (P->merging || (P->roots[0] > 0 && *P->live == 0) ||
        (free_slots > 0 && now >= P->policy[0]) ||
        (w != NULL && *P->live > 0 && w[REPRO_W_COUNT] == 0))
        return (pe << 3) | REPRO_EV_KICK;

    P->iw[3] = 0;
    if (now > P->fw[0]) repro_lane_integrate(P, now);
    if (w != NULL) {
        const int64_t paddr = w[REPRO_W_PADDR];
        int64_t j;
        while ((j = w[REPRO_W_NEXT]) < w[REPRO_W_COUNT] &&
               P->iw[0] < P->width) {
            const int64_t i = w[REPRO_W_START] + j;
            const int64_t line =
                paddr >= 0 ? (paddr + i * 4) / L->line_bytes : -1;
            if (repro_task_fastpath(P->core, now, 1, line, -1, -1, -1, -1,
                                    0, 0, 0) != 0) {
                L->handoff[0] = j;
                L->handoff[1] = w[REPRO_W_COUNT];
                return (pe << 3) | REPRO_EV_REST;
            }
            w[REPRO_W_NEXT] = j + 1;
            w[REPRO_W_OUT] += 1;
            if (repro_lane_booked(L, P, pe, j, line,
                                  L->ring != NULL ? P->kids[i] : 0,
                                  w[REPRO_W_TREE]))
                return REPRO_EV_NOMEM;
        }
    } else {
        int64_t count = 0, i;
        if (free_slots > 0 && t->ctl[0] > 0) {
            t->ctl[REPRO_CTL_LANE_SELECT] += 1;
            count = repro_tree_select(t, P->policy[1] != 0.0 ? 1 : 0,
                                      free_slots);
        }
        for (i = 0; i < count; i++) {
            const int64_t *rec = t->records + 5 * i;
            const int64_t slot = rec[0], b = slot / t->cap;
            if (t->b_depth[b] < L->max_depth) break;
            const int64_t paddr = t->b_paddr[b];
            const int64_t line =
                paddr >= 0 ? (paddr + rec[2] * 4) / L->line_bytes : -1;
            if (repro_task_fastpath(P->core, now, 1, line, -1, -1, -1, -1,
                                    0, 0, 0) != 0)
                break;
            if (repro_lane_booked(L, P, pe, slot, line, rec[1], rec[4]))
                return REPRO_EV_NOMEM;
        }
        if (i < count) {
            L->handoff[0] = i;
            L->handoff[1] = count;
            return (pe << 3) | REPRO_EV_REST;
        }
    }
    if (L->undispatched[0] == 0) {
        /* Accelerator.check_done: finished only once no PE has work. */
        for (int64_t p = 0; p < L->num_pes; p++)
            if (*L->pes[p].live > 0) return 0;
        return REPRO_EV_CHECK;
    }
    return 0;
}

int64_t repro_lane_drain(repro_lane_t *L, double bound)
{
    for (;;) {
        if (L->ring != NULL && L->qs[3] + L->max_width + 1 > L->ring_cap)
            return REPRO_EV_RING;
        if (L->left == 0) {
            if (L->n == 0) return -1;
            const double t = L->heap[0].t;
            if (t > bound) return -1;
            int64_t cnt = repro_q_count(L, 0, t);
            if (cnt < 1) cnt = 1;  /* an unordered time (NaN) runs alone */
            if (t < L->now) L->qs[2] += 1;
            L->now = t;
            L->clock[0] = t;
            L->left = cnt;
            L->qs[0] -= cnt;
            L->qs[1] += cnt;
        }
        const repro_qent_t e = repro_q_pop(L);
        L->left -= 1;
        const int64_t kind = e.ev & 7;
        int64_t r;
        if (kind == REPRO_EV_DONE)
            r = repro_lane_complete(L, e.ev);
        else if (kind == REPRO_EV_KICK)
            r = repro_lane_dispatch(L, e.ev >> 3);
        else
            r = e.ev;
        if (r != 0) return r;
    }
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
    const int64_t **b_kids;
    int64_t *b_nkids;
    int64_t *b_next;
    int64_t *b_paddr;
} repro_tree_t;
int64_t repro_tree_select(repro_tree_t *t, int64_t conservative, int64_t k);
int64_t repro_tree_fill(repro_tree_t *t, int64_t b, int64_t tree_id,
                        int64_t quiesced, const int64_t *vertices,
                        int64_t first, int64_t count, int64_t navail,
                        int64_t address);
void repro_tree_span(repro_tree_t *t, int64_t b, const int64_t *vertices,
                     int64_t navail, int64_t next, int64_t address);
int64_t repro_tree_complete(repro_tree_t *t, int64_t slot, int64_t b,
                            int64_t has_children, const int64_t *children,
                            int64_t first, int64_t navail, int64_t address,
                            int64_t tree_quiesced);
typedef struct {
    const int64_t *indptr;
    const int64_t *indices;
    int64_t num_vertices;
    const int64_t *first_line;
    const int64_t *last_line;
    const int64_t *plan;
    int64_t plan_words;
    int64_t *cand;
    int64_t *scratch;
    int64_t cap;
    int64_t *spans;
    int64_t max_spans;
    int64_t *res;
    int64_t *info;
    int64_t line_bytes;
    int64_t segment_elements;
} repro_derive_t;
typedef struct {
    int64_t d;
    const int64_t *anc;
    int64_t nanc;
    int64_t anc_base;
    int64_t emb[16];
} repro_frame_t;
int64_t repro_derive(const repro_derive_t *k, const repro_frame_t *f,
                     int64_t vertex, int64_t set_address);
typedef struct {
    double t;
    int64_t seq;
    int64_t ev;
} repro_qent_t;
typedef struct {
    repro_core_t *core;
    repro_tree_t *tree;
    int64_t *walk;
    const int64_t *kids;
    const int64_t *live;
    int64_t *iw;
    double *fw;
    int64_t *depth_executed;
    const double *policy;
    const int64_t *roots;
    int64_t *stat;
    int64_t *inflight;
    int64_t width;
    int64_t size;
    int64_t merging;
} repro_lane_pe_t;
typedef struct {
    repro_qent_t *heap;
    int64_t n;
    int64_t cap;
    int64_t seq;
    int64_t left;
    double now;
    int64_t *qs;
    double *clock;
    int64_t *handoff;
    repro_lane_pe_t *pes;
    int64_t num_pes;
    int64_t max_depth;
    int64_t line_bytes;
    int64_t max_width;
    const int64_t *undispatched;
    int64_t *ring;
    double *ring_t;
    int64_t ring_cap;
} repro_lane_t;
int64_t repro_lane_init(repro_lane_t *L, int64_t cap);
void repro_lane_free(repro_lane_t *L);
int64_t repro_lane_push(repro_lane_t *L, double t, int64_t ev);
void repro_lane_drop(repro_lane_t *L);
int64_t repro_lane_kick(repro_lane_t *L, int64_t pe);
int64_t repro_lane_drain(repro_lane_t *L, double bound);
"""

CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

#: Deepest schedule a ``repro_frame_t`` embedding prefix holds
#: (``REPRO_DERIVE_MAXD`` in the C source).
DERIVE_MAX_DEPTH = 16
#: Header words of a plan row (``REPRO_PLAN_HEAD`` in the C source).
PLAN_HEAD = 6
#: Lane counters per PE (``REPRO_LS_WORDS`` in the C source).
LANE_STAT_WORDS = 5


class DeriveOps:
    """One accelerator's compiled expansion (``derive_bind``).

    ``derive(frame, vertex, set_address)`` runs ``repro_derive`` over
    the bound struct and returns the candidate count, or a negative
    escape having written nothing Python reads.  On success:

    * ``res`` holds the eight values ``PE._derive`` returns, with the
      span count in place of a span list (the spans themselves are in
      ``spans``, the macro core's buffer; :meth:`span_list` reads them
      back for the per-event path);
    * ``info`` holds ``[fetch, nkept, kept_copied, comparisons,
      reused_size]``: whether the plan kept its first input as the
      candidates (no set op), the kept-children count, whether the kept
      children were copied to ``scratch`` (else they are a prefix of
      the candidates), and the expansion's accounting;
    * the candidates are in ``cand`` unless ``fetch`` is set.

    ``frame(parent)`` builds the per-parent ``(frame, first_input,
    pin)`` triple every child of ``parent`` derives from:
    ``first_input`` is the array a fetch-only plan keeps as its
    candidates (``None`` when that is the child's own neighbor set) and
    ``pin`` keeps the reused set's pointer valid.  ``root_frame`` is the
    triple for parentless tasks.
    """

    __slots__ = (
        "derive", "res", "info", "cand", "scratch", "spans", "nbr",
        "root_frame", "frame", "_keep",
    )

    def __init__(self, derive, res, info, cand, scratch, spans, nbr,
                 root_frame, frame, keep) -> None:
        self.derive = derive
        self.res = res
        self.info = info
        self.cand = cand
        self.scratch = scratch
        self.spans = spans
        self.nbr = nbr
        self.root_frame = root_frame
        self.frame = frame
        self._keep = keep

    def span_list(self, nspans):
        """The first ``nspans`` spans of the buffer as ``(first, last)``
        pairs."""
        spans = self.spans
        return [(spans[2 * i], spans[2 * i + 1]) for i in range(nspans)]


class _TreeOps:
    """One tree's bound ops (:meth:`_CLib.tree_bind`)."""

    __slots__ = (
        "select", "fill", "span", "complete", "rest", "done", "struct",
        "_keep",
    )


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

        Returns ``(books, cores, pinned)``.  Each book is
        ``functools.partial(lib.repro_task_fastpath, core)`` — the
        compiled function itself, with no Python frame around it — and
        ``cores`` lists the structs (the event lane books leaves through
        them).  ``from_buffer`` pins each buffer; the caller keeps
        ``pinned`` (the pointer cdata the structs point into) alive as
        long as the books.

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
        cores = []
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
            cores.append(core)
        return books, cores, keep

    def tree_bind(self, state):
        """Per-tree scheduler bindings: one ``repro_tree_t`` struct with
        pinned pointers into the tree's struct-of-arrays numpy state.

        The returned ops object carries ``select``/``fill``/``span``/
        ``complete`` closures over the struct (the contract of
        :func:`.pure.tree_bind`); a call marshals only the per-call
        scalars plus the candidate span.  The ops own their result
        buffers, allocated here: the record buffer has room for every
        entry of the tree (``nb * cap`` picks, the most one ``select``
        can schedule), ``select`` returns its picks' records as one
        ``ffi.unpack`` of it, and ``done`` is the 2-word spawn result.
        ``from_buffer`` pins every array for the life of the ops object,
        which the owning :class:`~repro.core.task_tree.TaskTree` holds.
        A bunch's parent span is pinned once, when the bunch takes it
        (a spawn, a fill or ``span``), and released when it is replaced.
        ``struct`` is exposed for the event lane, and ``rest(first,
        count)`` reads back records ``[first, count)`` of the lane's
        last selection.
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
        kids = ffi.new("int64_t *[]", state.nb)
        tree.b_kids = kids
        tree.b_nkids = ip(state.b_nkids)
        tree.b_next = ip(state.b_next)
        tree.b_paddr = ip(state.b_paddr)
        #: The pinned parent span of each bunch (keeps its pointer valid).
        pins = [None] * state.nb

        lib = self._lib
        from_buffer = ffi.from_buffer

        ops = _TreeOps()
        ops.done = done
        ops.struct = tree
        ops._keep = (keep, kids, pins)

        def select(conservative, k, _t=tree, _f=lib.repro_tree_select,
                   _unpack=ffi.unpack, _r=records):
            return _unpack(_r, 5 * _f(_t, conservative, k))

        def fill(b, tree_id, quiesced, vertices, first, count, address=-1,
                 _t=tree, _f=lib.repro_tree_fill, _fb=from_buffer, _i64=i64):
            pin = pins[b] = _fb(_i64, vertices)
            return _f(_t, b, tree_id, quiesced, pin, first, count,
                      len(vertices), address)

        def span(b, vertices, navail, cursor, address,
                 _t=tree, _f=lib.repro_tree_span, _fb=from_buffer, _i64=i64,
                 _null=ffi.NULL):
            pin = pins[b] = None if vertices is None else _fb(_i64, vertices)
            _f(_t, b, _null if pin is None else pin, navail, cursor, address)

        # Leaf completions (no children) dominate and never read the
        # children span — hand the kernel NULL instead of pinning the
        # caller's empty array on every call.
        def complete(slot, b, has_children, children, first, navail,
                     address, tree_quiesced,
                     _t=tree, _f=lib.repro_tree_complete, _fb=from_buffer,
                     _i64=i64, _null=ffi.NULL, _done=done):
            if not has_children:
                return _f(_t, slot, b, 0, _null, 0, 0, -1, 0)
            pin = _fb(_i64, children)
            action = _f(_t, slot, b, 1, pin, first, navail, address,
                        tree_quiesced)
            if action == 0:
                pins[_done[0]] = pin
            return action

        def rest(first, count, _unpack=ffi.unpack, _r=records):
            return _unpack(_r + 5 * first, 5 * (count - first))

        ops.select = select
        ops.fill = fill
        ops.span = span
        ops.complete = complete
        ops.rest = rest
        return ops

    def derive_bind(self, accel, spans):
        """Compiled-expansion bindings for one accelerator (see
        :class:`DeriveOps`), or ``None`` when the schedule is deeper
        than a frame holds (``PE._derive`` then stays interpreted).

        One ``repro_derive_t`` pins, once: the CSR arrays (read-only; in
        pool workers they are shared-memory views), each vertex's first
        and last graph line, the per-depth plan table, the candidate
        and scratch buffers (sized to the maximum degree, which bounds
        every set a plan produces), ``spans`` (the macro core's span
        buffer) and the result vectors.  The buffers belong to this
        accelerator: cffi releases the GIL in every call, so nothing
        here may be shared between simulations.  The result vectors
        are memoryviews, pinned through the array each views, as
        :meth:`macro_bind` does.

        Plan row ``d`` (the candidate set feeding depth ``d``) holds
        ``[reused, first, nconn, ndisc, nbound, nused]`` (``reused`` and
        ``first`` are -1 when unused) and then four ``depth``-wide
        position lists: the residual intersections (without ``first``),
        the subtractions, the symmetry-bound positions and the
        used-vertex positions.
        """
        schedule = accel.schedule
        depth = schedule.depth
        if depth > DERIVE_MAX_DEPTH:
            return None
        ffi = self._ffi
        i64 = self._i64
        keep = []

        def pin(buf, writable):
            if isinstance(buf, memoryview):
                buf = buf.obj
            p = ffi.from_buffer(i64, buf, require_writable=writable)
            keep.append(p)
            return p

        context = accel.context
        width = PLAN_HEAD + 4 * depth
        plan = np.zeros(depth * width, dtype=np.int64)
        reused_of = [None] * depth
        first_of = [-1] * depth
        for d in range(1, depth):
            reused, conn, disc = context.reuse_plan(d)
            bound, used = context.child_filters(d)
            row = plan[d * width:(d + 1) * width]
            row[0] = row[1] = -1
            if reused is None:
                row[1] = first_of[d] = conn[0]
                conn = conn[1:]
            else:
                row[0] = reused_of[d] = reused
            row[2:PLAN_HEAD] = (len(conn), len(disc), len(bound), len(used))
            for i, positions in enumerate((conn, disc, bound, used)):
                start = PLAN_HEAD + i * depth
                row[start:start + len(positions)] = positions

        graph = accel.graph
        config = accel.config
        cap = max(1, graph.max_degree)
        cand = np.empty(cap, dtype=np.int64)
        scratch = np.empty(cap, dtype=np.int64)
        res = memoryview(np.zeros(8, dtype=np.int64))
        info = memoryview(np.zeros(5, dtype=np.int64))
        first_line, last_line = accel.graph_line_arrays
        k = ffi.new("repro_derive_t *")
        k.indptr = pin(graph.indptr, False)
        k.indices = pin(graph.indices, False)
        k.num_vertices = graph.num_vertices
        k.first_line = pin(first_line, False)
        k.last_line = pin(last_line, False)
        k.plan = pin(plan, False)
        k.plan_words = width
        k.cand = pin(cand, True)
        k.scratch = pin(scratch, True)
        k.cap = cap
        k.spans = pin(spans, True)
        k.max_spans = len(spans) // 2
        k.res = pin(res, True)
        k.info = pin(info, True)
        k.line_bytes = config.cache_line_bytes
        k.segment_elements = int(config.segment_elements)

        new = ffi.new
        from_buffer = ffi.from_buffer
        nbr = graph.arena().slices

        def frame(parent):
            d = parent.depth + 2
            f = new("repro_frame_t *")
            f.d = d
            emb = parent.embedding
            f.emb[0:len(emb)] = emb
            reused = reused_of[d]
            if reused is None:
                pos = first_of[d]
                return (f, nbr[emb[pos]] if pos < d - 1 else None, None)
            producer = parent
            while producer is not None and producer.depth >= reused:
                producer = producer.parent
            anc = producer.candidates if producer is not None else None
            if anc is None:
                # f.anc stays NULL: the kernel escapes to expand.
                return (f, None, None)
            anc = _norm(anc)  # the kernel reads C-contiguous int64
            p = from_buffer(i64, anc)
            f.anc = p
            f.nanc = len(anc)
            base = producer.set_address
            f.anc_base = -1 if base is None else base
            return (f, anc, p)

        root = new("repro_frame_t *")
        root.d = 1
        return DeriveOps(
            functools.partial(self._lib.repro_derive, k), res, info,
            cand, scratch, spans, nbr, (root, None, None), frame,
            (k, keep, plan, root),
        )

    def lane_bind(self, accel=None):
        """The compiled event lane of ``accel`` (see ``repro_lane_drain``).

        One ``repro_lane_t`` owns the time queue (a heap allocated in C,
        sized for every PE's execution slots plus a kick each, grown on
        demand) and points, per PE, at the PE's macro-step struct, at
        its policy's state — a Shogun policy's task-tree struct, or a
        pseudo-DFS policy's walk words (``policy.words``) — and at the
        flat words the PE, its policy and the accelerator keep in
        ``accel.pe_state`` and ``accel.root_words``.  With
        ``accel=None`` the lane is a bare event queue (Python events
        only).  Every buffer is a numpy array pinned here; Python reads
        them through memoryviews.

        Returns a namespace of bound calls (``drain``, ``push``,
        ``drop``, ``kick(pe)``, ``attach_ring(capacity)``), views
        (``qs``, ``clock``, ``handoff``, ``stat``) and ``spans``: per
        PE, ``None`` for a Shogun PE, else the call that pins a leaf
        level's kept children (an ``int64`` array) for the lane and
        returns the pin, which the caller keeps alive.
        """
        ffi = self._ffi
        lib = self._lib
        i64 = self._i64
        f64 = ffi.typeof("double *")
        keep = []

        def pin(ctype, arr):
            p = ffi.from_buffer(ctype, arr, require_writable=True)
            keep.append(p)
            return p

        lane = ffi.new("repro_lane_t *")
        pes = [] if accel is None else accel.pes
        num_pes = len(pes)
        config = None if accel is None else accel.config
        width = 0 if config is None else config.execution_width
        if lib.repro_lane_init(lane, num_pes * (width + 1) + 16):
            raise MemoryError("event lane queue")
        lane = ffi.gc(lane, lib.repro_lane_free)
        qs = np.zeros(4, dtype=np.int64)
        clock = np.zeros(1, dtype=np.float64)
        handoff = np.zeros(2, dtype=np.int64)
        stat = np.zeros(max(1, num_pes) * LANE_STAT_WORDS, dtype=np.int64)
        lane.qs = pin(i64, qs)
        lane.clock = pin(f64, clock)
        lane.handoff = pin(i64, handoff)
        lane.num_pes = num_pes
        lane.max_width = width
        spans = []
        if accel is not None:
            from ...core.policies.group_dfs import W_LIVE
            from ...core.task_tree import CTL_LIVE

            state = accel.pe_state
            words = accel.root_words
            nc, nf, nd = state.count_words, state.clock_words, state.depth
            counts = pin(i64, state.counts)
            clocks = pin(f64, state.clocks)
            depths = pin(i64, state.depths)
            policy = pin(f64, state.policy)
            roots = pin(i64, words)
            stats = pin(i64, stat)
            lane.max_depth = accel.schedule.max_depth
            lane.line_bytes = config.cache_line_bytes
            lane.undispatched = roots + num_pes + 1
            structs = ffi.new("repro_lane_pe_t[]", num_pes)
            lane.pes = structs
            keep.append(structs)
            static = config.root_dispatch == "static"
            cores = accel.macro.cores
            for i, pe in enumerate(pes):
                P = structs[i]
                tree = getattr(pe.policy, "tree", None)
                if tree is not None:
                    ops = tree._ops
                    inflight = np.zeros(tree.state.nb * tree.state.cap, dtype=np.int64)
                    P.tree = ops.struct
                    P.live = ops.struct.ctl + CTL_LIVE
                    P.merging = 1 if config.enable_merging else 0
                    keep.append(ops)  # the struct P points at
                    spans.append(None)
                else:
                    size = pe.policy.group_size
                    inflight = np.zeros(size, dtype=np.int64)
                    P.walk = pin(i64, pe.policy.words)
                    P.live = P.walk + W_LIVE
                    P.size = size
                    spans.append(functools.partial(
                        _pin_kids, structs, i, ffi.from_buffer, i64
                    ))
                P.core = cores[i]
                P.iw = counts + i * nc
                P.fw = clocks + i * nf
                P.depth_executed = depths + i * nd
                P.policy = policy + i * 2
                P.roots = roots + (i if static else num_pes)
                P.stat = stats + i * LANE_STAT_WORDS
                P.inflight = pin(i64, inflight)
                P.width = width
                keep.append(cores[i])  # the struct P points at

        drain = functools.partial(lib.repro_lane_drain, lane)

        def attach_ring(capacity):
            ints = np.zeros(5 * capacity, dtype=np.int64)
            times = np.zeros(capacity, dtype=np.float64)
            lane.ring = pin(i64, ints)
            lane.ring_t = pin(f64, times)
            lane.ring_cap = capacity
            return memoryview(ints), memoryview(times)

        return SimpleNamespace(
            drain=drain,
            push=functools.partial(lib.repro_lane_push, lane),
            drop=functools.partial(lib.repro_lane_drop, lane),
            kick=functools.partial(lib.repro_lane_kick, lane),
            attach_ring=attach_ring,
            qs=memoryview(qs),
            clock=memoryview(clock),
            handoff=memoryview(handoff),
            stat=memoryview(stat),
            spans=spans,
            _keep=(lane, keep),
        )


def _pin_kids(structs, i, from_buffer, i64, kids):
    """Point lane PE struct ``structs[i]`` at a leaf level's kept
    children.  Holding ``structs`` keeps the struct array alive for as
    long as the policy holds this call, lane unbound or not."""
    pin = from_buffer(i64, kids)
    structs[i].kids = pin
    return pin


def make_kernels():
    """Build the C-extension kernel set (raises :class:`BackendUnavailable`)."""
    return make_kernel_set("cext", _CLib())
