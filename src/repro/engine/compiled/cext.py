"""The C kernels, built on demand with the host compiler.

No third-party dependency and no build at install time: the first use
compiles the embedded C source with the system compiler (``$CC``,
``cc``, ``gcc`` or ``clang``) into a shared object under
``REPRO_CEXT_CACHE`` (default ``~/.cache/repro/cext``) and loads it
through :mod:`ctypes`.  The file name keys the source, the compiler,
the flags and the machine (:func:`_library_name`), so a rebuild
happens exactly when one of them changes.  A loaded library must pass
a smoke call (:func:`_smoke`) before it is used.  Any failure — no
compiler, sandboxed tmpdir, unloadable object, a wrong smoke answer —
marks the backend unavailable and the caller falls back; nothing
raises at import time.

The per-record C functions (``yags_step``, ``bimode_step``,
``filter_step``, ``dhlf_step``) transliterate the stateful predictors
in :mod:`repro.predictors` over flat array state, one chunk per call;
``tests/test_engine_backend.py`` pins them bit-identical to
:func:`~repro.engine.reference.simulate_reference`.  ``sweep_step`` and
``sweep_count`` advance every configuration of the two-level carrier
over one chunk, the first writing each configuration's predictions,
the second adding each configuration's misses per branch; they are
tested against the carrier's numpy path and the oracle
(``tests/test_engine_batched.py``).  ``perf_scan`` tokenizes a block of
``perf script`` text for :mod:`repro.ingest.perf` and decodes the lines
made of a header and well-formed brstack entries only, handing every
other line back to the per-line parser; ``tests/test_ingest_perf.py``
and ``tests/test_ingest_perf_fuzz.py`` pin its route to that parser's.

Every call is checked before it reaches C: each array must have its
parameter's dtype and be C-contiguous (and writeable where C writes),
``outcomes`` and ``predictions`` must fit ``len(pcs)``, and every
branch id of ``sweep_count`` must index inside its miss matrix.  A bad
array raises :class:`~repro.errors.ConfigurationError`.  The sweep's
table layout is checked once, when its carrier is built
(:func:`check_sweep_tables`); ``perf_scan``'s outputs are sized from
its block (:func:`perf_scan`), and C writes none past its length.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ...errors import ConfigurationError
from ...spec import MAX_HISTORY_BITS

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define EXPORT __attribute__((visibility("default")))

EXPORT void yags_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *choice,
    int64_t *t_tags, uint8_t *t_valid, uint8_t *t_ctr,
    int64_t *nt_tags, uint8_t *nt_valid, uint8_t *nt_ctr)
{
    int64_t hist = regs[0];
    const int64_t hist_mask = params[0], cache_mask = params[1];
    const int64_t choice_mask = params[2], tag_mask = params[3];
    for (int64_t i = 0; i < n; i++) {
        const int64_t pc = pcs[i];
        const int64_t taken = outcomes[i];
        const int64_t choice_index = pc & choice_mask;
        const int64_t bias = choice[choice_index] >= 2 ? 1 : 0;
        const int64_t slot = (hist ^ pc) & cache_mask;
        const int64_t tag = pc & tag_mask;
        int64_t *tags; uint8_t *valid, *ctr;
        if (bias == 1) { tags = nt_tags; valid = nt_valid; ctr = nt_ctr; }
        else           { tags = t_tags;  valid = t_valid;  ctr = t_ctr; }
        const int hit = valid[slot] != 0 && tags[slot] == tag;
        if (hit) predictions[i] = ctr[slot] >= 2 ? 1 : 0;
        else     predictions[i] = (uint8_t)bias;
        if (hit) {
            const uint8_t v = ctr[slot];
            if (taken) { if (v < 3) ctr[slot] = v + 1; }
            else if (v > 0) ctr[slot] = v - 1;
        } else if (taken != bias) {
            tags[slot] = tag;
            valid[slot] = 1;
            ctr[slot] = taken ? 2 : 1;
        }
        if (!((bias != taken) && hit)) {
            const uint8_t v = choice[choice_index];
            if (taken) { if (v < 3) choice[choice_index] = v + 1; }
            else if (v > 0) choice[choice_index] = v - 1;
        }
        hist = ((hist << 1) | taken) & hist_mask;
    }
    regs[0] = hist;
}

EXPORT void bimode_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *taken_bank, uint8_t *not_taken_bank, uint8_t *choice)
{
    int64_t hist = regs[0];
    const int64_t hist_mask = params[0], dir_mask = params[1];
    const int64_t choice_mask = params[2];
    for (int64_t i = 0; i < n; i++) {
        const int64_t pc = pcs[i];
        const int64_t taken = outcomes[i];
        const int64_t choice_index = pc & choice_mask;
        const int64_t choose_taken = choice[choice_index] >= 2 ? 1 : 0;
        const int64_t dir_index = (hist ^ pc) & dir_mask;
        uint8_t *bank = choose_taken ? taken_bank : not_taken_bank;
        const uint8_t state = bank[dir_index];
        const int64_t pred = state >= 2 ? 1 : 0;
        predictions[i] = (uint8_t)pred;
        if (taken) { if (state < 3) bank[dir_index] = state + 1; }
        else if (state > 0) bank[dir_index] = state - 1;
        if (!((choose_taken != taken) && (pred == taken))) {
            const uint8_t v = choice[choice_index];
            if (taken) { if (v < 3) choice[choice_index] = v + 1; }
            else if (v > 0) choice[choice_index] = v - 1;
        }
        hist = ((hist << 1) | taken) & hist_mask;
    }
    regs[0] = hist;
}

EXPORT void filter_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *bias, uint16_t *count, uint8_t *pht, int64_t *bht)
{
    int64_t ghr = regs[0];
    const int64_t filt_mask = params[0], threshold = params[1];
    const int64_t max_count = params[2], history_kind = params[3];
    const int64_t index_scheme = params[4], history_bits = params[5];
    const int64_t pht_mask = params[6], pc_fill_bits = params[7];
    const int64_t bht_mask = params[8], ctr_threshold = params[9];
    const int64_t ctr_max = params[10], hist_mask = params[11];
    for (int64_t i = 0; i < n; i++) {
        const int64_t pc = pcs[i];
        const int64_t taken = outcomes[i];
        const int64_t slot = pc & filt_mask;
        const uint16_t c = count[slot];
        const int filtered = c >= threshold;
        int64_t h;
        if (history_bits == 0) h = 0;
        else if (history_kind == 0) h = ghr;
        else h = bht[pc & bht_mask];
        int64_t index;
        if (index_scheme == 0)
            index = ((h << pc_fill_bits) | (pc & ((1ll << pc_fill_bits) - 1))) & pht_mask;
        else
            index = (h ^ pc) & pht_mask;
        if (filtered) predictions[i] = bias[slot];
        else predictions[i] = pht[index] >= ctr_threshold ? 1 : 0;
        if (!filtered) {
            const uint8_t v = pht[index];
            if (taken) { if (v < ctr_max) pht[index] = v + 1; }
            else if (v > 0) pht[index] = v - 1;
            if (history_bits != 0) {
                if (history_kind == 0) ghr = ((ghr << 1) | taken) & hist_mask;
                else {
                    const int64_t b = pc & bht_mask;
                    bht[b] = ((bht[b] << 1) | taken) & hist_mask;
                }
            }
        }
        if (c > 0 && bias[slot] == taken) {
            if (c < max_count) count[slot] = c + 1;
        } else {
            bias[slot] = (uint8_t)taken;
            count[slot] = 1;
        }
    }
    regs[0] = ghr;
}

EXPORT void dhlf_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *pht, int64_t *explore_misses)
{
    const int64_t pht_mask = params[0], ghr_mask = params[1];
    const int64_t interval = params[2], max_history = params[3];
    const int64_t exploit_intervals = params[4];
    for (int64_t i = 0; i < n; i++) {
        const int64_t pc = pcs[i];
        const int64_t taken = outcomes[i];
        const int64_t hmask = (1ll << regs[1]) - 1;
        const int64_t index = ((regs[0] & hmask) ^ pc) & pht_mask;
        const uint8_t state = pht[index];
        const int64_t pred = state >= 2 ? 1 : 0;
        predictions[i] = (uint8_t)pred;
        if (taken) { if (state < 3) pht[index] = state + 1; }
        else if (state > 0) pht[index] = state - 1;
        regs[0] = ((regs[0] << 1) | taken) & ghr_mask;
        regs[3] += 1;
        if (pred != taken) regs[2] += 1;
        if (regs[3] >= interval) {
            const int64_t misses = regs[2];
            regs[2] = 0;
            regs[3] = 0;
            if (regs[4] > 0) {
                regs[4] -= 1;
                if (regs[4] == 0) { regs[1] = 0; regs[5] = 1; }
            } else {
                explore_misses[regs[1]] = misses;
                if (regs[5] <= max_history) { regs[1] = regs[5]; regs[5] += 1; }
                else {
                    int64_t best = 0;
                    for (int64_t cand = 1; cand <= max_history; cand++)
                        if (explore_misses[cand] < explore_misses[best]) best = cand;
                    regs[1] = best;
                    regs[4] = exploit_intervals;
                }
            }
        }
    }
}

/* One two-level configuration over the chunk.  The history kind, the
   index scheme and `count` are constants at every call site, so each
   of the eight inlined copies loses its branches.  Each step writes
   its prediction to `out`, or, with `count`, adds its miss to its
   branch's slot of `misses` (`ids` numbers the branches).  The table
   holds each counter XOR its reset value, so a fresh table is all
   zeros. */
static inline __attribute__((always_inline)) void sweep_config(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes, uint8_t *out,
    const int64_t *ids, int64_t *misses, int64_t *ghr, uint8_t *table, int64_t *rows,
    const int64_t *p, const int per_address, const int xor_index, const int count)
{
    const int64_t history_bits = p[1], pht_bits = p[2];
    const int64_t bht_mask = p[6], counter_bits = p[7];
    const int64_t hist_mask = (1ll << history_bits) - 1;
    const int64_t pht_mask = (1ll << pht_bits) - 1;
    const int64_t fill = xor_index ? 0 : pht_bits - history_bits;
    const int64_t fill_mask = (1ll << fill) - 1;
    const uint8_t threshold = (uint8_t)(1u << (counter_bits - 1));
    const uint8_t max = (uint8_t)((1u << counter_bits) - 1);
    const uint8_t reset = threshold;  /* weakly taken */
    int64_t g = *ghr;
    for (int64_t i = 0; i < n; i++) {
        const int64_t pc = pcs[i];
        const int64_t taken = outcomes[i];
        const int64_t h = per_address ? rows[pc & bht_mask] : g;
        const int64_t index = xor_index
            ? (h ^ pc) & pht_mask
            : ((h << fill) | (pc & fill_mask)) & pht_mask;
        const uint8_t v = table[index] ^ reset;
        const int64_t predicted = v >= threshold;
        if (count) misses[ids[i]] += predicted != taken;
        else out[i] = (uint8_t)predicted;
        /* Branchless: the outcome is exactly what the host's own
           branch predictor would have to guess. */
        table[index] = (uint8_t)(v + (taken & (v < max)) - ((taken ^ 1) & (v > 0))) ^ reset;
        const int64_t next = ((h << 1) | taken) & hist_mask;
        if (per_address) rows[pc & bht_mask] = next;
        else g = next;
    }
    *ghr = g;
}

/* Every configuration of the layout over the chunk, one after the
   other: a row of `predictions` each, or, with `count`, a row of
   `misses` `width` branches wide. */
static inline __attribute__((always_inline)) void sweep_configs(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes, uint8_t *predictions,
    const int64_t *ids, int64_t width, int64_t *misses,
    int64_t *regs, const int64_t *params, uint8_t *pht, int64_t *bht, const int count)
{
    const int64_t configs = params[0];
    for (int64_t c = 0; c < configs; c++) {
        const int64_t *p = params + 1 + c * 8;  /* SWEEP_PARAMS columns */
        uint8_t *out = count ? 0 : predictions + c * n;
        int64_t *row = count ? misses + c * width : 0;
        uint8_t *table = pht + p[4];
        int64_t *rows = bht + p[5];
        if (p[0] && p[3])
            sweep_config(n, pcs, outcomes, out, ids, row, regs + c, table, rows, p, 1, 1, count);
        else if (p[0])
            sweep_config(n, pcs, outcomes, out, ids, row, regs + c, table, rows, p, 1, 0, count);
        else if (p[3])
            sweep_config(n, pcs, outcomes, out, ids, row, regs + c, table, rows, p, 0, 1, count);
        else
            sweep_config(n, pcs, outcomes, out, ids, row, regs + c, table, rows, p, 0, 0, count);
    }
}

EXPORT void sweep_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *pht, int64_t *bht)
{
    sweep_configs(n, pcs, outcomes, predictions, 0, 0, 0, regs, params, pht, bht, 0);
}

EXPORT void sweep_count(
    int64_t n, int64_t width, const int64_t *pcs, const uint8_t *outcomes,
    const int64_t *ids, int64_t *misses, int64_t *regs, const int64_t *params,
    uint8_t *pht, int64_t *bht)
{
    sweep_configs(n, pcs, outcomes, 0, ids, width, misses, regs, params, pht, bht, 1);
}

/* `perf script` text.  Whitespace is what Python's str.split() splits
   ASCII on; a byte >= 0x80 is never read as anything, so its line goes
   back to the per-line parser. */
static inline int perf_space(uint8_t c)
{
    return c == ' ' || (c >= 9 && c <= 13) || (c >= 0x1c && c <= 0x1f);
}

static inline int perf_hex(uint8_t c)
{
    if (c >= '0' && c <= '9') return c - '0';
    c |= 0x20;
    return c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
}

static inline int perf_digit(uint8_t c) { return c >= '0' && c <= '9'; }

static int perf_ascii(const uint8_t *s, const uint8_t *e)
{
    for (; s < e; s++)
        if (*s & 0x80) return 0;
    return 1;
}

/* The pid of a `pid` or `pid/tid` token; -1 when the token is neither,
   -2 when the pid has more digits than an int64 always holds. */
static int64_t perf_pid(const uint8_t *s, const uint8_t *e)
{
    const uint8_t *p = s, *digits;
    while (p < e && perf_digit(*p)) p++;
    digits = p;
    if (p == s) return -1;
    if (p < e) {
        const uint8_t *tid = ++p;
        if (tid[-1] != '/') return -1;
        while (p < e && perf_digit(*p)) p++;
        if (p == tid || p < e) return -1;
    }
    if (digits - s > 18) return -2;
    int64_t pid = 0;
    for (p = s; p < digits; p++) pid = pid * 10 + (*p - '0');
    return pid;
}

/* A `123` or `123.456` token followed by its ':' (e is past the ':'). */
static int perf_timestamp(const uint8_t *s, const uint8_t *e)
{
    const uint8_t *p = s, *colon = e - 1;
    while (p < colon && perf_digit(*p)) p++;
    if (p == s) return 0;
    if (p < colon) {
        const uint8_t *fraction = ++p;
        if (fraction[-1] != '.') return 0;
        while (p < colon && perf_digit(*p)) p++;
        if (p == fraction) return 0;
    }
    return p == colon;
}

/* One brstack entry `0xFROM/(0xTO|-)/FLAGS[/...]`: its FROM (1-16 hex
   digits, below 2^63) and whether it was taken (no N or n in FLAGS).
   Under cond_only the entry must have fewer than 6 slashes, so it has
   no type field.  Returns 0 when any of that does not hold. */
static int perf_entry(const uint8_t *s, const uint8_t *e, int64_t cond_only,
                      int64_t *pc, uint8_t *taken)
{
    const uint8_t *p = s + 2, *flags;
    uint64_t from = 0;
    int digit, not_taken = 0, slashes = 2;
    if (e - s < 3 || s[0] != '0' || s[1] != 'x') return 0;
    for (; p < e && (digit = perf_hex(*p)) >= 0; p++) {
        if (p - s == 18) return 0;
        from = (from << 4) | (uint64_t)digit;
    }
    if (p == s + 2 || p == e || *p != '/' || from >> 63) return 0;
    p++;
    if (p < e && *p == '-') {
        p++;
    } else {
        if (e - p < 3 || p[0] != '0' || p[1] != 'x' || perf_hex(p[2]) < 0) return 0;
        for (p += 3; p < e && perf_hex(*p) >= 0; p++) {}
    }
    if (p == e || *p != '/') return 0;
    flags = ++p;
    for (; p < e; p++) {
        const uint8_t letter = *p | 0x20;
        if (*p != '-' && (letter < 'a' || letter > 'z')) break;
        not_taken |= letter == 'n';
    }
    if (p == flags || (p < e && *p != '/')) return 0;
    for (; p < e; p++) {
        if (*p & 0x80) return 0;
        slashes += *p == '/';
    }
    if (cond_only && slashes >= 6) return 0;
    *pc = (int64_t)from;
    *taken = (uint8_t)!not_taken;
    return 1;
}

/* Splits `buf` at '\n' and writes one PERF_COLUMNS row per line: its
   kind, the offset of its end, its event (an index into `events`, -1
   for none), its pid (-1 for none) and its record count.  A line is
   skipped (blank or a comment), scanned (a header, then only entries
   perf_entry accepts; its records go to `pcs` and `taken`) or handed
   back to the per-line parser.  No array is written past its capacity:
   a line whose records or event do not fit is handed back, and lines
   past `line_cap` are not reported.  `totals` gets the lines, records
   and events written. */
EXPORT void perf_scan(
    const uint8_t *buf, int64_t n, int64_t cond_only,
    int64_t *lines, int64_t line_cap,
    int64_t *pcs, uint8_t *taken, int64_t record_cap,
    int64_t *events, int64_t event_cap, int64_t *totals)
{
    const uint8_t *line = buf, *end = buf + n;
    int64_t nl = 0, nr = 0, ne = 0;
    while (nl < line_cap) {
        const uint8_t *eol = memchr(line, '\n', (size_t)(end - line));
        if (!eol) eol = end;
        const uint8_t *p = line, *event = 0;
        int64_t kind = 1, tokens = 0, pid = -1, records = 0, event_len = 0, id = -1;
        int header = 1;
        for (;;) {
            while (p < eol && perf_space(*p)) p++;
            if (p == eol) break;
            const uint8_t *s = p;
            while (p < eol && !perf_space(*p)) p++;
            if (tokens == 0 && *s == '#') {
                kind = perf_ascii(s, eol) ? 0 : 2;
                break;
            }
            tokens++;
            if (header) {
                const int entry_like = p - s >= 3 && s[0] == '0' && (s[1] | 0x20) == 'x'
                    && perf_hex(s[2]) >= 0 && memchr(s, '/', (size_t)(p - s));
                if (!entry_like) {
                    if ((p - s == 2 && s[0] == '=' && s[1] == '>') || !perf_ascii(s, p)) {
                        kind = 2;
                        break;
                    }
                    const int64_t token_pid = pid < 0 && tokens > 1 ? perf_pid(s, p) : -1;
                    if (token_pid == -2) {
                        kind = 2;
                        break;
                    }
                    if (token_pid >= 0) {
                        pid = token_pid;
                    } else if (p - s > 1 && p[-1] == ':' && !perf_timestamp(s, p)) {
                        event = s;
                        event_len = p - s - 1;
                    }
                    continue;
                }
                header = 0;
            }
            if (nr + records == record_cap
                || !perf_entry(s, p, cond_only, pcs + nr + records, taken + nr + records)) {
                kind = 2;
                break;
            }
            records++;
        }
        if (kind == 1 && header) kind = tokens ? 2 : 0;
        if (kind == 1 && event) {
            for (id = 0; id < ne; id++)
                if (events[2 * id + 1] == event_len
                    && memcmp(buf + events[2 * id], event, (size_t)event_len) == 0)
                    break;
            if (id == ne) {
                if (ne == event_cap) {
                    kind = 2;
                } else {
                    events[2 * ne] = event - buf;
                    events[2 * ne + 1] = event_len;
                    ne++;
                }
            }
        }
        int64_t *row = lines + 5 * nl++;
        row[0] = kind;
        row[1] = eol - buf;
        row[2] = kind == 1 ? id : -1;
        row[3] = kind == 1 ? pid : -1;
        row[4] = kind == 1 ? records : 0;
        if (kind == 1) nr += records;
        if (eol == end) break;
        line = eol + 1;
    }
    totals[0] = nl;
    totals[1] = nr;
    totals[2] = ne;
}
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_U16 = ctypes.POINTER(ctypes.c_uint16)

#: argtypes of each exported function's arrays, in call order.  C takes
#: ``len(pcs)`` before them (``sweep_count`` also its miss matrix's width).
_SIGNATURES = {
    "yags_step": (_I64, _U8, _U8, _I64, _I64, _U8, _I64, _U8, _U8, _I64, _U8, _U8),
    "bimode_step": (_I64, _U8, _U8, _I64, _I64, _U8, _U8, _U8),
    "filter_step": (_I64, _U8, _U8, _I64, _I64, _U8, _U16, _U8, _I64),
    "dhlf_step": (_I64, _U8, _U8, _I64, _I64, _U8, _I64),
    "sweep_step": (_I64, _U8, _U8, _I64, _I64, _U8, _I64),
    "sweep_count": (_I64, _U8, _I64, _I64, _I64, _I64, _U8, _I64),
}

_DTYPES = {_I64: np.dtype(np.int64), _U8: np.dtype(np.uint8), _U16: np.dtype(np.uint16)}

#: Positions of the arrays C only reads, per function: ``pcs``,
#: ``outcomes`` and ``params``, and the branch ids of ``sweep_count``.
_READ_ONLY = {
    "yags_step": (0, 1, 4),
    "bimode_step": (0, 1, 4),
    "filter_step": (0, 1, 4),
    "dhlf_step": (0, 1, 4),
    "sweep_step": (0, 1, 4),
    "sweep_count": (0, 1, 2, 5),
}

#: Flags of every build; part of the shared object's cache key.
_FLAGS = ("-O2", "-shared", "-fPIC", "-fvisibility=hidden")

#: ``regs`` slot of ``yags_step``, ``bimode_step`` and ``filter_step``:
#: the (global) history register.
HIST = 0

#: ``regs`` slots of ``dhlf_step``: the global history register, the
#: current history length, the current interval's misses and records,
#: the exploit intervals left, and the next length to explore.
DHLF_GHR = 0
DHLF_LENGTH = 1
DHLF_INTERVAL_MISSES = 2
DHLF_INTERVAL_COUNT = 3
DHLF_EXPLOIT_REMAINING = 4
DHLF_NEXT_EXPLORE = 5
DHLF_REGS = 6

#: ``params`` columns of one :func:`sweep_step` configuration, after the
#: leading configuration count: per-address history (0/1), history bits,
#: PHT index bits, xor indexing (0/1), PHT offset, BHT offset, BHT mask,
#: counter bits.
SWEEP_PARAMS = 8

#: Kinds of line :func:`perf_scan` reports: skipped (blank or a comment,
#: not counted), scanned (its records decoded in C) and handed back (to
#: the per-line parser).
PERF_SKIPPED, PERF_SCANNED, PERF_HANDED_BACK = 0, 1, 2

#: Columns of :func:`perf_scan`'s line table: the line's kind, the
#: offset of its end in the block, its event (a row of the event table,
#: -1 for none), its pid (-1 for none) and its record count.
PERF_KIND, PERF_END, PERF_EVENT, PERF_PID, PERF_RECORDS = range(5)
PERF_COLUMNS = 5

#: Distinct event tokens ``perf_scan`` numbers in one block; a scanned
#: line whose token would be one more is handed back.
PERF_EVENTS = 64

# Per-process memo of the build/load outcome; workers each load their
# own handle to the shared content-addressed .so.
_cache: dict[str, object] = {}


def cache_dir() -> Path:
    """Directory holding the built shared objects."""
    override = os.environ.get("REPRO_CEXT_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "cext"


def _find_compiler() -> str | None:
    """Path of the first compiler found on ``PATH``, or ``None``."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        found = shutil.which(candidate) if candidate else None
        if found:
            return found
    return None


def _library_name(compiler: str) -> str:
    """File name of the shared object ``compiler`` builds on this host.

    The key covers what shapes the binary: the source, the compiler's
    resolved file (its path, size and modification time, from one
    ``os.stat`` — the load path runs no subprocess), the flags and
    ``platform.machine()``.  So a cache directory shared across hosts
    never hands one host another's binary.  The Python ABI is left out
    on purpose: the library links no Python symbols (ctypes calls plain
    C functions), so one build serves every interpreter on the host.
    """
    resolved = os.path.realpath(compiler)
    stat = os.stat(resolved)
    key = "\0".join(
        (_SOURCE, resolved, str(stat.st_size), str(stat.st_mtime_ns), *_FLAGS, platform.machine())
    )
    return f"repro_kernels_{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"


def _build(directory: Path) -> Path:
    """Compile the embedded source into ``directory``; returns the .so."""
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    target = directory / _library_name(compiler)
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        source = Path(tmp) / "repro_kernels.c"
        source.write_text(_SOURCE)
        built = Path(tmp) / "repro_kernels.so"
        command = [compiler, *_FLAGS, "-o", str(built), str(source)]
        result = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if result.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed ({result.returncode}): {result.stderr.strip()[:500]}"
            )
        # Atomic publish: concurrent builders race benignly to the same
        # content-addressed name.
        os.replace(built, target)
    return target


def _check_layout(name: str, params: np.ndarray, rows: int) -> None:
    """The sweep layout was checked against the tables when the carrier
    was built; a call only has to pass one of ``rows`` configurations."""
    if params.size != 1 + SWEEP_PARAMS * rows or params[0] != rows:
        raise ConfigurationError(f"{name}: params do not describe {rows} configurations")


def _check_arrays(name: str, arrays: tuple, argtypes: tuple) -> None:
    """Raise :class:`ConfigurationError` unless ``arrays`` can be handed
    to C as ``name``'s parameters: one array per parameter, each of its
    dtype and C-contiguous, the ones C writes writeable, and sized for
    ``len(pcs)`` records.  ``sweep_step`` writes one row of predictions
    per configuration; ``sweep_count`` adds to one row of its miss
    matrix per configuration, at every step's branch id, so each id
    must index inside a row and no array C writes may overlap the ids."""
    if len(arrays) != len(argtypes):
        raise ConfigurationError(f"{name} takes {len(argtypes)} arrays, got {len(arrays)}")
    read_only = _READ_ONLY[name]
    for position, (array, pointer) in enumerate(zip(arrays, argtypes)):
        dtype = _DTYPES[pointer]
        if (
            not isinstance(array, np.ndarray)
            or array.dtype != dtype
            or not array.flags.c_contiguous
            or (position not in read_only and not array.flags.writeable)
        ):
            raise ConfigurationError(
                f"{name}: array {position} must be a C-contiguous"
                f"{'' if position in read_only else ', writeable'} {dtype} array"
            )
    pcs, outcomes = arrays[:2]
    if pcs.ndim != 1 or outcomes.size != pcs.size:
        raise ConfigurationError(
            f"{name}: {pcs.size} pcs need as many outcomes, got {outcomes.size}"
        )
    if name == "sweep_count":
        ids, misses, regs, params = arrays[2:6]
        _check_layout(name, params, len(regs))
        if misses.ndim != 2 or len(misses) != len(regs):
            raise ConfigurationError(
                f"{name}: the miss matrix needs one row per configuration "
                f"({len(regs)}), got shape {misses.shape}"
            )
        width = misses.shape[1]
        if ids.ndim != 1 or ids.size != len(pcs):
            raise ConfigurationError(f"{name}: {len(pcs)} pcs need as many ids, got {ids.size}")
        if len(ids) and not (ids.min() >= 0 and ids.max() < width):
            raise ConfigurationError(f"{name}: every id must lie in [0, {width})")
        # An id is the one index C does not mask, so no write may change
        # one after it was checked.
        if any(np.may_share_memory(ids, written) for written in (misses, regs, *arrays[6:])):
            raise ConfigurationError(f"{name}: the ids overlap an array C writes")
        return
    predictions, regs, params = arrays[2:5]
    rows = 1
    if name == "sweep_step":
        rows = len(regs)
        _check_layout(name, params, rows)
    if predictions.size != rows * len(pcs):
        raise ConfigurationError(
            f"{name}: {len(pcs)} pcs need {rows} row(s) of predictions, "
            f"got {predictions.size} predictions"
        )


def check_sweep_tables(
    params: np.ndarray, regs: np.ndarray, pht: np.ndarray, bht: np.ndarray
) -> None:
    """Raise :class:`ConfigurationError` unless every configuration of
    a :func:`sweep_step` layout indexes inside its tables.  The carrier
    checks this once, when it is built; per-call checks then only need
    the array shapes."""
    configs = int(params[0]) if len(params) else -1
    if configs < 0 or len(params) != 1 + SWEEP_PARAMS * configs or len(regs) != configs:
        raise ConfigurationError("sweep_step: params and regs disagree on the configurations")
    for row in params[1:].reshape(configs, SWEEP_PARAMS).tolist():
        per_address, history, pht_bits, xor_index, pht_at, bht_at, bht_mask, counter = row
        if not (
            per_address in (0, 1)
            and xor_index in (0, 1)
            and 0 <= history <= MAX_HISTORY_BITS
            and 1 <= pht_bits <= 62
            and (xor_index or history <= pht_bits)
            and 1 <= counter <= 8
            and 0 <= pht_at <= len(pht) - (1 << pht_bits)
            and (not per_address or (0 <= bht_mask and 0 <= bht_at <= len(bht) - bht_mask - 1))
        ):
            raise ConfigurationError(f"sweep_step: configuration {row} is out of bounds")


def _wrap(name, func, argtypes):
    """A Python-signature adapter: (arrays...) -> checked C call with length."""
    counting = name == "sweep_count"
    func.restype = None
    func.argtypes = (ctypes.c_int64,) * (2 if counting else 1) + argtypes

    def call(*arrays):
        _check_arrays(name, arrays, argtypes)
        scalars = (len(arrays[0]), arrays[3].shape[1]) if counting else (len(arrays[0]),)
        func(*scalars, *(a.ctypes.data_as(t) for a, t in zip(arrays, argtypes)))

    return call


def _check_scan_arrays(buf, lines, pcs, taken, events, totals) -> None:
    """Raise :class:`ConfigurationError` unless the arrays can be handed
    to ``perf_scan``: each of its dtype, shape and C-contiguous, every
    one C writes writeable, and no two overlapping (C reads the event
    offsets it wrote back, so no other write may change one)."""
    shapes = (
        ("buf", buf, np.uint8, 1, None),
        ("lines", lines, np.int64, 2, PERF_COLUMNS),
        ("pcs", pcs, np.int64, 1, None),
        ("taken", taken, np.uint8, 1, None),
        ("events", events, np.int64, 2, 2),
        ("totals", totals, np.int64, 1, None),
    )
    for name, array, dtype, ndim, columns in shapes:
        if (
            not isinstance(array, np.ndarray)
            or array.dtype != dtype
            or array.ndim != ndim
            or (columns is not None and array.shape[1] != columns)
            or not array.flags.c_contiguous
            or (name != "buf" and not array.flags.writeable)
        ):
            shape = f"{ndim}-d" if columns is None else f"(n, {columns})"
            raise ConfigurationError(
                f"perf_scan: {name} must be a C-contiguous{'' if name == 'buf' else ', writeable'}"
                f" {shape} {np.dtype(dtype)} array"
            )
    if len(taken) != len(pcs) or len(totals) != 3:
        raise ConfigurationError("perf_scan: taken must match pcs, and totals hold 3 counts")
    arrays = (buf, lines, pcs, taken, events, totals)
    for i, written in enumerate(arrays[1:], 1):
        if any(np.may_share_memory(written, other) for other in arrays[:i]):
            raise ConfigurationError("perf_scan: the arrays must not overlap")


def _wrap_perf_scan(func):
    """The checked ``perf_scan`` call: ``(buf, cond_only, lines, pcs,
    taken, events, totals)``; C writes no array past its length."""
    size = ctypes.c_int64
    func.restype = None
    func.argtypes = (_U8, size, size, _I64, size, _I64, _U8, size, _I64, size, _I64)

    def call(buf, cond_only, lines, pcs, taken, events, totals):
        _check_scan_arrays(buf, lines, pcs, taken, events, totals)
        func(
            buf.ctypes.data_as(_U8),
            len(buf),
            int(bool(cond_only)),
            lines.ctypes.data_as(_I64),
            len(lines),
            pcs.ctypes.data_as(_I64),
            taken.ctypes.data_as(_U8),
            len(pcs),
            events.ctypes.data_as(_I64),
            len(events),
            totals.ctypes.data_as(_I64),
        )

    return call


def perf_scan(block: bytes, cond_only: bool):
    """Scan one block of ``perf script`` lines (split at ``\\n``) in C.

    Returns ``(lines, pcs, taken, events)``: one :data:`PERF_COLUMNS`
    row per line, the records of the scanned lines in line order, and
    the ``(offset, length)`` of each distinct event token.  Every output
    is sized from the block: a block holds ``count(b"\\n") + 1`` lines,
    and at most ``count(b"/") // 2`` records, since every entry holds at
    least two slashes.  Raises :class:`RuntimeError` when the backend is
    unavailable (:func:`load`).
    """
    if not isinstance(block, bytes):
        raise ConfigurationError(f"perf_scan: expected bytes, got {type(block).__name__}")
    lines = np.empty((block.count(b"\n") + 1, PERF_COLUMNS), dtype=np.int64)
    pcs = np.empty(block.count(b"/") // 2, dtype=np.int64)
    taken = np.empty(len(pcs), dtype=np.uint8)
    events = np.empty((PERF_EVENTS, 2), dtype=np.int64)
    totals = np.zeros(3, dtype=np.int64)
    buf = np.frombuffer(block, dtype=np.uint8)
    load()["perf_scan"](buf, cond_only, lines, pcs, taken, events, totals)
    _, records, distinct = totals.tolist()
    return lines, pcs[:records], taken[:records], events[:distinct]


def _smoke(table: dict[str, object]) -> None:
    """Raise unless the loaded ``sweep_step`` gets a known answer: a
    gshare (2 history bits xor 3 PHT bits, 2-bit counters) over four
    records, as the reference predictor steps it."""
    predictions = np.empty(4, dtype=np.uint8)
    regs = np.zeros(1, dtype=np.int64)
    table["sweep_step"](
        np.array([5, 6, 5, 7], dtype=np.int64),
        np.array([0, 0, 0, 1], dtype=np.uint8),
        predictions,
        regs,
        # One configuration, its SWEEP_PARAMS columns; no BHT rows.
        np.array([1, 0, 2, 3, 1, 0, 0, -1, 2], dtype=np.int64),
        np.zeros(8, dtype=np.uint8),
        np.zeros(0, dtype=np.int64),
    )
    if predictions.tolist() != [1, 1, 0, 1] or regs.tolist() != [1]:
        raise RuntimeError(
            f"smoke call of sweep_step gave predictions {predictions.tolist()} and "
            f"register {regs.tolist()}, not [1, 1, 0, 1] and [1]"
        )


def load() -> dict[str, object]:
    """The kernel table ``{name: callable}``; raises on first failure
    and caches the outcome either way.  A library that loads but fails
    its smoke call (:func:`_smoke`) is a failure too."""
    if "table" in _cache:
        return _cache["table"]
    if "error" in _cache:
        raise RuntimeError(_cache["error"])
    try:
        library = ctypes.CDLL(str(_build(cache_dir())))
        table = {
            name: _wrap(name, getattr(library, name), argtypes)
            for name, argtypes in _SIGNATURES.items()
        }
        table["perf_scan"] = _wrap_perf_scan(library.perf_scan)
        _smoke(table)
    except Exception as exc:  # noqa: BLE001 - availability probe must not raise types
        _cache["error"] = f"cext backend unavailable: {exc}"
        raise RuntimeError(_cache["error"]) from exc
    _cache["table"] = table
    return table


def available() -> tuple[bool, str]:
    """(usable, reason) — builds and loads on first call."""
    try:
        load()
    except RuntimeError as exc:
        return False, str(exc)
    return True, "compiled with the host C compiler"
