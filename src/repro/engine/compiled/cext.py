"""C mirror of :mod:`.kernels`, built on demand with the host compiler.

No third-party dependency and no build at install time: the first use
compiles the embedded C source with the system compiler (``$CC``,
``cc``, ``gcc`` or ``clang``) into a content-addressed shared object
under ``REPRO_CEXT_CACHE`` (default ``~/.cache/repro/cext``) and loads
it through :mod:`ctypes`.  Rebuilds happen only when the source
changes (the file name embeds the source hash).  Any failure —
no compiler, sandboxed tmpdir, unloadable object — marks the backend
unavailable and the caller falls back; nothing raises at import time.

The per-record C functions are line-for-line transliterations of the
Python kernels; both are pinned bit-identical to the reference
predictors by ``tests/test_engine_backend.py``.  ``sweep_step`` has no
Python twin: it advances every configuration of the two-level carrier
over one chunk, and the carrier's numpy path is what it is tested
against (``tests/test_engine_batched.py``).

Every call is checked before it reaches C: each array must have its
parameter's dtype and be C-contiguous (and writeable where C writes),
and ``outcomes`` and ``predictions`` must fit ``len(pcs)``.  A bad
array raises :class:`~repro.errors.ConfigurationError`.  The sweep's
table layout is checked once, when its carrier is built
(:func:`check_sweep_tables`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ...errors import ConfigurationError
from ...spec import MAX_HISTORY_BITS

_SOURCE = r"""
#include <stdint.h>

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

/* One two-level configuration over the chunk.  The history kind and
   index scheme are constants at every call site, so each of the four
   inlined copies loses its branches.  The table holds each counter
   XOR its reset value, so a fresh table is all zeros. */
static inline __attribute__((always_inline)) void sweep_config(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes, uint8_t *out,
    int64_t *ghr, uint8_t *table, int64_t *rows, const int64_t *p,
    const int per_address, const int xor_index)
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
        out[i] = v >= threshold;
        /* Branchless: the outcome is exactly what the host's own
           branch predictor would have to guess. */
        table[index] = (uint8_t)(v + (taken & (v < max)) - ((taken ^ 1) & (v > 0))) ^ reset;
        const int64_t next = ((h << 1) | taken) & hist_mask;
        if (per_address) rows[pc & bht_mask] = next;
        else g = next;
    }
    *ghr = g;
}

EXPORT void sweep_step(
    int64_t n, const int64_t *pcs, const uint8_t *outcomes,
    uint8_t *predictions, int64_t *regs, const int64_t *params,
    uint8_t *pht, int64_t *bht)
{
    const int64_t configs = params[0];
    for (int64_t c = 0; c < configs; c++) {
        const int64_t *p = params + 1 + c * 8;  /* SWEEP_PARAMS columns */
        uint8_t *out = predictions + c * n;
        uint8_t *table = pht + p[4];
        int64_t *rows = bht + p[5];
        if (p[0]) {
            if (p[3]) sweep_config(n, pcs, outcomes, out, regs + c, table, rows, p, 1, 1);
            else      sweep_config(n, pcs, outcomes, out, regs + c, table, rows, p, 1, 0);
        } else {
            if (p[3]) sweep_config(n, pcs, outcomes, out, regs + c, table, rows, p, 0, 1);
            else      sweep_config(n, pcs, outcomes, out, regs + c, table, rows, p, 0, 0);
        }
    }
}
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_U16 = ctypes.POINTER(ctypes.c_uint16)

#: argtypes after the leading ``n`` for each exported function.
_SIGNATURES = {
    "yags_step": (_I64, _U8, _U8, _I64, _I64, _U8, _I64, _U8, _U8, _I64, _U8, _U8),
    "bimode_step": (_I64, _U8, _U8, _I64, _I64, _U8, _U8, _U8),
    "filter_step": (_I64, _U8, _U8, _I64, _I64, _U8, _U16, _U8, _I64),
    "dhlf_step": (_I64, _U8, _U8, _I64, _I64, _U8, _I64),
    "sweep_step": (_I64, _U8, _U8, _I64, _I64, _U8, _I64),
}

_DTYPES = {_I64: np.dtype(np.int64), _U8: np.dtype(np.uint8), _U16: np.dtype(np.uint16)}

#: Positions of the arrays C only reads: ``pcs``, ``outcomes``, ``params``.
_READ_ONLY = (0, 1, 4)

#: ``params`` columns of one :func:`sweep_step` configuration, after the
#: leading configuration count: per-address history (0/1), history bits,
#: PHT index bits, xor indexing (0/1), PHT offset, BHT offset, BHT mask,
#: counter bits.
SWEEP_PARAMS = 8

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
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _build(directory: Path) -> Path:
    """Compile the embedded source into ``directory``; returns the .so."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    target = directory / f"repro_kernels_{digest}.so"
    if target.exists():
        return target
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        source = Path(tmp) / "repro_kernels.c"
        source.write_text(_SOURCE)
        built = Path(tmp) / "repro_kernels.so"
        command = [
            compiler, "-O2", "-shared", "-fPIC", "-fvisibility=hidden",
            "-o", str(built), str(source),
        ]
        result = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if result.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed ({result.returncode}): {result.stderr.strip()[:500]}"
            )
        # Atomic publish: concurrent builders race benignly to the same
        # content-addressed name.
        os.replace(built, target)
    return target


def _check_arrays(name: str, arrays: tuple, argtypes: tuple) -> None:
    """Raise :class:`ConfigurationError` unless ``arrays`` can be handed
    to C as ``name``'s parameters: one array per parameter, each of its
    dtype and C-contiguous, the ones C writes writeable, and
    ``outcomes`` and ``predictions`` sized for ``len(pcs)`` records
    (``sweep_step`` writes one row of predictions per configuration)."""
    if len(arrays) != len(argtypes):
        raise ConfigurationError(f"{name} takes {len(argtypes)} arrays, got {len(arrays)}")
    for position, (array, pointer) in enumerate(zip(arrays, argtypes)):
        dtype = _DTYPES[pointer]
        if (
            not isinstance(array, np.ndarray)
            or array.dtype != dtype
            or not array.flags.c_contiguous
            or (position not in _READ_ONLY and not array.flags.writeable)
        ):
            raise ConfigurationError(
                f"{name}: array {position} must be a C-contiguous"
                f"{'' if position in _READ_ONLY else ', writeable'} {dtype} array"
            )
    pcs, outcomes, predictions, regs, params = arrays[:5]
    rows = 1
    if name == "sweep_step":
        # The layout itself was checked against the tables when the
        # carrier was built; here it only has to be the same shape.
        rows = len(regs)
        if params.size != 1 + SWEEP_PARAMS * rows or params[0] != rows:
            raise ConfigurationError(f"{name}: params do not describe {rows} configurations")
    if pcs.ndim != 1 or outcomes.size != len(pcs) or predictions.size != rows * len(pcs):
        raise ConfigurationError(
            f"{name}: {len(pcs)} pcs need as many outcomes and {rows} row(s) of "
            f"predictions, got {outcomes.size} and {predictions.size}"
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
    func.restype = None
    func.argtypes = (ctypes.c_int64,) + argtypes

    def call(pcs, outcomes, predictions, regs, params, *state):
        arrays = (pcs, outcomes, predictions, regs, params) + state
        _check_arrays(name, arrays, argtypes)
        func(len(pcs), *(a.ctypes.data_as(t) for a, t in zip(arrays, argtypes)))

    return call


def load() -> dict[str, object]:
    """The kernel table ``{name: callable}``; raises on first failure
    and caches the outcome either way."""
    if "table" in _cache:
        return _cache["table"]
    if "error" in _cache:
        raise RuntimeError(_cache["error"])
    try:
        library = ctypes.CDLL(str(_build(cache_dir())))
        _cache["table"] = {
            name: _wrap(name, getattr(library, name), argtypes)
            for name, argtypes in _SIGNATURES.items()
        }
    except Exception as exc:  # noqa: BLE001 - availability probe must not raise types
        _cache["error"] = f"cext backend unavailable: {exc}"
        raise RuntimeError(_cache["error"]) from exc
    return _cache["table"]


def available() -> tuple[bool, str]:
    """(usable, reason) — builds and loads on first call."""
    try:
        load()
    except RuntimeError as exc:
        return False, str(exc)
    return True, "compiled with the host C compiler"
