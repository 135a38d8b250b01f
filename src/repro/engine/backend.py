"""Execution-backend selection for the compiled kernels.

Three kinds of loop have a compiled form.  The four per-record
families (YAGS, bi-mode, filter-over-two-level, DHLF) carry state that
defeats the segmented-scan carriers, so they advance one record at a
time.  The two-level carrier (:class:`~repro.engine.batched.BatchedStream`,
which runs the paper's history sweep) advances every configuration over
a chunk.  Perf ingest tokenizes ``perf script`` text a block of lines at
a time.  This module picks *how* those loops run:

``python``
    No compiled code: the two-level carrier runs its numpy scans, the
    per-record families step the stateful predictors themselves (the
    oracle's stream,
    :class:`~repro.engine.streaming._ReferenceStream`), and perf ingest
    parses every line in Python.  Always available.
``cext``
    C built on demand with the host C compiler and loaded through
    ctypes (:mod:`repro.engine.compiled.cext`): a transliteration of
    each per-record family's predictor, the ``sweep_step`` kernel of
    the two-level carrier, and the ``perf_scan`` tokenizer of perf
    ingest (:mod:`repro.ingest.perf`).  Available when a working
    compiler is found.
``auto``
    The fastest available: ``cext``, else ``python``.

The backend is one process-level setting: the
``REPRO_ENGINE_BACKEND`` environment variable, else ``auto``.  No
entry point takes it as an argument, because every backend emits
byte-identical predictions and it only decides speed.  A carrier
resolves it once, when it is built (:func:`resolve_backend`), and so
does each pass of perf ingest.  Requesting an unavailable backend by
name is a :class:`~repro.errors.ConfigurationError` (only ``auto``
falls back silently); the bit-identity is pinned by
``tests/test_engine_backend.py`` and ``tests/test_engine_batched.py``.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import ConfigurationError
from ..predictors.bimodal import BimodalPredictor
from ..predictors.bimode import BiModePredictor
from ..predictors.dhlf import DhlfPredictor
from ..predictors.filter import FilterPredictor
from ..predictors.twolevel import TwoLevelPredictor
from ..predictors.yags import YagsPredictor
from .compiled import cext

__all__ = [
    "BACKENDS",
    "backend_availability",
    "compiled_stream",
    "resolve_backend",
]

#: Recognised values of ``REPRO_ENGINE_BACKEND``.
BACKENDS = ("auto", "python", "cext")


def backend_availability() -> dict[str, tuple[bool, str]]:
    """``{backend: (usable, reason)}`` for every concrete backend.

    Probing ``cext`` triggers (at most once per process) an on-demand
    compile of the C kernels.
    """
    return {
        "python": (
            True,
            "numpy scans for the two-level family; the stateful predictors for "
            "YAGS, bi-mode, filter and DHLF; the per-line perf script parser "
            "(always available)",
        ),
        "cext": cext.available(),
    }


def resolve_backend(backend: str | None = None) -> str:
    """The concrete backend to use: ``python`` or ``cext``.

    ``None`` defers to ``REPRO_ENGINE_BACKEND`` (default ``auto``).
    ``auto`` prefers the C extension, then ``python``; naming an
    unavailable backend raises.
    """
    if backend is None:
        backend = os.environ.get("REPRO_ENGINE_BACKEND", "auto") or "auto"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        return "cext" if cext.available()[0] else "python"
    if backend == "cext":
        usable, reason = cext.available()
        if not usable:
            raise ConfigurationError(f"backend {backend!r} is unavailable: {reason}")
    return backend


# -- per-family kernel streams -------------------------------------------------
#
# Each stream is a carrier: it owns the flat state arrays of one
# freshly-reset predictor and exposes the same
# ``feed(pcs, outcomes) -> predictions`` protocol as the carriers in
# repro.engine.streaming, so stream_simulator can route to them.


class _KernelStream:
    """Carried kernel state plus the chunk-at-a-time driver."""

    __slots__ = ("kernel", "regs", "params", "state")

    def __init__(self, kernel, regs, params, state) -> None:
        self.kernel = kernel
        self.regs = np.asarray(regs, dtype=np.int64)
        self.params = np.asarray(params, dtype=np.int64)
        self.state = state

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        predictions = np.empty(n, dtype=np.uint8)
        if n:
            pcs = np.ascontiguousarray(pcs, dtype=np.int64)
            outcomes = np.ascontiguousarray(outcomes, dtype=np.uint8)
            self.kernel(pcs, outcomes, predictions, self.regs, self.params, *self.state)
        return predictions


def _yags_stream(predictor: YagsPredictor, kernel) -> _KernelStream:
    cache_entries = predictor._cache_mask + 1
    choice = np.full(
        predictor.choice.entries, predictor.choice.initial, dtype=np.uint8
    )
    state = [choice]
    for _ in ("t", "nt"):
        state.append(np.zeros(cache_entries, dtype=np.int64))  # tags
        state.append(np.zeros(cache_entries, dtype=np.uint8))  # valid
        state.append(np.full(cache_entries, 2, dtype=np.uint8))  # counters
    params = [
        (1 << predictor.history.bits) - 1,
        predictor._cache_mask,
        predictor._choice_mask,
        predictor.t_cache._tag_mask,
    ]
    return _KernelStream(kernel, [0], params, tuple(state))


def _bimode_stream(predictor: BiModePredictor, kernel) -> _KernelStream:
    banks = [
        np.full(table.entries, table.initial, dtype=np.uint8)
        for table in (predictor.taken_bank, predictor.not_taken_bank, predictor.choice)
    ]
    params = [
        (1 << predictor.history.bits) - 1,
        predictor._dir_mask,
        predictor._choice_mask,
    ]
    return _KernelStream(kernel, [0], params, tuple(banks))


def _filter_stream(predictor: FilterPredictor, kernel) -> _KernelStream:
    backing = predictor.backing
    if isinstance(backing, BimodalPredictor):
        table = backing.table
        history_kind, index_scheme, history_bits = 0, 0, 0
        pc_fill_bits, bht_entries = table.index_bits, 1
    else:
        table = backing.pht
        history_kind = 0 if backing.history_kind == "global" else 1
        index_scheme = 0 if backing.index_scheme == "concat" else 1
        history_bits = backing.history_bits
        pc_fill_bits = backing.pht_index_bits - history_bits
        bht_entries = backing.bht.entries if backing.bht is not None else 1
    entries = predictor._mask + 1
    state = (
        np.zeros(entries, dtype=np.uint8),  # bias
        np.zeros(entries, dtype=np.uint16),  # run counters
        np.full(table.entries, table.initial, dtype=np.uint8),  # backing PHT
        np.zeros(bht_entries, dtype=np.int64),  # backing BHT rows
    )
    params = [
        predictor._mask,
        predictor.threshold,
        predictor._max_count,
        history_kind,
        index_scheme,
        history_bits,
        table.entries - 1,
        pc_fill_bits,
        bht_entries - 1,
        1 << (table.bits - 1),
        (1 << table.bits) - 1,
        (1 << history_bits) - 1,
    ]
    return _KernelStream(kernel, [0], params, state)


def _dhlf_stream(predictor: DhlfPredictor, kernel) -> _KernelStream:
    state = (
        np.full(predictor.pht.entries, predictor.pht.initial, dtype=np.uint8),
        np.zeros(predictor.max_history + 1, dtype=np.int64),  # explore misses
    )
    params = [
        predictor._mask,
        (1 << predictor.max_history) - 1,
        predictor.interval,
        predictor.max_history,
        predictor.EXPLOIT_INTERVALS,
    ]
    # A fresh DhlfPredictor immediately pops exploration length 0, so
    # the kernel starts at [ghr=0, length=0, misses=0, count=0,
    # exploit_remaining=0, next_explore=1].
    regs = np.zeros(cext.DHLF_REGS, dtype=np.int64)
    regs[cext.DHLF_NEXT_EXPLORE] = 1
    return _KernelStream(kernel, regs, params, state)


def compiled_stream(predictor):
    """A C-kernel chunk stream for ``predictor``, or None when the
    family has no C kernel or the backend resolves to ``python`` (the
    caller then steps the stateful predictor itself).  YAGS, bi-mode
    and DHLF have a kernel, and so does a filter over a two-level or
    bimodal backing.  The family is checked first, so a family without
    a kernel never triggers a C build.  The stream always starts from
    reset state, like every carrier in :mod:`repro.engine.streaming`.
    """
    if isinstance(predictor, YagsPredictor):
        build, name = _yags_stream, "yags_step"
    elif isinstance(predictor, BiModePredictor):
        build, name = _bimode_stream, "bimode_step"
    elif isinstance(predictor, DhlfPredictor):
        build, name = _dhlf_stream, "dhlf_step"
    elif isinstance(predictor, FilterPredictor) and isinstance(
        predictor.backing, (TwoLevelPredictor, BimodalPredictor)
    ):
        build, name = _filter_stream, "filter_step"
    else:
        return None
    if resolve_backend() != "cext":
        return None
    return build(predictor, cext.load()[name])
