"""Execution-backend selection for the reference-path predictor families.

Four families (YAGS, bi-mode, filter-over-two-level, DHLF) carry state
that defeats the segmented-scan engines, so they advance one record at
a time.  This module picks *how* that per-record loop runs:

``python``
    The :mod:`repro.engine.compiled.kernels` loops interpreted by
    CPython.  Always available; bit-identical to the stateful
    reference predictors.
``cext``
    A C transliteration built on demand with the host C compiler and
    loaded through ctypes (:mod:`repro.engine.compiled.cext`).
    Available when a working compiler is found.
``auto``
    The fastest available: ``cext``, else ``python``.

Selection order: explicit argument (``--backend`` on the CLI,
``backend=`` in the API) beats the ``REPRO_ENGINE_BACKEND`` environment
variable, which beats ``auto``.  Requesting an unavailable backend by
name is a :class:`~repro.errors.ConfigurationError` (only ``auto``
falls back silently); every backend emits byte-identical predictions,
pinned by ``tests/test_engine_backend.py``.
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
from .compiled import cext, kernels

__all__ = [
    "BACKENDS",
    "backend_availability",
    "compiled_stream",
    "resolve_backend",
    "supports_compiled",
]

#: Recognised values of ``REPRO_ENGINE_BACKEND`` / ``--backend``.
BACKENDS = ("auto", "python", "cext")

_KERNEL_NAMES = ("yags_step", "bimode_step", "filter_step", "dhlf_step")


def backend_availability() -> dict[str, tuple[bool, str]]:
    """``{backend: (usable, reason)}`` for every concrete backend.

    Probing ``cext`` triggers (at most once per process) an on-demand
    compile of the C kernels.
    """
    return {
        "python": (True, "interpreted kernels (always available)"),
        "cext": cext.available(),
    }


def resolve_backend(backend: str | None = None) -> str:
    """The concrete backend to use: ``python`` or ``cext``.

    ``None`` defers to ``REPRO_ENGINE_BACKEND`` (default ``auto``).
    ``auto`` prefers the C extension, then the interpreted kernels;
    naming an unavailable backend raises.
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


def _kernel_table(resolved: str) -> dict[str, object]:
    if resolved == "python":
        return {name: getattr(kernels, name) for name in _KERNEL_NAMES}
    return cext.load()


def supports_compiled(predictor) -> bool:
    """True if ``predictor`` has a compiled per-record kernel.

    Filter predictors qualify only over two-level/bimodal backings
    (other backings keep the object-based reference stream).
    """
    if isinstance(predictor, (YagsPredictor, BiModePredictor, DhlfPredictor)):
        return True
    if isinstance(predictor, FilterPredictor):
        return isinstance(predictor.backing, (TwoLevelPredictor, BimodalPredictor))
    return False


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
    regs = np.zeros(kernels.DHLF_REGS, dtype=np.int64)
    regs[kernels.DHLF_NEXT_EXPLORE] = 1
    return _KernelStream(kernel, regs, params, state)


def compiled_stream(predictor, backend: str | None = None):
    """A kernel-backed chunk stream for ``predictor``, or None when the
    family has no compiled kernel (caller falls back to the reference
    stream).  The stream always starts from reset state, like every
    carrier in :mod:`repro.engine.streaming`.
    """
    if not supports_compiled(predictor):
        return None
    table = _kernel_table(resolve_backend(backend))
    if isinstance(predictor, YagsPredictor):
        return _yags_stream(predictor, table["yags_step"])
    if isinstance(predictor, BiModePredictor):
        return _bimode_stream(predictor, table["bimode_step"])
    if isinstance(predictor, FilterPredictor):
        return _filter_stream(predictor, table["filter_step"])
    assert isinstance(predictor, DhlfPredictor)
    return _dhlf_stream(predictor, table["dhlf_step"])
