"""The two-level family's carrier: many configurations, chunk by chunk.

The paper's history sweep simulates 2 predictor kinds × 17 history
lengths over every benchmark trace.  :class:`BatchedStream` simulates
any set of two-level configurations (PAs/GAs/gshare/gselect/pshare and
the bimodal degenerate case) over one branch stream in a single pass,
fed one chunk at a time.  A *carrier* keeps all predictor state between
chunks, so a whole trace fed as one chunk and the same trace fed in
pieces give bit-identical predictions.  Three structural facts make a
chunk cheap:

1. **Histories are sliding windows, computed once per geometry.**  The
   k-bit history before a step is a pure function of the preceding
   outcomes (k shifted ORs, no loop), and it is the low k bits of the
   K-bit one (K ≥ k).  One window at the longest requested length
   serves every shorter length: global histories need one window,
   per-address histories one per BHT geometry.  The carried register
   bits enter each step's window at its genuine depth.
2. **Counters evolve independently per PHT entry.**  Grouping steps by
   PHT index (stable sort) makes each entry a tiny saturating-counter
   automaton over its own input sequence, solved by a segmented scan
   (:mod:`repro.engine.scan`) that resumes each entry from its carried
   value.
3. **Scans stack.**  Every unique configuration's PHT sits in one flat
   table, so several configurations' (PHT index, outcome) streams share
   one stable sort and one segmented scan; stacks are chunked
   (``max_chunk_elements``) to bound peak memory.

A single two-level predictor is a one-configuration batch.  The
in-memory entry points (:func:`simulate_batched`,
:func:`predictions_batched`, :func:`simulate_sweep`) feed the whole
trace as one chunk; the streamed ones (:func:`simulate_batched_stream`,
:func:`simulate_sweep_stream`) feed an iterator of chunks.  Every result
is bit-exact with the reference engine (``tests/test_engine_batched.py``).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import ConfigurationError
from ..predictors.bimodal import BimodalPredictor
from ..predictors.paper_configs import HISTORY_LENGTHS, paper_predictor
from ..predictors.twolevel import TwoLevelPredictor
from ..trace.stream import Trace
from .results import SimulationResult, _attribute_chunks
from .scan import segmented_saturating_scan, stable_key_order

__all__ = [
    "BatchedStream",
    "BatchedSweepResult",
    "check_batched",
    "predictions_batched",
    "simulate_batched",
    "simulate_batched_stream",
    "simulate_sweep",
    "simulate_sweep_stream",
    "supports_batched",
]

#: Default bound on elements per stacked scan.  Small chunks win twice:
#: the sort/scan working set stays cache-resident, and short traces
#: still stack many configurations per chunk so the doubling passes
#: amortize across the sweep (measured optimum ~128k elements; larger
#: chunks only add memory traffic).
DEFAULT_MAX_CHUNK_ELEMENTS = 1 << 17


def supports_batched(predictor) -> bool:
    """True if ``predictor`` can join a batched multi-config pass."""
    return isinstance(predictor, (TwoLevelPredictor, BimodalPredictor))


def check_batched(predictor) -> None:
    """Raise unless ``predictor`` can join a batched pass: the one check
    behind every ``engine="batched"`` request."""
    if not supports_batched(predictor):
        raise ConfigurationError(
            f"{type(predictor).__name__} cannot use the batched engine "
            "(two-level family only)"
        )


# -- history windows and carried registers -------------------------------------


def _global_window(outcomes: np.ndarray, bits: int) -> np.ndarray:
    """k-bit global history before each step (int64, LSB = most recent)."""
    hist = np.zeros(len(outcomes), dtype=np.int64)
    if bits:
        # The 1-bit window is the previous outcome.  A w-bit window
        # widens to w + s bits by appending the low s bits of the window
        # w steps earlier, so k bits take ~log2(k) passes.
        hist[1:] = outcomes[:-1]
        width = 1
        while width < bits:
            step = min(width, bits - width)
            hist[width:] |= (hist[:-width] & ((1 << step) - 1)) << width
            width += step
    return hist


def _slot_groups(slots: np.ndarray, slot_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(stable order, new-group flags, group-start positions per element).

    Sorting by slot keeps time order within each slot's subsequence;
    ``group_start_pos[i]`` is the sorted position of the first element
    sharing sorted element *i*'s slot.
    """
    order = stable_key_order(slots, slot_bits)
    new_group = _segment_starts(slots[order])
    group_start_pos = np.flatnonzero(new_group)[np.cumsum(new_group) - 1]
    return order, new_group, group_start_pos


def _segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a run of equal sorted keys begins."""
    starts = np.empty(len(sorted_keys), dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def _segment_ends(starts: np.ndarray) -> np.ndarray:
    """Positions of each segment's last element, from its start flags."""
    return np.append(np.flatnonzero(starts[1:]), len(starts) - 1)


class _Carried:
    """A table carried between chunks, built only when a later chunk
    reads it.

    Until then its writes are kept as they come.  A carrier fed once —
    every in-memory simulation — never reads its tables back, so it
    holds a few bytes per touched entry instead of a table sized for
    every entry.
    """

    __slots__ = ("_build", "_table", "_writes")

    def __init__(self, build) -> None:
        self._build = build  # returns the table at its reset value
        self._table = None
        self._writes: list[tuple[np.ndarray, np.ndarray]] = []

    @property
    def fed(self) -> bool:
        """True once any entry has been written."""
        return self._table is not None or bool(self._writes)

    def __getitem__(self, keys: np.ndarray) -> np.ndarray:
        if self._table is None:
            self._table = self._build()
            for written, values in self._writes:
                self._table[written] = values
            self._writes = []
        return self._table[keys]

    def __setitem__(self, keys: np.ndarray, values: np.ndarray) -> None:
        if self._table is None:
            self._writes.append((keys, values))
        else:
            self._table[keys] = values


def _counter_scan(
    table: _Carried,
    keys: np.ndarray,
    key_bits: int,
    taken: np.ndarray,
    *,
    base: int,
    reset: int,
    max_state: int,
    fed: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Saturating counters ``table[base + keys]`` stepped by ``taken``,
    one step per element in time order; advances them past the chunk.

    Returns ``(order, state_before)``: the stable key order and each
    step's counter value before it, in that order.  Each entry resumes
    from its carried value.  A table not ``fed`` before this chunk holds
    ``reset`` everywhere, so its first scan starts every segment from
    that scalar and skips the per-element gather.
    """
    order = stable_key_order(keys, key_bits)
    sorted_keys = keys[order]
    starts = _segment_starts(sorted_keys)
    sorted_taken = taken[order]
    initial = table[sorted_keys + base] if fed else reset
    state_before = segmented_saturating_scan(sorted_taken, starts, initial, max_state)
    # Advance every touched counter past its final step in the chunk.
    ends = _segment_ends(starts)
    stepped = state_before[ends].astype(np.int64) + np.where(sorted_taken[ends], 1, -1)
    table[sorted_keys[ends] + base] = np.clip(stepped, 0, max_state).astype(np.uint8)
    return order, state_before


class _GlobalHistory:
    """A k-bit global history register carried across chunks."""

    __slots__ = ("bits", "mask", "value")

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.value = 0

    def windows(self, outcomes: np.ndarray) -> np.ndarray:
        """History before each step (carried bits included), advancing
        the register past the chunk."""
        n = len(outcomes)
        hist = _global_window(outcomes, self.bits)
        k = min(self.bits, n)
        if k and self.value:
            # Step i has i in-chunk predecessors; its bits i.. come from
            # the carried register's low bits, shifted into place.
            shifts = np.arange(k)
            hist[:k] |= (self.value & (self.mask >> shifts)) << shifts
        if n:
            self.value = ((int(hist[n - 1]) << 1) | int(outcomes[n - 1])) & self.mask
        return hist


class _SlotHistory:
    """Per-address (BHT) history rows carried across chunks.

    Branches that collide in the BHT genuinely share a history register,
    so windows are computed over each *slot's* subsequence, not each
    PC's.
    """

    __slots__ = ("entries", "bits", "mask", "rows")

    def __init__(self, entries: int, bits: int) -> None:
        self.entries = entries
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.rows = _Carried(lambda: np.zeros(entries, dtype=np.int64))

    def windows(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        """Per-step history windows (carried rows included), advancing
        every touched BHT row past the chunk."""
        n = len(pcs)
        slots = pcs & (self.entries - 1)
        order, new_group, group_start_pos = _slot_groups(slots, self.entries.bit_length() - 1)
        sorted_slots = slots[order]
        sorted_out = outcomes[order]
        # Window the groups as if they were one global stream, then mask
        # off every bit that reaches across a group boundary: element i
        # has `depth` in-chunk predecessors in its own group.
        depth = np.minimum(np.arange(n) - group_start_pos, self.bits)
        hist_sorted = _global_window(sorted_out, self.bits) & ((1 << depth) - 1)
        if self.rows.fed:
            # The carried row supplies the bits the chunk cannot.  Rows
            # never fed are all zeros, so the first feed skips them.
            carried = self.rows[sorted_slots]
            hist_sorted |= (carried & (self.mask >> depth)) << depth
        ends = _segment_ends(new_group)
        self.rows[sorted_slots[ends]] = ((hist_sorted[ends] << 1) | sorted_out[ends]) & self.mask
        hist = np.empty(n, dtype=np.int64)
        hist[order] = hist_sorted
        return hist


def _pht_indices(
    pcs: np.ndarray,
    histories: np.ndarray,
    *,
    index_scheme: str,
    history_bits: int,
    pht_index_bits: int,
) -> np.ndarray:
    """PHT index of every step from its PC and level-1 history."""
    pht_mask = (1 << pht_index_bits) - 1
    if index_scheme == "concat":
        fill_bits = pht_index_bits - history_bits
        if fill_bits < 0:
            # A negative fill would silently produce a bogus numpy shift;
            # the predictor constructors forbid this geometry, so reaching
            # it means the caller bypassed them.
            raise ConfigurationError(
                f"concat indexing needs history_bits ({history_bits}) <= "
                f"pht_index_bits ({pht_index_bits})"
            )
        fill_mask = (1 << fill_bits) - 1
        return ((histories << fill_bits) | (pcs & fill_mask)) & pht_mask
    if index_scheme == "xor":
        return (histories ^ pcs) & pht_mask
    raise ConfigurationError(f"unknown index scheme {index_scheme!r}")


# -- the carrier ----------------------------------------------------------------


class _Spec:
    """Geometry of one two-level configuration, decoupled from the object."""

    __slots__ = (
        "history_kind",
        "history_bits",
        "pht_index_bits",
        "index_scheme",
        "bht_entries",
        "counter_bits",
    )

    def __init__(
        self, history_kind, history_bits, pht_index_bits, index_scheme, bht_entries, counter_bits
    ):
        self.history_kind = history_kind
        self.history_bits = history_bits
        self.pht_index_bits = pht_index_bits
        self.index_scheme = index_scheme
        self.bht_entries = bht_entries
        self.counter_bits = counter_bits

    def dedupe_key(self) -> tuple:
        # With zero history bits the history kind and BHT are irrelevant:
        # every variant is the same PC-indexed counter table.
        if self.history_bits == 0:
            return ("none", 0, self.pht_index_bits, self.index_scheme, None, self.counter_bits)
        return (
            self.history_kind,
            self.history_bits,
            self.pht_index_bits,
            self.index_scheme,
            self.bht_entries if self.history_kind == "per-address" else None,
            self.counter_bits,
        )


def _spec_of(predictor) -> _Spec:
    check_batched(predictor)
    if isinstance(predictor, BimodalPredictor):
        return _Spec("global", 0, predictor.table.index_bits, "concat", None, predictor.table.bits)
    return _Spec(
        predictor.history_kind,
        predictor.history_bits,
        predictor.pht_index_bits,
        predictor.index_scheme,
        predictor.bht.entries if predictor.bht is not None else None,
        predictor.pht.bits,
    )


class BatchedStream:
    """The multi-configuration carrier of the two-level family.

    Shares one global-history window, one per-BHT-geometry window and
    stacked counter scans across every configuration in the batch,
    fed chunk by chunk.  Carried state: history registers at the
    *longest* requested length per geometry, and one PHT per unique
    configuration (identical geometries, such as the paper's PAs-h0 and
    GAs-h0, are simulated once).
    """

    def __init__(
        self,
        predictors,
        *,
        max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
    ) -> None:
        if max_chunk_elements < 1:
            raise ConfigurationError("max_chunk_elements must be positive")
        self.max_chunk_elements = max_chunk_elements
        specs = [_spec_of(p) for p in predictors]

        # Shared carried history state: global at the longest global
        # length; one BHT per geometry at that geometry's longest length
        # (shorter configs mask the same windows down).
        global_bits = max((s.history_bits for s in specs if s.history_kind == "global"), default=0)
        self._global = _GlobalHistory(global_bits) if global_bits else None
        bht_bits: dict[int, int] = {}
        for s in specs:
            if s.history_kind == "per-address" and s.history_bits > 0:
                bht_bits[s.bht_entries] = max(bht_bits.get(s.bht_entries, 0), s.history_bits)
        self._bht = {entries: _SlotHistory(entries, bits) for entries, bits in bht_bits.items()}

        # Unique configurations, their PHTs laid end to end in one table.
        self._slot_of_spec: list[int] = []
        self._unique: list[_Spec] = []
        self._offsets: list[int] = []
        slot_by_key: dict[tuple, int] = {}
        size = 0
        for s in specs:
            key = s.dedupe_key()
            slot = slot_by_key.get(key)
            if slot is None:
                slot = slot_by_key[key] = len(self._unique)
                self._unique.append(s)
                self._offsets.append(size)
                size += 1 << s.pht_index_bits
            self._slot_of_spec.append(slot)
        sizes = [1 << s.pht_index_bits for s in self._unique]
        resets = np.array([1 << (s.counter_bits - 1) for s in self._unique], dtype=np.uint8)
        self._pht = _Carried(lambda: np.repeat(resets, sizes))

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> list[np.ndarray]:
        """Per-step predictions (uint8, 1 = taken) of every predictor for
        one chunk, advancing all carried state past it."""
        n = len(pcs)
        if n == 0:
            return [np.zeros(0, dtype=np.uint8) for _ in self._slot_of_spec]
        fed = self._pht.fed
        global_hist = self._global.windows(outcomes) if self._global else None
        bht_hist = {entries: state.windows(pcs, outcomes) for entries, state in self._bht.items()}

        unique_indices: list[np.ndarray] = []
        for s in self._unique:
            if s.history_bits == 0:
                hist = np.zeros(n, dtype=np.int64)
            elif s.history_kind == "global":
                hist = global_hist & ((1 << s.history_bits) - 1)
            else:
                hist = bht_hist[s.bht_entries] & ((1 << s.history_bits) - 1)
            unique_indices.append(
                _pht_indices(
                    pcs,
                    hist,
                    index_scheme=s.index_scheme,
                    history_bits=s.history_bits,
                    pht_index_bits=s.pht_index_bits,
                )
            )

        unique_predictions: list[np.ndarray] = [None] * len(self._unique)
        by_counter_bits: dict[int, list[int]] = {}
        for slot, s in enumerate(self._unique):
            by_counter_bits.setdefault(s.counter_bits, []).append(slot)
        per_chunk = max(1, self.max_chunk_elements // n)
        for counter_bits, slots in by_counter_bits.items():
            for start in range(0, len(slots), per_chunk):
                group = slots[start : start + per_chunk]
                stacked = self._stacked_scan(group, unique_indices, outcomes, counter_bits, fed)
                for slot, predictions in zip(group, stacked):
                    unique_predictions[slot] = predictions
        return [unique_predictions[slot] for slot in self._slot_of_spec]

    def _stacked_scan(
        self,
        group: list[int],
        unique_indices: list[np.ndarray],
        outcomes: np.ndarray,
        counter_bits: int,
        fed: bool,
    ) -> list[np.ndarray]:
        """One stacked scan over several same-width configs, advancing
        their carried PHT entries (``fed``: fed before this chunk)."""
        n = len(outcomes)
        count = len(group)
        # Keys are positions in the group's span of the flat table, so
        # one stable sort groups (config, entry) segments while keeping
        # time order within each.
        base = self._offsets[group[0]]
        end = self._offsets[group[-1]] + (1 << self._unique[group[-1]].pht_index_bits)
        keys = np.empty(count * n, dtype=np.int64)
        for i, slot in enumerate(group):
            np.add(unique_indices[slot], self._offsets[slot] - base, out=keys[i * n : (i + 1) * n])
        reset = 1 << (counter_bits - 1)  # weakly taken
        order, state_before = _counter_scan(
            self._pht,
            keys,
            (end - base - 1).bit_length(),
            np.tile(outcomes, count),
            base=base,
            reset=reset,
            max_state=(1 << counter_bits) - 1,
            fed=fed,
        )
        predictions = np.empty(count * n, dtype=np.uint8)
        predictions[order] = state_before >= reset
        return [predictions[i * n : (i + 1) * n] for i in range(count)]


# -- entry points ---------------------------------------------------------------


def predictions_batched(
    predictors,
    trace: Trace,
    *,
    max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
) -> list[np.ndarray]:
    """Per-step predictions (uint8, 1 = taken) for many two-level
    predictors over one trace, fed to a :class:`BatchedStream` as one
    chunk.  Duplicated geometries are simulated once and share one
    array; ``max_chunk_elements`` bounds ``configs × len(trace)`` per
    stacked scan.
    """
    return BatchedStream(predictors, max_chunk_elements=max_chunk_elements).feed(
        trace.pcs, trace.outcomes
    )


def simulate_batched(
    predictors,
    trace: Trace,
    *,
    max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
) -> list[SimulationResult]:
    """Cold-start simulation of many two-level predictors with per-PC
    attribution: :func:`simulate_batched_stream` over the trace as one
    chunk.  Each result is exactly what ``simulate_reference`` would
    produce for that predictor."""
    return simulate_batched_stream(
        predictors, [trace], max_chunk_elements=max_chunk_elements, trace_name=trace.name
    )


def simulate_batched_stream(
    predictors,
    chunks: Iterable,
    *,
    max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
    trace_name: str | None = None,
) -> list[SimulationResult]:
    """Many two-level predictors over a chunk iterator in one pass.

    Bit-identical to :func:`simulate_batched` over the concatenated
    chunks, with peak memory O(chunk × configs-per-pass) instead of
    O(trace).  Chunks are :class:`~repro.trace.stream.Trace` objects
    (e.g. a :class:`~repro.trace.io.TraceReader`) or ``(pcs, outcomes)``
    pairs.
    """
    predictors = list(predictors)
    carrier = BatchedStream(predictors, max_chunk_elements=max_chunk_elements)
    return _attribute_chunks(carrier.feed, predictors, chunks, trace_name)


class BatchedSweepResult:
    """Per-(kind, history length) simulation results over one trace.

    All results share one sorted unique-PC axis and one executions
    column; :meth:`result` materializes the standard
    :class:`SimulationResult` view for a configuration.
    """

    def __init__(
        self,
        trace_name: str,
        pcs: np.ndarray,
        executions: np.ndarray,
        miss_counts: dict[tuple[str, int], np.ndarray],
        predictor_names: dict[tuple[str, int], str],
    ) -> None:
        self.trace_name = trace_name
        self.pcs = pcs
        self.executions = executions
        self._miss_counts = miss_counts
        self._predictor_names = predictor_names

    def keys(self) -> list[tuple[str, int]]:
        """The simulated (kind, history length) pairs."""
        return list(self._miss_counts)

    def mispredictions(self, kind: str, history_bits: int) -> np.ndarray:
        """Per-PC misprediction counts for one configuration."""
        try:
            return self._miss_counts[(kind, history_bits)]
        except KeyError:
            raise ConfigurationError(
                f"sweep did not simulate ({kind!r}, {history_bits})"
            ) from None

    def result(self, kind: str, history_bits: int) -> SimulationResult:
        """The full :class:`SimulationResult` for one configuration."""
        return SimulationResult(
            self.pcs,
            self.executions,
            self.mispredictions(kind, history_bits),
            predictor_name=self._predictor_names[(kind, history_bits)],
            trace_name=self.trace_name,
        )


def simulate_sweep(
    trace: Trace,
    *,
    kinds=("pas", "gas"),
    history_lengths=tuple(HISTORY_LENGTHS),
    max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
) -> BatchedSweepResult:
    """Simulate the paper's PAs/GAs sweep over ``trace`` in one pass.

    Bit-exact with simulating ``paper_predictor(kind, k)`` separately
    for every (kind, k), at a fraction of the cost (see
    ``docs/ENGINES.md``).
    """
    return simulate_sweep_stream(
        [trace],
        kinds=kinds,
        history_lengths=history_lengths,
        max_chunk_elements=max_chunk_elements,
        trace_name=trace.name,
    )


def simulate_sweep_stream(
    chunks: Iterable,
    *,
    kinds=("pas", "gas"),
    history_lengths=None,
    max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
    trace_name: str | None = None,
) -> BatchedSweepResult:
    """The paper's PAs/GAs sweep over a chunk iterator in one pass.

    For traces too big to hold in memory: every configuration's history
    windows and counter scans are shared, and the results are
    bit-identical to :func:`simulate_sweep` over the concatenated
    chunks.
    """
    if history_lengths is None:
        history_lengths = tuple(HISTORY_LENGTHS)
    keys = [(kind, int(k)) for kind in kinds for k in history_lengths]
    results = simulate_batched_stream(
        [paper_predictor(kind, k) for kind, k in keys],
        chunks,
        max_chunk_elements=max_chunk_elements,
        trace_name=trace_name,
    )
    if results:
        first = results[0]
        name, pcs, executions = first.trace_name, first.pcs, first.executions
    else:  # no configurations requested
        name, pcs, executions = trace_name or "", np.zeros(0, np.int64), np.zeros(0, np.int64)
    return BatchedSweepResult(
        name,
        pcs,
        executions,
        {key: result.mispredictions for key, result in zip(keys, results)},
        {key: result.predictor_name for key, result in zip(keys, results)},
    )
