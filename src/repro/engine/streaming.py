"""Carriers for single predictors of every family.

A *carrier* simulates one chunk of a branch stream at a time and keeps
all predictor state between chunks: :func:`stream_simulator` returns
one whose ``feed(pcs, outcomes)`` yields the chunk's per-step
predictions.  Every simulation except the reference oracle runs
through a carrier.  :func:`simulate_stream` feeds it an iterator of
chunks (typically a :class:`~repro.trace.io.TraceReader` over a chunked
``.rbt`` v2 file) with peak memory O(chunk); the in-memory entry points
:func:`simulate_vectorized` and :func:`predictions_vectorized` feed it
the whole trace as one chunk.

What each family carries between chunks:

* **two-level / bimodal** — a one-configuration
  :class:`~repro.engine.batched.BatchedStream`: history registers and
  the PHT;
* **agree** — the latched biasing bits, the global history register
  and the agree/disagree PHT;
* **tournament** — both component carriers and the PC-indexed chooser
  table, a three-symbol automaton (decrement / increment / hold, the
  hold firing when the components agree in correctness);
* **class-routed hybrid** — one carrier per component, each fed the
  sub-stream statically routed to it (exactly what it sees under the
  reference engine);
* **static** — nothing (per-PC lookups);
* **YAGS / bi-mode / filter / DHLF** — the flat state of a compiled
  per-record kernel (:mod:`repro.engine.backend`);
* **anything else** — the stateful predictor object itself.

Every carrier is **bit-identical** to
:func:`repro.engine.reference.simulate_reference` for every chunk split
(pinned by ``tests/test_engine_streaming.py`` over every registered
predictor family and chunk lengths down to 1).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import ConfigurationError
from ..predictors.agree import AgreePredictor
from ..predictors.hybrid import ClassRoutedHybrid
from ..predictors.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    OraclePredictor,
    ProfileStaticPredictor,
)
from ..predictors.tournament import TournamentPredictor
from ..trace.stream import Trace
from .batched import (
    BatchedStream,
    _Carried,
    _counter_scan,
    _GlobalHistory,
    _pht_indices,
    _segment_ends,
    _segment_starts,
    _slot_groups,
    supports_batched,
)
from .results import SimulationResult, _attribute_chunks
from .scan import counter_step_table, segmented_automaton_scan, stable_key_order

__all__ = [
    "predictions_vectorized",
    "simulate_stream",
    "simulate_vectorized",
    "stream_simulator",
    "supports_vectorized",
]

_STATIC_TYPES = (AlwaysTakenPredictor, AlwaysNotTakenPredictor, ProfileStaticPredictor)


def supports_vectorized(predictor) -> bool:
    """True if ``predictor`` has an array carrier (no per-record loop):
    the two-level family, static predictors, agree, and tournaments and
    class-routed hybrids whose components are themselves supported."""
    if supports_batched(predictor) or isinstance(predictor, (AgreePredictor, *_STATIC_TYPES)):
        return True
    if isinstance(predictor, TournamentPredictor):
        return supports_vectorized(predictor.first) and supports_vectorized(predictor.second)
    if isinstance(predictor, ClassRoutedHybrid):
        return all(supports_vectorized(c) for c in predictor.components)
    return False


# -- per-family carriers --------------------------------------------------------


class _OneConfig:
    """A single two-level predictor: a one-configuration batch."""

    __slots__ = ("batch",)

    def __init__(self, predictor) -> None:
        self.batch = BatchedStream([predictor])

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        return self.batch.feed(pcs, outcomes)[0]


class _AgreeStream:
    """Agree predictor: carried bias latch + global history + agree PHT.

    A slot's biasing bit latches from the outcome of the first step
    mapping to it (before that the default is taken), and the PHT learns
    agreement, not direction: its input is "did the branch agree with
    its just-latched bias".
    """

    def __init__(self, predictor: AgreePredictor) -> None:
        self.bias_entries = predictor.bias_entries
        self.bias = np.zeros(self.bias_entries, dtype=np.int64)
        self.latched = np.zeros(self.bias_entries, dtype=bool)
        self.history = _GlobalHistory(predictor.history.bits)
        index_bits, initial = predictor.pht.index_bits, predictor.pht.initial
        self.pht_index_bits = index_bits
        self.pht = _Carried(lambda: np.full(1 << index_bits, initial, dtype=np.uint8))
        self.pht_initial = initial
        self.max_state = (1 << predictor.pht.bits) - 1
        self.threshold = 1 << (predictor.pht.bits - 1)

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        out_i64 = outcomes.astype(np.int64)
        fed = self.pht.fed

        slots = pcs & (self.bias_entries - 1)
        order, new_group, group_start_pos = _slot_groups(
            slots, self.bias_entries.bit_length() - 1
        )
        sorted_slots = slots[order]
        first_out = out_i64[order[group_start_pos]]
        if fed:
            # A latched slot keeps its carried bias for the whole chunk;
            # an unlatched one latches from its first in-chunk outcome.
            latched = self.latched[sorted_slots]
            bias_after_sorted = np.where(latched, self.bias[sorted_slots], first_out)
            bias_predict_sorted = np.where(latched | ~new_group, bias_after_sorted, 1)
        else:
            bias_after_sorted = first_out
            bias_predict_sorted = np.where(new_group, 1, first_out)
        ends = _segment_ends(new_group)
        self.bias[sorted_slots[ends]] = bias_after_sorted[ends]
        self.latched[sorted_slots[ends]] = True
        bias_after = np.empty(n, dtype=np.int64)
        bias_after[order] = bias_after_sorted
        bias_predict = np.empty(n, dtype=np.int64)
        bias_predict[order] = bias_predict_sorted

        indices = _pht_indices(
            pcs,
            self.history.windows(out_i64),
            index_scheme="xor",
            history_bits=self.history.bits,
            pht_index_bits=self.pht_index_bits,
        )
        pht_order, state_sorted = _counter_scan(
            self.pht,
            indices,
            self.pht_index_bits,
            (out_i64 == bias_after).astype(np.uint8),
            base=0,
            reset=self.pht_initial,
            max_state=self.max_state,
            fed=fed,
        )
        agree = np.empty(n, dtype=bool)
        agree[pht_order] = state_sorted >= self.threshold
        return np.where(agree, bias_predict, 1 - bias_predict).astype(np.uint8)


class _TournamentStream:
    """Tournament: carried component carriers + chooser table."""

    def __init__(self, predictor: TournamentPredictor) -> None:
        self.first = stream_simulator(predictor.first)
        self.second = stream_simulator(predictor.second)
        chooser = predictor.chooser
        self.entries = chooser.entries
        self.index_bits = chooser.index_bits
        self.initial = chooser.initial
        self.threshold = 1 << (chooser.bits - 1)
        self.table = np.full(chooser.entries, chooser.initial, dtype=np.uint8)
        self.step_table = np.vstack(
            [
                counter_step_table(chooser.bits),
                np.arange(1 << chooser.bits, dtype=np.uint8)[None],
            ]
        )
        self.fed = False

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        # Both components see (and train on) every branch.
        first = self.first.feed(pcs, outcomes)
        second = self.second.feed(pcs, outcomes)
        first_correct = first == outcomes
        second_correct = second == outcomes
        hold = np.uint8(2)
        symbols = np.where(first_correct == second_correct, hold, second_correct.astype(np.uint8))

        slots = pcs & (self.entries - 1)
        order = stable_key_order(slots, self.index_bits)
        sorted_slots = slots[order]
        starts = _segment_starts(sorted_slots)
        sorted_symbols = symbols[order]
        # A table never fed holds its reset value everywhere.
        initial = self.table[sorted_slots] if self.fed else self.initial
        self.fed = True
        state_sorted = segmented_automaton_scan(self.step_table, sorted_symbols, starts, initial)
        ends = _segment_ends(starts)
        self.table[sorted_slots[ends]] = self.step_table[
            sorted_symbols[ends].astype(np.int64), state_sorted[ends]
        ]
        chooser_state = np.empty(n, dtype=np.uint8)
        chooser_state[order] = state_sorted
        return np.where(chooser_state >= self.threshold, second, first).astype(np.uint8)


class _HybridStream:
    """Class-routed hybrid: carried per-component sub-streams."""

    def __init__(self, predictor: ClassRoutedHybrid) -> None:
        self.predictor = predictor
        self.components = [stream_simulator(c) for c in predictor.components]
        self._route_cache: dict[int, int] = {}

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        unique_pcs, codes = np.unique(pcs, return_inverse=True)
        cache = self._route_cache
        route = np.empty(len(unique_pcs), dtype=np.int64)
        for i, pc in enumerate(unique_pcs.tolist()):
            index = cache.get(pc)
            if index is None:
                index = self.predictor.route_index(pc)
                cache[pc] = index
            route[i] = index
        component_of_step = route[codes]

        predictions = np.zeros(n, dtype=np.uint8)
        for index, component in enumerate(self.components):
            mask = component_of_step == index
            if np.any(mask):
                predictions[mask] = component.feed(pcs[mask], outcomes[mask])
        return predictions


class _StaticStream:
    """Stateless predictors: per-step predictions need no carried state."""

    def __init__(self, predictor) -> None:
        self.predictor = predictor
        self._directions: dict[int, int] = {}

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        if isinstance(self.predictor, AlwaysTakenPredictor):
            return np.ones(n, dtype=np.uint8)
        if isinstance(self.predictor, AlwaysNotTakenPredictor):
            return np.zeros(n, dtype=np.uint8)
        # Profile-static: one Python-level lookup per *static* branch only.
        unique_pcs, codes = np.unique(pcs, return_inverse=True)
        cache = self._directions
        directions = np.empty(len(unique_pcs), dtype=np.uint8)
        for i, pc in enumerate(unique_pcs.tolist()):
            direction = cache.get(pc)
            if direction is None:
                direction = int(self.predictor.predict(pc))
                cache[pc] = direction
            directions[i] = direction
        return directions[codes]


class _ReferenceStream:
    """Any predictor, one record at a time.

    The predictor object *is* the carried state, exactly as in
    :func:`repro.engine.reference.simulate_reference` without the
    per-segment reset.
    """

    def __init__(self, predictor) -> None:
        predictor.reset()
        self.predictor = predictor
        self.is_oracle = isinstance(predictor, OraclePredictor)

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        predictions = np.empty(n, dtype=np.uint8)
        predictor = self.predictor
        predict = predictor.predict
        update = predictor.update
        for i in range(n):
            pc = int(pcs[i])
            taken = bool(outcomes[i])
            if self.is_oracle:
                predictor.prime(taken)
            predictions[i] = 1 if predict(pc) else 0
            update(pc, taken)
        return predictions


def stream_simulator(predictor, *, engine: str = "auto", backend: str | None = None):
    """The carrier for ``predictor``.

    Its ``feed(pcs, outcomes)`` yields the per-step predictions for one
    chunk, carrying all predictor state to the next call.  ``engine``
    mirrors :func:`repro.engine.simulate`: ``"auto"`` picks the array
    carrier when :func:`supports_vectorized`, a compiled per-record
    kernel (:mod:`repro.engine.backend`) when the family has one, and
    the stateful reference predictor otherwise; ``"vectorized"`` and
    ``"batched"`` insist on the array and the two-level carriers.
    ``backend`` selects the compiled-kernel implementation (default:
    ``REPRO_ENGINE_BACKEND``, else auto-detect).
    """
    if engine == "reference":
        return _ReferenceStream(predictor)
    if engine == "batched":
        return _OneConfig(predictor)
    if engine not in ("auto", "vectorized"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'auto', 'vectorized', 'batched' or 'reference'"
        )
    if not supports_vectorized(predictor):
        if engine == "vectorized":
            raise ConfigurationError(
                f"vectorized engine cannot simulate {type(predictor).__name__}; "
                "use engine='reference' or 'auto'"
            )
        from .backend import compiled_stream  # lazy: backend imports predictors

        compiled = compiled_stream(predictor, backend)
        return compiled if compiled is not None else _ReferenceStream(predictor)
    if supports_batched(predictor):
        return _OneConfig(predictor)
    if isinstance(predictor, AgreePredictor):
        return _AgreeStream(predictor)
    if isinstance(predictor, TournamentPredictor):
        return _TournamentStream(predictor)
    if isinstance(predictor, ClassRoutedHybrid):
        return _HybridStream(predictor)
    return _StaticStream(predictor)


# -- entry points ---------------------------------------------------------------


def simulate_stream(
    predictor,
    chunks: Iterable,
    *,
    engine: str = "auto",
    backend: str | None = None,
    trace_name: str | None = None,
) -> SimulationResult:
    """Simulate one predictor over a chunk iterator.

    Bit-identical to ``simulate(predictor, concat(chunks))`` with peak
    memory O(chunk).  ``predictor`` may be a stateful
    :class:`~repro.predictors.base.BranchPredictor` or a declarative
    :class:`~repro.spec.PredictorSpec`; chunks are
    :class:`~repro.trace.stream.Trace` objects (e.g. a
    :class:`~repro.trace.io.TraceReader`) or ``(pcs, outcomes)`` pairs.
    ``backend`` picks the compiled-kernel implementation for the
    reference-path families (see :mod:`repro.engine.backend`).
    """
    from ..spec import build_predictor  # lazy: spec imports engine

    predictor = build_predictor(predictor)
    carrier = stream_simulator(predictor, engine=engine, backend=backend)
    return _attribute_chunks(
        lambda pcs, outcomes: [carrier.feed(pcs, outcomes)], [predictor], chunks, trace_name
    )[0]


def predictions_vectorized(predictor, trace: Trace) -> np.ndarray:
    """Per-step predictions (uint8, 1 = predicted taken) for the trace,
    fed to the predictor's array carrier as one chunk.

    The predictor object itself is *not* mutated; its geometry is read
    and the cold-start simulation is carried out on arrays.
    """
    return stream_simulator(predictor, engine="vectorized").feed(trace.pcs, trace.outcomes)


def simulate_vectorized(predictor, trace: Trace) -> SimulationResult:
    """Cold-start simulation with per-PC miss attribution, through the
    predictor's array carrier with the trace as one chunk.

    Exactly equivalent to ``simulate_reference(predictor, trace)`` for
    every supported predictor type.
    """
    return simulate_stream(predictor, [trace], engine="vectorized", trace_name=trace.name)
