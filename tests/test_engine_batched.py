"""Tests for the batched multi-configuration carrier.

The batched carrier must be bit-exact with the step-accurate reference
engine for every configuration in the batch, across stack sizes, chunk
splits, geometry mixes and deduplicated configurations.
"""

import os
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    simulate_batched,
    simulate_batched_stream,
    simulate_reference,
    stream_simulator,
    supports_batched,
)
from repro.engine import batched as batched_engine
from repro.engine.backend import backend_availability
from repro.engine.batched import (
    BatchedStream,
    _Carried,
    _global_window,
    _GlobalHistory,
    _SlotHistory,
)
from repro.engine.results import count_misses
from repro.errors import ConfigurationError
from repro.spec import BimodalSpec, TwoLevelSpec
from repro.predictors import (
    BimodalPredictor,
    YagsPredictor,
    make_gas,
    make_gshare,
    make_pas,
    make_pshare,
    paper_predictor,
)
from repro.predictors.paper_configs import HISTORY_LENGTHS
from repro.trace import Trace, concat


def random_trace(seed, n, num_pcs, bias=0.5):
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, num_pcs, size=n) * 4 + 0x1000
    outcomes = (rng.random(n) < bias).astype(np.uint8)
    return Trace(pcs, outcomes, name=f"rand{seed}")


def chunks_of(trace, k):
    for start in range(0, len(trace), k):
        yield trace[start : start + k]


def mixed_predictors():
    """A geometry zoo: histories, schemes, BHT sizes, counter widths."""
    return [
        make_gas(0, pht_index_bits=8),
        make_gas(4, pht_index_bits=10),
        make_gshare(6, pht_index_bits=8),
        make_pas(1, pht_index_bits=9, bht_entries=32),
        make_pas(5, pht_index_bits=9, bht_entries=8),
        make_pshare(3, pht_index_bits=7, bht_entries=16),
        BimodalPredictor(entries=64),
        TwoLevel3Bit(),
    ]


def TwoLevel3Bit():
    from repro.predictors import TwoLevelPredictor

    return TwoLevelPredictor(
        history_kind="global", history_bits=3, pht_index_bits=8, counter_bits=3
    )


def reference_predictions(predictor, trace):
    """Per-step predictions of the stateful predictor, the oracle."""
    return stream_simulator(predictor, engine="reference").feed(trace.pcs, trace.outcomes)


class TestPredictionsBatched:
    def test_matches_reference_per_config(self, backend):
        trace = random_trace(1, 3000, 40)
        predictors = mixed_predictors()
        batched = BatchedStream(predictors).feed(trace.pcs, trace.outcomes)
        for predictor, predictions in zip(predictors, batched):
            assert np.array_equal(predictions, reference_predictions(predictor, trace))

    def test_chunking_is_invisible(self, monkeypatch):
        trace = random_trace(2, 2000, 30)
        predictors = [paper_predictor("gas", k) for k in range(8)]
        full = BatchedStream(predictors).feed(trace.pcs, trace.outcomes)
        monkeypatch.setattr(batched_engine, "MAX_CHUNK_ELEMENTS", 500)
        tiny = BatchedStream(predictors).feed(trace.pcs, trace.outcomes)
        for a, b in zip(full, tiny):
            assert np.array_equal(a, b)

    def test_duplicate_configs_share_one_simulation(self, backend):
        trace = random_trace(3, 1500, 20)
        predictors = [paper_predictor("pas", 0), paper_predictor("gas", 0)]
        a, b = BatchedStream(predictors).feed(trace.pcs, trace.outcomes)
        # PAs-h0 and GAs-h0 are the same machine; the engine dedupes
        # them into one simulation, and both views must agree.
        assert a is b

    def test_empty_trace(self):
        empty = Trace.empty()
        results = BatchedStream([make_gas(2, pht_index_bits=6)]).feed(empty.pcs, empty.outcomes)
        assert len(results) == 1 and len(results[0]) == 0

    def test_rejects_unsupported(self):
        with pytest.raises(ConfigurationError, match="YagsPredictor cannot join a batched pass"):
            BatchedStream([YagsPredictor()])
        assert not supports_batched(YagsPredictor())
        assert supports_batched(make_gas(2, pht_index_bits=6))


class TestSimulateBatched:
    def test_matches_reference(self):
        trace = random_trace(6, 2500, 50)
        predictors = mixed_predictors()
        results = simulate_batched(predictors, trace)
        for predictor, result in zip(predictors, results):
            ref = simulate_reference(predictor, trace)
            assert np.array_equal(result.pcs, ref.pcs)
            assert np.array_equal(result.executions, ref.executions)
            assert np.array_equal(result.mispredictions, ref.mispredictions), (
                f"mismatch for {predictor.name}"
            )
            assert result.predictor_name == predictor.name

    def test_empty_batch(self):
        assert simulate_batched([], random_trace(7, 100, 5)) == []


class TestPaperSweep:
    """The paper's PAs/GAs sweep is one ``simulate_batched`` call."""

    def test_matches_reference_every_config(self):
        trace = random_trace(8, 2000, 40)
        keys = [(kind, k) for kind in ("pas", "gas") for k in range(0, 7)]
        results = simulate_batched([paper_predictor(kind, k) for kind, k in keys], trace)
        for (kind, k), got in zip(keys, results):
            ref = simulate_reference(paper_predictor(kind, k), trace)
            assert np.array_equal(got.mispredictions, ref.mispredictions), (
                f"mismatch for {kind} h{k}"
            )

    def test_shared_columns(self):
        trace = random_trace(9, 800, 10)
        results = simulate_batched([paper_predictor("gas", k) for k in (0, 2, 4)], trace)
        for result in results:
            assert result.executions.sum() == len(trace)
            assert np.array_equal(result.pcs, np.unique(trace.pcs))

    def test_empty_trace(self):
        results = simulate_batched([paper_predictor("pas", 1)], Trace.empty())
        assert len(results[0].pcs) == 0
        assert results[0].total_executions == 0

    def test_unknown_config_raises(self):
        # The sweep covers PAs/GAs at the paper's history lengths only.
        with pytest.raises(ConfigurationError, match="history lengths"):
            paper_predictor("gas", HISTORY_LENGTHS[-1] + 1)
        with pytest.raises(ConfigurationError, match="unknown paper predictor kind"):
            paper_predictor("gshare", 4)


class TestSweepEngineAgreement:
    """run_sweep grids are identical whichever engine computes them."""

    def test_grids_match(self):
        from repro.analysis import SweepConfig, run_sweep

        trace = random_trace(11, 1200, 25)
        lengths = tuple(range(0, 5))
        batched = run_sweep([trace], SweepConfig(history_lengths=lengths))
        other = run_sweep(
            [trace], SweepConfig(history_lengths=lengths, engine="reference")
        )
        for kind in ("pas", "gas"):
            assert np.array_equal(
                batched.grid(kind).taken_misses, other.grid(kind).taken_misses
            )
            assert np.array_equal(
                batched.grid(kind).joint_misses, other.grid(kind).joint_misses
            )

    def test_bad_engine_rejected(self):
        from repro.analysis import SweepConfig

        with pytest.raises(ConfigurationError):
            SweepConfig(engine="quantum")


@st.composite
def geometries(draw):
    """Any two-level geometry a spec accepts, with tables kept small."""
    scheme = draw(st.sampled_from(("concat", "xor")))
    pht_index_bits = draw(st.integers(1, 12))
    return TwoLevelSpec(
        history_kind=draw(st.sampled_from(("global", "per-address"))),
        # Concatenation fits the history inside the PHT index.
        history_bits=draw(st.integers(0, 32 if scheme == "xor" else pht_index_bits)),
        pht_index_bits=pht_index_bits,
        index_scheme=scheme,
        bht_entries=1 << draw(st.integers(0, 10)),
        counter_bits=draw(st.integers(1, 8)),
    )


@settings(max_examples=30, deadline=None)
@given(
    specs=st.lists(geometries(), min_size=1, max_size=4),
    seed=st.integers(0, 10_000),
    n=st.integers(1, 400),
    num_pcs=st.integers(1, 40),
    chunk=st.integers(64, 4096),
    split=st.integers(1, 400),
    cuts=st.lists(st.integers(0, 420), max_size=6),
    late=st.integers(0, 20),
)
def test_batched_sweep_property(specs, seed, n, num_pcs, chunk, split, cuts, late):
    """Random geometries beside paper configurations, random traces,
    stack sizes and chunk splits: every backend == reference, per PC.

    The trace is cut every ``split`` records (down to one-record
    chunks) and at random ``cuts`` on top; it ends with ``late``
    records of a PC seen nowhere before, in chunks of their own, and
    repeated cuts make empty chunks, so the per-PC axis grows after the
    first chunk and the carriers count empty and single-PC chunks (the
    ``cext`` kernel counts its misses itself; the ``python`` scans
    count theirs from predictions)."""
    head = random_trace(seed, n, num_pcs)
    trace = Trace(
        np.append(head.pcs, np.full(late, 0x40_0000)),
        np.append(head.outcomes, np.arange(late) % 3 == 0),
    )
    bounds = sorted([*range(0, n, split), n, n + late, *(min(c, n + late) for c in cuts)])
    predictors = [paper_predictor(kind, k) for kind in ("pas", "gas") for k in (0, 1, 3, 8)]
    predictors += [spec.build() for spec in specs]
    expected = [simulate_reference(predictor, trace) for predictor in predictors]
    for backend, (usable, _) in backend_availability().items():
        if not usable:
            continue
        chunks = (trace[start:end] for start, end in zip(bounds, bounds[1:]))
        with (
            mock.patch.dict(os.environ, {"REPRO_ENGINE_BACKEND": backend}),
            mock.patch.object(batched_engine, "MAX_CHUNK_ELEMENTS", chunk),
        ):
            results = simulate_batched_stream(predictors, chunks)
        for want, result in zip(expected, results):
            assert np.array_equal(result.pcs, want.pcs)
            assert np.array_equal(result.executions, want.executions)
            assert np.array_equal(result.mispredictions, want.mispredictions), backend


def shift_register_windows(outcomes, bits, value=0):
    """History before each step, from a plain shift register."""
    mask = (1 << bits) - 1
    windows = []
    for bit in outcomes:
        windows.append(value)
        value = ((value << 1) | int(bit)) & mask
    return np.asarray(windows, dtype=np.int64)


class TestHistoryWindows:
    """The carriers' level-1 histories against a step-by-step register."""

    @pytest.mark.parametrize("bits", (0, 1, 2, 3, 7, 8, 16, 31))
    def test_global_window_matches_shift_register(self, bits):
        rng = np.random.default_rng(bits)
        outcomes = rng.integers(0, 2, 500).astype(np.uint8)
        assert np.array_equal(
            _global_window(outcomes, bits), shift_register_windows(outcomes, bits)
        )

    def test_window_longer_than_input(self):
        outcomes = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert np.array_equal(
            _global_window(outcomes, 16), shift_register_windows(outcomes, 16)
        )

    @pytest.mark.parametrize("chunk_len", (1, 3, 64, 1000))
    def test_global_register_carries_across_chunks(self, chunk_len):
        rng = np.random.default_rng(chunk_len)
        outcomes = rng.integers(0, 2, 1000).astype(np.uint8)
        register = _GlobalHistory(12)
        windows = [
            register.windows(outcomes[start : start + chunk_len])
            for start in range(0, len(outcomes), chunk_len)
        ]
        expected = shift_register_windows(outcomes, 12)
        assert np.array_equal(np.concatenate(windows), expected)
        assert register.value == ((int(expected[-1]) << 1) | int(outcomes[-1])) & 0xFFF

    @pytest.mark.parametrize("chunk_len", (1, 7, 1000))
    def test_bht_rows_carry_across_chunks(self, chunk_len):
        # Branches colliding in the 16-entry BHT share one register.
        trace = random_trace(chunk_len, 1000, 40)
        bht = _SlotHistory(16, 6)
        windows = [
            bht.windows(chunk.pcs, chunk.outcomes) for chunk in chunks_of(trace, chunk_len)
        ]
        rows: dict[int, int] = {}
        expected = []
        for pc, bit in zip(trace.pcs.tolist(), trace.outcomes.tolist()):
            value = rows.get(pc & 15, 0)
            expected.append(value)
            rows[pc & 15] = ((value << 1) | bit) & 0x3F
        assert np.array_equal(np.concatenate(windows), expected)


class TestCarriedTable:
    def test_writes_are_kept_until_a_read_builds_the_table(self):
        builds = []

        def build():
            builds.append(1)
            return np.zeros(8, dtype=np.uint8)

        table = _Carried(build)
        assert not table.fed
        table[np.array([1, 2])] = np.array([5, 6], dtype=np.uint8)
        table[np.array([2])] = np.array([7], dtype=np.uint8)
        assert table.fed and not builds
        assert list(table[np.arange(8)]) == [0, 5, 7, 0, 0, 0, 0, 0]
        table[np.array([0])] = np.array([3], dtype=np.uint8)
        assert list(table[np.array([0, 2])]) == [3, 7]
        assert builds == [1]

    @pytest.mark.parametrize("backend", ["python"], indirect=True)
    def test_one_chunk_never_builds_the_pht(self, backend):
        # An in-memory simulation is one chunk: it must not allocate a
        # table sized for every PHT entry of every configuration.
        trace = random_trace(15, 500, 20)
        predictors = [paper_predictor(kind, 12) for kind in ("pas", "gas")]
        stream = BatchedStream(predictors)
        stream.feed(trace.pcs, trace.outcomes)
        assert stream._pht._table is None
        stream.feed(trace.pcs, trace.outcomes)
        assert stream._pht._table is not None


class TestBackendPaths:
    """How a carrier picks its path, and what it keeps."""

    def test_backend_is_resolved_once_when_built(self, monkeypatch):
        trace = random_trace(17, 300, 20)
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "python")
        stream = BatchedStream([paper_predictor("gas", 4)])
        assert stream.backend == "python"
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "auto")
        stream.feed(trace.pcs, trace.outcomes)
        assert stream.backend == "python" and stream._kernel is None

    def test_auto_takes_the_kernel_when_there_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "auto")
        expected = "cext" if backend_availability()["cext"][0] else "python"
        assert BatchedStream([paper_predictor("pas", 4)]).backend == expected

    @pytest.mark.parametrize("backend", ["cext"], indirect=True)
    def test_kernel_state_dies_with_the_carrier(self, backend):
        # No reference cycle keeps the dense tables alive: dropping the
        # last reference frees them without a garbage-collector pass.
        trace = random_trace(18, 300, 20)
        stream = BatchedStream(
            [paper_predictor(kind, k) for kind in ("pas", "gas") for k in (0, 5)]
        )
        stream.feed(trace.pcs, trace.outcomes)
        kernel = stream._kernel
        tables = [weakref.ref(table) for table in (kernel.pht, kernel.bht, kernel.regs)]
        del stream, kernel
        assert all(table() is None for table in tables)


SWEEP_SPECS = [
    BimodalSpec(entries=1 << 10),
    TwoLevelSpec(history_kind="global", history_bits=8, index_scheme="xor"),
    TwoLevelSpec(history_kind="global", history_bits=6, index_scheme="concat"),
    TwoLevelSpec(history_kind="per-address", history_bits=6, bht_entries=64),
    TwoLevelSpec(history_kind="per-address", history_bits=10, bht_entries=128, index_scheme="xor"),
    TwoLevelSpec(history_kind="global", history_bits=0),
]


def assert_matches_reference(specs, results, trace):
    for spec, result in zip(specs, results):
        expected = simulate_reference(spec.build(), trace)
        assert np.array_equal(result.pcs, expected.pcs)
        assert np.array_equal(result.executions, expected.executions)
        assert np.array_equal(result.mispredictions, expected.mispredictions)


class TestBatchedStreamSplits:
    """The carrier resumes every configuration at any chunk boundary:
    one-record chunks, odd splits and the whole trace as one chunk, on
    every backend."""

    TRACE = random_trace(16, 3000, 90, bias=0.7)

    @pytest.mark.parametrize("chunk_len", (1, 7, 997, 1 << 20))
    def test_matches_reference(self, backend, chunk_len):
        results = simulate_batched_stream(
            [spec.build() for spec in SWEEP_SPECS],
            chunks_of(self.TRACE, chunk_len),
        )
        assert_matches_reference(SWEEP_SPECS, results, self.TRACE)

    def test_small_budget_splits_the_stack_within_chunks(self, backend, monkeypatch):
        monkeypatch.setattr(batched_engine, "MAX_CHUNK_ELEMENTS", 1 << 11)
        results = simulate_batched_stream(
            [spec.build() for spec in SWEEP_SPECS], chunks_of(self.TRACE, 997)
        )
        assert_matches_reference(SWEEP_SPECS, results, self.TRACE)

    @pytest.mark.parametrize("chunk_len", (7, 997))
    def test_wide_counters_resume(self, backend, chunk_len):
        # 4-bit counters take the arithmetic scan, not the tabled one.
        specs = [TwoLevelSpec(history_bits=4, counter_bits=4)]
        results = simulate_batched_stream(
            [spec.build() for spec in specs], chunks_of(self.TRACE, chunk_len)
        )
        assert_matches_reference(specs, results, self.TRACE)

    def test_empty_single_pc_and_late_pc_chunks(self, backend):
        # An empty chunk, a chunk of one PC, then the rest, whose last
        # chunk brings PCs no earlier chunk had.
        late = Trace(np.arange(40) % 5 * 4 + 0x9_0000, np.arange(40) % 3 == 0, name="late")
        trace = concat([self.TRACE[:0], Trace(np.full(9, 0x1000), np.ones(9)), self.TRACE, late])
        chunks = [trace[:0], trace[:9], trace[9:1009], trace[1009:-40], trace[-40:]]
        specs = [*SWEEP_SPECS, TwoLevelSpec(history_bits=4, counter_bits=4)]
        results = simulate_batched_stream([spec.build() for spec in specs], chunks)
        assert_matches_reference(specs, results, trace)

    def test_counted_misses_match_the_predictions(self, backend):
        # The counts the carrier returns are the misses of the very
        # predictions it would have returned, chunk after chunk.
        predictors = [spec.build() for spec in SWEEP_SPECS]
        counting = BatchedStream(predictors)
        stepping = BatchedStream(predictors)
        for chunk in chunks_of(self.TRACE, 997):
            branches, ids = np.unique(chunk.pcs, return_inverse=True)
            misses = counting.misses(chunk.pcs, chunk.outcomes, ids, len(branches))
            predictions = stepping.feed(chunk.pcs, chunk.outcomes)
            expected = count_misses(predictions, chunk.outcomes, ids, len(branches))
            assert np.array_equal(misses, expected)
        empty = counting.misses(self.TRACE.pcs[:0], self.TRACE.outcomes[:0], [], 3)
        assert empty.shape == (len(predictors), 3) and not empty.any()

    def test_empty_stream(self, backend):
        results = simulate_batched_stream([spec.build() for spec in SWEEP_SPECS], iter(()))
        assert [r.predictor_name for r in results] == [s.build().name for s in SWEEP_SPECS]
        assert all(r.total_executions == 0 and len(r.pcs) == 0 for r in results)

    def test_sweep_without_configurations(self, backend):
        results = simulate_batched_stream([], chunks_of(self.TRACE, 997))
        assert results == []
