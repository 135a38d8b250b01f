"""Tests for the batched multi-configuration carrier.

The batched carrier must be bit-exact with the step-accurate reference
engine for every configuration in the batch, across stack sizes, chunk
splits, geometry mixes and deduplicated configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    predictions_batched,
    simulate,
    simulate_batched,
    simulate_batched_stream,
    simulate_reference,
    simulate_stream,
    simulate_sweep,
    simulate_sweep_stream,
    stream_simulator,
    supports_batched,
)
from repro.engine.batched import (
    BatchedStream,
    _Carried,
    _global_window,
    _GlobalHistory,
    _SlotHistory,
)
from repro.errors import ConfigurationError
from repro.session import Session
from repro.spec import (
    AgreeSpec,
    BimodalSpec,
    StaticSpec,
    TournamentSpec,
    TwoLevelSpec,
    YagsSpec,
)
from repro.predictors import (
    BimodalPredictor,
    YagsPredictor,
    make_gas,
    make_gshare,
    make_pas,
    make_pshare,
    paper_predictor,
)
from repro.trace import Trace


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
    def test_matches_reference_per_config(self):
        trace = random_trace(1, 3000, 40)
        predictors = mixed_predictors()
        batched = predictions_batched(predictors, trace)
        for predictor, predictions in zip(predictors, batched):
            assert np.array_equal(predictions, reference_predictions(predictor, trace))

    def test_chunking_is_invisible(self):
        trace = random_trace(2, 2000, 30)
        predictors = [paper_predictor("gas", k) for k in range(8)]
        full = predictions_batched(predictors, trace)
        tiny = predictions_batched(predictors, trace, max_chunk_elements=500)
        for a, b in zip(full, tiny):
            assert np.array_equal(a, b)

    def test_duplicate_configs_share_one_simulation(self):
        trace = random_trace(3, 1500, 20)
        predictors = [paper_predictor("pas", 0), paper_predictor("gas", 0)]
        a, b = predictions_batched(predictors, trace)
        # PAs-h0 and GAs-h0 are the same machine; the engine dedupes
        # them into one simulation, and both views must agree.
        assert a is b

    def test_empty_trace(self):
        results = predictions_batched(
            [make_gas(2, pht_index_bits=6)], Trace.empty()
        )
        assert len(results) == 1 and len(results[0]) == 0

    def test_rejects_unsupported(self):
        with pytest.raises(ConfigurationError):
            predictions_batched([YagsPredictor()], random_trace(4, 100, 5))
        assert not supports_batched(YagsPredictor())
        assert supports_batched(make_gas(2, pht_index_bits=6))

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError):
            predictions_batched(
                [make_gas(2, pht_index_bits=6)],
                random_trace(5, 100, 5),
                max_chunk_elements=0,
            )


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


class TestSimulateSweep:
    def test_matches_reference_every_config(self):
        trace = random_trace(8, 2000, 40)
        lengths = tuple(range(0, 7))
        sweep = simulate_sweep(trace, history_lengths=lengths)
        for kind in ("pas", "gas"):
            for k in lengths:
                ref = simulate_reference(paper_predictor(kind, k), trace)
                got = sweep.result(kind, k)
                assert np.array_equal(got.mispredictions, ref.mispredictions), (
                    f"mismatch for {kind} h{k}"
                )

    def test_keys_and_shared_columns(self):
        trace = random_trace(9, 800, 10)
        sweep = simulate_sweep(trace, kinds=("gas",), history_lengths=(0, 2, 4))
        assert sweep.keys() == [("gas", 0), ("gas", 2), ("gas", 4)]
        assert sweep.executions.sum() == len(trace)
        assert np.array_equal(sweep.pcs, np.unique(trace.pcs))

    def test_unknown_config_raises(self):
        sweep = simulate_sweep(random_trace(10, 500, 8), history_lengths=(0, 1))
        with pytest.raises(ConfigurationError):
            sweep.mispredictions("gas", 9)

    def test_empty_trace(self):
        sweep = simulate_sweep(Trace.empty(), history_lengths=(0, 1))
        assert len(sweep.pcs) == 0
        assert sweep.result("pas", 1).total_executions == 0


class TestSweepEngineAgreement:
    """run_sweep grids are identical whichever engine computes them."""

    @pytest.mark.parametrize("forced", ["vectorized", "reference"])
    def test_grids_match(self, forced):
        from repro.analysis import SweepConfig, run_sweep

        trace = random_trace(11, 1200, 25)
        lengths = tuple(range(0, 5))
        batched = run_sweep([trace], SweepConfig(history_lengths=lengths))
        other = run_sweep(
            [trace], SweepConfig(history_lengths=lengths, engine=forced)
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


class TestBatchedEngineRequests:
    """Every entry point rejects engine="batched" for other families
    with the same error."""

    @pytest.mark.parametrize("spec", [AgreeSpec(), TournamentSpec(), StaticSpec(), YagsSpec()])
    @pytest.mark.parametrize("entry", ["simulate", "simulate_stream", "Session"])
    def test_non_twolevel_rejected(self, entry, spec):
        trace = random_trace(12, 200, 10)
        name = type(spec.build()).__name__
        with pytest.raises(ConfigurationError, match=f"{name} cannot use the batched engine"):
            if entry == "simulate":
                simulate(spec, trace, engine="batched")
            elif entry == "simulate_stream":
                simulate_stream(spec, [trace], engine="batched")
            else:
                session = Session(engine="batched")
                session.submit(trace, spec)
                session.run()

    def test_twolevel_accepted(self):
        trace = random_trace(13, 500, 10)
        expected = simulate_reference(paper_predictor("gas", 4), trace)
        for result in (
            simulate(paper_predictor("gas", 4), trace, engine="batched"),
            simulate_stream(paper_predictor("gas", 4), [trace], engine="batched"),
        ):
            assert np.array_equal(result.mispredictions, expected.mispredictions)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 400),
    num_pcs=st.integers(1, 40),
    chunk=st.integers(64, 4096),
    split=st.integers(1, 400),
)
def test_batched_sweep_property(seed, n, num_pcs, chunk, split):
    """Random traces, stack sizes and chunk splits: batched == reference."""
    trace = random_trace(seed, n, num_pcs)
    predictors = [paper_predictor(kind, k) for kind in ("pas", "gas") for k in (0, 1, 3, 8)]
    chunks = (trace[start : start + split] for start in range(0, n, split))
    results = simulate_batched_stream(predictors, chunks, max_chunk_elements=chunk)
    for predictor, result in zip(predictors, results):
        expected = simulate_reference(predictor, trace)
        assert np.array_equal(result.pcs, expected.pcs)
        assert np.array_equal(result.executions, expected.executions)
        assert np.array_equal(result.mispredictions, expected.mispredictions)


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

    def test_one_chunk_never_builds_the_pht(self):
        # An in-memory simulation is one chunk: it must not allocate a
        # table sized for every PHT entry of every configuration.
        trace = random_trace(15, 500, 20)
        stream = BatchedStream([paper_predictor(kind, 12) for kind in ("pas", "gas")])
        stream.feed(trace.pcs, trace.outcomes)
        assert stream._pht._table is None
        stream.feed(trace.pcs, trace.outcomes)
        assert stream._pht._table is not None


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
    one-record chunks, odd splits and the whole trace as one chunk."""

    TRACE = random_trace(16, 3000, 90, bias=0.7)

    @pytest.mark.parametrize("chunk_len", (1, 7, 997, 1 << 20))
    def test_matches_reference(self, chunk_len):
        results = simulate_batched_stream(
            [spec.build() for spec in SWEEP_SPECS], chunks_of(self.TRACE, chunk_len)
        )
        assert_matches_reference(SWEEP_SPECS, results, self.TRACE)

    def test_small_budget_splits_the_stack_within_chunks(self):
        results = simulate_batched_stream(
            [spec.build() for spec in SWEEP_SPECS],
            chunks_of(self.TRACE, 997),
            max_chunk_elements=1 << 11,
        )
        assert_matches_reference(SWEEP_SPECS, results, self.TRACE)

    @pytest.mark.parametrize("chunk_len", (7, 997))
    def test_wide_counters_resume(self, chunk_len):
        # 4-bit counters take the arithmetic scan, not the tabled one.
        specs = [TwoLevelSpec(history_bits=4, counter_bits=4)]
        results = simulate_batched_stream(
            [spec.build() for spec in specs], chunks_of(self.TRACE, chunk_len)
        )
        assert_matches_reference(specs, results, self.TRACE)

    def test_empty_stream(self):
        results = simulate_batched_stream([spec.build() for spec in SWEEP_SPECS], iter(()))
        assert [r.predictor_name for r in results] == [s.build().name for s in SWEEP_SPECS]
        assert all(r.total_executions == 0 and len(r.pcs) == 0 for r in results)

    def test_sweep_without_configurations(self):
        sweep = simulate_sweep_stream([self.TRACE], kinds=(), trace_name="none")
        assert sweep.keys() == []
        assert sweep.trace_name == "none"
        assert len(sweep.pcs) == 0
