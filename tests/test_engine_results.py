"""Tests for SimulationResult, its per-PC attribution and the engine front end."""

import numpy as np
import pytest

from repro.engine import (
    BranchResult,
    SimulationResult,
    simulate,
    simulate_reference,
)
from repro.engine.results import _attribute_chunks
from repro.errors import ConfigurationError, TraceError
from repro.predictors import (
    AlwaysTakenPredictor,
    OraclePredictor,
    YagsPredictor,
    make_gas,
)
from repro.trace import Trace


class TestBranchResult:
    def test_miss_rate(self):
        assert BranchResult(pc=1, executions=10, mispredictions=3).miss_rate == 0.3

    def test_zero_executions(self):
        assert BranchResult(pc=1, executions=0, mispredictions=0).miss_rate == 0.0

    def test_invalid_counts(self):
        with pytest.raises(TraceError):
            BranchResult(pc=1, executions=2, mispredictions=3)
        with pytest.raises(TraceError):
            BranchResult(pc=1, executions=-1, mispredictions=0)


class TestSimulationResult:
    def make(self):
        return SimulationResult(
            [1, 2, 3], [10, 20, 30], [1, 2, 15],
            predictor_name="p", trace_name="t",
        )

    def test_mapping(self):
        r = self.make()
        assert len(r) == 3
        assert set(r) == {1, 2, 3}
        assert r[3].miss_rate == 0.5

    def test_aggregates(self):
        r = self.make()
        assert r.total_executions == 60
        assert r.total_mispredictions == 18
        assert r.miss_rate == pytest.approx(0.3)
        assert r.accuracy == pytest.approx(0.7)

    def test_miss_rates_array(self):
        r = self.make()
        assert np.allclose(r.miss_rates(), [0.1, 0.1, 0.5])

    def test_misses_for_subset(self):
        r = self.make()
        execs, misses = r.misses_for([1, 3])
        assert execs == 40
        assert misses == 16

    def test_empty(self):
        r = SimulationResult([], [], [])
        assert r.miss_rate == 0.0
        assert r.total_executions == 0

    def test_validation(self):
        with pytest.raises(TraceError):
            SimulationResult([1], [2], [3])  # misses > execs
        with pytest.raises(TraceError):
            SimulationResult([1, 2], [2], [1])  # ragged


class TestReferenceEngine:
    def test_always_taken_miss_attribution(self):
        trace = Trace.from_pairs([(1, 1), (1, 0), (2, 0), (2, 0)])
        result = simulate_reference(AlwaysTakenPredictor(), trace)
        assert result[1].mispredictions == 1
        assert result[2].mispredictions == 2
        assert result.miss_rate == 0.75

    def test_oracle_never_misses(self):
        rng = np.random.default_rng(1)
        trace = Trace(
            rng.integers(0, 10, size=200), rng.integers(0, 2, size=200, dtype=np.uint8)
        )
        result = simulate_reference(OraclePredictor(), trace)
        assert result.total_mispredictions == 0

    def test_reset_by_default(self):
        trace = Trace.from_pairs([(1, 0)] * 8)
        p = make_gas(0, pht_index_bits=4)
        first = simulate_reference(p, trace)
        second = simulate_reference(p, trace)
        assert first.total_mispredictions == second.total_mispredictions

    def test_no_reset_continues_training(self):
        trace = Trace.from_pairs([(1, 0)] * 8)
        p = make_gas(0, pht_index_bits=4)
        first = simulate_reference(p, trace)
        second = simulate_reference(p, trace, reset=False)
        # Warm start: the counter is already saturated not-taken.
        assert second.total_mispredictions < first.total_mispredictions

    def test_result_names(self):
        trace = Trace.from_pairs([(1, 1)], name="tn")
        result = simulate_reference(AlwaysTakenPredictor(), trace)
        assert result.trace_name == "tn"
        assert result.predictor_name == "always-taken"


class TestSimulateDispatch:
    def test_auto_uses_vectorized_for_twolevel(self):
        trace = Trace.from_pairs([(1, 1), (2, 0)] * 50)
        r_auto = simulate(make_gas(2, pht_index_bits=8), trace)
        r_ref = simulate(make_gas(2, pht_index_bits=8), trace, engine="reference")
        assert r_auto.total_mispredictions == r_ref.total_mispredictions

    def test_auto_falls_back_for_other_predictors(self):
        # The oracle is reference-only (it must be primed step by step).
        trace = Trace.from_pairs([(1, 1)] * 10)
        result = simulate(OraclePredictor(), trace)
        assert result.total_mispredictions == 0

    def test_auto_vectorizes_static_predictors(self):
        trace = Trace.from_pairs([(1, 1)] * 10)
        result = simulate(AlwaysTakenPredictor(), trace)
        assert result.total_mispredictions == 0

    def test_vectorized_rejects_unsupported(self):
        trace = Trace.from_pairs([(1, 1)])
        with pytest.raises(ConfigurationError):
            simulate(YagsPredictor(), trace, engine="vectorized")

    def test_batched_engine_single_predictor(self):
        trace = Trace.from_pairs([(1, 1), (2, 0)] * 50)
        r_batched = simulate(make_gas(2, pht_index_bits=8), trace, engine="batched")
        r_ref = simulate(make_gas(2, pht_index_bits=8), trace, engine="reference")
        assert np.array_equal(r_batched.mispredictions, r_ref.mispredictions)

    def test_batched_rejects_unsupported(self):
        trace = Trace.from_pairs([(1, 1)])
        with pytest.raises(ConfigurationError):
            simulate(YagsPredictor(), trace, engine="batched")

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            simulate(AlwaysTakenPredictor(), Trace.empty(), engine="quantum")


class TestAttributeChunks:
    """The one per-PC miss attribution behind every carrier."""

    @staticmethod
    def always(direction):
        return lambda pcs, outcomes: [np.full(len(pcs), direction, dtype=np.uint8)]

    def test_later_chunks_widen_the_sorted_pc_axis(self):
        chunks = [
            Trace.from_pairs([(40, 1), (20, 0), (40, 1)]),
            Trace.from_pairs([(10, 0), (40, 0), (30, 1)]),
            Trace.from_pairs([(20, 0), (50, 1)]),
        ]
        (result,) = _attribute_chunks(self.always(1), [AlwaysTakenPredictor()], chunks)
        assert list(result.pcs) == [10, 20, 30, 40, 50]
        assert list(result.executions) == [1, 2, 1, 3, 1]
        assert list(result.mispredictions) == [1, 2, 0, 1, 0]
        assert result.predictor_name == "always-taken"

    def test_one_row_per_predictor(self):
        def feed(pcs, outcomes):
            return [np.ones(len(pcs), np.uint8), np.zeros(len(pcs), np.uint8)]

        chunks = [(np.array([8, 4]), np.array([1, 0])), (np.array([4]), np.array([0]))]
        taken, not_taken = _attribute_chunks(
            feed, [AlwaysTakenPredictor(), AlwaysTakenPredictor()], chunks
        )
        assert list(taken.pcs) == list(not_taken.pcs) == [4, 8]
        assert list(taken.mispredictions) == [2, 0]
        assert list(not_taken.mispredictions) == [0, 1]

    def test_names_and_empty_chunks(self):
        chunks = [Trace.empty(), Trace.from_pairs([(4, 1)], name="first")]
        (named,) = _attribute_chunks(self.always(0), [AlwaysTakenPredictor()], chunks)
        assert named.trace_name == "first"
        (overridden,) = _attribute_chunks(
            self.always(0), [AlwaysTakenPredictor()], chunks, trace_name="given"
        )
        assert overridden.trace_name == "given"
        (empty,) = _attribute_chunks(self.always(0), [AlwaysTakenPredictor()], [Trace.empty()])
        assert len(empty.pcs) == 0 and empty.total_executions == 0
