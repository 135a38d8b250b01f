"""Tests for repro.trace.stats — the taken/transition aggregation pass."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace import BranchStats, Trace, TraceStats, taken_rate, transition_rate


class TestTakenRate:
    def test_basic(self):
        assert taken_rate(3, 4) == 0.75

    def test_zero_executions(self):
        assert taken_rate(0, 0) == 0.0

    def test_all_taken(self):
        assert taken_rate(10, 10) == 1.0

    def test_taken_exceeds_executions(self):
        with pytest.raises(TraceError):
            taken_rate(5, 4)

    def test_negative(self):
        with pytest.raises(TraceError):
            taken_rate(-1, 4)


class TestTransitionRate:
    def test_alternating_is_one(self):
        # T N T N -> 3 transitions over 4 executions -> rate 1.0
        assert transition_rate(3, 4) == 1.0

    def test_constant_is_zero(self):
        assert transition_rate(0, 100) == 0.0

    def test_single_execution(self):
        assert transition_rate(0, 1) == 0.0

    def test_zero_executions(self):
        assert transition_rate(0, 0) == 0.0

    def test_single_execution_with_transition_rejected(self):
        with pytest.raises(TraceError):
            transition_rate(1, 1)

    def test_too_many_transitions_rejected(self):
        with pytest.raises(TraceError):
            transition_rate(4, 4)

    def test_half(self):
        assert transition_rate(2, 5) == 0.5


class TestBranchStats:
    def test_properties(self):
        s = BranchStats(pc=1, executions=10, taken=7, transitions=3)
        assert s.not_taken == 3
        assert s.taken_rate == 0.7
        assert s.transition_rate == pytest.approx(3 / 9)

    def test_inconsistent_rejected(self):
        with pytest.raises(TraceError):
            BranchStats(pc=1, executions=4, taken=5, transitions=0)
        with pytest.raises(TraceError):
            BranchStats(pc=1, executions=4, taken=2, transitions=4)


def stats_of(pairs):
    return TraceStats.from_trace(Trace.from_pairs(pairs))


class TestTraceStatsAggregation:
    def test_single_branch(self):
        s = stats_of([(5, 1), (5, 1), (5, 0), (5, 1)])
        b = s[5]
        assert b.executions == 4
        assert b.taken == 3
        assert b.transitions == 2  # T T N T -> N after T, T after N

    def test_multiple_branches_interleaved(self):
        # Branch 1: T N T (2 transitions); branch 2: N N (0 transitions).
        s = stats_of([(1, 1), (2, 0), (1, 0), (2, 0), (1, 1)])
        assert s[1].transitions == 2
        assert s[2].transitions == 0
        assert s[1].executions == 3
        assert s[2].executions == 2

    def test_interleaving_does_not_create_transitions(self):
        # Each branch is constant; adjacency in the global stream is
        # irrelevant — transitions are per-branch.
        s = stats_of([(1, 1), (2, 0), (1, 1), (2, 0)])
        assert s[1].transitions == 0
        assert s[2].transitions == 0

    def test_alternating_branch(self):
        pairs = [(9, i % 2) for i in range(10)]
        s = stats_of(pairs)
        assert s[9].transitions == 9
        assert s[9].transition_rate == 1.0

    def test_empty_trace(self):
        s = TraceStats.from_trace(Trace.empty())
        assert len(s) == 0
        assert s.total_dynamic == 0
        assert len(s.dynamic_weights()) == 0

    def test_mapping_protocol(self):
        s = stats_of([(3, 1), (1, 0), (3, 0)])
        assert set(s) == {1, 3}
        assert len(s) == 2
        assert 1 in s
        assert 2 not in s

    def test_missing_pc_raises(self):
        s = stats_of([(3, 1)])
        with pytest.raises(KeyError):
            s[99]

    def test_total_dynamic(self):
        s = stats_of([(1, 1), (2, 0), (1, 0)])
        assert s.total_dynamic == 3

    def test_columns_sorted_by_pc(self):
        s = stats_of([(30, 1), (10, 0), (20, 1)])
        assert list(s.pcs) == [10, 20, 30]

    def test_rate_arrays_align_with_pcs(self):
        s = stats_of([(1, 1), (1, 1), (2, 1), (2, 0), (2, 1)])
        tr = s.taken_rates()
        xr = s.transition_rates()
        assert tr[0] == 1.0  # pc 1
        assert tr[1] == pytest.approx(2 / 3)  # pc 2
        assert xr[0] == 0.0
        assert xr[1] == 1.0  # T N T alternates

    def test_dynamic_weights_sum_to_one(self):
        s = stats_of([(1, 1), (2, 0), (2, 1), (3, 0)])
        assert s.dynamic_weights().sum() == pytest.approx(1.0)

    def test_single_execution_branch_rates(self):
        s = stats_of([(1, 1)])
        assert s[1].taken_rate == 1.0
        assert s[1].transition_rate == 0.0


def reference_stats(pairs):
    """Slow, obviously-correct per-branch aggregation used as an oracle."""
    streams = {}
    for pc, taken in pairs:
        streams.setdefault(pc, []).append(taken)
    result = {}
    for pc, outs in streams.items():
        transitions = sum(1 for a, b in zip(outs, outs[1:]) if a != b)
        result[pc] = (len(outs), sum(outs), transitions)
    return result


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(0, 1)),
        max_size=300,
    )
)
def test_vectorized_aggregation_matches_oracle(pairs):
    """The grouped numpy pass agrees with a naive per-branch loop."""
    s = stats_of(pairs)
    oracle = reference_stats(pairs)
    assert set(s) == set(oracle)
    for pc, (n, taken, trans) in oracle.items():
        b = s[pc]
        assert (b.executions, b.taken, b.transitions) == (n, taken, trans)


# An example past the uint16 boundary runs the slow oracle over 65k
# records (~0.3 s), so this test bounds its own example count in every
# hypothesis profile.
@settings(deadline=None, max_examples=40)
@given(
    distinct=st.sampled_from([0, 1, 255, 256, 257, 65_535, 65_536, 65_537]),
    extra=st.integers(0, 400),
    cuts=st.lists(st.floats(0, 1), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_aggregation_matches_oracle_at_id_dtype_boundaries(distinct, extra, cuts, seed):
    """The oracle again, with branch counts on both sides of each id
    dtype boundary (uint8/uint16/uint32), whole and split into chunks."""
    rng = np.random.default_rng(seed)
    pcs = rng.permutation(np.unique(rng.integers(0, 2**40, distinct + 64))[:distinct])
    extra = extra if distinct else 0
    slots = np.concatenate([np.arange(distinct), rng.integers(0, distinct or 1, extra)])
    slots = rng.permutation(slots)
    trace = Trace(pcs[slots], rng.integers(0, 2, len(slots)))
    oracle = reference_stats(zip(trace.pcs.tolist(), trace.outcomes.tolist()))
    want_pcs = np.fromiter(oracle, dtype=np.int64, count=len(oracle))
    counts = itertools.chain.from_iterable(oracle.values())
    want = np.fromiter(counts, dtype=np.int64, count=3 * len(oracle)).reshape(-1, 3)
    order = np.argsort(want_pcs)
    bounds = sorted(int(cut * len(trace)) for cut in cuts)
    chunks = [trace[a:b] for a, b in zip([0, *bounds], [*bounds, len(trace)])]
    for s in (TraceStats.from_trace(trace), TraceStats.from_chunks(chunks)):
        assert np.array_equal(s.pcs, want_pcs[order])
        assert np.array_equal(np.column_stack([s.executions, s.taken, s.transitions]), want[order])


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=10), st.integers(0, 1)),
        min_size=1,
        max_size=200,
    )
)
def test_rates_are_bounded(pairs):
    """All rates lie in [0, 1] and transitions fit the feasibility bound."""
    s = stats_of(pairs)
    tr = s.taken_rates()
    xr = s.transition_rates()
    assert np.all((tr >= 0) & (tr <= 1))
    assert np.all((xr >= 0) & (xr <= 1))
    # Feasibility: transitions <= 2 * min(taken, not_taken) + 1
    for pc in s:
        b = s[pc]
        assert b.transitions <= 2 * min(b.taken, b.not_taken) + 1
