"""Tests for the segmented prefix scans and their grouping helper."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.engine import (
    counter_step_table,
    segmented_automaton_scan,
    segmented_saturating_scan,
)
from repro.engine.scan import _monoid_after_ids, clamp_monoid, stable_key_order


class TestCounterStepTable:
    def test_two_bit_table(self):
        table = counter_step_table(2)
        assert table.shape == (2, 4)
        assert list(table[1]) == [1, 2, 3, 3]  # increment saturates at 3
        assert list(table[0]) == [0, 0, 1, 2]  # decrement saturates at 0

    def test_one_bit_table(self):
        table = counter_step_table(1)
        assert list(table[1]) == [1, 1]
        assert list(table[0]) == [0, 0]

    def test_bad_bits(self):
        with pytest.raises(ConfigurationError):
            counter_step_table(0)
        with pytest.raises(ConfigurationError):
            counter_step_table(7)


def reference_scan(step_table, inputs, segment_starts, initial):
    """Obvious per-step loop used as the oracle."""
    out = []
    state = initial
    for sym, is_start in zip(inputs, segment_starts):
        if is_start:
            state = initial
        out.append(state)
        state = int(step_table[sym, state])
    return np.asarray(out, dtype=np.uint8)


class TestSegmentedScan:
    def test_empty(self):
        table = counter_step_table(2)
        result = segmented_automaton_scan(table, np.zeros(0, int), np.zeros(0, bool), 2)
        assert len(result) == 0

    def test_single_segment(self):
        table = counter_step_table(2)
        inputs = np.array([1, 1, 0, 0, 0, 1])
        starts = np.array([True, False, False, False, False, False])
        result = segmented_automaton_scan(table, inputs, starts, 2)
        assert list(result) == [2, 3, 3, 2, 1, 0]

    def test_segment_restart(self):
        table = counter_step_table(2)
        inputs = np.array([1, 1, 0, 0])
        starts = np.array([True, False, True, False])
        result = segmented_automaton_scan(table, inputs, starts, 2)
        assert list(result) == [2, 3, 2, 1]

    def test_all_singleton_segments(self):
        table = counter_step_table(2)
        inputs = np.array([1, 0, 1, 0])
        starts = np.array([True, True, True, True])
        result = segmented_automaton_scan(table, inputs, starts, 2)
        assert list(result) == [2, 2, 2, 2]

    def test_first_position_must_start_segment(self):
        table = counter_step_table(2)
        with pytest.raises(ConfigurationError):
            segmented_automaton_scan(table, np.array([1]), np.array([False]), 2)

    def test_misaligned_starts(self):
        table = counter_step_table(2)
        with pytest.raises(ConfigurationError):
            segmented_automaton_scan(table, np.array([1, 0]), np.array([True]), 2)

    def test_bad_initial_state(self):
        table = counter_step_table(2)
        with pytest.raises(ConfigurationError):
            segmented_automaton_scan(table, np.array([1]), np.array([True]), 9)

    def test_long_single_segment(self):
        """Exercise several doubling passes."""
        rng = np.random.default_rng(0)
        inputs = rng.integers(0, 2, size=1000)
        starts = np.zeros(1000, dtype=bool)
        starts[0] = True
        table = counter_step_table(2)
        result = segmented_automaton_scan(table, inputs, starts, 2)
        assert np.array_equal(result, reference_scan(table, inputs, starts, 2))


def reference_saturating(taken, segment_starts, initial, max_state):
    """Obvious per-step saturating-counter loop used as the oracle."""
    out = []
    state = initial
    for t, is_start in zip(taken, segment_starts):
        if is_start:
            state = initial
        out.append(state)
        state = min(max(state + (1 if t else -1), 0), max_state)
    return np.asarray(out, dtype=np.uint8)


class TestSegmentedSaturatingScan:
    """Edge cases for the specialized counter scan, cross-checked
    against a pure-Python stepper."""

    def test_empty(self):
        result = segmented_saturating_scan(np.zeros(0, int), np.zeros(0, bool), 2, 3)
        assert len(result) == 0
        assert result.dtype == np.uint8

    def test_single_element_segments(self):
        taken = np.array([1, 0, 1, 1, 0])
        starts = np.ones(5, dtype=bool)
        result = segmented_saturating_scan(taken, starts, 2, 3)
        assert list(result) == [2, 2, 2, 2, 2]

    def test_one_giant_segment(self):
        rng = np.random.default_rng(7)
        taken = rng.integers(0, 2, size=5000)
        starts = np.zeros(5000, dtype=bool)
        starts[0] = True
        result = segmented_saturating_scan(taken, starts, 2, 3)
        assert np.array_equal(result, reference_saturating(taken, starts, 2, 3))

    def test_one_bit_counters(self):
        """max_state=1: every step saturates immediately."""
        taken = np.array([1, 1, 0, 1, 0, 0])
        starts = np.array([True, False, False, True, False, False])
        for initial in (0, 1):
            result = segmented_saturating_scan(taken, starts, initial, 1)
            assert np.array_equal(
                result, reference_saturating(taken, starts, initial, 1)
            )

    def test_saturated_runs(self):
        """Long same-direction runs pin the counter at the rails."""
        taken = np.array([1] * 20 + [0] * 20)
        starts = np.zeros(40, dtype=bool)
        starts[0] = True
        result = segmented_saturating_scan(taken, starts, 0, 3)
        assert np.array_equal(result, reference_saturating(taken, starts, 0, 3))
        assert result[4] == 3  # saturated high after 3 increments
        assert result[-1] == 0  # and back down to the floor

    def test_wide_counters_use_arithmetic_path(self):
        """max_state above the tabled bound exercises the clamp-algebra path."""
        rng = np.random.default_rng(8)
        taken = rng.integers(0, 2, size=2000)
        starts = rng.random(2000) < 0.01
        starts[0] = True
        for max_state in (15, 63):
            initial = (max_state + 1) // 2
            result = segmented_saturating_scan(taken, starts, initial, max_state)
            assert np.array_equal(
                result, reference_saturating(taken, starts, initial, max_state)
            )

    def test_matches_automaton_scan(self):
        """Same semantics as the generic scan over a counter step table."""
        rng = np.random.default_rng(9)
        taken = rng.integers(0, 2, size=1500)
        starts = rng.random(1500) < 0.05
        starts[0] = True
        table = counter_step_table(2)
        fast = segmented_saturating_scan(taken, starts, 2, 3)
        generic = segmented_automaton_scan(table, taken, starts, 2)
        assert np.array_equal(fast, generic)

    def test_first_position_must_start_segment(self):
        with pytest.raises(ConfigurationError):
            segmented_saturating_scan(np.array([1]), np.array([False]), 2, 3)

    def test_misaligned_starts(self):
        with pytest.raises(ConfigurationError):
            segmented_saturating_scan(np.array([1, 0]), np.array([True]), 2, 3)

    def test_bad_initial_state(self):
        with pytest.raises(ConfigurationError):
            segmented_saturating_scan(np.array([1]), np.array([True]), 4, 3)


@settings(max_examples=60)
@given(
    data=st.data(),
    bits=st.integers(1, 3),
    n=st.integers(0, 400),
)
def test_saturating_scan_matches_reference_property(data, bits, n):
    """Random inputs, random segment boundaries, every counter width:
    the specialized scan agrees with the per-step loop exactly."""
    max_state = (1 << bits) - 1
    taken = np.asarray(
        data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64
    )
    starts = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    if n:
        starts[0] = True
    initial = data.draw(st.integers(0, max_state))
    got = segmented_saturating_scan(taken, starts, initial, max_state)
    assert np.array_equal(got, reference_saturating(taken, starts, initial, max_state))


def clamp_word(word, state, max_state):
    for step in word:
        state = max(state - 1, 0) if step == 0 else min(state + 1, max_state)
    return state


class TestClampMonoid:
    """The interned clamp-function monoid behind the tabled scan."""

    @pytest.mark.parametrize("max_state", (1, 3, 7))
    def test_steps_and_composition_match_brute_force(self, max_state):
        monoid = clamp_monoid(max_state)
        rng = np.random.default_rng(max_state)
        for _ in range(50):
            word = rng.integers(0, 2, rng.integers(1, 12)).tolist()
            fid = monoid.step_ids[word[0]]
            for step in word[1:]:
                fid = monoid.compose[monoid.step_ids[step], fid]
            for init in range(max_state + 1):
                assert monoid.values[fid, init] == clamp_word(word, init, max_state)

    def test_associativity_exhaustive_small(self):
        monoid = clamp_monoid(3)
        ids = range(len(monoid.values))
        for a, b, c in itertools.product(ids, repeat=3):
            assert (
                monoid.compose[monoid.compose[c, b], a]
                == monoid.compose[c, monoid.compose[b, a]]
            )

    def test_rejects_wide_counters(self):
        with pytest.raises(ConfigurationError):
            clamp_monoid(8)
        with pytest.raises(ConfigurationError):
            clamp_monoid(0)


class TestMonoidScanReplay:
    """The tabled scan yields clamp-function ids, not states: each id
    replays its segment's steps from *any* entry state, so one scan
    serves the scalar reset and per-segment carried values alike."""

    @pytest.mark.parametrize("max_state", (1, 3, 7))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_ids_replay_from_any_entry_state(self, max_state, seed):
        rng = np.random.default_rng(seed)
        n = 300
        taken = rng.integers(0, 2, n).astype(np.uint8)
        starts = np.zeros(n, dtype=bool)
        starts[0] = True
        starts[rng.integers(1, n, 12)] = True
        after_ids = _monoid_after_ids(taken, starts, max_state)
        values = clamp_monoid(max_state).values
        for init in range(max_state + 1):
            state = init
            for i in range(n):
                if starts[i]:
                    state = init
                state = clamp_word([int(taken[i])], state, max_state)
                assert values[after_ids[i], init] == state


def segment_initial_states(starts, rng, max_state):
    """A per-element initial-state array, constant within each segment."""
    segment_ids = np.cumsum(starts) - 1
    per_segment = rng.integers(0, max_state + 1, segment_ids[-1] + 1)
    return per_segment[segment_ids].astype(np.uint8)


def reference_from_carried(step, inputs, segment_starts, initial):
    """Per-step loop where each segment starts from its own value."""
    out = []
    state = 0
    for i, (sym, is_start) in enumerate(zip(inputs, segment_starts)):
        if is_start:
            state = int(initial[i])
        out.append(state)
        state = step(int(sym), state)
    return np.asarray(out, dtype=np.uint8)


class TestCarriedInitialStates:
    """Per-element initial states: the form every carrier passes after
    its first chunk, each counter resuming from its carried value."""

    @pytest.mark.parametrize("max_state", (1, 3, 7, 15, 63))
    def test_saturating_scan_resumes_each_segment(self, max_state):
        rng = np.random.default_rng(max_state)
        n = 3000
        taken = rng.integers(0, 2, n)
        starts = rng.random(n) < 0.02
        starts[0] = True
        initial = segment_initial_states(starts, rng, max_state)
        got = segmented_saturating_scan(taken, starts, initial, max_state)
        expected = reference_from_carried(
            lambda t, s: clamp_word([t], s, max_state), taken, starts, initial
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("max_state", (1, 3, 7, 15))
    def test_scalar_equals_constant_array(self, max_state):
        # A carrier never fed scans from its scalar reset value; that
        # must equal scanning from a table filled with that value.
        rng = np.random.default_rng(max_state + 100)
        n = 2000
        taken = rng.integers(0, 2, n)
        starts = rng.random(n) < 0.05
        starts[0] = True
        for reset in range(max_state + 1):
            constant = np.full(n, reset, dtype=np.uint8)
            assert np.array_equal(
                segmented_saturating_scan(taken, starts, reset, max_state),
                segmented_saturating_scan(taken, starts, constant, max_state),
            )

    @pytest.mark.parametrize("bits", (1, 2, 3))
    def test_automaton_scan_resumes_each_segment(self, bits):
        # Decrement / increment / hold: the tournament chooser's automaton.
        table = np.vstack(
            [counter_step_table(bits), np.arange(1 << bits, dtype=np.uint8)[None]]
        )
        rng = np.random.default_rng(bits)
        n = 2000
        inputs = rng.integers(0, 3, n)
        starts = rng.random(n) < 0.03
        starts[0] = True
        initial = segment_initial_states(starts, rng, (1 << bits) - 1)
        got = segmented_automaton_scan(table, inputs, starts, initial)
        expected = reference_from_carried(
            lambda sym, s: int(table[sym, s]), inputs, starts, initial
        )
        assert np.array_equal(got, expected)

    def test_rejects_misshapen_initial_array(self):
        with pytest.raises(ConfigurationError, match="shape"):
            segmented_saturating_scan(
                np.array([1, 0]), np.array([True, False]), np.array([1], np.uint8), 3
            )

    def test_rejects_out_of_range_initial_array(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            segmented_saturating_scan(
                np.array([1, 0]), np.array([True, True]), np.array([1, 4], np.uint8), 3
            )


class TestStableKeyOrder:
    @pytest.mark.parametrize("key_bits", [8, 16, 17, 23, 24, 25, 32])
    def test_matches_argsort(self, key_bits):
        rng = np.random.default_rng(key_bits)
        keys = rng.integers(0, 1 << key_bits, size=4000)
        assert np.array_equal(
            stable_key_order(keys, key_bits), np.argsort(keys, kind="stable")
        )

    def test_stability_preserves_time_order(self):
        keys = np.array([3, 1, 3, 1, 3, 2])
        order = stable_key_order(keys, 17)
        assert list(order) == [1, 3, 5, 0, 2, 4]

    def test_wide_keys_fall_back(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 40, size=1000)
        assert np.array_equal(
            stable_key_order(keys, 40), np.argsort(keys, kind="stable")
        )


@settings(max_examples=60)
@given(
    data=st.data(),
    bits=st.integers(1, 3),
    n=st.integers(0, 400),
)
def test_scan_matches_reference_property(data, bits, n):
    """The doubling scan agrees with a step-by-step loop on random
    inputs, random segment boundaries, and all counter widths."""
    table = counter_step_table(bits)
    inputs = np.asarray(
        data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64
    )
    starts = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    if n:
        starts[0] = True
    initial = data.draw(st.integers(0, (1 << bits) - 1))
    got = segmented_automaton_scan(table, inputs, starts, initial)
    expected = reference_scan(table, inputs, starts, initial)
    assert np.array_equal(got, expected)
