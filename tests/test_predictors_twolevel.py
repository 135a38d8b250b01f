"""Tests for repro.predictors.twolevel and paper_configs."""

import numpy as np
import pytest

from repro.engine import simulate, simulate_reference
from repro.errors import ConfigurationError, PredictorError
from repro.predictors import (
    BUDGET_BYTES,
    TwoLevelPredictor,
    make_gas,
    make_gselect,
    make_gshare,
    make_pas,
    make_pshare,
    paper_gas,
    paper_pas,
    paper_predictor,
    pas_bht_entries,
)
from repro.spec import TwoLevelSpec
from repro.trace import Trace


class TestTwoLevelConstruction:
    def test_bad_history_kind(self):
        with pytest.raises(PredictorError):
            TwoLevelPredictor(history_kind="weird", history_bits=2, pht_index_bits=4)

    def test_bad_index_scheme(self):
        with pytest.raises(PredictorError):
            TwoLevelPredictor(
                history_kind="global", history_bits=2, pht_index_bits=4, index_scheme="nope"
            )

    def test_concat_history_too_long(self):
        with pytest.raises(PredictorError):
            TwoLevelPredictor(history_kind="global", history_bits=8, pht_index_bits=4)

    def test_per_address_needs_bht(self):
        with pytest.raises(PredictorError):
            TwoLevelPredictor(history_kind="per-address", history_bits=4, pht_index_bits=8)

    def test_negative_history(self):
        with pytest.raises(PredictorError):
            TwoLevelPredictor(history_kind="global", history_bits=-1, pht_index_bits=4)


class TestHistoryBound:
    """Histories are at most 32 bits: the oracle's BHT rows are uint32
    and the compiled sweep kernel's int64 arithmetic relies on it."""

    @staticmethod
    def geometry(history_kind, history_bits):
        return dict(
            history_kind=history_kind,
            history_bits=history_bits,
            pht_index_bits=8,
            index_scheme="xor",
            bht_entries=16,
        )

    @pytest.mark.parametrize("history_kind", ["global", "per-address"])
    @pytest.mark.parametrize("history_bits", [33, 64])
    def test_wider_histories_rejected(self, history_kind, history_bits):
        with pytest.raises(ConfigurationError, match="history_bits"):
            TwoLevelSpec(**self.geometry(history_kind, history_bits))
        with pytest.raises(PredictorError, match="history_bits"):
            TwoLevelPredictor(**self.geometry(history_kind, history_bits))

    @pytest.mark.parametrize("history_kind", ["global", "per-address"])
    def test_32_bits_run_alike_on_every_path(self, backend, history_kind):
        rng = np.random.default_rng(32)
        pcs = rng.integers(0, 50, 2000) * 4 + 0x1000
        trace = Trace(pcs, (rng.random(2000) < 0.7).astype(np.uint8), name="h32")
        spec = TwoLevelSpec(**self.geometry(history_kind, 32))
        expected = simulate_reference(spec.build(), trace)
        result = simulate(spec, trace)
        assert np.array_equal(result.mispredictions, expected.mispredictions)


class TestIndexArithmetic:
    def test_concat_index_layout(self):
        p = make_gselect(3, pht_index_bits=8)
        # History 0b101, PC fill bits = low 5 bits of PC.
        for taken in (True, False, True):
            p.update(0, taken)
        # update pushes history *after* using it, so current history is 101.
        assert p.global_history.value == 0b101
        assert p.pht_index(0b11111) == (0b101 << 5) | 0b11111

    def test_xor_index(self):
        p = make_gshare(4, pht_index_bits=4)
        p.update(0, True)  # history becomes 0b0001
        assert p.pht_index(0b1010) == 0b1010 ^ 0b0001

    def test_zero_history_uses_pc_only(self):
        p = make_gas(0, pht_index_bits=6)
        assert p.pht_index(0b101010) == 0b101010
        assert p.pht_index(0b101010 | (1 << 10)) == 0b101010  # masked

    def test_per_address_history_index(self):
        p = make_pas(2, pht_index_bits=6, bht_entries=8)
        p.update(1, True)
        p.update(1, True)
        p.update(2, False)
        # Branch 1 history = 0b11, branch 2 history = 0b0.
        assert p.pht_index(1) == (0b11 << 4) | 1
        assert p.pht_index(2) == 2


class TestLearning:
    def test_learns_alternating_with_history(self):
        """A 2-bit-history predictor locks onto a T/N/T/N branch."""
        p = make_gas(2, pht_index_bits=8)
        outcomes = [bool(i % 2) for i in range(60)]
        correct = [p.access(4, o) for o in outcomes]
        assert all(correct[-20:])  # converged

    def test_zero_history_fails_alternating(self):
        """Without history, an alternating branch is near 50% or worse."""
        p = make_gas(0, pht_index_bits=8)
        outcomes = [bool(i % 2) for i in range(100)]
        correct = [p.access(4, o) for o in outcomes]
        assert sum(correct[-50:]) <= 30

    def test_per_address_isolates_histories(self):
        """PAs predicts an alternating branch even when another branch
        interleaves (which would scramble a global history)."""
        p = make_pas(2, pht_index_bits=10, bht_entries=16)
        import random

        rng = random.Random(7)
        correct_alt = []
        for i in range(300):
            correct_alt.append(p.access(4, bool(i % 2)))
            p.access(5, rng.random() < 0.5)  # noise branch
        assert sum(correct_alt[-50:]) >= 45

    def test_global_history_correlation(self):
        """GAs learns branch B = outcome of branch A (correlation)."""
        p = make_gas(1, pht_index_bits=10)
        import random

        rng = random.Random(3)
        correct_b = []
        for _ in range(400):
            a = rng.random() < 0.5
            p.access(8, a)
            correct_b.append(p.access(12, a))  # B copies A
        assert sum(correct_b[-100:]) >= 90

    def test_reset_restores_initial(self):
        p = make_gshare(4, pht_index_bits=8)
        for i in range(50):
            p.update(i % 3, bool(i % 2))
        p.reset()
        fresh = make_gshare(4, pht_index_bits=8)
        for pc in range(8):
            assert p.predict(pc) == fresh.predict(pc)


class TestPaperConfigs:
    def test_gas_budget_is_32kb(self):
        for k in range(17):
            p = paper_gas(k)
            assert p.pht.entries == 1 << 17
            # PHT alone is the 32 KB budget; history register is negligible.
            assert p.pht.storage_bits() == BUDGET_BYTES * 8

    def test_pas_budget_within_32kb(self):
        for k in range(1, 17):
            p = paper_pas(k)
            assert p.pht.entries == 1 << 16
            assert p.storage_bits() <= BUDGET_BYTES * 8

    def test_pas_bht_entries_formula(self):
        assert pas_bht_entries(1) == 1 << 17
        assert pas_bht_entries(2) == 1 << 16
        assert pas_bht_entries(3) == 1 << 15
        assert pas_bht_entries(16) == 1 << 13

    def test_pas_bht_is_power_of_two(self):
        for k in range(1, 17):
            n = pas_bht_entries(k)
            assert n & (n - 1) == 0

    def test_zero_history_degenerate_equivalence(self):
        """At history 0, PAs and GAs are the same 2^17-counter table."""
        pas = paper_pas(0)
        gas = paper_gas(0)
        import random

        rng = random.Random(11)
        for _ in range(500):
            pc = rng.randrange(1 << 18)
            taken = rng.random() < 0.6
            assert pas.predict(pc) == gas.predict(pc)
            pas.update(pc, taken)
            gas.update(pc, taken)

    def test_paper_predictor_factory(self):
        assert paper_predictor("gas", 4).name == "GAs-h4"
        assert paper_predictor("PAS", 4).name == "PAs-h4"
        with pytest.raises(ConfigurationError):
            paper_predictor("tage", 4)

    def test_history_out_of_range(self):
        with pytest.raises(ConfigurationError):
            paper_gas(17)
        with pytest.raises(ConfigurationError):
            paper_pas(-1)
        with pytest.raises(ConfigurationError):
            pas_bht_entries(0)


class TestFactories:
    def test_names(self):
        assert make_gas(4).name == "GAs-h4"
        assert make_pas(4).name == "PAs-h4"
        assert make_gshare(8).name == "gshare-h8"
        assert make_gselect(4, pht_index_bits=10).name == "gselect-h4"
        assert make_pshare(6).name == "pshare-h6"

    def test_gshare_default_pht_size(self):
        assert make_gshare(10).pht.entries == 1 << 10

    def test_pshare_has_bht(self):
        p = make_pshare(6, bht_entries=64)
        assert p.bht is not None
        assert p.bht.entries == 64

    def test_gas_exposes_global_history(self):
        p = make_gas(5)
        assert p.global_history is not None
        assert p.bht is None
