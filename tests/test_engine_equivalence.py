"""Exact-equivalence tests: the carriers vs the reference engine.

These are the load-bearing tests of the repo: every paper experiment
runs on the carriers (``simulate``), and these tests pin their
semantics to the step-accurate reference for the full two-level family
across history kinds, index schemes, history lengths, aliasing regimes
and counter widths, and for the agree, tournament and hybrid carriers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import simulate, simulate_reference
from repro.predictors import (
    AgreePredictor,
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BimodalPredictor,
    ClassRoutedHybrid,
    ProfileStaticPredictor,
    TournamentPredictor,
    TwoLevelPredictor,
    YagsPredictor,
    make_gas,
    make_gshare,
    make_pas,
    make_pshare,
    paper_gas,
    paper_pas,
)
from repro.trace import Trace


def random_trace(seed, n, num_pcs, bias=0.5):
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, num_pcs, size=n) * 4 + 0x1000
    outcomes = (rng.random(n) < bias).astype(np.uint8)
    return Trace(pcs, outcomes, name=f"rand{seed}")


def assert_equivalent(predictor_factory, trace):
    ref = simulate_reference(predictor_factory(), trace)
    vec = simulate(predictor_factory(), trace)
    assert ref.total_executions == vec.total_executions
    assert np.array_equal(ref.pcs, vec.pcs)
    assert np.array_equal(ref.mispredictions, vec.mispredictions), (
        f"mismatch for {predictor_factory().name}"
    )


class TestEquivalenceGlobal:
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
    def test_gas(self, k):
        assert_equivalent(lambda: make_gas(k, pht_index_bits=10), random_trace(1, 3000, 40))

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_gshare(self, k):
        assert_equivalent(lambda: make_gshare(k, pht_index_bits=8), random_trace(2, 3000, 40))

    def test_gas_heavy_aliasing(self):
        # 5-bit PHT with 200 static branches: constant interference.
        assert_equivalent(
            lambda: make_gas(2, pht_index_bits=5), random_trace(3, 4000, 200)
        )

    def test_biased_outcomes(self):
        assert_equivalent(
            lambda: make_gas(4, pht_index_bits=10), random_trace(4, 3000, 30, bias=0.9)
        )


class TestEquivalencePerAddress:
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_pas(self, k):
        assert_equivalent(
            lambda: make_pas(k, pht_index_bits=10, bht_entries=32),
            random_trace(5, 3000, 40),
        )

    def test_pas_bht_aliasing(self):
        # 8-entry BHT with 50 branches: histories are shared/corrupted,
        # and the vectorized window must reproduce that corruption.
        assert_equivalent(
            lambda: make_pas(4, pht_index_bits=10, bht_entries=8),
            random_trace(6, 4000, 50),
        )

    @pytest.mark.parametrize("k", [1, 5])
    def test_pshare(self, k):
        assert_equivalent(
            lambda: make_pshare(k, pht_index_bits=8, bht_entries=16),
            random_trace(7, 3000, 40),
        )

    def test_pas_zero_history(self):
        assert_equivalent(
            lambda: make_pas(0, pht_index_bits=10), random_trace(8, 2000, 40)
        )


class TestEquivalencePaperConfigs:
    @pytest.mark.parametrize("k", [0, 1, 8, 16])
    def test_paper_gas(self, k):
        assert_equivalent(lambda: paper_gas(k), random_trace(9, 2000, 60))

    @pytest.mark.parametrize("k", [0, 1, 8, 16])
    def test_paper_pas(self, k):
        assert_equivalent(lambda: paper_pas(k), random_trace(10, 2000, 60))


class TestEquivalenceOther:
    def test_bimodal(self):
        assert_equivalent(lambda: BimodalPredictor(entries=64), random_trace(11, 2000, 100))

    def test_three_bit_counters(self):
        assert_equivalent(
            lambda: TwoLevelPredictor(
                history_kind="global", history_bits=3, pht_index_bits=8, counter_bits=3
            ),
            random_trace(12, 2000, 30),
        )

    def test_one_bit_counters(self):
        assert_equivalent(
            lambda: TwoLevelPredictor(
                history_kind="global", history_bits=3, pht_index_bits=8, counter_bits=1
            ),
            random_trace(13, 2000, 30),
        )

    def test_empty_trace(self):
        trace = Trace.empty()
        vec = simulate(make_gas(4, pht_index_bits=8), trace)
        assert vec.total_executions == 0
        assert vec.miss_rate == 0.0

    def test_single_record(self):
        trace = Trace.from_pairs([(0x40, 1)])
        ref = simulate_reference(make_gas(2, pht_index_bits=6), trace)
        vec = simulate(make_gas(2, pht_index_bits=6), trace)
        assert ref.total_mispredictions == vec.total_mispredictions


class TestEquivalenceAgree:
    @pytest.mark.parametrize("k", [0, 4, 8])
    def test_agree(self, k):
        assert_equivalent(
            lambda: AgreePredictor(k, pht_index_bits=8, bias_entries=64),
            random_trace(20, 3000, 40),
        )

    def test_agree_bias_aliasing(self):
        # 8-entry bias table, 50 branches: bias bits are latched by
        # whichever branch reaches the slot first — the vectorized
        # first-in-slot gather must reproduce that exactly.
        assert_equivalent(
            lambda: AgreePredictor(5, pht_index_bits=6, bias_entries=8),
            random_trace(21, 4000, 50),
        )

    def test_agree_biased_outcomes(self):
        assert_equivalent(
            lambda: AgreePredictor(6, pht_index_bits=9, bias_entries=32),
            random_trace(22, 3000, 30, bias=0.85),
        )


class TestEquivalenceTournament:
    def test_gshare_vs_pas(self):
        assert_equivalent(
            lambda: TournamentPredictor(
                make_gshare(5, pht_index_bits=7),
                make_pas(3, pht_index_bits=8, bht_entries=16),
                chooser_index_bits=5,
            ),
            random_trace(23, 4000, 40),
        )

    def test_chooser_aliasing(self):
        # 2^3-entry chooser with 60 branches: chooser counters are
        # shared across branches, exactly as in hardware.
        assert_equivalent(
            lambda: TournamentPredictor(
                make_gas(4, pht_index_bits=8),
                BimodalPredictor(entries=64),
                chooser_index_bits=3,
            ),
            random_trace(24, 4000, 60),
        )

    def test_nested_tournament(self):
        assert_equivalent(
            lambda: TournamentPredictor(
                TournamentPredictor(
                    make_gshare(3, pht_index_bits=6),
                    BimodalPredictor(entries=32),
                    chooser_index_bits=4,
                ),
                make_pas(2, pht_index_bits=7, bht_entries=16),
                chooser_index_bits=6,
            ),
            random_trace(25, 3000, 30),
        )

    def test_per_record_component(self):
        # A component without an array carrier runs its own carrier
        # (YAGS: the C kernel, or the stepped predictor without one).
        assert_equivalent(
            lambda: TournamentPredictor(make_gshare(3, pht_index_bits=6), YagsPredictor()),
            random_trace(30, 3000, 40),
        )


class TestEquivalenceHybrid:
    def test_static_routing_partition(self):
        def factory():
            components = [
                ProfileStaticPredictor({0x1000: True, 0x1004: False}),
                make_pas(2, pht_index_bits=7, bht_entries=16),
                make_gshare(6, pht_index_bits=8),
            ]
            return ClassRoutedHybrid(components, lambda pc: (pc >> 2) % 3)
        assert_equivalent(factory, random_trace(26, 4000, 50))

    def test_out_of_range_route_falls_back(self):
        def factory():
            components = [AlwaysTakenPredictor(), AlwaysNotTakenPredictor()]
            return ClassRoutedHybrid(components, lambda pc: (pc >> 2) % 5)
        assert_equivalent(factory, random_trace(27, 2000, 40))

    def test_mapping_route(self):
        trace = random_trace(28, 3000, 30)
        pcs = sorted(set(int(p) for p in trace.pcs))
        routes = {pc: i % 2 for i, pc in enumerate(pcs)}

        def factory():
            return ClassRoutedHybrid(
                [make_gas(3, pht_index_bits=7), BimodalPredictor(entries=64)], routes
            )
        assert_equivalent(factory, trace)

    def test_designed_hybrid(self):
        """The paper's §5.4 class-routed hybrid, end to end."""
        from repro.analysis import design_hybrid
        from repro.classify.profile import ProfileTable

        trace = random_trace(29, 4000, 40, bias=0.7)
        profile = ProfileTable.from_trace(trace)

        def factory():
            hybrid, _ = design_hybrid(profile)
            return hybrid
        assert_equivalent(factory, trace)

    def test_per_record_component(self):
        def factory():
            return ClassRoutedHybrid(
                [make_gas(2, pht_index_bits=6), YagsPredictor()], lambda pc: (pc >> 2) % 2
            )
        assert_equivalent(factory, random_trace(31, 3000, 40))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 600),
    num_pcs=st.integers(1, 60),
    k=st.integers(0, 6),
    pht_bits=st.integers(6, 10),
    scheme_global=st.booleans(),
    xor=st.booleans(),
)
def test_equivalence_property(seed, n, num_pcs, k, pht_bits, scheme_global, xor):
    """Random geometry, random trace: the engines always agree exactly."""
    trace = random_trace(seed, n, num_pcs)
    scheme = "xor" if xor else "concat"
    if scheme == "concat" and k > pht_bits:
        k = pht_bits

    def factory():
        return TwoLevelPredictor(
            history_kind="global" if scheme_global else "per-address",
            history_bits=k,
            pht_index_bits=pht_bits,
            index_scheme=scheme,
            bht_entries=16 if (not scheme_global and k > 0) else None,
        )

    assert_equivalent(factory, trace)
