"""Tests for the declarative PredictorSpec layer (repro/spec.py)."""

import json

import numpy as np
import pytest

from repro.engine import simulate, simulate_reference
from repro.errors import ConfigurationError, SpecError
from repro.predictors import (
    AgreePredictor,
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BiModePredictor,
    BimodalPredictor,
    ClassRoutedHybrid,
    DhlfPredictor,
    FilterPredictor,
    LastOutcomePredictor,
    ProfileStaticPredictor,
    TournamentPredictor,
    YagsPredictor,
    make_gselect,
    make_gshare,
    make_pas,
    make_pshare,
    paper_gas,
    paper_pas,
)
from repro.predictors.paper_configs import (
    HISTORY_LENGTHS,
    paper_gas_spec,
    paper_pas_spec,
    paper_spec,
)
from repro.spec import (
    PREDICTORS,
    AgreeSpec,
    BiModeSpec,
    BimodalSpec,
    DhlfSpec,
    FilterSpec,
    HybridSpec,
    LastOutcomeSpec,
    PredictorSpec,
    ProfileStaticSpec,
    StaticSpec,
    TournamentSpec,
    TwoLevelSpec,
    YagsSpec,
    build_predictor,
)
from repro.trace import Trace


def small_trace(n=600, seed=7):
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, 64, size=n) * 4 + 0x1000
    outcomes = rng.integers(0, 2, size=n)
    return Trace(pcs, outcomes, name="random")


#: One representative spec per registered kind (nested families included).
SPEC_CATALOGUE = [
    StaticSpec(direction=True),
    StaticSpec(direction=False),
    ProfileStaticSpec(directions=((0x1000, True), (0x1004, False)), default=False),
    LastOutcomeSpec(entries=1 << 6, initial=False),
    BimodalSpec(entries=1 << 8, counter_bits=3),
    TwoLevelSpec.gas(4),
    TwoLevelSpec.pas(3, pht_index_bits=10, bht_entries=1 << 6),
    TwoLevelSpec.gshare(8),
    TwoLevelSpec.gselect(4, pht_index_bits=10),
    TwoLevelSpec.pshare(5, pht_index_bits=9, bht_entries=1 << 6),
    AgreeSpec(history_bits=6, pht_index_bits=8, bias_entries=1 << 7),
    YagsSpec(history_bits=6, cache_index_bits=6, tag_bits=5, choice_index_bits=8),
    BiModeSpec(history_bits=6, direction_index_bits=7, choice_index_bits=8),
    FilterSpec(backing=TwoLevelSpec.gshare(6, pht_index_bits=8), threshold=4, counter_bits=4, entries=1 << 7),
    DhlfSpec(pht_index_bits=8, interval=64, start_history=3),
    TournamentSpec(
        first=BimodalSpec(entries=1 << 8),
        second=TwoLevelSpec.gshare(6, pht_index_bits=8),
        chooser_index_bits=8,
    ),
    HybridSpec(
        components=(
            ProfileStaticSpec(directions=((0x1000, True),)),
            TwoLevelSpec.pas(2, pht_index_bits=8, bht_entries=1 << 6),
            TwoLevelSpec.gshare(6, pht_index_bits=8),
        ),
        routes=((0x1000, 0), (0x1004, 1), (0x1008, 2)),
        name="test-hybrid",
    ),
]


class TestRegistry:
    def test_all_families_registered(self):
        assert set(PREDICTORS.kinds()) == {
            "static", "profile-static", "last-outcome", "bimodal", "two-level",
            "agree", "yags", "bimode", "filter", "dhlf", "tournament", "hybrid",
        }

    def test_catalogue_covers_every_kind(self):
        assert {s.kind for s in SPEC_CATALOGUE} == set(PREDICTORS.kinds())

    def test_spec_class_lookup(self):
        assert PREDICTORS.lookup("two-level") is TwoLevelSpec
        with pytest.raises(ConfigurationError):
            PREDICTORS.lookup("nope")


class TestRoundTrip:
    @pytest.mark.parametrize("spec", SPEC_CATALOGUE, ids=lambda s: s.kind)
    def test_dict_round_trip(self, spec):
        rebuilt = PredictorSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert hash(rebuilt) == hash(spec)

    @pytest.mark.parametrize("spec", SPEC_CATALOGUE, ids=lambda s: s.kind)
    def test_json_round_trip(self, spec):
        # Through real JSON text: tuples degrade to lists and back.
        rebuilt = PredictorSpec.from_json(spec.to_json())
        assert rebuilt == spec

    def test_dispatch_via_base_class(self):
        spec = TwoLevelSpec.gshare(5)
        assert PredictorSpec.from_dict(spec.to_dict()) == spec

    def test_randomized_two_level_round_trips(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            kind = rng.choice(["global", "per-address"])
            scheme = rng.choice(["concat", "xor"])
            pht_bits = int(rng.integers(4, 18))
            hist = int(rng.integers(0, pht_bits + 1)) if scheme == "concat" else int(rng.integers(0, 20))
            spec = TwoLevelSpec(
                history_kind=str(kind),
                history_bits=hist,
                pht_index_bits=pht_bits,
                index_scheme=str(scheme),
                bht_entries=1 << int(rng.integers(4, 12)) if kind == "per-address" and hist else None,
                counter_bits=int(rng.integers(1, 4)),
            )
            assert PredictorSpec.from_json(spec.to_json()) == spec

    def test_profile_static_directions_normalized(self):
        a = ProfileStaticSpec(directions=((8, True), (4, False)))
        b = ProfileStaticSpec(directions=[[4, False], [8, True]])
        assert a == b
        assert hash(a) == hash(b)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            PredictorSpec.from_dict({"kind": "quantum"})

    def test_missing_kind(self):
        with pytest.raises(ConfigurationError):
            PredictorSpec.from_dict({"history_bits": 3})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            TwoLevelSpec.from_dict({"kind": "two-level", "history_bitz": 3})

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            TwoLevelSpec.from_dict({"kind": "yags"})

    def test_invalid_json(self):
        with pytest.raises(ConfigurationError):
            PredictorSpec.from_json("{not json")

    def test_wrong_typed_json_fields_raise_configuration_error(self):
        # The JSON boundary must never leak bare TypeErrors to callers
        # (the CLI only catches ReproError).
        with pytest.raises(ConfigurationError):
            PredictorSpec.from_json('{"kind": "bimodal", "entries": 256.5}')
        with pytest.raises(ConfigurationError):
            PredictorSpec.from_json('{"kind": "two-level", "history_bits": "4"}')
        with pytest.raises(ConfigurationError):
            PredictorSpec.from_json('{"kind": "tournament", "first": 3}')

    def test_unknown_kind_is_a_spec_error_naming_the_kinds(self):
        with pytest.raises(SpecError) as excinfo:
            PredictorSpec.from_dict({"kind": "quantum"})
        for kind in PREDICTORS.kinds():
            assert kind in str(excinfo.value)
        with pytest.raises(SpecError):
            TournamentSpec.from_dict({"kind": "tournament", "first": {"kind": "quantum"}})

    def test_concat_history_exceeds_pht(self):
        with pytest.raises(ConfigurationError):
            TwoLevelSpec(history_kind="global", history_bits=9, pht_index_bits=8)

    def test_per_address_requires_bht(self):
        with pytest.raises(ConfigurationError):
            TwoLevelSpec(history_kind="per-address", history_bits=4, pht_index_bits=8)

    def test_non_pow2_rejected(self):
        with pytest.raises(ConfigurationError):
            BimodalSpec(entries=100)
        with pytest.raises(ConfigurationError):
            AgreeSpec(bias_entries=100)

    def test_hybrid_route_out_of_range(self):
        with pytest.raises(ConfigurationError):
            HybridSpec(components=(StaticSpec(),), routes=((0, 3),))

    def test_hybrid_needs_components(self):
        with pytest.raises(ConfigurationError):
            HybridSpec(components=(), routes=())

    def test_hybrid_duplicate_route_pcs_rejected(self):
        # dict(routes) at build time would silently drop one of them.
        with pytest.raises(ConfigurationError):
            HybridSpec(
                components=(StaticSpec(), StaticSpec(direction=False)),
                routes=((0x400, 0), (0x400, 1)),
            )

    def test_profile_static_duplicate_pcs_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfileStaticSpec(directions=((8, True), (8, False)))

    def test_irrelevant_bht_entries_normalized_away(self):
        # A stray BHT size on a global (or zero-history) geometry
        # describes the same machine; the specs must compare equal so
        # Session dedupe merges them.
        with_stray = TwoLevelSpec(
            history_kind="global", history_bits=4, pht_index_bits=10, bht_entries=64
        )
        without = TwoLevelSpec(
            history_kind="global", history_bits=4, pht_index_bits=10
        )
        assert with_stray == without
        assert hash(with_stray) == hash(without)
        assert with_stray.bht_entries is None

    def test_filter_threshold_must_fit_counter(self):
        with pytest.raises(ConfigurationError):
            FilterSpec(threshold=100, counter_bits=4)

    def test_specs_are_frozen(self):
        spec = TwoLevelSpec.gas(4)
        with pytest.raises(Exception):
            spec.history_bits = 5


class TestBuildEquivalence:
    """spec.build() is bit-exact with the legacy hand-built constructors."""

    @pytest.mark.parametrize("k", [0, 1, 5, 16])
    def test_paper_gas(self, k):
        trace = small_trace()
        legacy = simulate_reference(paper_gas(k), trace)
        from_spec = simulate_reference(paper_gas_spec(k).build(), trace)
        assert np.array_equal(legacy.mispredictions, from_spec.mispredictions)
        assert legacy.predictor_name == from_spec.predictor_name

    @pytest.mark.parametrize("k", [0, 1, 5, 16])
    def test_paper_pas(self, k):
        trace = small_trace()
        legacy = simulate_reference(paper_pas(k), trace)
        from_spec = simulate_reference(paper_pas_spec(k).build(), trace)
        assert np.array_equal(legacy.mispredictions, from_spec.mispredictions)
        assert legacy.predictor_name == from_spec.predictor_name

    def test_every_paper_history_length_constructible(self):
        for kind in ("pas", "gas"):
            for k in HISTORY_LENGTHS:
                spec = paper_spec(kind, k)
                assert PredictorSpec.from_json(spec.to_json()) == spec
                assert spec.build().name == f"{kind.upper().replace('S', 's')}-h{k}"

    @pytest.mark.parametrize(
        "spec,factory",
        [
            (TwoLevelSpec.gshare(7, pht_index_bits=9), lambda: make_gshare(7, pht_index_bits=9)),
            (TwoLevelSpec.gselect(4, pht_index_bits=9), lambda: make_gselect(4, pht_index_bits=9)),
            (TwoLevelSpec.pshare(5, pht_index_bits=9, bht_entries=1 << 6), lambda: make_pshare(5, pht_index_bits=9, bht_entries=1 << 6)),
            (TwoLevelSpec.pas(5, pht_index_bits=9, bht_entries=1 << 6), lambda: make_pas(5, pht_index_bits=9, bht_entries=1 << 6)),
            (BimodalSpec(entries=1 << 9), lambda: BimodalPredictor(1 << 9)),
            (LastOutcomeSpec(entries=1 << 6), lambda: LastOutcomePredictor(1 << 6)),
            (AgreeSpec(history_bits=6, pht_index_bits=8, bias_entries=1 << 7), lambda: AgreePredictor(6, pht_index_bits=8, bias_entries=1 << 7)),
            (YagsSpec(history_bits=6, cache_index_bits=6, tag_bits=5, choice_index_bits=8), lambda: YagsPredictor(6, cache_index_bits=6, tag_bits=5, choice_index_bits=8)),
            (BiModeSpec(history_bits=6, direction_index_bits=7, choice_index_bits=8), lambda: BiModePredictor(6, direction_index_bits=7, choice_index_bits=8)),
            (DhlfSpec(pht_index_bits=8, interval=64), lambda: DhlfPredictor(pht_index_bits=8, interval=64)),
            (FilterSpec(backing=TwoLevelSpec.gshare(6, pht_index_bits=8), threshold=4, counter_bits=4, entries=1 << 7), lambda: FilterPredictor(make_gshare(6, pht_index_bits=8), threshold=4, counter_bits=4, entries=1 << 7)),
        ],
        ids=lambda v: v.kind if isinstance(v, PredictorSpec) else "",
    )
    def test_family_miss_counts_match(self, spec, factory):
        trace = small_trace()
        legacy = simulate_reference(factory(), trace)
        from_spec = simulate_reference(spec.build(), trace)
        assert np.array_equal(legacy.mispredictions, from_spec.mispredictions)

    def test_tournament_matches(self):
        trace = small_trace()
        spec = TournamentSpec(
            first=BimodalSpec(entries=1 << 8),
            second=TwoLevelSpec.gshare(6, pht_index_bits=8),
            chooser_index_bits=8,
        )
        legacy = TournamentPredictor(
            BimodalPredictor(1 << 8), make_gshare(6, pht_index_bits=8), chooser_index_bits=8
        )
        assert np.array_equal(
            simulate_reference(legacy, trace).mispredictions,
            simulate_reference(spec.build(), trace).mispredictions,
        )

    def test_hybrid_matches(self):
        trace = small_trace()
        routes = {int(pc): int(pc) % 2 for pc in np.unique(trace.pcs)}
        spec = HybridSpec(
            components=(
                TwoLevelSpec.pas(2, pht_index_bits=8, bht_entries=1 << 6),
                TwoLevelSpec.gshare(6, pht_index_bits=8),
            ),
            routes=tuple(routes.items()),
        )
        legacy = ClassRoutedHybrid(
            [make_pas(2, pht_index_bits=8, bht_entries=1 << 6), make_gshare(6, pht_index_bits=8)],
            routes,
        )
        assert np.array_equal(
            simulate_reference(legacy, trace).mispredictions,
            simulate_reference(spec.build(), trace).mispredictions,
        )

    def test_profile_static_matches(self):
        trace = small_trace()
        directions = {int(pc): bool(pc % 8 == 0) for pc in np.unique(trace.pcs)}
        spec = ProfileStaticSpec(directions=tuple(directions.items()), default=False)
        legacy = ProfileStaticPredictor(directions, default=False)
        assert np.array_equal(
            simulate_reference(legacy, trace).mispredictions,
            simulate_reference(spec.build(), trace).mispredictions,
        )

    def test_static_builds(self):
        assert isinstance(StaticSpec(direction=True).build(), AlwaysTakenPredictor)
        assert isinstance(StaticSpec(direction=False).build(), AlwaysNotTakenPredictor)

    @pytest.mark.parametrize("spec", SPEC_CATALOGUE, ids=lambda s: s.kind)
    def test_storage_bits_match_built_predictor(self, spec):
        assert spec.storage_bits() == spec.build().storage_bits()


class TestBuildPredictorHelper:
    def test_spec_is_built(self):
        predictor = build_predictor(BimodalSpec(entries=1 << 8))
        assert isinstance(predictor, BimodalPredictor)

    def test_predictor_passes_through(self):
        predictor = BimodalPredictor(1 << 8)
        assert build_predictor(predictor) is predictor

    def test_junk_rejected(self):
        with pytest.raises(ConfigurationError):
            build_predictor("bimodal")


class TestEngineAcceptsSpecs:
    def test_simulate_accepts_spec(self):
        from repro.engine import simulate

        trace = small_trace()
        spec = TwoLevelSpec.gshare(6, pht_index_bits=8)
        by_spec = simulate(spec, trace)
        by_predictor = simulate(spec.build(), trace)
        assert np.array_equal(by_spec.mispredictions, by_predictor.mispredictions)


class TestFieldCoercion:
    """Scalar fields take their declared type at construction: an
    integral float becomes an int, any other misfit raises
    ConfigurationError there, never later in the engine."""

    def test_integral_float_canonicalizes_and_simulates(self):
        spec = PredictorSpec.from_json(
            '{"kind": "two-level", "history_bits": 2.0, "pht_index_bits": 4}'
        )
        exact = TwoLevelSpec(history_bits=2, pht_index_bits=4)
        assert spec == exact
        assert spec.to_json() == exact.to_json()
        assert type(spec.history_bits) is int
        for engine in ("auto", "reference"):
            assert simulate(spec, small_trace(), engine=engine).total_executions == 600
        assert BimodalSpec(entries=256.0).to_json() == BimodalSpec(entries=256).to_json()

    @pytest.mark.parametrize(
        "document",
        [
            {"kind": "static", "direction": "false"},
            {"kind": "static", "direction": None},
            {"kind": "bimodal", "entries": True},
            {"kind": "bimodal", "entries": float("inf")},
            {"kind": "two-level", "history_bits": float("nan")},
            {"kind": "two-level", "history_kind": 3},
            {"kind": "two-level", "name": 7},
            {"kind": "last-outcome", "initial": "yes"},
            {"kind": "dhlf", "start_history": 2.5},
            {"kind": "filter", "counter_bits": -1},
            {"kind": "hybrid", "components": 3},
            {"kind": "profile-static", "directions": [[4, "no"]]},
        ],
        ids=str,
    )
    def test_misfit_raises_configuration_error(self, document):
        with pytest.raises(ConfigurationError):
            PREDICTORS.lookup(document["kind"]).from_dict(document)

    def test_zero_and_one_are_booleans(self):
        assert StaticSpec(direction=0) == StaticSpec(direction=False)
        assert StaticSpec(direction=0).to_json() == StaticSpec(direction=False).to_json()
