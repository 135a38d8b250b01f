"""Bit-identity of the chunked carriers with the reference oracle.

The acceptance contract of the out-of-core subsystem: for every
registered predictor family and across pathological chunk lengths
(including 1), ``simulate_stream`` over chunks equals
``simulate_reference`` over the concatenated trace, the chunked batched
sweep equals the in-memory sweep, and the session/pipeline threading
preserves all of it.
"""

import numpy as np
import pytest

from repro.analysis.history_sweep import SweepConfig, sweep_trace, sweep_workload
from repro.classify.profile import ProfileTable
from repro.engine import (
    simulate,
    simulate_batched,
    simulate_batched_stream,
    simulate_reference,
    simulate_stream,
    stream_simulator,
)
from repro.engine.backend import _KernelStream, resolve_backend
from repro.engine.streaming import (
    _AgreeStream,
    _HybridStream,
    _OneConfig,
    _ReferenceStream,
    _StaticStream,
    _TournamentStream,
)
from repro.errors import ConfigurationError, TraceError
from repro.predictors.paper_configs import HISTORY_LENGTHS, paper_spec
from repro.session import Session, StreamedTrace
from repro.spec import (
    AgreeSpec,
    BimodalSpec,
    BiModeSpec,
    DhlfSpec,
    FilterSpec,
    HybridSpec,
    LastOutcomeSpec,
    ProfileStaticSpec,
    StaticSpec,
    TournamentSpec,
    TwoLevelSpec,
    YagsSpec,
    spec_kinds,
)
from repro.trace.io import save_trace
from repro.trace.stats import TraceStats
from repro.trace.stream import Trace
from repro.workload_spec import SuiteSpec, TraceFileSpec

CHUNK_LENGTHS = (1, 7, 1 << 10)


def make_trace(n=4000, seed=11, static=150, name="stream-test"):
    """A trace with enough per-PC structure that predictors learn."""
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, static, n) * 4 + 0x1000
    outcomes = np.zeros(n, dtype=np.uint8)
    state: dict[int, int] = {}
    noise = rng.random(n)
    for i in range(n):
        pc = int(pcs[i])
        s = state.get(pc, pc & 0x7)
        outcomes[i] = 1 if (((s >> 2) ^ s) & 1) or noise[i] < 0.15 else 0
        state[pc] = ((s << 1) | int(outcomes[i])) & 0xFF
    return Trace(pcs, outcomes, name=name)


TRACE = make_trace()


def chunks_of(trace, k):
    for start in range(0, len(trace), k):
        yield trace[start : start + k]


def family_specs():
    """One representative spec per registered predictor kind."""
    profile = ProfileTable.from_trace(TRACE)
    specs = {
        "static": StaticSpec(),
        "profile-static": ProfileStaticSpec.from_profile(profile),
        "last-outcome": LastOutcomeSpec(),
        "bimodal": BimodalSpec(),
        "two-level": TwoLevelSpec(
            history_kind="per-address", history_bits=6, bht_entries=64
        ),
        "agree": AgreeSpec(),
        "yags": YagsSpec(),
        "bimode": BiModeSpec(),
        "filter": FilterSpec(),
        "dhlf": DhlfSpec(),
        "tournament": TournamentSpec(),
        "hybrid": HybridSpec(
            components=(BimodalSpec(), TwoLevelSpec(history_bits=4)),
            routes=tuple(
                (int(pc), i % 2) for i, pc in enumerate(np.unique(TRACE.pcs).tolist())
            ),
        ),
    }
    assert set(specs) == set(spec_kinds()), "new spec kind missing from streaming tests"
    return specs


FAMILY_SPECS = family_specs()

#: Combining predictors whose components have no array carrier: each
#: component runs its own carrier inside the tournament or hybrid.
COMPONENT_SPECS = {
    "tournament-yags": TournamentSpec(first=YagsSpec()),
    "hybrid-dhlf-bimodal-last-outcome": HybridSpec(
        components=(DhlfSpec(), BimodalSpec(), LastOutcomeSpec()),
        routes=tuple((int(pc), i % 3) for i, pc in enumerate(np.unique(TRACE.pcs).tolist())),
    ),
}


class TestSimulateStreamEquivalence:
    @pytest.mark.parametrize("kind", sorted(FAMILY_SPECS) + sorted(COMPONENT_SPECS))
    @pytest.mark.parametrize("chunk_len", CHUNK_LENGTHS)
    def test_every_family_bit_identical(self, kind, chunk_len):
        spec = {**FAMILY_SPECS, **COMPONENT_SPECS}[kind]
        base = simulate_reference(spec.build(), TRACE)
        result = simulate_stream(spec, chunks_of(TRACE, chunk_len))
        assert np.array_equal(result.pcs, base.pcs)
        assert np.array_equal(result.executions, base.executions)
        assert np.array_equal(result.mispredictions, base.mispredictions)
        assert result.trace_name == base.trace_name
        assert result.predictor_name == base.predictor_name

    def test_global_twolevel_across_chunks(self):
        spec = TwoLevelSpec(history_kind="global", history_bits=10, index_scheme="xor")
        base = simulate(spec, TRACE)
        for chunk_len in CHUNK_LENGTHS:
            result = simulate_stream(spec, chunks_of(TRACE, chunk_len))
            assert np.array_equal(result.mispredictions, base.mispredictions)

    def test_reference_engine_forced(self):
        spec = paper_spec("pas", 6)
        base = simulate(spec, TRACE, engine="reference")
        result = simulate_stream(spec, chunks_of(TRACE, 333), engine="reference")
        assert np.array_equal(result.mispredictions, base.mispredictions)

    def test_accepts_pairs_and_empty_chunks(self):
        spec = BimodalSpec()
        base = simulate(spec, TRACE)
        chunks = [
            Trace.empty(),
            (TRACE.pcs[:1000], TRACE.outcomes[:1000]),
            (TRACE.pcs[1000:], TRACE.outcomes[1000:]),
        ]
        result = simulate_stream(spec, chunks, trace_name=TRACE.name)
        assert np.array_equal(result.mispredictions, base.mispredictions)

    def test_empty_stream(self):
        result = simulate_stream(BimodalSpec(), [])
        assert len(result.pcs) == 0
        assert result.total_executions == 0


#: The carrier ``stream_simulator`` picks under ``auto``, per spec kind.
#: YAGS, bi-mode, filter and DHLF step a C kernel on ``cext`` and the
#: predictor itself on ``python``.
PER_RECORD = _KernelStream if resolve_backend() == "cext" else _ReferenceStream
CARRIERS = {
    "static": _StaticStream,
    "profile-static": _StaticStream,
    "last-outcome": _ReferenceStream,
    "bimodal": _OneConfig,
    "two-level": _OneConfig,
    "agree": _AgreeStream,
    "yags": PER_RECORD,
    "bimode": PER_RECORD,
    "filter": PER_RECORD,
    "dhlf": PER_RECORD,
    "tournament": _TournamentStream,
    "hybrid": _HybridStream,
}


class TestCarrierDispatch:
    """``stream_simulator`` is one flat choice by family; a tournament
    or hybrid runs each component on that component's own carrier."""

    @pytest.mark.parametrize("kind", sorted(FAMILY_SPECS) + sorted(COMPONENT_SPECS))
    def test_family_carrier(self, kind):
        spec = {**FAMILY_SPECS, **COMPONENT_SPECS}[kind]
        carrier = stream_simulator(spec.build())
        assert type(carrier) is CARRIERS[spec.kind]
        if isinstance(spec, TournamentSpec):
            assert type(carrier.first) is CARRIERS[spec.first.kind]
            assert type(carrier.second) is CARRIERS[spec.second.kind]
        if isinstance(spec, HybridSpec):
            assert [type(c) for c in carrier.components] == [
                CARRIERS[c.kind] for c in spec.components
            ]
        assert type(stream_simulator(spec.build(), engine="reference")) is _ReferenceStream


class TestBatchedStreamEquivalence:
    def test_batched_stream_matches_batched(self):
        specs = [paper_spec("pas", k) for k in (0, 2, 6)] + [
            paper_spec("gas", k) for k in (0, 4, 8)
        ]
        bases = [simulate_reference(s.build(), TRACE) for s in specs]
        for chunk_len in CHUNK_LENGTHS:
            results = simulate_batched_stream(
                [s.build() for s in specs], chunks_of(TRACE, chunk_len)
            )
            for base, result in zip(bases, results):
                assert np.array_equal(result.mispredictions, base.mispredictions)
                assert np.array_equal(result.executions, base.executions)

    @pytest.mark.parametrize("chunk_len", (999, 1 << 10))
    def test_paper_configs_chunked_bit_identical(self, chunk_len):
        specs = [paper_spec(kind, k) for kind in ("pas", "gas") for k in HISTORY_LENGTHS]
        bases = simulate_batched([s.build() for s in specs], TRACE)
        results = simulate_batched_stream([s.build() for s in specs], chunks_of(TRACE, chunk_len))
        for base, result in zip(bases, results):
            assert np.array_equal(result.pcs, base.pcs)
            assert np.array_equal(result.executions, base.executions)
            assert np.array_equal(result.mispredictions, base.mispredictions)


class TestStreamingStats:
    @pytest.mark.parametrize("chunk_len", CHUNK_LENGTHS)
    def test_stats_from_chunks(self, chunk_len):
        base = TraceStats.from_trace(TRACE)
        stats = TraceStats.from_chunks(chunks_of(TRACE, chunk_len))
        assert np.array_equal(stats.pcs, base.pcs)
        assert np.array_equal(stats.executions, base.executions)
        assert np.array_equal(stats.taken, base.taken)
        assert np.array_equal(stats.transitions, base.transitions)
        assert stats.name == base.name

    def test_profile_from_chunks(self):
        base = ProfileTable.from_trace(TRACE)
        profile = ProfileTable.from_chunks(chunks_of(TRACE, 321))
        assert np.array_equal(profile.taken_classes, base.taken_classes)
        assert np.array_equal(profile.transition_classes, base.transition_classes)

    def test_empty_chunks(self):
        stats = TraceStats.from_chunks([], name="none")
        assert len(stats) == 0
        assert stats.name == "none"


@pytest.fixture()
def streamed_file_spec(tmp_path, monkeypatch):
    """A TraceFileSpec over the test trace that streams (tiny threshold)."""
    monkeypatch.setenv("REPRO_STREAM_THRESHOLD", "1024")
    path = tmp_path / "stream.rbt"
    save_trace(TRACE, path, version=2, chunk_len=1024)
    return TraceFileSpec(path=str(path))


class TestSessionStreaming:
    def test_spec_streams_above_threshold(self, streamed_file_spec):
        assert streamed_file_spec.streams()
        source = streamed_file_spec.stream_source()
        assert source is not None
        source.close()

    def test_below_threshold_materializes(self, streamed_file_spec, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", str(1 << 40))
        assert not streamed_file_spec.streams()
        assert streamed_file_spec.stream_source() is None

    def test_threshold_zero_streams_everything(self, streamed_file_spec, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", "0")
        assert streamed_file_spec.streams()

    def test_bad_threshold_rejected(self, streamed_file_spec, monkeypatch):
        from repro.workload_spec import stream_threshold

        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", "lots")
        with pytest.raises(ConfigurationError):
            stream_threshold()
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", "-3")
        with pytest.raises(ConfigurationError):
            stream_threshold()

    def test_session_streams_and_matches_in_memory(self, streamed_file_spec):
        label = streamed_file_spec.label
        session = Session()
        specs = [paper_spec("pas", 4), paper_spec("gas", 8), TournamentSpec()]
        jobs = [session.submit(streamed_file_spec, spec) for spec in specs]
        plan = session.plan()
        assert all(batch.streamed for batch in plan.batches)
        assert "(streamed)" in plan.describe()
        results = session.run()
        for job, spec in zip(jobs, specs):
            base = simulate(spec, TRACE.with_name(label))
            assert np.array_equal(results[job].mispredictions, base.mispredictions)
            assert results[job].trace_name == label

    def test_streamed_slot_dedupes_by_content(self, streamed_file_spec):
        session = Session()
        job_a = session.submit(streamed_file_spec, BimodalSpec())
        job_b = session.submit(
            TraceFileSpec(path=streamed_file_spec.path), BimodalSpec()
        )
        assert job_a.slot == job_b.slot
        assert isinstance(job_a.trace, StreamedTrace)
        plan = session.plan()
        assert plan.num_unique == 1

    def test_session_memo_survives_resubmission(self, streamed_file_spec):
        session = Session()
        spec = paper_spec("pas", 4)
        first = session.simulate(streamed_file_spec, spec)
        assert session.plan().num_to_run == 0
        second = session.simulate(streamed_file_spec, spec)
        assert first is second


class TestSessionClosesReaders:
    """No trace file stays open once ``Session.run`` returns or raises."""

    @staticmethod
    def opened_readers(monkeypatch):
        readers = []
        open_source = TraceFileSpec.stream_source

        def spy(spec):
            reader = open_source(spec)
            readers.append(reader)
            return reader

        monkeypatch.setattr(TraceFileSpec, "stream_source", spy)
        return readers

    def test_run_closes_and_a_second_run_reopens(self, streamed_file_spec, monkeypatch):
        readers = self.opened_readers(monkeypatch)
        session = Session()
        label = streamed_file_spec.label
        session.submit(streamed_file_spec, paper_spec("pas", 4))
        assert readers and all(reader._fp.closed for reader in readers)
        first = session.run().of(0)
        opened = len(readers)
        assert all(reader._fp.closed for reader in readers)
        # Same workload, a spec the memo lacks: the slot opens its file again.
        second = session.simulate(streamed_file_spec, TournamentSpec())
        assert len(readers) > opened and all(reader._fp.closed for reader in readers)
        for result, spec in ((first, paper_spec("pas", 4)), (second, TournamentSpec())):
            base = simulate(spec, TRACE.with_name(label))
            assert np.array_equal(result.mispredictions, base.mispredictions)

    def test_run_that_raises_closes(self, streamed_file_spec, monkeypatch):
        from repro import session as session_module

        readers = self.opened_readers(monkeypatch)

        def fail(predictors, chunks, **kwargs):
            next(iter(chunks))
            raise RuntimeError("engine failed")

        monkeypatch.setattr(session_module, "simulate_batched_stream", fail)
        session = Session()
        session.submit(streamed_file_spec, paper_spec("gas", 4))
        with pytest.raises(RuntimeError, match="engine failed"):
            session.run()
        assert len(readers) == 2 and all(reader._fp.closed for reader in readers)

    def test_file_that_stops_streaming_fails_the_run(self, streamed_file_spec, monkeypatch):
        session = Session()
        session.submit(streamed_file_spec, paper_spec("gas", 4))
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", str(1 << 40))
        with pytest.raises(TraceError, match="no longer streams"):
            session.run()

    def test_no_resource_warning(self, streamed_file_spec):
        import gc
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            session = Session()
            session.simulate(streamed_file_spec, paper_spec("pas", 4))
            del session
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestSweepWorkloadStreaming:
    def test_streamed_sweep_bit_identical(self, streamed_file_spec):
        config = SweepConfig(history_lengths=(0, 2, 5))
        streamed = sweep_workload(streamed_file_spec, config)
        materialized = sweep_trace(streamed_file_spec.materialize(), config)
        assert streamed.trace_name == materialized.trace_name
        assert streamed.total_dynamic == materialized.total_dynamic
        for kind in ("pas", "gas"):
            for field in (
                "taken_executions",
                "taken_misses",
                "transition_executions",
                "transition_misses",
                "joint_executions",
                "joint_misses",
            ):
                assert np.array_equal(
                    getattr(streamed.grids[kind], field),
                    getattr(materialized.grids[kind], field),
                ), (kind, field)
        assert np.array_equal(streamed.taken_counts, materialized.taken_counts)
        assert np.array_equal(streamed.joint_counts, materialized.joint_counts)

    def test_streamed_sweep_reference_engine(self, streamed_file_spec):
        config = SweepConfig(history_lengths=(0, 2), engine="reference")
        streamed = sweep_workload(streamed_file_spec, config)
        materialized = sweep_trace(streamed_file_spec.materialize(), config)
        for kind in ("pas", "gas"):
            assert np.array_equal(
                streamed.grids[kind].taken_misses,
                materialized.grids[kind].taken_misses,
            )

    def test_plain_trace_falls_through(self):
        config = SweepConfig(history_lengths=(0, 2))
        assert np.array_equal(
            sweep_workload(TRACE, config).grids["pas"].taken_misses,
            sweep_trace(TRACE, config).grids["pas"].taken_misses,
        )


class TestPipelineStreaming:
    def test_planner_uses_streamed_nodes(self, streamed_file_spec):
        from repro.pipeline.artifacts import (
            PipelineConfig,
            StreamedProfileNode,
            StreamedTraceSweepNode,
        )
        from repro.pipeline.planner import Planner

        suite = SuiteSpec(name="files", members=(streamed_file_spec,))
        config = PipelineConfig(suite=suite, history_lengths=(0, 2))
        universe = Planner(config).universe()
        label = streamed_file_spec.label
        profile_node = universe[f"profile:{label}"]
        sweep_node = universe[f"sweep:{label}"]
        assert isinstance(profile_node, StreamedProfileNode)
        assert isinstance(sweep_node, StreamedTraceSweepNode)
        assert profile_node.deps == ()
        assert sweep_node.deps == ()
        assert sweep_node.narrow({"traces": object()}) == {}

        # Values are bit-identical to the materialized nodes'.
        profile = profile_node.compute(config, {})
        base_profile = ProfileTable.from_trace(streamed_file_spec.materialize())
        assert np.array_equal(profile.taken_classes, base_profile.taken_classes)
        part = sweep_node.compute(config, {})
        base_part = sweep_trace(streamed_file_spec.materialize(), config.sweep_config())
        assert np.array_equal(
            part.grids["pas"].taken_misses, base_part.grids["pas"].taken_misses
        )

    def test_materialized_nodes_when_below_threshold(
        self, streamed_file_spec, monkeypatch
    ):
        from repro.pipeline.artifacts import PipelineConfig, ProfileNode, TraceSweepNode
        from repro.pipeline.planner import Planner

        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", str(1 << 40))
        suite = SuiteSpec(name="files", members=(streamed_file_spec,))
        config = PipelineConfig(suite=suite, history_lengths=(0, 2))
        universe = Planner(config).universe()
        label = streamed_file_spec.label
        assert type(universe[f"profile:{label}"]) is ProfileNode
        assert type(universe[f"sweep:{label}"]) is TraceSweepNode
