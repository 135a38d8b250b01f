"""Tests for the Session planning/batching facade (repro/session.py)."""

import numpy as np
import pytest

from repro.analysis import SweepConfig, run_sweep
from repro.cli import main
from repro.engine import (
    simulate,
    simulate_batched,
    simulate_reference,
    simulate_stream,
    stream_simulator,
)
from repro.errors import ConfigurationError
from repro.pipeline import PipelineConfig
from repro.predictors.paper_configs import HISTORY_LENGTHS, paper_spec
from repro.service.jobs import JobSpec
from repro.session import ENGINES, Session, batchable_spec
from repro.workload_spec import KernelSpec, kernel_suite
from repro.spec import (
    AgreeSpec,
    BimodalSpec,
    DhlfSpec,
    TwoLevelSpec,
    YagsSpec,
)
from repro.trace import Trace


def random_trace(n=800, seed=11, name="t"):
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, 96, size=n) * 4 + 0x2000
    outcomes = rng.integers(0, 2, size=n)
    return Trace(pcs, outcomes, name=name)


PAPER_JOB_KEYS = [(kind, k) for kind in ("pas", "gas") for k in HISTORY_LENGTHS]


class TestPlanning:
    def test_full_sweep_plans_into_one_batched_invocation(self):
        trace = random_trace()
        session = Session()
        for kind, k in PAPER_JOB_KEYS:
            session.submit(trace, paper_spec(kind, k))
        plan = session.plan()
        assert plan.num_jobs == 34
        assert plan.num_unique == 34
        assert len(plan.batches) == 1
        assert plan.batches[0].engine == "batched"
        assert len(plan.batches[0].entries) == 34

    def test_duplicate_jobs_deduplicated(self):
        trace = random_trace()
        session = Session()
        a = session.submit(trace, TwoLevelSpec.gshare(6, pht_index_bits=8))
        b = session.submit(trace, TwoLevelSpec.gshare(6, pht_index_bits=8))
        assert a is not b  # distinct handles ...
        plan = session.plan()
        assert plan.num_jobs == 2
        assert plan.num_unique == 1  # ... one simulation
        results = session.run()
        assert results[a] is results[b]

    def test_mixed_specs_route_per_engine(self):
        trace = random_trace()
        session = Session()
        session.submit(trace, TwoLevelSpec.gas(4))
        session.submit(trace, BimodalSpec(entries=1 << 8))
        session.submit(trace, AgreeSpec(history_bits=5, pht_index_bits=7, bias_entries=1 << 6))
        session.submit(trace, YagsSpec(history_bits=5, cache_index_bits=5, choice_index_bits=6))
        plan = session.plan()
        engines = {b.engine: len(b.entries) for b in plan.batches}
        # Agree and YAGS take the engine's auto route (their carriers),
        # not the oracle.
        assert engines == {"batched": 2, "auto": 2}

    def test_jobs_grouped_per_trace(self):
        t1, t2 = random_trace(seed=1, name="a"), random_trace(seed=2, name="b")
        session = Session()
        session.submit(t1, TwoLevelSpec.gas(2))
        session.submit(t2, TwoLevelSpec.gas(2))
        session.submit(t1, TwoLevelSpec.gas(3))
        plan = session.plan()
        assert len(plan.batches) == 2  # one batched invocation per trace
        by_trace = {b.trace.name: len(b.entries) for b in plan.batches}
        assert by_trace == {"a": 2, "b": 1}

    def test_forced_engine_respected(self):
        trace = random_trace()
        session = Session(engine="reference")
        session.submit(trace, TwoLevelSpec.gas(2))
        plan = session.plan()
        assert plan.batches[0].engine == "reference"

    def test_describe_mentions_batching(self):
        session = Session()
        session.submit(random_trace(), TwoLevelSpec.gas(2))
        text = session.plan().describe()
        assert "batched" in text
        assert "1 job(s)" in text


class TestExecution:
    def test_sweep_results_bit_exact_with_run_sweep_engines(self):
        """The acceptance check: 34 individual jobs == the legacy sweep."""
        trace = random_trace(n=2000)
        session = Session()
        jobs = {key: session.submit(trace, paper_spec(*key)) for key in PAPER_JOB_KEYS}
        results = session.run()

        sweep = simulate_batched([paper_spec(*key).build() for key in PAPER_JOB_KEYS], trace)
        for expected, job in zip(sweep, jobs.values()):
            got = results[job]
            assert np.array_equal(got.pcs, expected.pcs)
            assert np.array_equal(got.mispredictions, expected.mispredictions)
            assert got.predictor_name == expected.predictor_name

    @pytest.mark.parametrize("key", [("pas", 0), ("pas", 3), ("gas", 0), ("gas", 7)])
    def test_session_matches_reference_engine(self, key):
        trace = random_trace(n=600)
        session = Session()
        result = session.simulate(trace, paper_spec(*key))
        expected = simulate_reference(paper_spec(*key).build(), trace)
        assert np.array_equal(result.mispredictions, expected.mispredictions)

    def test_run_sweep_through_session_matches_forced_engines(self):
        trace = random_trace(n=1500, name="suite-trace")
        lengths = tuple(range(0, 5))
        auto = run_sweep([trace], SweepConfig(history_lengths=lengths, engine="auto"))
        ref = run_sweep([trace], SweepConfig(history_lengths=lengths, engine="reference"))
        for kind in ("pas", "gas"):
            assert np.array_equal(
                auto.grid(kind).taken_misses, ref.grid(kind).taken_misses
            )
            assert np.array_equal(
                auto.grid(kind).joint_misses, ref.grid(kind).joint_misses
            )

    def test_memoization_across_runs(self):
        trace = random_trace()
        spec = TwoLevelSpec.gas(4)
        session = Session()
        first = session.simulate(trace, spec)
        job = session.submit(trace, spec)
        plan = session.plan()
        assert plan.num_to_run == 0  # already in the memo
        second = session.run()[job]
        assert second is first

    def test_results_in_submission_order(self):
        trace = random_trace()
        session = Session()
        jobs = [session.submit(trace, TwoLevelSpec.gas(k)) for k in (1, 2, 3)]
        results = session.run()
        assert list(results) == jobs
        assert results.of(1) is results[jobs[1]]
        assert len(results) == 3

    def test_auto_and_reference_agree_through_session(self):
        trace = random_trace(n=500)
        spec = AgreeSpec(history_bits=5, pht_index_bits=7, bias_entries=1 << 6)
        auto = Session(engine="auto").simulate(trace, spec)
        ref = Session(engine="reference").simulate(trace, spec)
        assert np.array_equal(auto.mispredictions, ref.mispredictions)

    def test_per_record_family_takes_the_engine_auto_route(self):
        trace = random_trace(n=300)
        session = Session()
        job = session.submit(trace, DhlfSpec(pht_index_bits=7, interval=64))
        assert session.plan().batches[0].engine == "auto"
        result = session.run()[job]
        assert result.total_executions == 300
        expected = simulate_reference(DhlfSpec(pht_index_bits=7, interval=64).build(), trace)
        assert np.array_equal(result.mispredictions, expected.mispredictions)

    @pytest.mark.parametrize("spec", [YagsSpec(), DhlfSpec(pht_index_bits=7, interval=64)])
    def test_session_reaches_the_compiled_kernels(self, monkeypatch, backend, spec):
        # Regression: auto-routed per-record families used to run the
        # stateful predictor, so the backend had no effect on them.
        from repro.engine import streaming

        built = []
        compiled_stream = streaming.compiled_stream

        def spy(predictor):
            built.append(compiled_stream(predictor))
            return built[-1]

        monkeypatch.setattr(streaming, "compiled_stream", spy)
        trace = random_trace(n=300)
        result = Session().simulate(trace, spec)
        assert [stream is not None for stream in built] == [backend == "cext"]
        expected = simulate_reference(spec.build(), trace)
        assert np.array_equal(result.mispredictions, expected.mispredictions)

    def test_explicit_reference_still_runs_the_oracle(self, monkeypatch):
        from repro.engine import streaming

        def refuse(predictor):
            raise AssertionError("the oracle must not take a compiled kernel")

        monkeypatch.setattr(streaming, "compiled_stream", refuse)
        trace = random_trace(n=300)
        session = Session(engine="reference")
        job = session.submit(trace, YagsSpec())
        assert session.plan().batches[0].engine == "reference"
        assert session.run()[job].total_executions == 300


class TestContentDedupe:
    def test_identical_traces_share_one_simulation(self):
        # Regression: dedupe is by *content*, not object identity — two
        # separately materialized identical traces cost one engine
        # invocation.
        t1, t2 = random_trace(seed=9), random_trace(seed=9)
        assert t1 is not t2
        session = Session()
        a = session.submit(t1, TwoLevelSpec.gas(4))
        b = session.submit(t2, TwoLevelSpec.gas(4))
        plan = session.plan()
        assert plan.num_jobs == 2
        assert plan.num_unique == 1
        results = session.run()
        assert results[a] is results[b]

    def test_different_content_not_merged(self):
        session = Session()
        session.submit(random_trace(seed=1), TwoLevelSpec.gas(4))
        session.submit(random_trace(seed=2), TwoLevelSpec.gas(4))
        assert session.plan().num_unique == 2

    def test_name_participates_in_content(self):
        # Results are labelled by trace name, so same data under a
        # different name must stay a distinct work item.
        session = Session()
        trace = random_trace(seed=4, name="a")
        session.submit(trace, TwoLevelSpec.gas(4))
        session.submit(trace.with_name("b"), TwoLevelSpec.gas(4))
        assert session.plan().num_unique == 2

    def test_fingerprint_computed_once_per_object(self, monkeypatch):
        import repro.session as session_module

        calls = []
        real = session_module.trace_fingerprint
        monkeypatch.setattr(
            session_module,
            "trace_fingerprint",
            lambda trace: calls.append(1) or real(trace),
        )
        session = Session()
        trace = random_trace()
        for k in range(5):
            session.submit(trace, TwoLevelSpec.gas(k))
        assert len(calls) == 1


class TestWorkloadSpecJobs:
    def test_workload_spec_submission(self):
        session = Session()
        spec = KernelSpec(name="sieve", size=96)
        job = session.submit(spec, TwoLevelSpec.gas(4))
        result = session.run()[job]
        assert result.trace_name == "vm/sieve"
        expected = simulate_reference(
            TwoLevelSpec.gas(4).build(), spec.materialize()
        )
        assert np.array_equal(result.mispredictions, expected.mispredictions)

    def test_equal_specs_materialize_once(self, monkeypatch):
        calls = []
        original = KernelSpec.materialize

        def counting(self):
            calls.append(self.label)
            return original(self)

        monkeypatch.setattr(KernelSpec, "materialize", counting)
        session = Session()
        a = session.submit(KernelSpec(name="sieve", size=64), TwoLevelSpec.gas(2))
        b = session.submit(KernelSpec(name="sieve", size=64), TwoLevelSpec.gas(3))
        assert calls == ["vm/sieve"]  # second submit hit the slot cache
        assert session.plan().num_unique == 2  # ...but specs differ
        results = session.run()
        assert results[a].trace_name == results[b].trace_name == "vm/sieve"

    def test_spec_and_materialized_trace_share_work(self):
        # A workload spec job and a plain-trace job with the same
        # content meet at the same memo entry via the content key.
        spec = KernelSpec(name="rle_compress", size=64)
        session = Session()
        a = session.submit(spec, TwoLevelSpec.gas(2))
        b = session.submit(spec.materialize(), TwoLevelSpec.gas(2))
        assert session.plan().num_unique == 1
        results = session.run()
        assert results[a] is results[b]

    def test_suite_members_via_submit_many(self):
        session = Session()
        suite = kernel_suite(0.25)
        jobs = session.submit_many(
            (member, TwoLevelSpec.gas(2)) for member in suite.members
        )
        results = session.run()
        assert [results[j].trace_name for j in jobs] == suite.labels()


class TestSubmitValidation:
    def test_rejects_stateful_predictor(self):
        session = Session()
        with pytest.raises(ConfigurationError):
            session.submit(random_trace(), TwoLevelSpec.gas(2).build())

    def test_rejects_non_trace(self):
        session = Session()
        with pytest.raises(ConfigurationError):
            session.submit([(1, 0)], TwoLevelSpec.gas(2))

    def test_rejects_bad_engine(self):
        with pytest.raises(ConfigurationError):
            Session(engine="warp")

    def test_engine_is_set_once_per_session(self):
        # No per-job override: every job runs on ``Session(engine=)``.
        trace, spec = random_trace(), TwoLevelSpec.gas(2)
        session = Session(engine="reference")
        for call in (
            lambda: session.submit(trace, spec, engine="auto"),
            lambda: session.submit_many([(trace, spec)], engine="auto"),
            lambda: session.simulate(trace, spec, engine="auto"),
        ):
            with pytest.raises(TypeError, match="engine"):
                call()
        session.submit(trace, spec)
        assert [b.engine for b in session.plan().batches] == ["reference"]

    def test_submit_many(self):
        trace = random_trace()
        session = Session()
        jobs = session.submit_many((trace, TwoLevelSpec.gas(k)) for k in range(3))
        assert len(jobs) == 3
        assert session.plan().num_unique == 3


class TestSpecRouting:
    def test_predicates_pinned_to_engine_capabilities(self):
        # The planner's spec-level batching check must agree with the
        # engine's own for every family: a spec batched that the
        # carrier rejects fails the run, and one the planner misses
        # loses its shared pass.
        from repro.engine import supports_batched
        from test_spec import SPEC_CATALOGUE

        for spec in SPEC_CATALOGUE:
            assert batchable_spec(spec) == supports_batched(spec.build()), spec.kind

    def test_batchable(self):
        assert batchable_spec(TwoLevelSpec.gas(2))
        assert batchable_spec(BimodalSpec(entries=1 << 8))
        assert not batchable_spec(YagsSpec())


@pytest.mark.parametrize("engine", ["batched", "vectorized"])
def test_retired_engine_values_rejected_everywhere(engine, capsys):
    """``engine`` is ``"auto"`` or ``"reference"`` at every layer that
    takes one; the values that only named a carrier ``auto`` already
    picks are configuration errors."""
    assert ENGINES == ("auto", "reference")
    trace = random_trace(n=50)
    spec = TwoLevelSpec.gas(2)
    layers = {
        "simulate": lambda: simulate(spec, trace, engine=engine),
        "simulate_stream": lambda: simulate_stream(spec, [trace], engine=engine),
        "stream_simulator": lambda: stream_simulator(spec.build(), engine=engine),
        "Session": lambda: Session(engine=engine),
        "SweepConfig": lambda: SweepConfig(engine=engine),
        "PipelineConfig": lambda: PipelineConfig(engine=engine),
        "JobSpec": lambda: JobSpec.from_request({"experiments": ["fig3"], "engine": engine}),
    }
    for layer, call in layers.items():
        try:
            call()
        except ConfigurationError:
            continue
        pytest.fail(f"{layer} accepted engine={engine!r}")
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "fig3", "--engine", engine])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
