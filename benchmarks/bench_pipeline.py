"""Pipeline benchmarks: cold vs warm ``run all`` through the artifact DAG.

``cold`` plans and executes every artifact of all 17 experiments into a
fresh store — the full price of one reproduction.  ``warm`` repeats the
run against the populated store, measuring pure pipeline overhead
(planning, cache probing, loading the 17 render leaves): the
reuse-over-recompute headroom the DAG buys.  ``suite_traces_store``
times the store layer alone on the root artifact every cold pass
writes: one put and one get of the spec95 suite's traces.
``suite_profile`` times the classify layer alone: the per-trace and
merged profiles of the same suite, read through the branch
dictionaries the traces carry from their producer.
"""

import numpy as np
from conftest import BENCH_INPUTS, BENCH_SCALE

from repro.classify import ProfileTable
from repro.experiments import ExperimentContext, all_experiment_ids
from repro.pipeline import ArtifactStore, PipelineConfig
from repro.pipeline.artifacts import WorkloadNode, node_digest
from repro.trace import Trace, merge_suite


def _run_all(cache_dir) -> None:
    context = ExperimentContext(
        inputs=BENCH_INPUTS, scale=BENCH_SCALE, cache_dir=cache_dir
    )
    report = context.pipeline.run_experiments(all_experiment_ids())
    assert report.ok, report.failures


def test_run_all_cold(benchmark, tmp_path_factory):
    def fresh_store():
        return (tmp_path_factory.mktemp("pipeline-cold"),), {}

    benchmark.pedantic(_run_all, setup=fresh_store, rounds=3, iterations=1)


def test_run_all_warm(benchmark, tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("pipeline-warm")
    _run_all(store_dir)  # populate once
    benchmark(_run_all, store_dir)


def test_suite_traces_store(benchmark, tmp_path_factory):
    """Encode, deflate and write the suite traces into a fresh store,
    then read and decode them in a new store object."""
    config = PipelineConfig(inputs=BENCH_INPUTS, scale=BENCH_SCALE)
    node = WorkloadNode("traces")
    traces = node.compute(config, {})
    digest = node_digest(node, config, [])

    def put_and_get(root):
        ArtifactStore(root).put(digest, node, traces, config)
        return ArtifactStore(root).get(digest, node), root

    def fresh_store():
        return (tmp_path_factory.mktemp("traces-store"),), {}

    decoded, root = benchmark.pedantic(put_and_get, setup=fresh_store, rounds=5, iterations=1)
    assert [t.name for t in decoded] == [t.name for t in traces]
    for got, want in zip(decoded, traces):
        assert np.array_equal(got.pcs, want.pcs)
        assert np.array_equal(got.outcomes, want.outcomes)
    benchmark.extra_info["records"] = sum(len(t) for t in traces)
    benchmark.extra_info["stored_bytes"] = ArtifactStore(root).object_path(digest).stat().st_size


def test_suite_profile(benchmark):
    """Profile every suite trace and their merge, as a cold pass's
    profile nodes do."""
    config = PipelineConfig(inputs=BENCH_INPUTS, scale=BENCH_SCALE)
    traces = WorkloadNode("traces").compute(config, {})

    def profile_suite():
        merged = ProfileTable.from_trace(merge_suite(traces, name="suite"))
        return [ProfileTable.from_trace(trace) for trace in traces] + [merged]

    profiles = benchmark(profile_suite)
    # The same PCs as plain traces, which build their dictionaries anew.
    plain = [Trace(trace.pcs, trace.outcomes, name=trace.name) for trace in traces]
    plain.append(merge_suite([Trace(t.pcs, t.outcomes) for t in traces], name="suite"))
    for got, trace in zip(profiles, plain):
        want = ProfileTable.from_trace(trace).stats
        for column in ("pcs", "executions", "taken", "transitions"):
            assert np.array_equal(getattr(got.stats, column), getattr(want, column))
        assert got.stats.name == want.name
