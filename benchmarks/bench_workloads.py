"""Workload-layer benchmarks: materialization throughput per spec kind,
plus cold vs warm ``run all --suite kernels`` through the artifact DAG.

The materialization benchmarks time :meth:`WorkloadSpec.materialize`
for one representative spec of every kind — the cost the pipeline's
``workload-traces`` artifact (and every cold ``Session`` submission)
pays exactly once per content key.  The suite benchmarks mirror
``bench_pipeline.py`` on the VM-kernel universe: ``cold`` is the full
price of a kernels-suite reproduction, ``warm`` is the pure pipeline
overhead of rerunning it against a populated store (the spec-addressed
reuse headroom the workload layer buys), and ``warm_per_experiment``
is that rerun as ``repro run all`` makes it, one pipeline call per
experiment.
"""

import pytest
from conftest import BENCH_SCALE

from repro.experiments import ExperimentContext, all_experiment_ids
from repro.trace.io import save_trace
from repro.workload_spec import (
    ConcatSpec,
    FilterSpec,
    KernelSpec,
    LoopModelSpec,
    MarkovModelSpec,
    PopulationBranch,
    PopulationSpec,
    Spec95InputSpec,
    TraceFileSpec,
    kernel_suite,
)


def _population(length=60_000) -> PopulationSpec:
    return PopulationSpec(
        name="bench-mix",
        length=length,
        seed=5,
        branches=(
            PopulationBranch(pc=0x100, model=LoopModelSpec(body=8), weight=4),
            PopulationBranch(pc=0x104, model=MarkovModelSpec.from_rates(0.5, 0.5), hard=True),
            PopulationBranch(pc=0x108, model=MarkovModelSpec.from_rates(0.8, 0.2), weight=2),
        ),
    )


def _assert_trace(trace, spec):
    assert len(trace) > 0
    assert trace.name == spec.label


@pytest.mark.parametrize(
    "kind,make",
    [
        ("spec95", lambda tmp: Spec95InputSpec.of("gcc/expr.i", scale=BENCH_SCALE)),
        ("population", lambda tmp: _population()),
        ("kernel", lambda tmp: KernelSpec(name="sieve", size=int(2048 * BENCH_SCALE))),
        (
            "trace-file",
            lambda tmp: TraceFileSpec.of(
                _saved(tmp, _population(length=200_000))
            ),
        ),
        (
            "concat",
            lambda tmp: ConcatSpec(
                parts=(
                    KernelSpec(name="sieve", size=int(1024 * BENCH_SCALE)),
                    _population(length=30_000),
                )
            ),
        ),
        (
            "filter",
            lambda tmp: FilterSpec(
                source=_population(length=120_000), op="window", args=(0, 60_000)
            ),
        ),
        ("suite", lambda tmp: kernel_suite(BENCH_SCALE)),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_materialize(benchmark, tmp_path, kind, make):
    spec = make(tmp_path)
    trace = benchmark(spec.materialize)
    _assert_trace(trace, spec)
    benchmark.extra_info["records"] = len(trace)


def _saved(tmp_path, spec):
    path = tmp_path / "bench.rbt"
    save_trace(spec.materialize(), path)
    return path


def _run_all_kernels(cache_dir) -> None:
    context = ExperimentContext(cache_dir=cache_dir, suite=kernel_suite(BENCH_SCALE))
    report = context.pipeline.run_experiments(all_experiment_ids())
    assert report.ok, report.failures


def test_kernels_run_all_cold(benchmark, tmp_path_factory):
    def fresh_store():
        return (tmp_path_factory.mktemp("kernels-cold"),), {}

    benchmark.pedantic(_run_all_kernels, setup=fresh_store, rounds=3, iterations=1)


def test_kernels_run_all_warm(benchmark, tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("kernels-warm")
    _run_all_kernels(store_dir)  # populate once
    benchmark(_run_all_kernels, store_dir)


def _run_each_kernels_experiment(cache_dir) -> None:
    context = ExperimentContext(cache_dir=cache_dir, suite=kernel_suite(BENCH_SCALE))
    for experiment_id in all_experiment_ids():
        report = context.pipeline.run_experiments([experiment_id])
        assert report.ok and not report.computed, report.failures


def test_kernels_run_all_warm_per_experiment(benchmark, tmp_path_factory):
    # A warm pass as `repro run all` makes it: a fresh context, then one
    # plan and one run per experiment against the populated store.
    store_dir = tmp_path_factory.mktemp("kernels-warm-each")
    _run_all_kernels(store_dir)  # populate once
    benchmark(_run_each_kernels_experiment, store_dir)
