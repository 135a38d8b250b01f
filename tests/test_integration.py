"""Cross-cutting integration tests.

These stitch the layers together the way a downstream user would:
VM programs feeding the engines, populations feeding the classifiers,
the public API surface staying importable, and the engines agreeing on
*realistic* (non-random) branch streams.
"""

import numpy as np
import pytest

import repro
from repro import (
    ProfileTable,
    Trace,
    load_trace,
    paper_gas,
    paper_pas,
    save_trace,
    simulate,
    simulate_reference,
)
from repro.workloads.programs import run_kernel
from repro.workloads.synthetic import SPEC95_INPUTS, input_trace


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackage_alls_resolve(self):
        import repro.analysis
        import repro.classify
        import repro.engine
        import repro.experiments
        import repro.predictors
        import repro.report
        import repro.trace
        import repro.workloads.synthetic

        for module in (
            repro.trace,
            repro.classify,
            repro.predictors,
            repro.engine,
            repro.analysis,
            repro.experiments,
            repro.report,
            repro.workloads.synthetic,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestEnginesOnRealisticTraces:
    """Random traces are covered by property tests; these pin the
    engines together on structured streams with real control flow."""

    @pytest.mark.parametrize("kernel", ["bubble_sort", "binary_search", "rle_compress"])
    def test_vm_kernel_equivalence(self, kernel):
        trace = run_kernel(kernel, size=80, seed=9).trace
        for factory in (lambda: paper_pas(6), lambda: paper_gas(6)):
            ref = simulate_reference(factory(), trace)
            vec = simulate(factory(), trace)
            assert np.array_equal(ref.mispredictions, vec.mispredictions)

    def test_benchmark_population_equivalence(self):
        li = next(i for i in SPEC95_INPUTS if i.benchmark == "li")
        trace = input_trace(li, scale=0.05)
        for k in (0, 3, 12):
            ref = simulate_reference(paper_pas(k), trace)
            vec = simulate(paper_pas(k), trace)
            assert ref.total_mispredictions == vec.total_mispredictions


class TestEndToEndPipeline:
    def test_vm_to_classification_to_prediction(self, tmp_path):
        """Full path: run a program, persist its trace, reload it,
        classify, simulate, and check per-class attribution coherence."""
        result = run_kernel("binary_search", size=100, seed=2)
        path = tmp_path / "bsearch.rbt"
        save_trace(result.trace, path)
        trace = load_trace(path)
        assert trace == result.trace

        profile = ProfileTable.from_trace(trace)
        sim = simulate(paper_pas(8), trace)

        # Attribution coherence: summing per-branch misses by class
        # reproduces the simulation totals exactly.
        total_by_class = 0
        for pc in profile:
            total_by_class += sim[pc].mispredictions
        assert total_by_class == sim.total_mispredictions
        assert sim.total_executions == len(trace)

    def test_transition_metric_separates_lookalikes(self):
        """The paper's motivating example, end to end: equal taken
        rates, opposite predictability, and the transition metric is
        what tells them apart."""
        n = 4000
        rng = np.random.default_rng(0)
        alternating = [(0x10, i % 2) for i in range(n)]
        random_branch = [(0x20, int(rng.random() < 0.5)) for _ in range(n)]
        trace = Trace.from_pairs(
            [p for pair in zip(alternating, random_branch) for p in pair]
        )
        profile = ProfileTable.from_trace(trace)
        # Same taken class...
        assert profile[0x10].taken_class == profile[0x20].taken_class == 5
        # ...different transition classes...
        assert profile[0x10].transition_class == 10
        assert profile[0x20].transition_class == 5
        # ...and prediction outcomes to match.
        sim = simulate(paper_pas(4), trace)
        assert sim[0x10].miss_rate < 0.05
        assert sim[0x20].miss_rate > 0.4
