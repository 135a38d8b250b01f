"""Tests for branch populations and SPEC95 analogues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify import ProfileTable
from repro.classify.classes import NUM_CLASSES
from repro.errors import ConfigurationError
from repro.trace import merge_suite
from repro.workloads.synthetic import (
    BENCHMARK_NAMES,
    SPEC95_INPUTS,
    TABLE2_JOINT_PERCENT,
    BiasedModel,
    BranchPopulation,
    BranchSpec,
    InputSet,
    PatternModel,
    benchmark_joint_matrix,
    input_trace,
    population_from_joint,
    scaled_length,
    suite_traces,
)


def masked_generate(population, n):
    """The outcomes ``BranchPopulation.generate`` produced when it found
    each branch's positions with a full-length ``slots == i`` mask: the
    oracle of its single-sort form."""
    slots = np.tile(population._schedule, n // len(population._schedule) + 1)[:n]
    outcomes = np.zeros(n, dtype=np.uint8)
    root = np.random.default_rng(population.seed + 0x9E3779B9)
    counts = np.bincount(slots, minlength=len(population.specs))
    for i, spec in enumerate(population.specs):
        child = np.random.default_rng(root.integers(2**63))
        if counts[i] == 0 or spec.follows is not None:
            continue
        outcomes[slots == i] = spec.model.generate(int(counts[i]), child)
    for i, spec in enumerate(population.specs):
        if spec.follows is None or counts[i] == 0:
            continue
        positions = np.flatnonzero(slots == i)
        outcomes[positions] = outcomes[positions - 1]
    return outcomes


class TestBranchPopulation:
    def make(self, **kwargs):
        specs = [
            BranchSpec(pc=0x10, model=PatternModel([1]), weight=3),
            BranchSpec(pc=0x20, model=PatternModel([0]), weight=1),
        ]
        return BranchPopulation(specs, seed=1, **kwargs)

    def test_generate_length(self):
        trace = self.make().generate(100)
        assert len(trace) == 100

    def test_weights_respected(self):
        trace = self.make().generate(4000)
        counts = {pc: 0 for pc in (0x10, 0x20)}
        for pc in trace.pcs:
            counts[int(pc)] += 1
        assert counts[0x10] == pytest.approx(3000, abs=3)
        assert counts[0x20] == pytest.approx(1000, abs=3)

    def test_models_drive_outcomes(self):
        trace = self.make().generate(400)
        profile = ProfileTable.from_trace(trace)
        assert profile[0x10].taken_rate == 1.0
        assert profile[0x20].taken_rate == 0.0

    def test_deterministic(self):
        a = self.make().generate(200)
        b = self.make().generate(200)
        assert a == b

    def test_different_seeds_differ(self):
        specs = [BranchSpec(pc=0, model=BiasedModel(0.5), weight=1)]
        a = BranchPopulation(specs, seed=1).generate(100)
        b = BranchPopulation(specs, seed=2).generate(100)
        assert a != b

    def test_empty_generate(self):
        assert len(self.make().generate(0)) == 0

    def test_duplicate_pcs_rejected(self):
        specs = [
            BranchSpec(pc=1, model=PatternModel([1]), weight=1),
            BranchSpec(pc=1, model=PatternModel([0]), weight=1),
        ]
        with pytest.raises(ConfigurationError):
            BranchPopulation(specs)

    def test_empty_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            BranchPopulation([])

    def test_bad_adjacency(self):
        with pytest.raises(ConfigurationError):
            self.make(hard_adjacency=1.5)

    def test_hard_clustering_places_hard_adjacent(self):
        specs = [
            BranchSpec(pc=i * 4, model=BiasedModel(0.5), weight=2, hard=True)
            for i in range(5)
        ] + [
            BranchSpec(pc=1000 + i * 4, model=PatternModel([1]), weight=8)
            for i in range(10)
        ]
        pop = BranchPopulation(specs, seed=3, hard_adjacency=1.0)
        trace = pop.generate(pop.cycle_length)
        hard_pcs = {i * 4 for i in range(5)}
        positions = [i for i, pc in enumerate(trace.pcs) if int(pc) in hard_pcs]
        # All 10 hard slots contiguous.
        assert max(positions) - min(positions) == len(positions) - 1


@settings(max_examples=25, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.integers(0, NUM_CLASSES - 1),
            st.integers(0, NUM_CLASSES - 1),
            st.floats(0.01, 1.0),
        ),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(0, 2**16),
    correlated=st.floats(0.0, 1.0),
    adjacency=st.floats(0.0, 1.0),
    cycles=st.floats(0.0, 3.0),
)
def test_generate_matches_the_masked_formula(cells, seed, correlated, adjacency, cycles):
    """Random joint distributions, followers and clustering, at lengths
    inside, at and across schedule cycles."""
    weights = np.zeros((NUM_CLASSES, NUM_CLASSES))
    for row, column, weight in cells:
        weights[row, column] += weight
    population = population_from_joint(
        weights,
        seed=seed,
        correlated_fraction=correlated,
        hard_adjacency=adjacency,
        cycle_target=256,
    )
    n = int(cycles * population.cycle_length)
    trace = population.generate(n)
    assert np.array_equal(trace.outcomes, masked_generate(population, n))


class TestPopulationFromJoint:
    def test_matches_target_distribution(self):
        target = TABLE2_JOINT_PERCENT
        pop = population_from_joint(target, seed=5, branches_per_cell=4)
        trace = pop.generate(150_000)
        joint = ProfileTable.from_trace(trace).joint_distribution() * 100
        # Marginals within a few points of Table 2.
        assert np.abs(joint.sum(axis=0) - target.sum(axis=0) / target.sum() * 100).max() < 6
        assert np.abs(joint.sum(axis=1) - target.sum(axis=1) / target.sum() * 100).max() < 8

    def test_hard_cell_branches_flagged(self):
        pop = population_from_joint(TABLE2_JOINT_PERCENT, seed=1)
        assert any(s.hard for s in pop.specs)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            population_from_joint(np.zeros((11, 11)))
        with pytest.raises(ConfigurationError):
            population_from_joint(np.zeros((5, 5)))
        with pytest.raises(ConfigurationError):
            population_from_joint(-TABLE2_JOINT_PERCENT)


class TestSpec95:
    def test_table1_complete(self):
        assert len(SPEC95_INPUTS) == 34
        assert {i.benchmark for i in SPEC95_INPUTS} == set(BENCHMARK_NAMES)
        gcc = [i for i in SPEC95_INPUTS if i.benchmark == "gcc"]
        assert len(gcc) == 24

    def test_paper_counts_recorded(self):
        compress = next(i for i in SPEC95_INPUTS if i.benchmark == "compress")
        assert compress.paper_dynamic_branches == 5_641_834_221

    def test_scaled_length_bounds(self):
        for input_set in SPEC95_INPUTS:
            n = scaled_length(input_set)
            assert 40_000 <= n <= 250_000

    def test_scaled_length_ordering(self):
        # vortex (9.9e9) should scale to the cap; small gcc inputs to the floor.
        vortex = next(i for i in SPEC95_INPUTS if i.benchmark == "vortex")
        small_gcc = next(i for i in SPEC95_INPUTS if i.input_name == "genoutput.i")
        assert scaled_length(vortex) == 250_000
        assert scaled_length(small_gcc) == 40_000

    def test_benchmark_matrices_normalized(self):
        for bench in BENCHMARK_NAMES:
            m = benchmark_joint_matrix(bench)
            assert m.sum() == pytest.approx(1.0)
            assert m.min() >= 0

    def test_go_harder_than_vortex(self):
        go = benchmark_joint_matrix("go")
        vortex = benchmark_joint_matrix("vortex")
        assert go[5, 5] > vortex[5, 5]

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError):
            benchmark_joint_matrix("office97")

    def test_input_trace_deterministic(self):
        input_set = next(i for i in SPEC95_INPUTS if i.benchmark == "perl")
        a = input_trace(input_set, scale=0.05)
        b = input_trace(input_set, scale=0.05)
        assert a == b
        assert a.name == "perl/scrabbl.pl" or a.name.startswith("perl/")

    def test_suite_primary_has_eight(self):
        traces = suite_traces(inputs="primary", scale=0.02)
        assert len(traces) == 8
        assert [t.name.split("/")[0] for t in traces] == list(BENCHMARK_NAMES)

    def test_suite_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            suite_traces(inputs="some")

    def test_suite_aggregate_matches_table2(self):
        traces = suite_traces(inputs="primary", scale=0.2)
        joint = ProfileTable.from_trace(merge_suite(traces)).joint_distribution() * 100
        paper = TABLE2_JOINT_PERCENT
        # Suite-level marginal agreement (tilts average out): within a
        # few percentage points on every class.
        assert np.abs(joint.sum(axis=0) - paper.sum(axis=0)).max() < 6
        assert np.abs(joint.sum(axis=1) - paper.sum(axis=1)).max() < 8
        # The hard 5/5 cell exists and is small, as in the paper.
        assert 0.2 < joint[5, 5] < 4.0

    def test_input_seed_stable(self):
        input_set = InputSet("go", "9stone21.in", 123)
        assert input_set.seed == InputSet("go", "9stone21.in", 456).seed
        assert input_set.label == "go/9stone21.in"
