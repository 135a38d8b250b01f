"""Parametric kernel generator tests (repro/workloads/generator/).

The generator's core guarantee: every measured branch site's dynamic
outcome stream is *exactly* its pre-generated Markov table, so rate
targets hold by construction.  Plus topology (alignment, jumpy layout,
nesting), cross-process bit-identity over a seed/parameter grid, and
the adversarial suite's shape.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.trace.io import TraceReader, write_chunks
from repro.trace.stats import TraceStats
from repro.workload_spec import (
    GenKernelSpec,
    adversarial_suite,
    named_suite,
    trace_fingerprint,
)
from repro.workloads.generator import generate_kernel, run_generated

SRC = str(Path(__file__).resolve().parent.parent / "src")


def site_stream(trace, pc) -> list[int]:
    """The dynamic outcome sequence recorded at one PC, in order."""
    mask = trace.pcs == pc
    return trace.outcomes[mask].tolist()


class TestExactness:
    def test_every_site_stream_equals_its_table(self):
        kernel = generate_kernel(
            branches=4,
            iters=150,
            unroll=2,
            depth=2,
            taken_rates=(0.3, 0.7),
            transition_rates=(0.1, 0.5, 0.9),
            seed=11,
        )
        trace = run_generated(kernel).trace
        assert len(set(kernel.branch_pcs)) == kernel.sites == 8
        for s, pc in enumerate(kernel.branch_pcs):
            assert site_stream(trace, pc) == kernel.tables[s].tolist(), s

    def test_realized_iterations_cover_request(self):
        for depth in (1, 2, 3):
            kernel = generate_kernel(branches=2, iters=100, depth=depth)
            assert len(kernel.trips) == depth
            product = int(np.prod(kernel.trips))
            assert product == kernel.iterations >= 100

    def test_architectural_verification_catches_tampering(self):
        kernel = generate_kernel(branches=2, iters=40)
        kernel.expected_output[0] += 1
        with pytest.raises(ConfigurationError, match="wrong taken counts"):
            run_generated(kernel)

    def test_transition_rates_land_near_targets(self):
        # Statistical sanity at a size where the Markov chain mixes.
        target = 0.2
        kernel = generate_kernel(
            branches=2, iters=4000, taken_rates=0.5, transition_rates=target, seed=3
        )
        stats = TraceStats.from_trace(run_generated(kernel).trace)
        for pc in kernel.branch_pcs:
            assert abs(stats[pc].transition_rate - target) < 0.06


class TestTopology:
    def test_alignment_makes_branch_pcs_congruent(self):
        kernel = generate_kernel(branches=6, iters=32, align=8)
        residues = {pc % (1 << 8) for pc in kernel.branch_pcs}
        assert len(residues) == 1
        # ... and the padded program still runs and verifies.
        run_generated(kernel)

    def test_jumpy_scrambles_physical_layout(self):
        seq = generate_kernel(branches=8, iters=32, pattern="seq", seed=5)
        jumpy = generate_kernel(branches=8, iters=32, pattern="jumpy", seed=5)
        assert seq.branch_pcs == sorted(seq.branch_pcs)
        assert jumpy.branch_pcs != sorted(jumpy.branch_pcs)
        # Same tables, same execution order: identical branch *streams*.
        assert np.array_equal(seq.tables, jumpy.tables)
        seq_trace = run_generated(seq).trace
        jumpy_trace = run_generated(jumpy).trace
        for s in range(seq.sites):
            assert site_stream(seq_trace, seq.branch_pcs[s]) == site_stream(
                jumpy_trace, jumpy.branch_pcs[s]
            )

    def test_depth_adds_backedge_branches(self):
        flat = generate_kernel(branches=2, iters=64, depth=1, seed=2)
        deep = generate_kernel(branches=2, iters=64, depth=3, seed=2)
        flat_static = run_generated(flat).trace.num_static_branches
        deep_static = run_generated(deep).trace.num_static_branches
        assert deep_static > flat_static

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"branches": 0},
            {"unroll": 0},
            {"iters": 0},
            {"depth": 4},
            {"align": 1},
            {"align": 13},
            {"pattern": "spaghetti"},
            {"taken_rates": (1.5,)},
            {"transition_rates": ()},
            {"branches": 64, "unroll": 8},  # sites over the cap
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            generate_kernel(**{"iters": 16, **kwargs})


class TestDeterminism:
    #: The pinned seed/parameter grid: materialization must be
    #: bit-identical in a fresh, isolated interpreter for each point.
    GRID = [
        GenKernelSpec(branches=2, iters=60, seed=0),
        GenKernelSpec(branches=3, iters=50, unroll=2, pattern="jumpy", seed=1),
        GenKernelSpec(branches=2, iters=40, depth=3, transition_rates=(0.049,), seed=2),
        GenKernelSpec(branches=4, iters=30, align=6, taken_rates=(0.2, 0.8), seed=3),
    ]

    def test_rebuild_is_bit_identical(self):
        for spec in self.GRID:
            a, b = spec.materialize(), spec.materialize()
            assert trace_fingerprint(a) == trace_fingerprint(b)

    def test_seed_and_params_change_the_trace(self):
        base = GenKernelSpec(branches=2, iters=60, seed=0)
        keys = {
            spec.content_key()
            for spec in (
                base,
                GenKernelSpec(branches=2, iters=60, seed=1),
                GenKernelSpec(branches=2, iters=61, seed=0),
                GenKernelSpec(branches=2, iters=60, seed=0, pattern="jumpy"),
                GenKernelSpec(branches=2, iters=60, seed=0, transition_rates=(0.3,)),
            )
        }
        assert len(keys) == 5
        assert trace_fingerprint(base.materialize()) != trace_fingerprint(
            GenKernelSpec(branches=2, iters=60, seed=1).materialize()
        )

    def test_grid_bit_identical_in_fresh_process(self):
        # One subprocess checks the whole grid (interpreter startup is
        # the expensive part).
        specs_json = [spec.to_json() for spec in self.GRID]
        local = [trace_fingerprint(spec.materialize()) for spec in self.GRID]
        script = (
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            "from repro.workload_spec import WorkloadSpec, trace_fingerprint\n"
            f"for text in {specs_json!r}:\n"
            "    spec = WorkloadSpec.from_json(text)\n"
            "    print(trace_fingerprint(spec.materialize()))\n"
        )
        result = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == local

    def test_written_trace_fingerprint_chunk_len_invariant(self, tmp_path):
        trace = self.GRID[0].materialize()
        fingerprints = set()
        for chunk_len in (16, 64, 1 << 20):
            path = tmp_path / f"t{chunk_len}.rbt"
            write_chunks([trace], path, name=trace.name, chunk_len=chunk_len)
            with TraceReader(path) as reader:
                fingerprints.add(reader.fingerprint)
        assert len(fingerprints) == 1


class TestAdversarialSuite:
    def test_suite_shape(self):
        suite = adversarial_suite(0.25)
        labels = [m.label for m in suite.members]
        assert suite.name == "adversarial"
        assert len(labels) == len(set(labels)) == 8
        assert {"adv/mid", "adv/alias", "adv/jumpy", "adv/deep"} <= set(labels)
        keys = {m.content_key() for m in suite.members}
        assert len(keys) == len(suite.members)

    def test_registered_as_named_suite(self):
        suite = named_suite("adversarial", scale=0.25)
        assert suite.name == "adversarial"
        assert suite.content_key() == adversarial_suite(0.25).content_key()

    def test_scale_resizes_members(self):
        small = adversarial_suite(0.2)
        large = adversarial_suite(1.0)
        assert all(
            s.iters < lg.iters for s, lg in zip(small.members, large.members)
        )
        with pytest.raises(ConfigurationError):
            adversarial_suite(0.0)

    def test_edge_members_straddle_the_class_boundary(self):
        from repro.classify.classes import rate_class

        suite = adversarial_suite(1.0)
        by_label = {m.label: m for m in suite.members}
        lo_in = by_label["adv/edge-lo-in"].transition_rates[0]
        lo_out = by_label["adv/edge-lo-out"].transition_rates[0]
        assert rate_class(lo_in) == 0
        assert rate_class(lo_out) == 1
        hi_in = by_label["adv/edge-hi-in"].transition_rates[0]
        hi_out = by_label["adv/edge-hi-out"].transition_rates[0]
        assert rate_class(hi_in) == 10
        assert rate_class(hi_out) == 9

    def test_one_member_materializes_with_its_label(self):
        member = adversarial_suite(0.15).members[0]
        trace = member.materialize()
        assert trace.name == "adv/edge-lo-in"
        assert len(trace) > 0
