"""Tests for the declarative workload spec layer (repro/workload_spec.py)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.trace import Trace, exclude_pcs, offset_pcs, save_trace
from repro.workload_spec import (
    AlternatingModelSpec,
    BiasModelSpec,
    ConcatSpec,
    FilterSpec,
    GenKernelSpec,
    KernelSpec,
    LoopModelSpec,
    MarkovModelSpec,
    PatternModelSpec,
    PerfLbrSpec,
    PhasedModelSpec,
    PopulationBranch,
    PopulationSpec,
    Spec95InputSpec,
    SuiteSpec,
    TraceFileSpec,
    WorkloadSpec,
    file_fingerprint,
    kernel_suite,
    load_suite,
    model_spec_kinds,
    named_suite,
    spec95_suite,
    trace_fingerprint,
    workload_spec_class,
    workload_spec_from_dict,
    workload_spec_from_json,
    workload_spec_kinds,
)


def small_population(name="mix", seed=3, length=600) -> PopulationSpec:
    return PopulationSpec(
        branches=(
            PopulationBranch(pc=0x100, model=LoopModelSpec(body=6), weight=3),
            PopulationBranch(pc=0x104, model=MarkovModelSpec.from_rates(0.5, 0.5), hard=True),
            PopulationBranch(pc=0x108, model=PatternModelSpec(pattern=(1, 1, 0))),
            PopulationBranch(
                pc=0x10C,
                model=PhasedModelSpec(
                    phases=((BiasModelSpec(p=0.9), 1.0), (AlternatingModelSpec(), 1.0))
                ),
            ),
        ),
        length=length,
        seed=seed,
        name=name,
    )


#: Committed `perf script` capture fixtures (tests/fixtures/perf/).
PERF_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "perf"


#: One representative spec per registered workload kind.  The
#: determinism suite (test_workload_determinism.py) pins that this
#: catalogue covers every kind, so a new kind without a probe fails.
def spec_catalogue(tmp_path):
    trace = Trace([0x10, 0x10, 0x14, 0x10], [1, 0, 1, 1], name="saved")
    path = tmp_path / "saved.rbt"
    save_trace(trace, path)
    kernel = KernelSpec(name="sieve", size=96)
    return {
        "spec95": Spec95InputSpec.of("gcc/expr.i", scale=0.01),
        "population": small_population(),
        "kernel": kernel,
        "gen-kernel": GenKernelSpec(
            branches=3, iters=80, unroll=2, pattern="jumpy", transition_rates=(0.2, 0.7)
        ),
        "trace-file": TraceFileSpec.of(path),
        "perf-lbr": PerfLbrSpec.of(str(PERF_FIXTURES / "clean.txt"), event="branches"),
        "concat": ConcatSpec(parts=(kernel, KernelSpec(name="rle_compress", size=64)), name="combo"),
        "filter": FilterSpec(source=kernel, op="window", args=(5, 40)),
        "suite": SuiteSpec(name="mini", members=(kernel, small_population())),
    }


class TestRoundTrip:
    def test_every_kind_round_trips_through_json(self, tmp_path):
        catalogue = spec_catalogue(tmp_path)
        assert set(catalogue) == set(workload_spec_kinds())
        for kind, spec in catalogue.items():
            rebuilt = workload_spec_from_json(spec.to_json())
            assert rebuilt == spec, kind
            assert rebuilt.content_key() == spec.content_key(), kind
            assert rebuilt.label == spec.label, kind

    def test_dispatch_requires_kind(self):
        with pytest.raises(ConfigurationError):
            workload_spec_from_dict({"name": "x"})
        with pytest.raises(ConfigurationError):
            workload_spec_from_dict({"kind": "bogus"})
        with pytest.raises(ConfigurationError):
            workload_spec_class("bogus")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelSpec.from_dict({"kind": "kernel", "name": "sieve", "turbo": True})

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelSpec.from_dict({"kind": "spec95"})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            workload_spec_from_json("{not json")
        with pytest.raises(ConfigurationError):
            workload_spec_from_json("[1, 2]")

    def test_model_specs_round_trip(self):
        population = small_population()
        data = json.loads(population.to_json())
        models = [b["model"]["kind"] for b in data["branches"]]
        assert models == ["loop", "markov", "pattern", "phased"]
        assert workload_spec_from_dict(data) == population

    def test_model_kinds_registered(self):
        assert set(model_spec_kinds()) == {
            "bias", "pattern", "loop", "alternating", "markov", "phased",
        }


class TestValidation:
    def test_spec95_unknown_input(self):
        with pytest.raises(ConfigurationError):
            Spec95InputSpec(benchmark="doom", input_name="e1m1")
        with pytest.raises(ConfigurationError):
            Spec95InputSpec.of("not-a-label")

    def test_kernel_unknown_name(self):
        with pytest.raises(ConfigurationError):
            KernelSpec(name="quantum_sort")

    def test_population_needs_branches(self):
        with pytest.raises(ConfigurationError):
            PopulationSpec(branches=(), length=10)

    def test_filter_unknown_op(self):
        with pytest.raises(ConfigurationError):
            FilterSpec(source=KernelSpec(), op="teleport")

    def test_filter_needs_workload_source(self):
        with pytest.raises(ConfigurationError):
            FilterSpec(source=None, op="head", args=(5,))

    def test_concat_needs_parts(self):
        with pytest.raises(ConfigurationError):
            ConcatSpec(parts=())

    def test_suite_rejects_duplicate_labels(self):
        kernel = KernelSpec(name="sieve")
        with pytest.raises(ConfigurationError, match="unique"):
            SuiteSpec(name="dup", members=(kernel, KernelSpec(name="sieve")))

    def test_trace_file_needs_path(self):
        with pytest.raises(ConfigurationError):
            TraceFileSpec(path="")


class TestMaterialize:
    def test_trace_name_is_label(self, tmp_path):
        for kind, spec in spec_catalogue(tmp_path).items():
            assert spec.materialize().name == spec.label, kind

    def test_spec95_matches_legacy_generator(self):
        from repro.workloads.synthetic.spec95 import SPEC95_INPUTS, input_trace

        input_set = next(s for s in SPEC95_INPUTS if s.label == "gcc/expr.i")
        legacy = input_trace(input_set, scale=0.01)
        spec = Spec95InputSpec.of("gcc/expr.i", scale=0.01)
        assert spec.materialize() == legacy

    def test_kernel_matches_run_kernel(self):
        from repro.workloads.programs.kernels import run_kernel

        spec = KernelSpec(name="bubble_sort", size=24, seed=5)
        assert spec.materialize() == run_kernel("bubble_sort", size=24, seed=5).trace

    def test_concat_concatenates(self):
        a = KernelSpec(name="sieve", size=64)
        b = KernelSpec(name="rle_compress", size=64)
        combo = ConcatSpec(parts=(a, b), name="combo").materialize()
        assert len(combo) == len(a.materialize()) + len(b.materialize())

    def test_filter_ops(self):
        kernel = KernelSpec(name="sieve", size=96)
        full = kernel.materialize()
        window = FilterSpec(source=kernel, op="window", args=(5, 40)).materialize()
        assert window == full[5:45].with_name(window.name)
        head = FilterSpec(source=kernel, op="head", args=(7,)).materialize()
        assert len(head) == 7
        pc = int(full.pcs[0])
        only = FilterSpec(source=kernel, op="select_pcs", args=((pc,),)).materialize()
        assert set(only.pcs.tolist()) == {pc}
        sampled = FilterSpec(source=kernel, op="sample_every", args=(3, 1)).materialize()
        assert len(sampled) == len(full[1::3])
        dropped = FilterSpec(source=kernel, op="exclude_pcs", args=((pc,),)).materialize()
        assert dropped == exclude_pcs(full, [pc]).with_name(dropped.name)
        shifted = FilterSpec(source=kernel, op="offset_pcs", args=(64,)).materialize()
        assert shifted == offset_pcs(full, 64).with_name(shifted.name)

    @pytest.mark.parametrize(
        "op, args, error",
        [
            ("select_pcs", ((1 << 63,),), "fit in int64"),
            ("exclude_pcs", ((1 << 63,),), "fit in int64"),
            ("offset_pcs", (1 << 63,), "fit in int64"),
            # An offset inside int64 whose sum with the largest pc is not.
            ("offset_pcs", ((1 << 63) - 1,), "past the int64 maximum"),
        ],
    )
    def test_filter_args_outside_int64_rejected(self, op, args, error):
        spec = FilterSpec(source=KernelSpec(name="sieve", size=32), op=op, args=args)
        with pytest.raises(TraceError, match=error):
            spec.materialize()

    def test_filter_round_trips_with_args(self):
        spec = FilterSpec(source=KernelSpec(), op="sample_every", args=(4, 2))
        assert workload_spec_from_json(spec.to_json()) == spec

    def test_suite_traces_and_merge(self):
        suite = SuiteSpec(
            name="mini",
            members=(KernelSpec(name="sieve", size=64), small_population()),
        )
        traces = suite.traces()
        assert [t.name for t in traces] == suite.labels() == ["vm/sieve", "mix"]
        merged = suite.materialize()
        assert merged.name == "mini"
        assert len(merged) == sum(len(t) for t in traces)

    def test_trace_file_round_trips_data(self, tmp_path):
        trace = Trace([4, 8, 4], [1, 0, 1], name="t")
        path = tmp_path / "t.rbt"
        save_trace(trace, path)
        loaded = TraceFileSpec.of(path).materialize()
        assert np.array_equal(loaded.pcs, trace.pcs)
        assert np.array_equal(loaded.outcomes, trace.outcomes)

    def test_trace_file_pin_detects_modification(self, tmp_path):
        path = tmp_path / "t.rbt"
        save_trace(Trace([4, 8], [1, 0], name="t"), path)
        spec = TraceFileSpec.of(path)
        save_trace(Trace([4, 8], [0, 0], name="t"), path)
        with pytest.raises(TraceError, match="changed"):
            spec.materialize()


class TestContentKeys:
    def test_key_tracks_fields(self):
        base = KernelSpec(name="sieve", size=96)
        assert base.content_key() == KernelSpec(name="sieve", size=96).content_key()
        assert base.content_key() != KernelSpec(name="sieve", size=97).content_key()
        assert base.content_key() != KernelSpec(name="sieve", size=96, seed=1).content_key()

    def test_scale_changes_spec95_key(self):
        a = Spec95InputSpec.of("gcc/expr.i", scale=1.0)
        b = Spec95InputSpec.of("gcc/expr.i", scale=0.5)
        assert a.content_key() != b.content_key()

    def test_trace_file_key_is_content_not_path(self, tmp_path):
        trace = Trace([4, 8, 4], [1, 0, 1], name="t")
        save_trace(trace, tmp_path / "a.rbt")
        save_trace(trace, tmp_path / "b.rbt")
        a = TraceFileSpec.of(tmp_path / "a.rbt", alias="t")
        b = TraceFileSpec.of(tmp_path / "b.rbt", alias="t")
        assert a.content_key() == b.content_key()  # same bytes, different path
        save_trace(Trace([4, 8, 4], [0, 0, 1], name="t"), tmp_path / "b.rbt")
        assert a.content_key() != TraceFileSpec.of(tmp_path / "b.rbt", alias="t").content_key()

    def test_trace_file_label_participates_in_key(self, tmp_path):
        # Same bytes under a different name materialize differently
        # named traces, so the keys must differ (labels are how the
        # pipeline and session address per-workload results).
        trace = Trace([4, 8], [1, 0], name="t")
        save_trace(trace, tmp_path / "a.rbt")
        save_trace(trace, tmp_path / "b.rbt")
        by_stem_a = TraceFileSpec.of(tmp_path / "a.rbt")
        by_stem_b = TraceFileSpec.of(tmp_path / "b.rbt")
        assert by_stem_a.content_key() != by_stem_b.content_key()
        aliased = TraceFileSpec.of(tmp_path / "b.rbt", alias="a")
        assert aliased.content_key() == by_stem_a.content_key()

    def test_numeric_coercion_canonicalizes_keys(self):
        from repro.workload_spec import BiasModelSpec, LoopModelSpec, MarkovModelSpec

        # JSON int vs float spellings of the same value key identically.
        assert (
            LoopModelSpec(body=8).to_dict() == LoopModelSpec(body=8.0).to_dict()
        )
        assert BiasModelSpec(p=1).to_dict() == BiasModelSpec(p=1.0).to_dict()
        a = PopulationSpec(
            branches=(PopulationBranch(pc=0x10, model=MarkovModelSpec(p_tn=1, p_nt=1)),),
            length=10,
        )
        b = PopulationSpec(
            branches=(PopulationBranch(pc=0x10, model=MarkovModelSpec(p_tn=1.0, p_nt=1.0)),),
            length=10,
        )
        assert a.content_key() == b.content_key()

    def test_model_fields_validated_at_boundary(self):
        from repro.workload_spec import (
            BiasModelSpec,
            LoopModelSpec,
            MarkovModelSpec,
            model_spec_from_dict,
        )

        with pytest.raises(ConfigurationError):
            LoopModelSpec(body=8.5)  # not an integer
        with pytest.raises(ConfigurationError):
            LoopModelSpec(body=1)
        with pytest.raises(ConfigurationError):
            BiasModelSpec(p=1.5)
        with pytest.raises(ConfigurationError):
            MarkovModelSpec(p_tn=0.0, p_nt=0.0)  # absorbing chain
        with pytest.raises(ConfigurationError):
            PatternModelSpec(pattern=(1, 2))
        with pytest.raises(ConfigurationError):
            model_spec_from_dict({"kind": "loop", "body": 8.5})
        with pytest.raises(ConfigurationError):
            KernelSpec(size=64.5)

    def test_composer_key_chases_member_content(self, tmp_path):
        # Editing a member *file* re-keys the suite even though the
        # suite's own fields (the path) are unchanged.
        path = tmp_path / "t.rbt"
        save_trace(Trace([4, 8], [1, 0], name="t"), path)
        suite = SuiteSpec(name="s", members=(TraceFileSpec(path=str(path)),))
        before = suite.content_key()
        save_trace(Trace([4, 8], [0, 1], name="t"), path)
        assert suite.content_key() != before

    def test_unpinned_file_fingerprints_lazily(self, tmp_path):
        path = tmp_path / "t.rbt"
        save_trace(Trace([4], [1], name="t"), path)
        unpinned = TraceFileSpec(path=str(path))
        pinned = TraceFileSpec.of(path)
        assert unpinned.content_key() == pinned.content_key()

    def test_trace_fingerprint_content_based(self):
        a = Trace([4, 8], [1, 0], name="x")
        b = Trace([4, 8], [1, 0], name="x")
        c = Trace([4, 8], [1, 1], name="x")
        assert trace_fingerprint(a) == trace_fingerprint(b)
        assert trace_fingerprint(a) != trace_fingerprint(c)
        assert trace_fingerprint(a) != trace_fingerprint(a.with_name("y"))

    def test_file_fingerprint_missing_file(self):
        with pytest.raises(ConfigurationError):
            file_fingerprint("/nonexistent/trace.rbt")


class TestNamedSuites:
    def test_spec95_suite_matches_legacy_labels(self):
        from repro.workloads.synthetic.spec95 import suite_input_sets

        for inputs in ("primary", "all"):
            suite = spec95_suite(inputs)
            assert suite.labels() == [s.label for s in suite_input_sets(inputs)]

    def test_spec95_suite_traces_match_legacy(self):
        from repro.workloads.synthetic.spec95 import suite_traces

        suite = spec95_suite("primary", 0.01)
        assert suite.traces() == suite_traces(inputs="primary", scale=0.01)

    def test_kernel_suite_covers_every_kernel(self):
        from repro.workloads.programs.kernels import KERNEL_NAMES

        suite = kernel_suite()
        assert suite.name == "kernels"
        assert suite.labels() == [f"vm/{name}" for name in KERNEL_NAMES]

    def test_kernel_suite_scales_sizes(self):
        big = {m.name: m.size for m in kernel_suite(1.0).members}
        small = {m.name: m.size for m in kernel_suite(0.25).members}
        assert all(small[k] <= big[k] for k in big)
        assert all(size >= 8 for size in small.values())

    def test_named_suite_unknown(self):
        with pytest.raises(ConfigurationError):
            named_suite("doom")

    def test_load_suite_accepts_name_json_and_file(self, tmp_path):
        assert load_suite("kernels").name == "kernels"
        inline = load_suite('{"kind": "kernel", "name": "sieve", "size": 32}')
        assert isinstance(inline, SuiteSpec)  # non-suites wrap into one
        assert inline.labels() == ["vm/sieve"]
        path = tmp_path / "suite.json"
        path.write_text(kernel_suite(0.5).to_json())
        assert load_suite(str(path)) == kernel_suite(0.5)
        with pytest.raises(ConfigurationError):
            load_suite("no-such-suite")


class TestSessionIntegration:
    def test_specs_are_hashable_dict_keys(self, tmp_path):
        catalogue = spec_catalogue(tmp_path)
        table = {spec: kind for kind, spec in catalogue.items()}
        assert len(table) == len(catalogue)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            WorkloadSpec().materialize()
        with pytest.raises(NotImplementedError):
            WorkloadSpec().label
