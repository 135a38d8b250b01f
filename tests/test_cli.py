"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_options(self):
        args = build_parser().parse_args(
            ["run", "fig3", "--scale", "0.5", "--inputs", "all", "--no-cache"]
        )
        assert args.experiment == "fig3"
        assert args.scale == 0.5
        assert args.inputs == "all"
        assert args.no_cache

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_inputs_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig1", "--inputs", "bogus"])

    def test_cache_dir_option(self):
        args = build_parser().parse_args(["run", "fig3", "--cache-dir", "/tmp/my-cache"])
        assert args.cache_dir == "/tmp/my-cache"

    def test_cache_dir_default(self):
        args = build_parser().parse_args(["run", "fig3"])
        assert args.cache_dir == ".repro-cache"

    def test_jobs_option(self):
        args = build_parser().parse_args(["run", "all", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["run", "fig1"]).jobs == 1

    def test_plan_command(self):
        args = build_parser().parse_args(["plan", "all", "--scale", "0.1"])
        assert args.command == "plan"
        assert args.experiment == "all"

    def test_artifacts_commands(self):
        args = build_parser().parse_args(["artifacts", "list"])
        assert args.artifacts_command == "list"
        args = build_parser().parse_args(["artifacts", "gc", "--cache-dir", "/tmp/x"])
        assert args.artifacts_command == "gc"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["artifacts"])

    def test_simulate_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--spec", "{}", "--benchmark", "compress", "--show-plan"]
        )
        assert args.spec == "{}"
        assert args.benchmark == "compress"
        assert args.show_plan


class TestMain:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig15" in out
        assert "Figure 13" in out

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99", "--no-cache"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_table1(self, capsys):
        # table1 needs no sweep, so it is fast at any scale.
        assert main(["run", "table1", "--no-cache", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out
        assert "9stone21.in" in out

    def test_run_small_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig1", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "taken rate" in out.lower()

    def test_misclassification_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["misclassification", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "paper 62.90%" in out
        assert "paper 9.29%" in out

    def test_cache_dir_threaded_through_context(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "custom-cache"
        assert main(["run", "fig1", "--scale", "0.01", "--cache-dir", str(cache)]) == 0
        assert list((cache / "objects").glob("*.npz"))
        assert (cache / "manifest.json").exists()
        assert not (tmp_path / ".repro-cache").exists()


class TestPipelineCommands:
    def test_plan_all_dedupes_sweep(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["plan", "all", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "plan: 17 target(s)" in out
        # The shared sweep artifact appears once, marked with its fan-out.
        assert out.count("sweep-grids") == 1
        assert "shared by 15 consumers" in out

    def test_plan_single_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["plan", "table1", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "render:table1" in out
        assert "sweep" not in out

    def test_plan_reflects_cache_state(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig1", "--scale", "0.01"]) == 0
        capsys.readouterr()
        assert main(["plan", "fig1", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "0 to run" in out

    def test_run_all_continues_past_failure(self, capsys, tmp_path, monkeypatch):
        from repro.experiments import registry as registry_module
        from repro.experiments.base import Experiment, artifact_inputs

        @artifact_inputs("sweep")
        def explode(context):
            raise RuntimeError("boom")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(
            registry_module.EXPERIMENTS,
            "fig5",
            Experiment("fig5", "broken", "Figure 5", explode, explode.requires),
        )
        assert main(["run", "all", "--scale", "0.01"]) == 1  # non-zero only at end
        captured = capsys.readouterr()
        # The other 16 experiments still rendered, and the summary says so.
        assert "Table 1" in captured.out
        assert "run all: 16/17 experiments succeeded [FAILED]" in captured.out
        assert "failed: fig5" in captured.out
        assert "boom" in captured.err

    def test_run_all_success_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "all", "--scale", "0.01"]) == 0
        assert "run all: 17/17 experiments succeeded [ok]" in capsys.readouterr().out

    def test_artifacts_list_and_gc(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig1", "--scale", "0.01"]) == 0
        capsys.readouterr()

        assert main(["artifacts", "list"]) == 0
        out = capsys.readouterr().out
        assert "sweep-grids" in out
        assert "render:fig1" in out

        # Same config: everything is live, nothing collected.
        assert main(["artifacts", "gc", "--scale", "0.01"]) == 0
        assert "removed 0 object(s)" in capsys.readouterr().out

        # --dry-run previews without deleting.
        assert main(["artifacts", "gc", "--scale", "0.02", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove" in out and "would remove 0" not in out
        assert main(["artifacts", "list"]) == 0
        assert "is empty" not in capsys.readouterr().out

        # Different scale: the old objects are unreachable garbage.
        assert main(["artifacts", "gc", "--scale", "0.02"]) == 0
        assert "removed 0" not in capsys.readouterr().out
        assert main(["artifacts", "list"]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_artifacts_list_tolerates_schema_drift(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(["run", "table1", "--scale", "0.01"]) == 0
        capsys.readouterr()
        manifest_path = tmp_path / ".repro-cache" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        # One record missing kind/bytes/created, one embedding 'digest'.
        manifest["0" * 64] = {"key": "mystery"}
        manifest["1" * 64] = {"digest": "1" * 64, "key": "dup-digest"}
        manifest_path.write_text(json.dumps(manifest))
        assert main(["artifacts", "list"]) == 0
        assert "mystery" in capsys.readouterr().out

    def test_artifacts_disabled_store(self, capsys):
        assert main(["artifacts", "list", "--no-cache"]) == 1
        assert "disabled" in capsys.readouterr().err

    def test_run_all_parallel_jobs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig1", "--scale", "0.01", "--jobs", "2"]) == 0
        assert "taken rate" in capsys.readouterr().out.lower()


class TestSuiteOption:
    def test_suite_option_parsed(self):
        args = build_parser().parse_args(["run", "all", "--suite", "kernels"])
        assert args.suite == "kernels"
        assert build_parser().parse_args(["run", "fig1"]).suite is None

    def test_run_all_on_kernel_suite(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "all", "--suite", "kernels", "--scale", "0.25",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "run all: 17/17 experiments succeeded [ok]" in out
        assert "vm/sieve" in out  # fig15 lists the kernel labels

    def test_suite_rerun_hits_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig1", "--suite", "kernels", "--scale", "0.25"]) == 0
        capsys.readouterr()
        assert main(["plan", "all", "--suite", "kernels", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        # The expensive shared artifacts are warm; only never-rendered
        # leaves remain to run.
        assert "workload-traces" in out
        assert "sweep-grids" in out
        for line in out.splitlines():
            if "workload-traces" in line or "sweep-grids" in line:
                assert "[cached]" in line, line

    def test_suite_from_json_file(self, capsys, tmp_path, monkeypatch):
        from repro.workload_spec import kernel_suite

        monkeypatch.chdir(tmp_path)
        suite_file = tmp_path / "mine.json"
        suite_file.write_text(kernel_suite(0.25).to_json())
        assert main(["run", "fig15", "--suite", str(suite_file), "--no-cache"]) == 0
        assert "vm/matmul" in capsys.readouterr().out

    def test_unknown_suite_fails_cleanly(self, capsys):
        assert main(["run", "fig1", "--suite", "doom", "--no-cache"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_gc_reports_suite(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "table1", "--scale", "0.01"]) == 0
        capsys.readouterr()
        assert main(["artifacts", "gc", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "suite=spec95" in out


class TestWorkloadCommands:
    def test_workloads_lists_kinds_and_suites(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for kind in ("spec95", "population", "kernel", "trace-file",
                     "concat", "filter", "suite"):
            assert f"{kind}:" in out
        assert "kernels" in out
        assert "markov" in out

    def test_workloads_covers_every_registered_kind(self, capsys):
        # Registry completeness: a kind that registers without showing
        # up in `repro workloads` (and a suite missing from the list)
        # fails here, so new kinds can't be forgotten.
        from repro.workload_spec import MODELS, NAMED_SUITES, WORKLOADS

        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for kind in WORKLOADS.kinds():
            assert f"{kind}:" in out, kind
        for kind in MODELS.kinds():
            assert kind in out, kind
        for suite in NAMED_SUITES:
            assert suite in out, suite

    def test_unknown_kind_lists_registered_kinds(self, capsys):
        from repro.errors import SpecError
        from repro.workload_spec import WORKLOADS, WorkloadSpec

        with pytest.raises(SpecError) as excinfo:
            WorkloadSpec.from_dict({"kind": "made-up"})
        for kind in WORKLOADS.kinds():
            assert kind in str(excinfo.value)

    def test_simulate_workload_inline(self, capsys):
        assert main([
            "simulate", "--spec", '{"kind": "bimodal", "entries": 256}',
            "--workload", '{"kind": "kernel", "name": "sieve", "size": 96}',
            "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "vm/sieve" in out
        assert "bimodal" in out

    def test_simulate_workload_named_suite(self, capsys):
        assert main([
            "simulate", "--spec", '{"kind": "bimodal", "entries": 256}',
            "--workload", "kernels", "--scale", "0.25", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "vm/bubble_sort" in out
        assert "suite" in out

    def test_simulate_workload_from_file(self, capsys, tmp_path):
        from repro.workload_spec import KernelSpec

        workload_file = tmp_path / "w.json"
        workload_file.write_text(KernelSpec(name="matmul", size=24).to_json())
        assert main([
            "simulate", "--spec", '{"kind": "bimodal", "entries": 256}',
            "--workload", str(workload_file), "--no-cache",
        ]) == 0
        assert "vm/matmul" in capsys.readouterr().out

    def test_simulate_workload_respects_benchmark_filter(self, capsys):
        assert main([
            "simulate", "--spec", '{"kind": "bimodal", "entries": 256}',
            "--workload", "kernels", "--scale", "0.25",
            "--benchmark", "vm", "--no-cache",
        ]) == 0
        assert "vm/sieve" in capsys.readouterr().out
        assert main([
            "simulate", "--spec", '{"kind": "bimodal", "entries": 256}',
            "--workload", "kernels", "--scale", "0.25",
            "--benchmark", "gcc", "--no-cache",
        ]) == 1  # nothing matches: error, not a silently dropped filter
        assert "no workloads for benchmark" in capsys.readouterr().err

    def test_simulate_workload_missing_file(self, capsys):
        assert main([
            "simulate", "--spec", '{"kind": "bimodal", "entries": 256}',
            "--workload", "/nonexistent/w.json", "--no-cache",
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestTraceInfo:
    def test_trace_info(self, capsys, tmp_path):
        from repro.trace import Trace, save_trace

        path = tmp_path / "t.rbt"
        save_trace(
            Trace([16, 16, 20, 16, 20], [1, 0, 1, 1, 1], name="demo"), path
        )
        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "records:          5" in out
        assert "static branches:  2" in out
        assert "class histogram" in out
        assert "transition" in out

    def test_trace_info_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])  # subcommand required
        assert main(["trace", "info", "/nonexistent/t.rbt"]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_trace_info_reports_v2_chunks(self, capsys, tmp_path):
        from repro.trace import Trace, save_trace

        path = tmp_path / "t.rbt"
        save_trace(
            Trace([4] * 100, [1] * 100, name="v2demo"), path,
            version=2, compress=True, chunk_len=32,
        )
        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rbt v2 (zlib chunks)" in out
        assert "chunks:           4" in out
        assert "fingerprint:" in out

    @pytest.mark.parametrize(
        "save_kwargs,expected_format",
        [
            ({"version": 1}, "rbt-v1"),
            ({"version": 2}, "rbt-v2"),
            ({"version": 2, "compress": True, "chunk_len": 32}, "rbt-v2"),
        ],
    )
    def test_trace_info_json(self, capsys, tmp_path, save_kwargs, expected_format):
        import json

        from repro.trace import Trace, save_trace

        path = tmp_path / "t.rbt"
        save_trace(
            Trace([16, 16, 20, 16, 20] * 20, [1, 0, 1, 1, 1] * 20, name="demo"),
            path,
            **save_kwargs,
        )
        assert main(["trace", "info", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        info = json.loads(out)
        # Machine-readable contract: sorted keys, stable shape.
        assert out.strip() == json.dumps(info, sort_keys=True, indent=2)
        assert info["format"] == expected_format
        assert info["name"] == "demo"
        assert info["records"] == 100
        assert info["static_branches"] == 2
        assert info["compressed"] == bool(save_kwargs.get("compress"))
        assert 0.0 <= info["taken_rate"] <= 1.0
        assert set(info["class_histogram"]) == {"taken", "transition"}
        if save_kwargs["version"] == 2:
            assert info["chunks"] >= 1
            assert len(info["fingerprint"]) == 64
        else:
            assert info["fingerprint"] is None

    def test_trace_info_json_text_format(self, capsys, tmp_path):
        import json

        path = tmp_path / "t.txt"
        path.write_text("# trace demo\n0x10 1\n0x10 0\n0x14 1\n")
        assert main(["trace", "info", str(path), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format"] == "text"
        assert info["records"] == 3


class TestTraceConvert:
    def test_convert_v1_to_v2_roundtrip(self, capsys, tmp_path):
        from repro.trace import Trace, load_trace, save_trace

        rng = __import__("numpy").random.default_rng(0)
        trace = Trace(rng.integers(0, 50, 4000), rng.integers(0, 2, 4000), name="c")
        src = tmp_path / "v1.rbt"
        dst = tmp_path / "v2.rbt"
        save_trace(trace, src, version=1)
        assert main([
            "trace", "convert", str(src), str(dst),
            "--v2", "--compress", "--chunk-len", "1024",
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        back = load_trace(dst)
        assert back == trace
        assert back.name == "c"

    def test_convert_v2_to_v1(self, capsys, tmp_path):
        from repro.trace import Trace, TraceReader, save_trace

        trace = Trace([1, 2, 3], [1, 0, 1], name="c")
        src = tmp_path / "v2.rbt"
        dst = tmp_path / "v1.rbt"
        save_trace(trace, src, version=2)
        assert main(["trace", "convert", str(src), str(dst), "--version", "1"]) == 0
        with TraceReader(dst) as reader:
            assert reader.version == 1

    @pytest.mark.parametrize("flags", [["--version", "1"], ["--compress"]], ids=["v1", "zlib"])
    def test_convert_in_place(self, tmp_path, flags):
        # Writing over the input used to truncate it under its own memory
        # map: the process died of SIGBUS, so the CLI runs in a child.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import numpy as np

        from repro.trace import Trace, load_trace, save_trace

        trace = Trace(np.arange(1000) * 4, np.arange(1000) % 2, name="c")
        path = tmp_path / "x.rbt"
        save_trace(trace, path)
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "convert", str(path), str(path), *flags],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, (result.returncode, result.stderr)
        assert load_trace(path) == trace
        assert [entry.name for entry in tmp_path.iterdir()] == ["x.rbt"]

    def test_convert_rejects_v1_compress(self, capsys, tmp_path):
        src = tmp_path / "t.rbt"
        from repro.trace import Trace, save_trace

        save_trace(Trace([1], [1]), src)
        assert main([
            "trace", "convert", str(src), str(tmp_path / "o.rbt"),
            "--version", "1", "--compress",
        ]) == 1
        assert "compress" in capsys.readouterr().err

    def test_convert_rejects_bad_chunk_len(self, capsys, tmp_path):
        from repro.trace import Trace, save_trace

        src = tmp_path / "t.rbt"
        save_trace(Trace([1], [1]), src)
        assert main([
            "trace", "convert", str(src), str(tmp_path / "o.rbt"), "--chunk-len", "13",
        ]) == 1
        assert "multiple of 8" in capsys.readouterr().err
        # Zero must error too, not silently fall back to the default.
        assert main([
            "trace", "convert", str(src), str(tmp_path / "o.rbt"), "--chunk-len", "0",
        ]) == 1
        assert "multiple of 8" in capsys.readouterr().err


class TestStreamedSimulate:
    def test_simulate_streams_large_trace_file(self, capsys, tmp_path, monkeypatch):
        from repro.trace import Trace, save_trace

        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", "256")
        rng = __import__("numpy").random.default_rng(5)
        trace = Trace(
            rng.integers(0, 40, 3000) * 4, rng.integers(0, 2, 3000), name="onfile"
        )
        path = tmp_path / "big.rbt"
        save_trace(trace, path, version=2, chunk_len=512)
        assert main([
            "simulate", "--spec", '{"kind": "bimodal", "entries": 256}',
            "--workload", f"file:{path}", "--no-cache", "--show-plan",
        ]) == 0
        out = capsys.readouterr().out
        assert "(streamed)" in out
        assert "big" in out


class TestSpecCommands:
    def test_specs_lists_every_kind(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        for kind in ("two-level", "yags", "bimode", "filter", "dhlf", "tournament", "hybrid"):
            assert f"{kind}:" in out
        assert "history_kind" in out

    def test_simulate_inline_spec(self, capsys):
        spec = '{"kind": "two-level", "history_bits": 4, "pht_index_bits": 10, "index_scheme": "xor"}'
        assert main(
            ["simulate", "--spec", spec, "--scale", "0.005", "--benchmark",
             "compress", "--no-cache", "--show-plan"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "[batched]" in out
        assert "compress" in out
        assert "suite" in out

    def test_simulate_spec_from_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"kind": "bimodal", "entries": 256}')
        assert main(
            ["simulate", "--spec", str(spec_file), "--scale", "0.005",
             "--benchmark", "go", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "bimodal" in out
        assert "go/" in out

    def test_simulate_missing_spec_file(self, capsys):
        assert main(["simulate", "--spec", "/nonexistent/spec.json", "--no-cache"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_bad_spec_json(self, capsys):
        assert main(["simulate", "--spec", '{"kind": "bogus"}', "--no-cache"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_unknown_benchmark(self, capsys):
        spec = '{"kind": "bimodal", "entries": 256}'
        assert main(
            ["simulate", "--spec", spec, "--scale", "0.005", "--benchmark",
             "doom", "--no-cache"]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestIngestCommand:
    FIXTURE = str(
        __import__("pathlib").Path(__file__).resolve().parent
        / "fixtures" / "perf" / "clean.txt"
    )

    def test_parser_options(self):
        args = build_parser().parse_args(
            ["ingest", "perf", "in.txt", "-o", "out.rbt", "--event", "branches",
             "--pid", "42", "--cond-only", "--compress", "--chunk-len", "64",
             "--json"]
        )
        assert args.command == "ingest"
        assert args.ingest_command == "perf"
        assert args.input == "in.txt"
        assert args.output == "out.rbt"
        assert args.event == "branches"
        assert args.pid == 42
        assert args.cond_only and args.compress and args.as_json
        assert args.chunk_len == 64
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest"])  # subcommand required
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "perf", "in.txt"])  # -o required

    def test_ingest_then_info_then_simulate(self, capsys, tmp_path):
        import json

        out = tmp_path / "clean.rbt"
        assert main(
            ["ingest", "perf", self.FIXTURE, "-o", str(out), "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["records"] > 0
        assert report["skipped_lines"] == 0
        assert report["output"] == str(out)
        assert len(report["sha256"]) == 64

        assert main(["trace", "info", str(out), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["records"] == report["records"]
        assert info["format"] == "rbt-v2"

        assert main(
            ["simulate", "--spec", '{"kind": "bimodal", "entries": 64}',
             "--workload", f"file:{out}", "--no-cache"]
        ) == 0
        assert "clean" in capsys.readouterr().out

    def test_ingest_human_report(self, capsys, tmp_path):
        out = tmp_path / "clean.rbt"
        assert main(["ingest", "perf", self.FIXTURE, "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ingested" in text
        assert "source sha256" in text

    def test_ingest_bad_chunk_len(self, capsys, tmp_path):
        assert main(
            ["ingest", "perf", self.FIXTURE, "-o", str(tmp_path / "x.rbt"),
             "--chunk-len", "7"]
        ) == 1
        assert "multiple of 8" in capsys.readouterr().err

    def test_ingest_garbage_only_fails(self, capsys, tmp_path):
        src = tmp_path / "junk.txt"
        src.write_text("not perf at all\n")
        assert main(["ingest", "perf", str(src), "-o", str(tmp_path / "x.rbt")]) == 1
        assert "no branch records" in capsys.readouterr().err


class TestGenKernelCommand:
    def test_parser_options(self):
        args = build_parser().parse_args(
            ["gen-kernel", "--branches", "6", "--iters", "128", "-n", "2",
             "--depth", "2", "--pattern", "jumpy", "--align", "8",
             "--taken-rate", "0.3", "--taken-rate", "0.7",
             "--transition-rate", "0.049", "--seed", "9", "--alias", "adv/x",
             "-o", "t.rbt", "--json"]
        )
        assert args.command == "gen-kernel"
        assert args.branches == 6 and args.unroll == 2 and args.depth == 2
        assert args.pattern == "jumpy" and args.align == 8
        assert args.taken_rates == [0.3, 0.7]
        assert args.transition_rates == [0.049]
        assert args.output == "t.rbt" and args.as_json
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gen-kernel", "--pattern", "spaghetti"])

    def test_run_report_json_and_trace_output(self, capsys, tmp_path):
        import json

        from repro.trace.io import TraceReader

        out = tmp_path / "gen.rbt"
        assert main(
            ["gen-kernel", "--branches", "3", "--iters", "64",
             "--transition-rate", "0.2", "-o", str(out), "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sites"] == 3
        assert report["iterations"] >= 64
        assert report["records"] > 0
        assert len(report["branch_pcs"]) == 3
        assert report["output"] == str(out)
        with TraceReader(out) as reader:
            assert len(reader) == report["records"]

    def test_asm_emission(self, capsys):
        assert main(["gen-kernel", "--branches", "2", "--iters", "16", "--asm"]) == 0
        asm = capsys.readouterr().out
        assert "BNE" in asm and "HALT" in asm and "blk_0" in asm

    def test_spec_emission_round_trips(self, capsys):
        import json

        from repro.workload_spec import GenKernelSpec, WorkloadSpec

        assert main(
            ["gen-kernel", "--branches", "2", "--iters", "16", "--seed", "4",
             "--spec"]
        ) == 0
        spec = WorkloadSpec.from_dict(json.loads(capsys.readouterr().out))
        assert isinstance(spec, GenKernelSpec)
        assert spec.branches == 2 and spec.iters == 16 and spec.seed == 4

    def test_human_report(self, capsys):
        assert main(["gen-kernel", "--branches", "2", "--iters", "32"]) == 0
        text = capsys.readouterr().out
        assert "generated gen/" in text
        assert "branch site(s)" in text

    def test_invalid_parameters_exit_with_error(self, capsys):
        assert main(["gen-kernel", "--depth", "9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_adversarial_suite_simulates(self, capsys):
        assert main(
            ["simulate", "--spec", '{"kind": "bimodal", "entries": 256}',
             "--suite", "adversarial", "--scale", "0.15", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "adv/" in out
