"""Command-line interface.

::

    python -m repro list                      # experiments available
    python -m repro run fig3 [options]        # one table/figure
    python -m repro run all --jobs 4          # everything, paper order,
                                              #   parallel artifact DAG
    python -m repro run all --suite kernels   # …on the VM kernel suite
    python -m repro plan fig5                 # print the artifact DAG
    python -m repro plan all                  # (shared nodes deduped)
    python -m repro artifacts list            # what the store holds
    python -m repro artifacts gc              # drop unreachable objects
    python -m repro misclassification         # the headline §4.2 numbers
    python -m repro specs                     # predictor spec schema
    python -m repro workloads                 # workload spec schema + suites
    python -m repro simulate --spec S [opts]  # simulate a JSON spec
    python -m repro simulate --spec S --workload W   # …on one workload
    python -m repro simulate --spec S --workload file:big.rbt  # streams
    python -m repro backends                  # backend availability
    python -m repro trace info FILE           # inspect a saved trace
    python -m repro trace convert IN OUT --v2 --compress  # re-chunk/zlib
    python -m repro lint [PATHS]              # invariant static analysis
    python -m repro lint --list-rules         # the rule catalogue
    python -m repro serve --port 8765         # analysis-service daemon
    python -m repro submit fig3               # run via a serve daemon

Experiments run through the artifact pipeline (see ``docs/API.md``,
*Pipeline & artifacts*): expensive artifacts are content-addressed in
the ``--cache-dir`` store and shared across tables/figures, ``--jobs N``
fans independent artifacts out over worker processes, and ``run all``
runs every experiment even when some fail, summarizing pass/fail at the
end (non-zero exit only then).

Options: ``--suite`` (named suite — ``spec95``, ``spec95-all``,
``kernels`` — or a workload/suite JSON file; see ``docs/WORKLOADS.md``),
``--scale`` (trace length multiplier), ``--inputs primary|all`` (one
input set per benchmark vs all 34; sugar for the default spec95 suite),
``--cache-dir``, ``--no-cache``, ``--engine``, ``--jobs``, plus the
fault-tolerance knobs (see ``docs/FAULTS.md``): ``--retries N``
(attempts per node on transient faults — worker death, timeout, store
I/O), ``--node-timeout SECONDS`` (per-node wall-clock limit), and
``--resume`` (continue a killed run from the store's
``run-report.json``; only missing artifacts recompute).  ``--spec``
and ``--workload`` accept inline JSON or a path to a JSON file; see
``docs/API.md`` and ``docs/WORKLOADS.md`` for the schemas.
``--workload`` also accepts a trace file directly (``file:<path>`` or
any path with the binary magic); binary files at or above
``REPRO_STREAM_THRESHOLD`` bytes (default 64 MiB) are *streamed*
chunk-at-a-time instead of materialized — see ``docs/TRACES.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Sequence
from pathlib import Path

from .errors import ConfigurationError, LockTimeout, ReproError
from .experiments import ExperimentContext, all_experiment_ids, get_experiment
from .pipeline import RetryPolicy
from .session import ENGINES
from .spec import PREDICTORS, PredictorSpec
from .specbase import Registry
from .workload_spec import (
    MODELS,
    NAMED_SUITES,
    WORKLOADS,
    GenKernelSpec,
    SuiteSpec,
    load_suite,
    named_suite,
    resolve_workload,
)
from .workloads.generator import PATTERNS as GEN_PATTERNS

__all__ = ["main", "build_parser"]

DEFAULT_CACHE_DIR = ".repro-cache"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Branch Transition Rate: A New Metric for "
            "Improved Branch Classification Analysis' (HPCA 2000)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (e.g. fig3, table2) or 'all'")
    _add_context_options(run)

    plan = sub.add_parser(
        "plan", help="print the artifact DAG for an experiment (or 'all')"
    )
    plan.add_argument("experiment", help="experiment id (e.g. fig3, table2) or 'all'")
    _add_context_options(plan)

    artifacts = sub.add_parser(
        "artifacts", help="inspect or garbage-collect the artifact store"
    )
    artifacts_sub = artifacts.add_subparsers(dest="artifacts_command", required=True)
    art_list = artifacts_sub.add_parser(
        "list", help="list stored artifacts (manifest order, newest first)"
    )
    _add_context_options(art_list)
    art_gc = artifacts_sub.add_parser(
        "gc",
        help=(
            "delete objects the current configuration's full DAG cannot "
            "reach — pass the SAME --scale/--inputs you run with, or "
            "that configuration's warm artifacts are collected too"
        ),
    )
    art_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )
    art_gc.add_argument(
        "--lock-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help=(
            "how long to wait for the store's serve lock before failing "
            "with 'store busy' when a repro serve daemon holds the cache "
            "(default 5.0)"
        ),
    )
    _add_context_options(art_gc)

    mis = sub.add_parser(
        "misclassification", help="print the section 4.2 headline numbers"
    )
    _add_context_options(mis)

    sub.add_parser("specs", help="list predictor spec kinds and their fields")

    sub.add_parser(
        "workloads", help="list workload spec kinds, fields and named suites"
    )

    sim = sub.add_parser(
        "simulate", help="simulate a declarative predictor spec over a workload"
    )
    sim.add_argument(
        "--spec",
        required=True,
        help="predictor spec: inline JSON or a path to a JSON file (see docs/API.md)",
    )
    sim.add_argument(
        "--workload",
        default=None,
        help=(
            "workload spec: a named suite, inline JSON or a path to a JSON "
            "file (see docs/WORKLOADS.md); default: the context suite"
        ),
    )
    sim.add_argument(
        "--benchmark",
        default=None,
        help="restrict to one benchmark (e.g. compress); default: whole suite",
    )
    sim.add_argument(
        "--show-plan",
        action="store_true",
        help="print the session execution plan before the results",
    )
    _add_context_options(sim)

    sub.add_parser(
        "backends",
        help=(
            "report compiled-kernel backend availability and what "
            "'auto' resolves to (see docs/PERFORMANCE.md)"
        ),
    )

    lint = sub.add_parser(
        "lint",
        help=(
            "statically analyze source for determinism / spec-contract / "
            "worker-safety / store-discipline violations (see docs/ANALYSIS.md)"
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the installed repro package)",
    )
    lint.add_argument(
        "--format",
        dest="lint_format",
        choices=("text", "json"),
        default="text",
        help="report format (default text; json emits machine-readable findings)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "baseline file of grandfathered findings (default "
            "lint-baseline.json next to the analyzed tree, when present)"
        ),
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file: report every finding",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue (id, severity, scope, description)",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the analysis service daemon: HTTP/JSON job submission "
            "with dedupe, backpressure and a shared worker pool "
            "(see docs/SERVICE.md)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 picks an ephemeral one; default 8765)",
    )
    serve.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"shared artifact store root (default {DEFAULT_CACHE_DIR})",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes shared across jobs (default: "
            "$REPRO_SERVE_WORKERS or 1)"
        ),
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help=(
            "queued jobs before submissions get 429 backpressure "
            "(default: $REPRO_SERVE_QUEUE or 8)"
        ),
    )
    serve.add_argument(
        "--max-running",
        type=int,
        default=2,
        help="jobs executing concurrently (default 2)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per artifact node on transient faults (default 3)",
    )
    serve.add_argument(
        "--node-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-node wall-clock limit (default: no limit)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit an experiment to a running repro serve daemon",
    )
    submit.add_argument(
        "experiment",
        help="experiment id (e.g. fig3, table2) or an artifact target key",
    )
    submit.add_argument("--host", default="127.0.0.1", help="service host")
    submit.add_argument("--port", type=int, default=8765, help="service port")
    submit.add_argument(
        "--suite",
        default=None,
        help="workload suite name or suite JSON file (default: spec95)",
    )
    submit.add_argument(
        "--scale", type=float, default=1.0, help="trace length multiplier"
    )
    submit.add_argument(
        "--inputs", choices=("primary", "all"), default="primary",
        help="input sets for the default spec95 suite",
    )
    submit.add_argument(
        "--follow",
        action="store_true",
        help="stream per-node NDJSON progress events while waiting",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="how long to wait for the job to finish (default 600)",
    )

    trace = sub.add_parser("trace", help="inspect and convert saved trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_info = trace_sub.add_parser(
        "info",
        help=(
            "print format, length, PCs, rates and class histogram of a "
            "trace file (binary files are streamed, never materialized)"
        ),
    )
    trace_info.add_argument("path", help="trace file (.rbt binary or text format)")
    trace_info.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="machine-readable output (one JSON object, sorted keys)",
    )
    trace_convert = trace_sub.add_parser(
        "convert",
        help="convert a trace file between formats (v1 <-> chunked v2, zlib)",
    )
    trace_convert.add_argument("input", help="source trace file")
    trace_convert.add_argument("output", help="destination trace file")
    trace_convert.add_argument(
        "--version",
        dest="format_version",
        type=int,
        choices=(1, 2),
        default=2,
        help="output format version (default 2, chunked)",
    )
    trace_convert.add_argument(
        "--v2",
        dest="format_version",
        action="store_const",
        const=2,
        help="shorthand for --version 2",
    )
    trace_convert.add_argument(
        "--compress",
        action="store_true",
        help="zlib-compress the chunk payloads (v2 only)",
    )
    trace_convert.add_argument(
        "--chunk-len",
        type=int,
        default=None,
        help="records per chunk (default 1<<20; must be a multiple of 8)",
    )

    ingest = sub.add_parser(
        "ingest", help="convert externally captured branch traces to RBT"
    )
    ingest_sub = ingest.add_subparsers(dest="ingest_command", required=True)
    ingest_perf = ingest_sub.add_parser(
        "perf",
        help=(
            "parse `perf script -F brstack` output (or plain FROM => TO "
            "branch lines) into a chunked RBT v2 file, streaming — "
            "constant memory on multi-GB inputs (see docs/INGEST.md)"
        ),
    )
    ingest_perf.add_argument("input", help="perf script text dump")
    ingest_perf.add_argument(
        "-o", "--output", required=True, help="destination .rbt file"
    )
    ingest_perf.add_argument(
        "--event", default=None, help="keep only this perf event (e.g. branches)"
    )
    ingest_perf.add_argument(
        "--pid", type=int, default=None, help="keep only this process id"
    )
    ingest_perf.add_argument(
        "--cond-only",
        action="store_true",
        help="drop branch-typed entries that are not conditional (save_type captures)",
    )
    ingest_perf.add_argument(
        "--compress", action="store_true", help="zlib-compress the chunk payloads"
    )
    ingest_perf.add_argument(
        "--chunk-len",
        type=int,
        default=None,
        help="records per chunk (default 1<<20; must be a multiple of 8)",
    )
    ingest_perf.add_argument(
        "--name", default="", help="trace name to store (default: input stem)"
    )
    ingest_perf.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the ingest report as JSON (sorted keys)",
    )

    gen = sub.add_parser(
        "gen-kernel",
        help=(
            "generate a parametric VM kernel (branch count, unroll, nest "
            "depth, jump pattern, per-branch rate targets), run it and "
            "report — or emit its assembly/spec/trace"
        ),
    )
    gen.add_argument("--branches", type=int, default=4, help="logical branches (default 4)")
    gen.add_argument(
        "--iters", type=int, default=256, help="executions per branch site (default 256)"
    )
    gen.add_argument(
        "-n", "--unroll", type=int, default=1, help="body unroll factor (default 1)"
    )
    gen.add_argument("--depth", type=int, default=1, help="loop-nest depth 1-3 (default 1)")
    gen.add_argument(
        "--pattern",
        choices=GEN_PATTERNS,
        default="seq",
        help="physical block layout (default seq)",
    )
    gen.add_argument(
        "--align",
        type=int,
        default=0,
        help="0 or 2-12: align branch blocks to 2**align-byte PCs (aliasing stress)",
    )
    gen.add_argument(
        "--taken-rate",
        dest="taken_rates",
        type=float,
        action="append",
        metavar="RATE",
        help="per-branch taken-rate target; repeatable, cycled (default 0.5)",
    )
    gen.add_argument(
        "--transition-rate",
        dest="transition_rates",
        type=float,
        action="append",
        metavar="RATE",
        help="per-branch transition-rate target; repeatable, cycled (default 0.5)",
    )
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    gen.add_argument("--alias", default="", help="workload label (default derived)")
    gen.add_argument(
        "-o",
        "--output",
        default=None,
        help="also write the branch trace to this .rbt file (chunked v2)",
    )
    gen.add_argument(
        "--compress", action="store_true", help="zlib-compress the written trace"
    )
    gen.add_argument(
        "--asm", action="store_true", help="print the generated assembly and exit"
    )
    gen.add_argument(
        "--spec",
        dest="emit_spec",
        action="store_true",
        help="print the equivalent gen-kernel workload spec JSON and exit",
    )
    gen.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the run report as JSON (sorted keys)",
    )
    return parser


def _add_context_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--suite",
        default=None,
        help=(
            "workload suite: a built-in name "
            f"({', '.join(sorted(NAMED_SUITES))}) or a suite JSON file "
            "(default: the spec95 suite built from --inputs/--scale)"
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="trace length multiplier (default 1.0)"
    )
    parser.add_argument(
        "--inputs",
        choices=("primary", "all"),
        default="primary",
        help="one input set per benchmark, or all 34 from Table 1",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"directory for the artifact store (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="do not read/write the artifact store"
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="simulation engine (default auto; see docs/ENGINES.md)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent artifacts (default 1)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help=(
            "attempts per artifact node on transient faults — worker "
            "death, timeout, store I/O (default 1: no retry; see "
            "docs/FAULTS.md)"
        ),
    )
    parser.add_argument(
        "--node-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-node wall-clock limit; an attempt past it counts as a "
            "transient timeout fault (default: no limit)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume a killed run from the store's run-report.json: "
            "completed artifacts are served from the cache, only "
            "missing nodes recompute (requires the cache)"
        ),
    )


def _context_from(args: argparse.Namespace) -> ExperimentContext:
    suite = None
    if getattr(args, "suite", None) is not None:
        suite = load_suite(args.suite, scale=args.scale)
    retries = getattr(args, "retries", 1)
    if retries < 1:
        raise ConfigurationError(f"--retries must be at least 1, got {retries}")
    resume = getattr(args, "resume", False)
    if resume and args.no_cache:
        raise ConfigurationError(
            "--resume needs the artifact store (it replans against "
            "run-report.json and cached artifacts); drop --no-cache"
        )
    node_timeout = getattr(args, "node_timeout", None)
    if node_timeout is not None and node_timeout <= 0:
        raise ConfigurationError(
            f"--node-timeout must be positive, got {node_timeout:g}"
        )
    return ExperimentContext(
        inputs=args.inputs,
        scale=args.scale,
        cache_dir=None if args.no_cache else args.cache_dir,
        engine=args.engine,
        jobs=args.jobs,
        suite=suite,
        retry=RetryPolicy(max_attempts=retries),
        node_timeout=node_timeout,
        resume=resume,
    )


def _load_spec(text: str) -> PredictorSpec:
    """Parse ``--spec``: inline JSON if it looks like an object, else a file."""
    candidate = text.strip()
    if candidate.startswith("{"):
        return PredictorSpec.from_json(candidate)
    path = Path(candidate)
    if not path.exists():
        raise ConfigurationError(
            f"spec file {candidate!r} not found (inline specs must start with '{{')"
        )
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {candidate!r}: {exc}") from None
    return PredictorSpec.from_json(text)


def _experiment_ids(selector: str) -> list[str]:
    """Resolve 'all' or a single id (validating it exists)."""
    if selector == "all":
        return all_experiment_ids()
    return [get_experiment(selector).experiment_id]


def _run_experiments(args: argparse.Namespace) -> int:
    context = _context_from(args)
    ids = _experiment_ids(args.experiment)

    # One experiment per pipeline call, so output streams as results
    # land: shared artifacts (the sweep) are computed once by whichever
    # experiment needs them first and served from the store/memo after,
    # and a failed shared artifact fails fast on the rest (the executor
    # remembers broken addresses) instead of recomputing per figure.
    passed: list[str] = []
    failed: list[str] = []
    run_report_path = None
    for experiment_id in ids:
        report = context.pipeline.run_experiments([experiment_id])
        run_report_path = report.run_report_path or run_report_path
        key = f"render:{experiment_id}"
        if key in report.values:
            result = report.values[key]
            print(result.rendered)
            if result.paper_note:
                print(f"[paper] {result.paper_note}")
            print(flush=True)
            passed.append(experiment_id)
        else:
            failed.append(experiment_id)
            causes = "; ".join(f.summary() for f in report.failures)
            print(
                f"error: {experiment_id}: {causes or 'upstream artifact failed'}",
                file=sys.stderr,
            )
    if len(ids) > 1:
        status = "ok" if not failed else "FAILED"
        print(
            f"run all: {len(passed)}/{len(ids)} experiments succeeded [{status}]"
            + (f" — failed: {', '.join(failed)}" if failed else "")
        )
    if failed and run_report_path is not None:
        print(
            f"run report: {run_report_path} (rerun with --resume to "
            "recompute only what is missing)",
            file=sys.stderr,
        )
    return 0 if not failed else 1


def _run_plan(args: argparse.Namespace) -> int:
    context = _context_from(args)
    ids = _experiment_ids(args.experiment)
    print(context.pipeline.plan_experiments(ids).describe())
    return 0


def _run_artifacts(args: argparse.Namespace) -> int:
    context = _context_from(args)
    store = context.store
    if store.root is None:
        print("artifact store is disabled (--no-cache)", file=sys.stderr)
        return 1

    if args.artifacts_command == "list":
        entries = store.entries()
        if not entries:
            print(f"artifact store at {store.root} is empty")
            return 0
        print(f"artifact store at {store.root}: {len(entries)} object(s)")
        for entry in entries:
            # Tolerate schema drift (records from other store versions,
            # hand-edits): show what is there instead of crashing.
            size = entry.get("bytes")
            print(
                f"  {entry.digest[:12]}  {entry.get('kind', '?'):18s} "
                f"{entry.get('key', '?'):28s} "
                f"{size if isinstance(size, int) else 0:>10,} B  "
                f"{entry.get('created', '?')}"
            )
        return 0

    config = context.config
    live = context.pipeline.planner.live_digests(store)
    # Destructive maintenance defers to a live `repro serve` daemon: gc
    # under a server would delete objects its in-flight jobs are about
    # to read.  The daemon holds the serve lock for its lifetime, so a
    # bounded acquire either wins (no server; safe to sweep) or names
    # the holder and fails fast instead of hanging or corrupting.
    try:
        store.serve_lock.acquire(timeout=max(0.0, args.lock_timeout))
    except LockTimeout:
        info = store.read_serve_info() or {}
        holder = f"serve pid {info['pid']}" if "pid" in info else "a repro serve daemon"
        address = f" at {info['address']}" if "address" in info else ""
        print(
            f"error: store busy (held by {holder}{address}): stop the "
            "server or raise --lock-timeout before gc",
            file=sys.stderr,
        )
        return 1
    try:
        removed, reclaimed = store.gc(live, dry_run=args.dry_run)
    finally:
        store.serve_lock.release()
    verb = "would remove" if args.dry_run else "removed"
    assert config.suite is not None
    print(
        f"gc: keeping artifacts reachable at suite={config.suite.name} "
        f"[{config.suite.content_key()[:12]}] scale={config.scale:g} "
        f"histories={config.history_lengths[0]}"
        f"..{config.history_lengths[-1]}"
    )
    print(f"gc: {verb} {removed} object(s), {reclaimed:,} B")
    return 0


def _print_kinds(registry: Registry) -> None:
    """Each kind of ``registry`` with its fields and their defaults."""
    for kind, cls in registry.items():
        print(f"{kind}:")
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                default = f.default
            elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                default = f.default_factory()  # type: ignore[misc]
            else:
                default = "<required>"
            print(f"  {f.name} (default {default!r})")


def _run_workloads() -> int:
    print("workload spec kinds:")
    _print_kinds(WORKLOADS)
    print()
    print(f"branch model kinds (population branches): {', '.join(MODELS.kinds())}")
    print()
    print("named suites (--suite / --workload):")
    for name in sorted(NAMED_SUITES):
        suite = named_suite(name)
        print(f"  {name:12s} {len(suite.members)} member(s): "
              f"{', '.join(suite.labels()[:4])}"
              + (", …" if len(suite.members) > 4 else ""))
    return 0


def _run_trace_info(args: argparse.Namespace) -> int:
    import json as json_module

    import numpy as np

    from .classify.classes import NUM_CLASSES, rate_classes
    from .trace.io import MAGIC, TraceReader, load_trace
    from .trace.stats import TraceStats

    try:
        with open(args.path, "rb") as fp:
            is_binary = fp.read(4) == MAGIC
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace file {args.path!r}: {exc}") from None
    # One flat JSON-compatible dict describes the file in both output
    # modes; format-specific keys are None where they do not apply.
    info: dict = {
        "path": args.path,
        "compressed": False,
        "chunks": None,
        "chunk_len": None,
        "fingerprint": None,
    }
    if is_binary:
        # Binary files are streamed chunk-at-a-time: `trace info` on a
        # multi-GB v2 file runs in O(chunk) memory.
        with TraceReader(args.path) as reader:
            stats = TraceStats.from_chunks(iter(reader))
            info["name"] = reader.name
            info["records"] = len(reader)
            info["format"] = f"rbt-v{reader.version}"
            info["compressed"] = reader.compressed
            if reader.version >= 2:
                info["chunks"] = reader.num_chunks
                info["chunk_len"] = reader.chunk_len
                info["fingerprint"] = reader.fingerprint
    else:
        trace = load_trace(args.path)
        stats = TraceStats.from_trace(trace)
        info["name"] = trace.name
        info["records"] = len(trace)
        info["format"] = "text"
    total = stats.total_dynamic
    info["static_branches"] = len(stats)
    info["taken_rate"] = float(stats.taken.sum() / total) if total else 0.0
    info["transition_rate"] = 0.0
    histograms: dict[str, list[float]] = {}
    if len(stats):
        weights = stats.dynamic_weights()
        info["transition_rate"] = float((stats.transition_rates() * weights).sum())
        for label, rates in (
            ("taken", stats.taken_rates()),
            ("transition", stats.transition_rates()),
        ):
            shares = np.bincount(
                rate_classes(rates), weights=weights, minlength=NUM_CLASSES
            )
            histograms[label] = [float(share) for share in shares]
    info["class_histogram"] = histograms

    if args.as_json:
        print(json_module.dumps(info, sort_keys=True, indent=2))
        return 0

    print(f"trace:            {info['name'] or '<unnamed>'} ({args.path})")
    if info["format"] == "text":
        print("format:           text")
    else:
        version = info["format"].removeprefix("rbt-v")
        print(f"format:           rbt v{version}"
              + (" (zlib chunks)" if info["compressed"] else ""))
        if info["chunks"] is not None:
            print(f"chunks:           {info['chunks']:,} "
                  f"(nominal {info['chunk_len']:,} records each)")
            print(f"fingerprint:      {info['fingerprint'][:16]}…")
    print(f"records:          {info['records']:,}")
    print(f"static branches:  {info['static_branches']:,}")
    print(f"taken rate:       {info['taken_rate']:.4%}")
    if histograms:
        print(f"transition rate:  {info['transition_rate']:.4%}  "
              "(dynamic-weighted per-branch)")
        print()
        print("class histogram (% of dynamic branches):")
        header = "  class      " + "".join(f"{c:>7d}" for c in range(NUM_CLASSES))
        print(header)
        for label in ("taken", "transition"):
            print(
                f"  {label:10s} "
                + "".join(f"{share * 100:7.2f}" for share in histograms[label])
            )
    return 0


def _run_ingest_perf(args: argparse.Namespace) -> int:
    import json as json_module

    from .ingest.perf import ingest_perf
    from .trace.io import DEFAULT_CHUNK_LEN

    chunk_len = DEFAULT_CHUNK_LEN if args.chunk_len is None else args.chunk_len
    if chunk_len < 1 or chunk_len % 8:
        raise ConfigurationError(
            f"--chunk-len must be a positive multiple of 8, got {chunk_len}"
        )
    report = ingest_perf(
        args.input,
        args.output,
        event=args.event,
        pid=args.pid,
        cond_only=args.cond_only,
        compress=args.compress,
        chunk_len=chunk_len,
        name=args.name,
    )
    if args.as_json:
        payload = report.to_dict()
        payload["output"] = args.output
        print(json_module.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(f"ingested {args.input} -> {args.output}")
    print(f"  {report.summary()}")
    print(f"  source sha256: {report.sha256}")
    return 0


def _run_gen_kernel(args: argparse.Namespace) -> int:
    import json as json_module

    spec = GenKernelSpec(
        branches=args.branches,
        iters=args.iters,
        unroll=args.unroll,
        depth=args.depth,
        pattern=args.pattern,
        align=args.align,
        taken_rates=tuple(args.taken_rates or (0.5,)),
        transition_rates=tuple(args.transition_rates or (0.5,)),
        seed=args.seed,
        alias=args.alias,
    )
    if args.emit_spec:
        print(spec.to_json(indent=2, sort_keys=True))
        return 0
    kernel = spec._kernel()
    if args.asm:
        print(kernel.source, end="")
        return 0

    from .trace.stats import TraceStats
    from .workloads.generator import run_generated

    result = run_generated(kernel, name=spec.label)
    assert result.trace is not None
    trace = result.trace.with_name(spec.label)
    stats = TraceStats.from_trace(trace)
    report = {
        "workload": spec.label,
        "content_key": spec.content_key(),
        "sites": kernel.sites,
        "iterations": kernel.iterations,
        "trips": list(kernel.trips),
        "instructions": len(kernel.program),
        "steps": result.steps,
        "records": len(trace),
        "static_branches": len(stats),
        "branch_pcs": [hex(pc) for pc in kernel.branch_pcs],
        "output": None,
    }
    if args.output:
        from .trace.io import write_chunks

        write_chunks(
            [trace], args.output, name=spec.label, compress=args.compress
        )
        report["output"] = args.output
    if args.as_json:
        print(json_module.dumps(report, sort_keys=True, indent=2))
        return 0
    print(f"generated {spec.label} (key {report['content_key'][:16]}…)")
    print(
        f"  {report['sites']} branch site(s) x {report['iterations']} iteration(s), "
        f"trips {report['trips']}, {report['instructions']} instruction(s)"
    )
    print(f"  ran {report['steps']:,} step(s); trace: {report['records']:,} record(s), "
          f"{report['static_branches']} static branch(es)")
    if report["output"]:
        print(f"  trace written to {report['output']}")
    return 0


def _run_trace_convert(args: argparse.Namespace) -> int:
    from .trace.io import (
        DEFAULT_CHUNK_LEN,
        MAGIC,
        TraceReader,
        load_trace,
        rechunk,
        save_trace,
        write_chunks,
    )

    chunk_len = DEFAULT_CHUNK_LEN if args.chunk_len is None else args.chunk_len
    if chunk_len < 1 or chunk_len % 8:
        raise ConfigurationError(
            f"--chunk-len must be a positive multiple of 8, got {chunk_len}"
        )
    if args.compress and args.format_version == 1:
        raise ConfigurationError("format v1 does not support --compress")
    try:
        with open(args.input, "rb") as fp:
            is_binary = fp.read(4) == MAGIC
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read trace file {args.input!r}: {exc}"
        ) from None

    if is_binary and args.format_version == 2:
        # Binary-to-v2 streams: the full trace is never materialized.
        with TraceReader(args.input, chunk_len=chunk_len) as reader:
            records = write_chunks(
                rechunk(iter(reader), chunk_len),
                args.output,
                name=reader.name,
                compress=args.compress,
                chunk_len=chunk_len,
            )
    else:
        # Text sources and v1 targets need the whole trace in memory
        # (v1 stores all PCs before all outcomes).
        trace = load_trace(args.input)
        save_trace(
            trace, Path(args.output), version=args.format_version,
            compress=args.compress, chunk_len=chunk_len,
        )
        records = len(trace)
    out_bytes = Path(args.output).stat().st_size
    print(
        f"wrote {args.output}: v{args.format_version}, {records:,} records, "
        f"{out_bytes:,} B" + (" (zlib chunks)" if args.compress else "")
    )
    return 0


def _default_lint_baseline(paths: list[Path]) -> Path:
    """Where the baseline lives for this invocation.

    Search order: next to the current directory, then next to (or up to
    three levels above) the first analyzed path — so ``repro lint`` run
    from the repo root and ``repro lint src/repro`` both find the
    committed ``lint-baseline.json``.  When none exists yet, the first
    candidate is where ``--write-baseline`` will create it.
    """
    from .analysis.lint import DEFAULT_BASELINE_NAME

    candidates = [Path.cwd() / DEFAULT_BASELINE_NAME]
    if paths:
        first = paths[0] if paths[0].is_dir() else paths[0].parent
        for ancestor in (first, *list(first.resolve().parents)[:3]):
            candidates.append(ancestor / DEFAULT_BASELINE_NAME)
    for candidate in candidates:
        if candidate.exists():
            return candidate
    return candidates[0]


def _run_lint(args: argparse.Namespace) -> int:
    import json as json_module

    from .analysis.lint import (
        all_rules,
        filter_baselined,
        lint_paths,
        load_baseline,
        write_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope) if rule.scope else "all files"
            print(f"{rule.id}  {rule.name}  [{rule.severity.value}]  scope: {scope}")
            print(f"      {rule.description}")
        return 0

    paths = [Path(p) for p in args.paths] if args.paths else [Path(__file__).parent]
    findings = lint_paths(paths)

    baseline_path = (
        Path(args.baseline) if args.baseline else _default_lint_baseline(paths)
    )
    if args.write_baseline:
        write_baseline(baseline_path, findings)
        print(f"wrote {len(findings)} finding(s) to baseline {baseline_path}")
        return 0
    absorbed = 0
    if not args.no_baseline:
        findings, absorbed = filter_baselined(findings, load_baseline(baseline_path))

    if args.lint_format == "json":
        print(
            json_module.dumps(
                {
                    "findings": [finding.to_dict() for finding in findings],
                    "baselined": absorbed,
                },
                indent=1,
                sort_keys=True,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        summary = f"lint: {len(findings)} finding(s)"
        if absorbed:
            summary += f" ({absorbed} baselined in {baseline_path})"
        print(summary if findings or absorbed else "lint: clean")
    return 1 if findings else 0


def _run_backends() -> int:
    import os

    from .engine.backend import backend_availability, resolve_backend

    availability = backend_availability()
    for name, (usable, reason) in availability.items():
        status = "available" if usable else "unavailable"
        print(f"{name:8s} {status:12s} {reason}")
    env = os.environ.get("REPRO_ENGINE_BACKEND")
    resolved = resolve_backend("auto")
    print(f"{'auto':8s} {'->':12s} {resolved}")
    if env:
        # The one backend setting: what it resolves to, or why it cannot.
        print(f"REPRO_ENGINE_BACKEND={env} -> {resolve_backend()} (every simulation and ingest)")
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    context = _context_from(args)
    session = context.session()
    if args.workload is not None:
        workload = resolve_workload(args.workload, scale=args.scale)
        # A suite simulates per member (mirroring the per-benchmark
        # listing); any other workload is one job.
        workloads = list(workload.members) if isinstance(workload, SuiteSpec) else [workload]
        if args.benchmark is not None:
            kept = [w for w in workloads if w.label.split("/", 1)[0] == args.benchmark]
            if not kept:
                known = sorted({w.label.split("/", 1)[0] for w in workloads})
                raise ConfigurationError(
                    f"no workloads for benchmark {args.benchmark!r}; available: {known}"
                )
            workloads = kept
        jobs = [session.submit(w, spec) for w in workloads]
    else:
        traces = context.traces
        if args.benchmark is not None:
            traces = [t for t in traces if t.name.split("/", 1)[0] == args.benchmark]
            if not traces:
                known = sorted({t.name.split("/", 1)[0] for t in context.traces})
                raise ConfigurationError(
                    f"no traces for benchmark {args.benchmark!r}; available: {known}"
                )
        jobs = [session.submit(trace, spec) for trace in traces]
    if args.show_plan:
        print(session.plan().describe())
        print()
    results = session.run()

    built_name = results[jobs[0]].predictor_name or spec.kind
    print(f"predictor: {built_name} (kind {spec.kind}, {spec.storage_bits()} bits)")
    total_execs = total_misses = 0
    for job in jobs:
        result = results[job]
        total_execs += result.total_executions
        total_misses += result.total_mispredictions
        print(
            f"{result.trace_name:24s} {result.miss_rate:8.4%}  "
            f"({result.total_mispredictions}/{result.total_executions})"
        )
    if total_execs:
        print(f"{'suite':24s} {total_misses / total_execs:8.4%}  ({total_misses}/{total_execs})")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from .service import Scheduler, ServiceServer
    from .service.scheduler import QUEUE_ENV, WORKERS_ENV

    workers = args.workers
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    queue_limit = args.queue_limit
    if queue_limit is None:
        queue_limit = int(os.environ.get(QUEUE_ENV, "8"))
    scheduler = Scheduler(
        args.cache_dir,
        workers=workers,
        max_running=args.max_running,
        queue_limit=queue_limit,
        retries=args.retries,
        node_timeout=args.node_timeout,
    )
    server = ServiceServer(scheduler, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        print(
            f"repro serve on http://{server.host}:{server.port} "
            f"(cache {args.cache_dir}, {workers} worker(s), "
            f"queue limit {queue_limit}) — Ctrl-C stops",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: stopped", file=sys.stderr)
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    request: dict[str, object] = {"scale": args.scale, "inputs": args.inputs}
    selector = args.experiment
    if ":" in selector or selector in ("sweep", "misclassification", "traces"):
        request["targets"] = [selector]
        render_keys: list[str] = []
    else:
        ids = _experiment_ids(selector)
        request["experiments"] = ids
        render_keys = [f"render:{experiment_id}" for experiment_id in ids]
    if args.suite is not None:
        request["suite"] = args.suite

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    job = client.submit(request)
    job_id = job["id"]
    shared = "" if job.get("created_job") else " (deduped onto in-flight job)"
    print(f"job {job_id[:12]} [{job['state']}]{shared}", file=sys.stderr)

    if args.follow:
        for event in client.events(job_id, timeout=args.timeout):
            if event.get("event") == "job":
                break
            print(
                f"  {event.get('status', '?'):9s} {event.get('key', '?')} "
                f"(attempts {event.get('attempts', 0)})",
                file=sys.stderr,
            )
    job = client.wait(job_id, timeout=args.timeout)
    if job["state"] != "done":
        print(f"error: job failed: {job.get('error')}", file=sys.stderr)
        return 1
    results = job.get("results", {})
    # Render output exactly as `repro run` does, so served results are
    # byte-comparable with the one-shot path.
    for target, result in results.items():
        if render_keys and target not in render_keys:
            continue
        if "rendered" in result:
            print(result["rendered"])
            if result.get("paper_note"):
                print(f"[paper] {result['paper_note']}")
            print(flush=True)
        else:
            print(f"{target}: stored at {result['digest']}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for experiment_id in all_experiment_ids():
                experiment = get_experiment(experiment_id)
                print(f"{experiment_id:8s} {experiment.paper_artifact:10s} {experiment.title}")
            return 0

        if args.command == "run":
            return _run_experiments(args)

        if args.command == "plan":
            return _run_plan(args)

        if args.command == "artifacts":
            return _run_artifacts(args)

        if args.command == "misclassification":
            report = _context_from(args).misclassification()
            print(f"taken-rate identified:       {report.taken_identified:.2f}% (paper 62.90%)")
            print(
                "transition identified (GAs): "
                f"{report.gas_transition_identified:.2f}% (paper 71.62%)"
            )
            print(
                "transition identified (PAs): "
                f"{report.pas_transition_identified:.2f}% (paper 72.19%)"
            )
            print(f"misclassified (GAs view):    {report.gas_misclassified:.2f}% (paper 8.72%)")
            print(f"misclassified (PAs view):    {report.pas_misclassified:.2f}% (paper 9.29%)")
            return 0

        if args.command == "specs":
            _print_kinds(PREDICTORS)
            return 0

        if args.command == "workloads":
            return _run_workloads()

        if args.command == "backends":
            return _run_backends()

        if args.command == "simulate":
            return _run_simulate(args)

        if args.command == "lint":
            return _run_lint(args)

        if args.command == "serve":
            return _run_serve(args)

        if args.command == "submit":
            return _run_submit(args)

        if args.command == "trace":
            if args.trace_command == "convert":
                return _run_trace_convert(args)
            return _run_trace_info(args)

        if args.command == "ingest":
            return _run_ingest_perf(args)

        if args.command == "gen-kernel":
            return _run_gen_kernel(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
