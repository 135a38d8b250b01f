#!/usr/bin/env python
"""Benchmark regression runner.

Runs the pytest-benchmark suite and emits a numbered ``BENCH_<n>.json``
snapshot (pytest-benchmark's machine-readable format) so the repo's
performance trajectory is tracked commit over commit: run it before and
after a perf change and diff the ``stats.mean`` fields, or point
``pytest-benchmark compare`` at two snapshots.

Usage::

    python benchmarks/run_benchmarks.py                  # whole suite
    python benchmarks/run_benchmarks.py -k abl_engine    # one family
    python benchmarks/run_benchmarks.py --label sweep-opt
    python benchmarks/run_benchmarks.py --quick          # CI gate subset

Snapshots land in ``BENCH_<n>.json`` at the repo root by default
(numbered after the highest existing snapshot); ``REPRO_BENCH_SCALE``
and ``REPRO_BENCH_INPUTS`` are honoured exactly as in the suite itself,
and the chosen values are recorded inside the snapshot under
``extra_info`` via the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")

#: The ``--quick`` subset: fast, representative benchmarks covering the
#: engines (reference/vectorized throughput), the batched sweep, the
#: pipeline cold/warm path, workload materialization and the service
#: front end (warm-cache request latency).  This is what the CI
#: ``bench-gate`` job runs and what ``benchmarks/check_regression.py``
#: compares against the committed ``BENCH_<n>.json`` history.  Keep the
#: names stable: renaming a benchmark silently drops it from the gate
#: until a new snapshot is committed.
QUICK_SELECT = (
    "engine_throughput or sweep_throughput or kernels_run_all or materialize"
    " or chaos_overhead or serve_warm or ingest_throughput or adversarial_suite_sweep"
    " or backend_throughput or sweep_backend or suite_traces_store or suite_profile"
)


def next_snapshot_path(output_dir: Path) -> Path:
    """The next free ``BENCH_<n>.json`` in ``output_dir``."""
    highest = 0
    for entry in output_dir.glob("BENCH_*.json"):
        match = SNAPSHOT_PATTERN.match(entry.name)
        if match:
            highest = max(highest, int(match.group(1)))
    return output_dir / f"BENCH_{highest + 1:04d}.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-k", "--select", default=None,
        help="pytest -k expression selecting a benchmark subset",
    )
    parser.add_argument(
        "--label", default=None,
        help="free-form label stored alongside the snapshot",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"run only the CI-gate subset (-k {QUICK_SELECT!r})",
    )
    parser.add_argument(
        "--output-dir", type=Path, default=REPO_ROOT,
        help="directory for BENCH_<n>.json (default: repo root)",
    )
    parser.add_argument(
        "pytest_args", nargs="*",
        help="extra arguments forwarded to pytest",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick and not args.select:
        args.select = QUICK_SELECT

    try:
        import pytest_benchmark  # noqa: F401
    except ImportError:
        print("pytest-benchmark is not installed; cannot run the suite", file=sys.stderr)
        return 2

    args.output_dir.mkdir(parents=True, exist_ok=True)
    snapshot = next_snapshot_path(args.output_dir)

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    command = [
        sys.executable, "-m", "pytest", str(REPO_ROOT / "benchmarks"),
        # The suite's files are named bench_*.py; no repo-level pytest
        # config exists, so teach collection about them explicitly.
        "-o", "python_files=bench_*.py test_*.py",
        "-q", f"--benchmark-json={snapshot}",
    ]
    if args.select:
        command += ["-k", args.select]
    command += args.pytest_args

    print(f"running: {' '.join(command)}")
    status = subprocess.run(command, env=env, cwd=REPO_ROOT).returncode
    if status != 0 or not snapshot.exists():
        print(f"benchmark run failed (exit {status}); no snapshot written", file=sys.stderr)
        if snapshot.exists():
            snapshot.unlink()
        return status or 1

    # Annotate the snapshot with the run configuration so later
    # comparisons know what they are looking at.  Scale/inputs record
    # the environment overrides verbatim; null means the suite defaults
    # in benchmarks/conftest.py applied (not duplicated here so the
    # label cannot drift from the actual run).
    data = json.loads(snapshot.read_text())
    data["repro"] = {
        "label": args.label,
        "scale": os.environ.get("REPRO_BENCH_SCALE"),
        "inputs": os.environ.get("REPRO_BENCH_INPUTS"),
        "select": args.select,
        # Snapshots are only comparable on similar hosts; record what
        # produced this one (BENCH_0008 onward).  The parallel-sweep
        # scaling numbers in particular are meaningless without
        # cpu_count next to them.
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
    }
    # Drop the raw per-round timing arrays (thousands of floats per
    # benchmark, megabytes per snapshot); the summary statistics
    # (min/max/mean/stddev/median/iqr/ops/rounds) are what trajectory
    # comparisons read.
    for bench in data.get("benchmarks", []):
        bench["stats"].pop("data", None)
    snapshot.write_text(json.dumps(data, indent=1))

    benchmarks = data.get("benchmarks", [])
    print(f"\nwrote {snapshot.name} ({len(benchmarks)} benchmarks)")
    for bench in sorted(benchmarks, key=lambda b: b["name"]):
        mean = bench["stats"]["mean"]
        print(f"  {bench['name']:60s} {mean * 1000:10.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
