"""The program side of the benchmark: one role per child process.

``run.py`` starts every role in a fresh interpreter, with ``src`` on the
path, so each timing and each peak RSS belongs to a process that ran
only the program.  A role prints one JSON object as its last line.
With ``--trace FILE`` the layer wrappers of :mod:`tracing` are installed
before the program is imported, and the spans are written to ``FILE``
when the role ends.

Roles::

    setup        import and context creation only (one set-up sample)
    spec95-cold  one `repro run all --jobs 1` pass into an empty store
    spec95-warm  warm passes over a populated store for --seconds
    perf-gen     write the seeded perf capture and its expected results
    perf-round   ingests of the capture and Sessions over it, for --seconds
    oneshot      every experiment at one spec95 scale, no store
    serve        a `repro serve` daemon (runs until SIGINT)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: spec95 scale of the perf-lbr capture: ~0.18M records, ~4.6 MiB.
PERF_SCALE = 0.125
#: Records per RBT chunk when ingesting the capture.
PERF_CHUNK_LEN = 1 << 16
#: Ingests per Session in a perf-lbr round (see :func:`role_perf_round`).
INGESTS_PER_SESSION = 3

TRACER = None


def ready() -> float:
    return time.monotonic()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(payload: dict) -> None:
    payload.setdefault("rss_mb", peak_rss_mb())
    print(json.dumps(payload, sort_keys=True), flush=True)


def region(fn, *args, **kwargs):
    if TRACER is None:
        return fn(*args, **kwargs)
    return TRACER.region(fn, *args, **kwargs)


# -- spec95-run-all -----------------------------------------------------------


def output_text(result) -> str:
    """An experiment's text exactly as `repro run` prints it."""
    text = result.rendered
    if result.paper_note:
        text += f"\n[paper] {result.paper_note}"
    return text


def run_all_pass(store: str, ids: list[str]) -> tuple[dict[str, str], int]:
    """One `repro run all` pass: a fresh context, one pipeline call per
    experiment.  Returns the outputs' sha256 by id, and the failures."""
    from repro.experiments.context import ExperimentContext

    context = ExperimentContext(cache_dir=store)
    digests, failed = {}, 0
    for experiment_id in ids:
        report = context.pipeline.run_experiments([experiment_id])
        result = report.values.get(f"render:{experiment_id}")
        if result is None:
            failed += 1
            continue
        digests[experiment_id] = hashlib.sha256(output_text(result).encode()).hexdigest()
    return digests, failed


def spec95_setup(store: str) -> list[str]:
    """Imports and context creation: the set-up every spec95 role pays."""
    from repro.experiments.context import ExperimentContext
    from repro.experiments.registry import all_experiment_ids

    ExperimentContext(cache_dir=store)
    return all_experiment_ids()


def role_setup(args) -> None:
    if args.workload == "perf-lbr":
        perf_setup()
    else:
        spec95_setup(args.store)
    emit({"ready": ready()})


def role_spec95_cold(args) -> None:
    ids = spec95_setup(args.store)
    at = ready()
    start = time.perf_counter()
    digests, failed = region(run_all_pass, args.store, ids)
    cold_s = time.perf_counter() - start
    emit({"ready": at, "cold_s": cold_s, "outputs": digests, "failed": failed})


def role_spec95_warm(args) -> None:
    ids = spec95_setup(args.store)
    rng = random.Random(args.seed)
    at = ready()
    passes, first, failed, mismatched = [], None, 0, 0
    deadline = time.monotonic() + args.seconds
    while not passes or time.monotonic() < deadline:
        order = ids[:]
        rng.shuffle(order)
        start = time.perf_counter()
        digests, pass_failed = region(run_all_pass, args.store, order)
        passes.append(time.perf_counter() - start)
        failed += pass_failed
        if first is None:
            first = digests
        elif digests != first:
            mismatched += 1
    emit(
        {
            "ready": at,
            "passes_s": passes,
            "outputs": first,
            "failed": failed,
            "mismatched": mismatched,
        }
    )


# -- perf-lbr -----------------------------------------------------------------


def perf_setup() -> None:
    """Imports and session creation: the set-up every perf-lbr role pays."""
    from repro.ingest.perf import ingest_perf  # noqa: F401
    from repro.session import Session

    Session()
    perf_specs()


def perf_specs():
    """The four compiled-kernel families, then the 34 paper configurations."""
    from repro.predictors.paper_configs import HISTORY_LENGTHS, paper_spec
    from repro.spec import BiModeSpec, DhlfSpec, FilterSpec, YagsSpec

    return [YagsSpec(), BiModeSpec(), FilterSpec(), DhlfSpec()] + [
        paper_spec(kind, h) for kind in ("pas", "gas") for h in HISTORY_LENGTHS
    ]


def _entry(rng: random.Random, pc: int, taken: int) -> str:
    flags = ("M" if rng.random() < 0.1 else "P") + ("" if taken else "N")
    return f"{pc:#x}/{pc + rng.randrange(4, 512, 4):#x}/{flags}/-/-/{rng.randrange(10)}"


def role_perf_gen(args) -> None:
    """Write ``capture.txt`` (perf script -F brstack) and ``expected.json``.

    One pid per spec95 benchmark; the samples of all pids interleave in
    a seeded order.  A ``cycles`` event (filtered by ``--event
    branches``), header-only lines and malformed entries are mixed in,
    and their counts are what the ingest report must show.
    """
    import numpy as np

    from repro.engine import simulate, simulate_batched
    from repro.trace.stream import Trace
    from repro.workload_spec import spec95_suite

    rng = random.Random(args.seed)
    traces = spec95_suite(scale=PERF_SCALE).traces()
    pids = rng.sample(range(1000, 60000), len(traces))
    columns = [(t.pcs.tolist(), t.outcomes.tolist()) for t in traces]
    samples = []
    for pcs, _ in columns:
        bounds = [0]
        while bounds[-1] < len(pcs):
            bounds.append(min(bounds[-1] + rng.randint(8, 32), len(pcs)))
        samples.append(list(zip(bounds, bounds[1:])))
    # A random interleaving that keeps each pid's samples in order.
    order = [index for index, lane in enumerate(samples) for _ in lane]
    rng.shuffle(order)
    cursor = [0] * len(traces)

    reasons = {"event-filtered": 0, "malformed-entry": 0, "no-branch-payload": 0}
    expect = {"records": 0, "matched_lines": 0, "filtered_lines": 0, "skipped_lines": 0}
    expect["skipped_entries"] = 0
    lines = ["# perf script -F comm,pid,cpu,time,period,event,brstack"]
    kept_pcs, kept_taken = [], []
    stamp = 1000.0
    for index in order:
        lo, hi = samples[index][cursor[index]]
        cursor[index] += 1
        pcs, outcomes = columns[index]
        stamp += rng.random() / 1000
        comm = traces[index].name.split("/", 1)[0]
        head = f"{comm} {pids[index]} [{rng.randrange(2):03d}] {stamp:.6f}: 250000"
        entries = [_entry(rng, pcs[k], outcomes[k]) for k in range(lo, hi)]
        if rng.random() < 0.02:
            malformed = f"{pcs[lo]:#x}/0x401000/P?/-/-/0"
            entries.insert(rng.randrange(len(entries) + 1), malformed)
            expect["skipped_entries"] += 1
            reasons["malformed-entry"] += 1
        lines.append(f"{head} branches:u: " + " ".join(entries))
        kept_pcs.extend(pcs[lo:hi])
        kept_taken.extend(outcomes[lo:hi])
        expect["records"] += hi - lo
        expect["matched_lines"] += 1
        roll = rng.random()
        if roll < 0.03:
            other = [_entry(rng, rng.randrange(0x400000, 0x500000), 1) for _ in range(8)]
            lines.append(f"{head} cycles:u: " + " ".join(other))
            expect["filtered_lines"] += 1
            reasons["event-filtered"] += 1
        elif roll < 0.035:
            lines.append(f"{head} branches:u:")
            expect["skipped_lines"] += 1
            reasons["no-branch-payload"] += 1
    expect["lines"] = sum(expect[k] for k in ("matched_lines", "filtered_lines", "skipped_lines"))
    expect["reasons"] = {reason: n for reason, n in sorted(reasons.items()) if n}

    pcs = np.asarray(kept_pcs, dtype=np.int64)
    trace = Trace(pcs, np.asarray(kept_taken, dtype=np.uint8), name="capture")
    specs = perf_specs()
    misses = [simulate(spec, trace).total_mispredictions for spec in specs[:4]]
    batched = simulate_batched([spec.build() for spec in specs[4:]], trace)
    misses += [result.total_mispredictions for result in batched]
    os.makedirs(args.dir, exist_ok=True)
    outputs = {
        "capture.txt": "\n".join(lines) + "\n",
        "expected.json": json.dumps({"report": expect, "misses": misses}, sort_keys=True),
    }
    for name, text in outputs.items():
        path = os.path.join(args.dir, name)
        with open(f"{path}.tmp", "w") as fp:
            fp.write(text)
    # expected.json marks a complete input set, so it is published last.
    for name in outputs:
        path = os.path.join(args.dir, name)
        os.replace(f"{path}.tmp", path)
    emit({"records": expect["records"]})


def evaluate(rbt: str) -> list[int]:
    """One Session over the capture, as `repro simulate --workload` runs it."""
    from repro.session import Session
    from repro.workload_spec import TraceFileSpec

    session = Session()
    workload = TraceFileSpec.of(rbt)
    jobs = [session.submit(workload, spec) for spec in perf_specs()]
    results = session.run()
    return [results[job].total_mispredictions for job in jobs]


def ingest(capture: str, rbt: str) -> dict:
    """One `repro ingest perf` into a new ``rbt``; returns the report's counts."""
    from repro.ingest.perf import ingest_perf

    if os.path.exists(rbt):
        os.remove(rbt)
    options = {"event": "branches", "compress": True, "chunk_len": PERF_CHUNK_LEN}
    report = ingest_perf(capture, rbt, name="capture", **options)
    dropped = ("path", "sha256", "non_cond_entries")
    return {k: v for k, v in report.to_dict().items() if k not in dropped}


def role_perf_round(args) -> None:
    """Cycles of ingests and one Session over the ingested file, for
    ``--seconds``.  An ingest takes about a sixth of a Session, so each
    cycle ingests ``INGESTS_PER_SESSION`` times: the ingest samples then
    cover a third of the round rather than a seventh."""
    perf_setup()
    at = ready()
    ingests, sessions, reports, misses = [], [], [], []
    deadline = time.monotonic() + args.seconds
    while not sessions or time.monotonic() < deadline:
        for _ in range(INGESTS_PER_SESSION):
            start = time.perf_counter()
            reports.append(region(ingest, args.capture, args.rbt))
            ingests.append(time.perf_counter() - start)
        start = time.perf_counter()
        misses.append(region(evaluate, args.rbt))
        sessions.append(time.perf_counter() - start)
    emit(
        {
            "ready": at,
            "ingests_s": ingests,
            "sessions_s": sessions,
            "reports": reports,
            "misses": misses,
        }
    )


# -- serve-mix ----------------------------------------------------------------


def role_oneshot(args) -> None:
    from repro.experiments.context import ExperimentContext
    from repro.experiments.registry import all_experiment_ids

    context = ExperimentContext(cache_dir=None, scale=args.scale)
    texts = {}
    for experiment_id in all_experiment_ids():
        report = context.pipeline.run_experiments([experiment_id])
        texts[experiment_id] = report.values[f"render:{experiment_id}"].rendered
    emit({"texts": texts})


def role_host(args) -> None:
    """Host record; resolving ``auto`` builds the C kernels (once per cache)."""
    import platform
    import shutil

    import numpy

    from repro.engine.backend import backend_availability, resolve_backend

    emit(
        {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "c_compiler": next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None),
            "backend_auto": resolve_backend("auto"),
            "cext": backend_availability()["cext"][0],
        }
    )


def role_serve(args) -> None:
    from repro.cli import main

    main(["serve", "--cache-dir", args.store, "--port", str(args.port)])


ROLES = {
    "setup": role_setup,
    "spec95-cold": role_spec95_cold,
    "spec95-warm": role_spec95_warm,
    "perf-gen": role_perf_gen,
    "perf-round": role_perf_round,
    "oneshot": role_oneshot,
    "host": role_host,
    "serve": role_serve,
}


def main() -> None:
    global TRACER
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--workload", default="")
    parser.add_argument("--store", default="")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", default="")
    parser.add_argument("--capture", default="")
    parser.add_argument("--rbt", default="")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--trace", default="")
    args = parser.parse_args()
    if args.trace:
        import tracing

        TRACER = tracing.Tracer()
        tracing.install(TRACER)
    try:
        ROLES[args.role](args)
    finally:
        if TRACER is not None:
            TRACER.dump(args.trace)


if __name__ == "__main__":
    main()
