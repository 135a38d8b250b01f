"""Benchmark harness: one workload, one seed, one line of JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spec95-run-all --seed 1 --seconds 12 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``spec95-run-all`` -- `repro run all --jobs 1` on the spec95 suite at
  scale 1.0: cold passes into empty stores, warm passes in other
  processes.
* ``perf-lbr`` -- a seeded ``perf script -F brstack`` capture, ingested
  to chunked RBT and simulated out of core by one Session (the four
  compiled-kernel families plus the 34 paper configurations), repeated
  in three processes of ``--seconds`` each.
* ``serve-mix`` -- a `repro serve` daemon driven by two closed-loop
  clients: dedupe hits, new jobs over cached artifacts, cold jobs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with every layer wrapped (:mod:`tracing`) and prints the
per-layer metrics instead.  Every program step runs in a child process
(:mod:`program`); this process only generates inputs, times, checks and
reports.  The last line of standard output is the result object; a
failed output check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench")
PROGRAM = os.path.join(HERE, "program.py")

#: Child processes never run longer than this.
CHILD_TIMEOUT_S = 150

#: Processes per run that only set up; the median of all set-ups is reported.
SETUP_LAUNCHES = 5

#: Rounds per run, so every metric samples the whole run, not one stretch
#: of it: on a shared host the speed drifts over tens of seconds.  A
#: spec95 round is a cold process followed by ``WARM_PROCESSES`` warm
#: processes that share a third of ``--seconds`` (warm passes never share
#: a process with a cold pass).  A perf-lbr round is one process that
#: ingests and runs Sessions for ``--seconds``; its samples are seconds
#: long, so it needs the longer run.
ROUNDS = {"spec95-run-all": 3, "perf-lbr": 3}

#: spec95 warm processes per round: a warm median moves by ~5% from one
#: process to the next, so the run's median pools several.
WARM_PROCESSES = 2

#: serve-mix daemon starts per run; the last one serves the loop.
SERVE_LAUNCHES = 7

#: sha256 of each experiment's `repro run all` output (spec95, scale 1.0).
SPEC95_OUTPUTS = {
    "fig1": "21a3dcb9f154393a29967c8a5b7d9c347d16c516cbe2c949ab1891a4fe6c968d",
    "fig10": "500e6b3ef4bd7d745f3a8b4663e38d81ec7b28454bf73bde3d9d66c361e4600e",
    "fig11": "91519d868c7177c654ec74e7748ffed34deb69e1cfdbd42546b6793e7cb40c10",
    "fig12": "def6ed350f4fdb778740b6ac9b508c27b419c41b77c270b0f819227c7ffdd0e2",
    "fig13": "67725efc4b07d5d6944a090a0b028071914648bff26d21d833654cd8fb3635bf",
    "fig14": "84705bff375bcde12b080c877e63b05a82d3f7258adf401b41fdfc2a46d8d3f4",
    "fig15": "ca9e84b3dcf45bc6916a25ae04ca95f690fd57437b106a418a138b0edb6835d1",
    "fig2": "a1754e8bff824789fb5ef1368e293ddfedc0ca11c94838c2bb2d13dd981e4231",
    "fig3": "401563b0b0ec268df22d616859b84004735edc65345beeb71ac5146deeb411f5",
    "fig4": "41b374681bf0dfcecc17a964f4c7d81c8a69116ce2aa07703eccca8954d23a85",
    "fig5": "ba15ee15d5f03a220bc6e0410087f3a77e5897a2d15450c17663817bcbfdcb50",
    "fig6": "ef94cf0ec17753e2f383514c6e8db82e7cb6e0ca7b8bf2675540cb0035314285",
    "fig7": "81cb90fafd6410d954b4083157ed33df649aaff2aa17b98c33fc6d623e79b78b",
    "fig8": "2bef00f5734bdacb8666a0f92b35340ba3145572f4851263d298dd31104d5895",
    "fig9": "dd85f5b1dc95ed75499de2b58ee04ba72da68172d606807c41f979769a556b14",
    "table1": "f84eca7336eb224ab46d2ea77369e3160088f0a79e11855babec11d7d5b07363",
    "table2": "3cc8b02c8f8174c8d3f3757fcc502ab0ad6c024093d2e6c0d6772f2f43b56665",
}

#: serve-mix: the spec95 scale of every hot request.
HOT_SCALE = 0.05
#: serve-mix: requests of each kind in every block of 50: cold kernels-suite
#: jobs, new jobs over already-cached artifacts, and dedupe hits.
BLOCK = {"cold": 3, "new": 10, "dedupe": 37}
#: serve-mix: closed-loop client threads, no more than the 2 CPUs the
#: workload is sized for.
CLIENTS = 2
#: serve-mix: length of the dedupe-only warm phases, as a share of the loop's.
WARM_SHARE = 0.25
#: serve-mix: the loop runs in this many segments, each followed by a warm
#: phase, so the warm samples span the run rather than its last seconds.
SEGMENTS = 4

#: Regions must be covered by layer self time within this share.
COVERAGE_TOLERANCE = 0.10

#: Per-layer counters reported as counted: name -> unit.
COUNTED = {
    "planner.plan_calls": "count",
    "executor.nodes_computed": "count",
    "executor.nodes_cached": "count",
    "executor.attempts": "count",
    "executor.failures": "count",
    "store.get_calls": "count",
    "store.get_hits": "count",
    "store.put_calls": "count",
    "store.put_bytes": "bytes",
    "workload.materialize_calls": "count",
    "workload.records": "count",
    "classify.profile_calls": "count",
    "analysis.sweep_calls": "count",
    "engine.batched_calls": "count",
    "engine.batched_record_configs": "count",
    "engine.stream_calls": "count",
    "engine.stream_chunks": "count",
    "engine.reference_records": "count",
    "engine.compiled_records": "count",
    "session.jobs": "count",
    "session.memo_hits": "count",
    "session.batches_batched": "count",
    "session.batches_vectorized": "count",
    "session.batches_reference": "count",
    "render.calls": "count",
    "ingest.lines": "count",
    "ingest.records": "count",
    "ingest.skipped": "count",
    "trace_io.write_bytes": "bytes",
    "trace_io.read_chunks": "count",
    "service.jobs_created": "count",
    "service.dedupe_hits": "count",
    "service.rejected": "count",
}

#: Per-layer self times in milliseconds: metric name -> traced layer.
SELF_MS = {
    "planner.plan_ms": "planner",
    "executor.self_ms": "executor",
    "store.get_ms": "store.get",
    "store.put_ms": "store.put",
    "store.flush_ms": "store.flush",
    "workload.materialize_ms": "workload",
    "classify.profile_ms": "classify",
    "analysis.sweep_self_ms": "analysis",
    "engine.batched_ms": "engine.batched",
    "engine.scan_ms": "engine.scan",
    "engine.sort_ms": "engine.sort",
    "engine.stream_ms": "engine.stream",
    "engine.reference_ms": "engine.reference",
    "engine.compiled_ms": "engine.compiled",
    "session.self_ms": "session",
    "render.ms": "render",
    "ingest.ms": "ingest",
    "trace_io.write_ms": "trace_io.write",
    "trace_io.read_ms": "trace_io.read",
    "service.submit_ms": "service.submit",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- child processes ----------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CEXT_CACHE"] = os.path.join(SCRATCH, "cext")
    env["REPRO_STREAM_THRESHOLD"] = "0"
    return env


def child(role: str, *args: str, trace: str = "") -> tuple[dict, float]:
    """Run one program role; returns its JSON result and its spawn time."""
    command = [sys.executable, PROGRAM, role, *args]
    if trace:
        command += ["--trace", trace]
    # Flush what earlier steps wrote (a cold pass writes the whole store),
    # so its writeback does not land inside this step's timings.
    os.sync()
    spawned = time.monotonic()
    done = subprocess.run(
        command, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"program role {role} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), spawned


def traced(trace_dir: str, name: str) -> str:
    return os.path.join(trace_dir, f"{name}.json") if trace_dir else ""


def setup_samples(workload: str, store: str) -> list[float]:
    samples = []
    for _ in range(SETUP_LAUNCHES):
        result, spawned = child("setup", "--workload", workload, "--store", store)
        samples.append(result["ready"] - spawned)
    return samples


def build() -> dict:
    """Compile bytecode and the C kernels before anything is timed, and
    record the host."""
    command = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
    subprocess.run(command, env=child_env(), check=True, capture_output=True)
    host, _ = child("host")
    del host["rss_mb"]
    return host


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot."""
    with open("/proc/stat") as fp:
        fields = [int(x) for x in fp.readline().split()[1:9]]
    return fields[7], sum(fields)


# -- workloads ----------------------------------------------------------------


def spec95_run_all(args, tmp: str, trace_dir: str) -> dict:
    rounds = 1 if trace_dir else ROUNDS["spec95-run-all"]
    setups = [] if trace_dir else setup_samples("spec95-run-all", os.path.join(tmp, "setup"))
    warm_seconds = str(args.seconds / (ROUNDS["spec95-run-all"] * WARM_PROCESSES))
    colds, warms = [], []
    for index in range(rounds):
        store = os.path.join(tmp, f"store-{index}")
        os.makedirs(store)
        cold_args = ["--store", store]
        cold, spawned = child("spec95-cold", *cold_args, trace=traced(trace_dir, f"cold-{index}"))
        setups.append(cold["ready"] - spawned)
        colds.append(cold)
        warm_args = ["--store", store, "--seed", str(args.seed), "--seconds", warm_seconds]
        for part in range(WARM_PROCESSES):
            trace = traced(trace_dir, f"warm-{index}-{part}")
            warm, spawned = child("spec95-warm", *warm_args, trace=trace)
            setups.append(warm["ready"] - spawned)
            warms.append((cold, warm))

    errors, failed = [], 0
    for cold in colds:
        bad = sorted(k for k, v in SPEC95_OUTPUTS.items() if cold["outputs"].get(k) != v)
        if bad:
            errors.append(f"cold outputs differ from the pinned sha256: {bad}")
        failed += cold["failed"] + len(bad)
    for cold, warm in warms:
        if warm["outputs"] != cold["outputs"] or warm["mismatched"]:
            errors.append("warm outputs differ from cold outputs")
        failed += warm["failed"] + warm["mismatched"] * len(SPEC95_OUTPUTS)
    passes = [p for _, warm in warms for p in warm["passes_s"]]
    return {
        "attempted": len(SPEC95_OUTPUTS) * (len(colds) + len(passes)),
        "failed": failed,
        "errors": errors,
        "setup_s": setups,
        "cold_s": statistics.median(cold["cold_s"] for cold in colds),
        "warm_ms": statistics.median(passes) * 1000,
        "peak_rss_mb": max(r["rss_mb"] for r in colds + [warm for _, warm in warms]),
        "info": {"cold_passes": len(colds), "warm_passes": len(passes)},
    }


def perf_inputs(seed: int) -> str:
    """The seeded capture and its expected results, cached per seed."""
    directory = os.path.join(SCRATCH, "inputs", f"perf-{seed}")
    if not os.path.exists(os.path.join(directory, "expected.json")):
        child("perf-gen", "--seed", str(seed), "--dir", directory)
    return directory


def perf_lbr(args, tmp: str, trace_dir: str) -> dict:
    inputs = perf_inputs(args.seed)
    with open(os.path.join(inputs, "expected.json")) as fp:
        expected = json.load(fp)
    rounds = 1 if trace_dir else ROUNDS["perf-lbr"]
    setups = [] if trace_dir else setup_samples("perf-lbr", tmp)
    capture = os.path.join(inputs, "capture.txt")
    results = []
    for index in range(rounds):
        rbt = os.path.join(tmp, f"capture-{index}.rbt")
        round_args = ["--capture", capture, "--rbt", rbt, "--seconds", str(args.seconds)]
        trace = traced(trace_dir, f"round-{index}")
        result, spawned = child("perf-round", *round_args, trace=trace)
        setups.append(result["ready"] - spawned)
        results.append(result)

    reports = [report for result in results for report in result["reports"]]
    bad_reports = sum(report != expected["report"] for report in reports)
    specs = len(expected["misses"])
    misses = [session for result in results for session in result["misses"]]
    wrong = sum(
        sum(a != b for a, b in zip(session, expected["misses"])) if len(session) == specs else specs
        for session in misses
    )
    errors = []
    if bad_reports:
        errors.append(f"{bad_reports} ingest reports differ from {expected['report']}")
    if wrong:
        errors.append(f"{wrong} spec results differ from the in-memory reference")
    ingests = [t for result in results for t in result["ingests_s"]]
    sessions = [t for result in results for t in result["sessions_s"]]
    return {
        "attempted": len(reports) + len(misses) * specs,
        "failed": bad_reports + wrong,
        "errors": errors,
        "setup_s": setups,
        "cold_s": statistics.median(ingests),
        "warm_ms": statistics.median(sessions) * 1000,
        "peak_rss_mb": max(result["rss_mb"] for result in results),
        "info": {"rounds": len(results), "ingests": len(ingests), "sessions": len(sessions)},
    }


def serve_requests(seed: int, blocks: int = 40) -> list[dict]:
    """The seeded request list: warm-up jobs first, then the loop's mix.

    The mix is stratified: every block of requests holds the same number
    of each kind, in a seeded order, so a run's share of cold work does
    not depend on the seed.  Dedupe hits cycle through fixed warm-up jobs.
    """
    rng = random.Random(seed)
    ids = sorted(SPEC95_OUTPUTS)
    warmups = [ids] + [ids[i::8] for i in range(8)]
    used = {tuple(job) for job in warmups}
    hot = [{"scale": HOT_SCALE, "experiments": job} for job in warmups]
    requests = [{"kind": "warmup", "request": request} for request in hot]
    scales = iter(rng.sample(range(9500, 10500), blocks * BLOCK["cold"]))
    for _ in range(blocks):
        block = []
        for _ in range(BLOCK["cold"]):
            request = {"suite": "kernels", "scale": next(scales) / 10000, "experiments": ids}
            block.append({"kind": "cold", "request": request})
        while len(block) < BLOCK["cold"] + BLOCK["new"]:
            subset = tuple(sorted(rng.sample(ids, 3)))
            if subset not in used:
                used.add(subset)
                request = {"scale": HOT_SCALE, "experiments": list(subset)}
                block.append({"kind": "new", "request": request})
        for k in range(BLOCK["dedupe"]):
            block.append({"kind": "dedupe", "request": hot[k % len(hot)]})
        rng.shuffle(block)
        requests.extend(block)
    return requests


def oneshot_texts(scale: float) -> dict[str, str]:
    """Every experiment's rendered text from a one-shot run, cached."""
    path = os.path.join(SCRATCH, "inputs", f"oneshot-{scale}.json")
    if not os.path.exists(path):
        result, _ = child("oneshot", "--scale", str(scale))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(f"{path}.tmp", "w") as fp:
            json.dump(result["texts"], fp, sort_keys=True)
        os.replace(f"{path}.tmp", path)
    with open(path) as fp:
        return json.load(fp)


class Daemon:
    """A `repro serve` process on a free port over ``store``."""

    def __init__(self, store: str, log: str, trace: str = "") -> None:
        command = [sys.executable, PROGRAM, "serve", "--store", store, "--port", "0"]
        if trace:
            command += ["--trace", trace]
        info = os.path.join(store, "serve.json")
        self.spawned = time.monotonic()
        with open(log, "ab") as out:
            self.process = subprocess.Popen(
                command, env=child_env(), stdout=out, stderr=subprocess.STDOUT
            )
        self.port = None
        try:
            while time.monotonic() < self.spawned + 60 and self.process.poll() is None:
                if self.port is None:
                    self.port = self._announced_port(info)
                if self.port is not None and self._healthy():
                    self.ready = time.monotonic()
                    return
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.stop()
        fail(f"repro serve did not answer /healthz (log: {log})")

    def _announced_port(self, info: str) -> int | None:
        """The port in ``serve.json``, once this process has written it."""
        try:
            with open(info) as fp:
                announced = json.load(fp)
        except (OSError, ValueError):
            return None
        if announced.get("pid") != self.process.pid or "address" not in announced:
            return None
        return int(announced["address"].rsplit(":", 1)[1])

    def _healthy(self) -> bool:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=2)
        try:
            connection.request("GET", "/healthz")
            return connection.getresponse().status == 200
        except OSError:
            return False
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def closed_loop(port: int, cursor: Iterator[dict], seconds: float) -> tuple[list[dict], float]:
    """Drive the daemon with ``CLIENTS`` threads, each taking its next
    request from ``cursor`` only after the previous reply, as `repro
    submit --follow`, until ``seconds`` have passed."""
    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    records: list[dict] = []
    lock = threading.Lock()
    deadline = time.monotonic() + seconds

    def run_client() -> None:
        client = ServiceClient("127.0.0.1", port, timeout=120)
        while time.monotonic() < deadline:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            start = time.perf_counter()
            try:
                job = client.submit(item["request"])
                for event in client.events(job["id"], timeout=120):
                    if event.get("event") == "job":
                        break
                final = client.job(job["id"])
            except ReproError as exc:
                job, final = {}, {"state": f"error: {exc}"}
            latency = time.perf_counter() - start
            record = {"latency": latency, "done_at": time.time(), "job": final}
            record["created"] = bool(job.get("created_job"))
            records.append({**item, **record})

    started = time.perf_counter()
    threads = [threading.Thread(target=run_client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - started


def serve_mix(args, tmp: str, trace_dir: str) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.service.client import ServiceClient

    requests = serve_requests(args.seed)
    texts = oneshot_texts(HOT_SCALE)
    store = os.path.join(tmp, "store")
    os.makedirs(store)
    log = os.path.join(tmp, "serve.log")
    setups = []
    for _ in range(0 if trace_dir else SERVE_LAUNCHES - 1):
        daemon = Daemon(store, log)
        setups.append(daemon.ready - daemon.spawned)
        daemon.stop()
    daemon = Daemon(store, log, traced(trace_dir, "serve"))
    setups.append(daemon.ready - daemon.spawned)
    try:
        client = ServiceClient("127.0.0.1", daemon.port, timeout=120)
        for item in requests:
            if item["kind"] == "warmup":
                job = client.submit(item["request"])
                client.wait(job["id"], timeout=120, poll=0.02)
        loop = iter([item for item in requests if item["kind"] != "warmup"])
        dedupe = [{**item, "kind": "dedupe"} for item in requests if item["kind"] == "warmup"]
        records, warm, wall = [], [], 0.0
        warm_s = args.seconds * WARM_SHARE / SEGMENTS
        for _ in range(SEGMENTS):
            mixed, seconds = closed_loop(daemon.port, loop, args.seconds / SEGMENTS)
            records += mixed
            wall += seconds
            # A warm phase: only dedupe hits, so no job runs beside them.
            warm += closed_loop(daemon.port, iter(dedupe * 1000), warm_s)[0]
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    failed = 0
    for record in records + warm:
        job = record["job"]
        ok = job["state"] == "done"
        if ok and record["kind"] != "cold":
            for experiment in record["request"]["experiments"]:
                result = job["results"].get(f"render:{experiment}", {})
                ok = ok and result.get("rendered") == texts[experiment]
        failed += not ok
    errors = [f"{failed} requests did not end done with one-shot output"] if failed else []
    latency = {kind: [r["latency"] for r in records if r["kind"] == kind] for kind in BLOCK}
    if not all(latency.values()) or not warm:
        fail("the run did not serve every kind of request")
    latencies = sorted(r["latency"] for r in records)
    # The highest of p99/p95/p90 with at least ten requests beyond it.
    tail = next((p for p in (99, 95, 90) if len(latencies) * (100 - p) >= 1000), 50)
    beyond = len(latencies) * (100 - tail) // 100
    return {
        "attempted": len(records) + len(warm),
        "failed": failed,
        "errors": errors,
        "setup_s": setups,
        "cold_s": statistics.median(latency["cold"]),
        "warm_ms": statistics.median(r["latency"] for r in warm) * 1000,
        "peak_rss_mb": rss,
        "records": records,
        "info": {
            "requests": len(records),
            "warm_requests": len(warm),
            "cold_requests": len(latency["cold"]),
            "new_mean_ms": statistics.mean(latency["new"]) * 1000,
            "dedupe_p50_ms": statistics.median(latency["dedupe"]) * 1000,
            "request_p50_ms": statistics.median(latencies) * 1000,
            f"request_p{tail}_ms": latencies[-1 - beyond] * 1000,
            "requests_per_s": len(records) / wall,
        },
    }


WORKLOADS = {
    "spec95-run-all": spec95_run_all,
    "perf-lbr": perf_lbr,
    "serve-mix": serve_mix,
}


# -- reporting ----------------------------------------------------------------


def end_to_end(outcome: dict) -> dict:
    return {
        "setup_s": {"value": statistics.median(outcome["setup_s"]), "unit": "s"},
        "cold_s": {"value": outcome["cold_s"], "unit": "s"},
        "warm_ms": {"value": outcome["warm_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": outcome["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(outcome: dict, trace_dir: str) -> dict:
    import tracing

    paths = [os.path.join(trace_dir, name) for name in sorted(os.listdir(trace_dir))]
    layers, counters = tracing.summarize(paths)
    values = {name: (counters.get(name, 0), unit) for name, unit in COUNTED.items()}
    for name, layer in SELF_MS.items():
        values[name] = (layers.get(layer, 0.0) * 1000, "ms")

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    batched_s = sum(layers.get(f"engine.{part}", 0.0) for part in ("batched", "scan", "sort"))
    per_record = counters.get("engine.reference_records", 0)
    per_record += counters.get("engine.compiled_records", 0)
    ingest_s = layers.get("ingest", 0.0) + layers.get("trace_io.write", 0.0)
    created = [r for r in outcome.get("records", []) if r["created"]]
    values.update(
        {
            "store.hit_ratio": (
                ratio(counters.get("store.get_hits", 0), counters.get("store.get_calls", 0)),
                "ratio",
            ),
            "engine.batched_rate": (
                ratio(counters.get("engine.batched_record_configs", 0), batched_s),
                "1/s",
            ),
            "engine.compiled_share": (
                ratio(counters.get("engine.compiled_records", 0), per_record),
                "ratio",
            ),
            "ingest.mib_per_s": (
                ratio(counters.get("ingest.source_bytes", 0) / 2**20, ingest_s),
                "MiB/s",
            ),
            "service.queue_wait_ms": (
                sum(r["job"]["started"] - r["job"]["created"] for r in created) * 1000,
                "ms",
            ),
            "service.job_run_ms": (
                sum(r["job"]["finished"] - r["job"]["started"] for r in created) * 1000,
                "ms",
            ),
            "service.delivery_ms": (
                sum(r["done_at"] - r["job"]["finished"] for r in created) * 1000,
                "ms",
            ),
            "trace.region_s": (layers.get("region_wall", 0.0), "s"),
            "trace.coverage": (
                ratio(layers.get("covered", 0.0), layers.get("region_wall", 0.0)),
                "ratio",
            ),
            "traced.cold_s": (outcome["cold_s"], "s"),
            "traced.warm_ms": (outcome["warm_ms"], "ms"),
        }
    )
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail("run from the root of a repro checkout (src/repro not found)")

    os.makedirs(SCRATCH, exist_ok=True)
    host = build()
    tmp = os.path.join(SCRATCH, f"run-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    trace_dir = os.path.join(tmp, "spans") if args.trace else ""
    os.makedirs(trace_dir or tmp)
    steal0, total0 = cpu_times()
    try:
        outcome = WORKLOADS[args.workload](args, tmp, trace_dir)
        steal1, total1 = cpu_times()
        host["steal_pct"] = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
        if args.trace:
            metrics = per_layer(outcome, trace_dir)
            coverage = metrics["trace.coverage"]["value"]
            if abs(1.0 - coverage) > COVERAGE_TOLERANCE:
                message = f"layer self times cover {coverage:.1%} of the traced regions"
                outcome["errors"].append(message)
        else:
            metrics = end_to_end(outcome)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"host: {json.dumps(host, sort_keys=True)}")
    for name, value in sorted(outcome["info"].items()):
        print(f"info {name}: {value:.6g}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for error in outcome["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not outcome["errors"] and outcome["failed"] == 0
    result = {"correct": correct, "attempted": outcome["attempted"], "failed": outcome["failed"]}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
