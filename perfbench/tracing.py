"""Outside-in layer tracing for the benchmark's traced runs.

Nothing under ``src/`` is edited: :func:`install` replaces the entry
points that callers look up at call time (class attributes and module
attributes such as ``repro.session.simulate_batched``) with wrappers that
record one span per call.  A span is ``(id, parent, request, layer,
start, end)``; the parent is the enclosing span on the same thread and
the request id is that of the outermost span of the call tree.  Spans
and counters stay in memory and are written as JSON when the process
ends (:meth:`Tracer.dump`).

A layer's self time is its span time minus the time of its child spans.
Benchmark-defined *regions* (a run-all pass, an ingest, a served job)
are recorded too; the layer self times inside the regions must add up
to the regions' wall time, so a layer left unwrapped shows as missing
time (:func:`summarize`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict

REGION = "region"

#: Layers that consume trace chunks while simulating.
STREAM_LAYERS = frozenset({"engine.stream", "engine.reference", "engine.compiled"})


class Tracer:
    """In-memory span and counter recorder shared by every thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counters: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, int, str]]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def current_layer(self) -> str | None:
        stack = self._stack()
        return stack[-1][2] if stack else None

    def call(self, layer: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack()
        parent = stack[-1] if stack else (0, 0, "")
        span_id = next(self._ids)
        request = parent[1] or span_id
        stack.append((span_id, request, layer))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent[0], request, layer, start, end))

    def region(self, fn, *args, **kwargs):
        """Run ``fn`` as a benchmark region (the coverage denominator)."""
        return self.call(REGION, fn, args, kwargs)

    def dump(self, path: str) -> None:
        payload = {"spans": self.spans, "counters": dict(self.counters)}
        with open(f"{path}.tmp", "w") as fp:
            json.dump(payload, fp)
        os.replace(f"{path}.tmp", path)


def _wrap(tracer: Tracer, owner, attr: str, layer, on_result=None, on_error=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``layer`` is a layer name or a callable ``(args, kwargs) -> name``.
    ``on_result(args, kwargs, result)`` records counters after a
    successful call; ``on_error(exc)`` after a failed one.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = layer(args, kwargs) if callable(layer) else layer
        try:
            result = tracer.call(name, fn, args, kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        if on_result is not None:
            on_result(args, kwargs, result)
        return result

    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)


def _wrap_generator(tracer: Tracer, owner, attr: str, layer: str) -> None:
    """Time every ``next()`` of a generator method as a span of ``layer``."""
    fn = owner.__dict__[attr]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        done = object()
        while (item := tracer.call(layer, next, (iterator, done), {})) is not done:
            yield item

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (``perfbench/README.md`` lists them)."""
    from repro import session as session_mod
    from repro import workload_spec
    from repro.classify.profile import ProfileTable
    from repro.engine import batched
    from repro.ingest import perf
    from repro.pipeline import artifacts, executor, planner, store
    from repro.predictors.bimode import BiModePredictor
    from repro.predictors.dhlf import DhlfPredictor
    from repro.predictors.filter import FilterPredictor
    from repro.predictors.yags import YagsPredictor
    from repro.service import scheduler
    from repro.trace import io as trace_io

    count = tracer.count

    def counter(name: str):
        return lambda args, kwargs, result: count(name)

    # -- pipeline.planner: plan() calls universe(); count the outer call.
    def planned(args, kwargs, result):
        if tracer.current_layer() != "planner":
            count("planner.plan_calls")

    for attr in ("plan", "universe"):
        _wrap(tracer, planner.Planner, attr, "planner", planned)

    # -- pipeline.executor
    def executed(args, kwargs, report):
        count("executor.nodes_computed", len(report.computed))
        count("executor.nodes_cached", len(report.cached))
        count("executor.attempts", sum(report.attempts.values()))
        count("executor.failures", len(report.failures))

    _wrap(tracer, executor.Executor, "run", "executor", executed)

    # -- pipeline.store
    def got(args, kwargs, value):
        count("store.get_calls")
        count("store.get_hits", value is not None)

    def put(args, kwargs, result):
        count("store.put_calls")
        path = args[0].object_path(args[1])
        if path is not None and path.exists():
            count("store.put_bytes", path.stat().st_size)

    _wrap(tracer, store.ArtifactStore, "get", "store.get", got)
    _wrap(tracer, store.ArtifactStore, "put", "store.put", put)
    _wrap(tracer, store.ArtifactStore, "flush_manifest", "store.flush")

    # -- workload_spec / workloads / vm: composed specs nest; count the outer.
    def materialized(args, kwargs, trace):
        if tracer.current_layer() != "workload":
            count("workload.materialize_calls")
            count("workload.records", len(trace))

    for cls in workload_spec._REGISTRY.values():
        if "materialize" in cls.__dict__:
            _wrap(tracer, cls, "materialize", "workload", materialized)

    # -- classify
    for attr in ("from_trace", "from_chunks"):
        _wrap(tracer, ProfileTable, attr, "classify", counter("classify.profile_calls"))

    # -- analysis, as the pipeline's artifact nodes look it up
    for attr in ("sweep_trace", "sweep_workload", "accumulate_sweep"):
        _wrap(tracer, artifacts, attr, "analysis", counter("analysis.sweep_calls"))
    _wrap(tracer, artifacts, "misclassification_report", "analysis")

    # -- engine, in memory
    def simulated_batched(args, kwargs, results):
        count("engine.batched_calls")
        count("engine.batched_record_configs", len(args[1]) * len(args[0]))

    _wrap(tracer, session_mod, "simulate_batched", "engine.batched", simulated_batched)
    _wrap(tracer, batched, "segmented_saturating_scan", "engine.scan")
    _wrap(tracer, batched, "stable_key_order", "engine.sort")

    # -- engine, streaming and per-record.  The four families with compiled
    # kernels are attributed to the path that ran them.
    compiled_capable = (YagsPredictor, BiModePredictor, FilterPredictor, DhlfPredictor)

    def family_path(args, kwargs) -> str | None:
        if not isinstance(args[0], compiled_capable):
            return None
        return "reference" if kwargs.get("engine") == "reference" else "compiled"

    def per_record(other_layer: str, streamed: bool):
        def layer(args, kwargs):
            path = family_path(args, kwargs)
            return f"engine.{path}" if path else other_layer

        def done(args, kwargs, result):
            path = family_path(args, kwargs)
            if path:
                count(f"engine.{path}_records", result.total_executions)
            if streamed:
                count("engine.stream_calls")

        return layer, done

    _wrap(tracer, session_mod, "simulate_stream", *per_record("engine.stream", True))
    _wrap(tracer, session_mod, "simulate", *per_record("engine.vectorized", False))
    _wrap(
        tracer,
        session_mod,
        "simulate_batched_stream",
        "engine.stream",
        counter("engine.stream_calls"),
    )

    # -- session
    def planned_session(args, kwargs, plan):
        for batch in plan.batches:
            engine = batch.engine if batch.engine in ("batched", "vectorized") else "reference"
            count(f"session.batches_{engine}")
            for entry in batch.entries:
                count("session.memo_hits", len(entry.jobs) - 1 + entry.cached)

    def session_run(args, kwargs):
        count("session.jobs", len(args[0]._pending))
        return "session"

    _wrap(tracer, session_mod.Session, "run", session_run)
    _wrap(tracer, session_mod.Session, "plan", "session", planned_session)

    # -- experiments / report
    _wrap(tracer, artifacts.RenderNode, "compute", "render", counter("render.calls"))

    # -- ingest
    def ingested(args, kwargs, report):
        count("ingest.lines", report.lines)
        count("ingest.records", report.records)
        count("ingest.skipped", report.skipped_lines + report.skipped_entries)
        count("ingest.source_bytes", os.path.getsize(args[0]))

    _wrap(tracer, perf, "ingest_perf", "ingest", ingested)
    _wrap_generator(tracer, perf.PerfParser, "chunks", "ingest")

    # -- trace
    def written(args, kwargs, result):
        count("trace_io.write_bytes", os.path.getsize(args[1]))

    _wrap(tracer, perf, "write_chunks", "trace_io.write", written)
    _wrap(tracer, trace_io.TraceReader, "chunk", "trace_io.read", counter("trace_io.read_chunks"))

    # -- service: a served job is a region; its timings come from the job.
    def submitted(args, kwargs, result):
        count("service.jobs_created" if result[1] else "service.dedupe_hits")

    def refused(exc):
        if type(exc).__name__ == "QueueFull":
            count("service.rejected")

    _wrap(tracer, scheduler.Scheduler, "submit", "service.submit", submitted, refused)
    _wrap(tracer, scheduler.Scheduler, "_run_job", REGION)


def summarize(paths: list[str]) -> tuple[dict[str, float], dict[str, float]]:
    """Aggregate trace files into ``(layer self seconds, counters)``.

    Besides each layer's self time, the first dict holds
    ``region_wall`` (summed region wall time) and ``covered`` (layer
    self time inside regions); the counters gain ``engine.stream_chunks``
    (chunk reads made under the streaming engine).
    """
    layers: dict[str, float] = defaultdict(float)
    counters: Counter[str] = Counter()
    for path in paths:
        with open(path) as fp:
            payload = json.load(fp)
        counters.update(payload["counters"])
        spans = {span[0]: span for span in payload["spans"]}
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans.values():
            child_time[parent] += end - start
        for span_id, parent, request, layer, start, end in spans.values():
            self_time = end - start - child_time[span_id]
            layers[layer] += self_time
            if layer == REGION:
                layers["region_wall"] += end - start
            elif spans.get(request, (0, 0, 0, ""))[3] == REGION:
                layers["covered"] += self_time
            if layer == "trace_io.read" and spans.get(parent, (0, 0, 0, ""))[3] in STREAM_LAYERS:
                counters["engine.stream_chunks"] += 1
    return dict(layers), dict(counters)
