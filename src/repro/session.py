"""Unified simulation session: submit jobs, plan, batch, execute.

Every consumer of the simulator used to hand-build stateful predictors
and call :func:`repro.engine.simulate` one job at a time, so only the
hard-coded paper sweep benefited from the batched multi-configuration
engine.  :class:`Session` is the declarative front door that fixes
that: callers submit ``(workload, spec)`` *jobs* (workloads are
:class:`~repro.trace.stream.Trace` objects or the frozen
:class:`~repro.workload_spec.WorkloadSpec` descriptions; specs are the
frozen :class:`~repro.spec.PredictorSpec` descriptions) and the session

1. **deduplicates by content** — identical jobs (same workload
   content, spec and engine request) are simulated once and every
   duplicate handle receives the shared result.  Workload specs are
   keyed by :meth:`~repro.workload_spec.WorkloadSpec.content_key` and
   materialized at most once per session; plain traces fall back to a
   content fingerprint (name + sha256 of the pcs/outcomes columns), so
   two separately materialized identical traces still share one engine
   invocation;
2. **plans** — jobs on the same trace whose specs belong to the
   two-level family are grouped into a *single*
   :func:`~repro.engine.simulate_batched` invocation (shared history
   windows, one PC encoding, stacked scans), while the remaining specs
   route to the vectorized engine when supported and the reference
   engine otherwise;
3. **memoizes** — results are cached for the lifetime of the session,
   so resubmitting a job after :meth:`Session.run` costs nothing.

The plan is inspectable before execution (:meth:`Session.plan`), and
results come back keyed by the job handles that :meth:`Session.submit`
returned.  See ``docs/API.md`` for the lifecycle walk-through.

The same dedupe-by-content principle extends up the stack: the
analysis service (:mod:`repro.service`, ``docs/SERVICE.md``) keys
whole *service jobs* by request content, so concurrent identical
requests share one computation exactly as duplicate session jobs
share one engine invocation here.

Every routing decision preserves bit-exactness: the batched, vectorized
and reference engines produce identical
:class:`~repro.engine.results.SimulationResult` objects for the
predictors they share, so the planner is free to pick the fastest.

Workload specs that report a stream source (binary trace files at or
above :func:`repro.workload_spec.stream_threshold` bytes) are simulated
*out-of-core*: their slot holds a :class:`StreamedTrace` instead of
materialized columns, and execution feeds the engine's carriers chunk
by chunk (:func:`~repro.engine.simulate_stream`,
:func:`~repro.engine.simulate_batched_stream`) with peak memory
O(chunk) — still bit-identical.  See ``docs/TRACES.md``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .engine import simulate, simulate_batched, simulate_batched_stream, simulate_stream
from .engine.backend import BACKENDS
from .engine.batched import DEFAULT_MAX_CHUNK_ELEMENTS, check_batched
from .engine.results import SimulationResult
from .errors import ConfigurationError
from .spec import (
    AgreeSpec,
    BimodalSpec,
    HybridSpec,
    PredictorSpec,
    ProfileStaticSpec,
    StaticSpec,
    TournamentSpec,
    TwoLevelSpec,
)
from .trace.stream import Trace
from .workload_spec import WorkloadSpec, trace_fingerprint

__all__ = [
    "SimulationJob",
    "PlanEntry",
    "PlannedBatch",
    "SessionPlan",
    "SessionResults",
    "Session",
    "StreamedTrace",
    "batchable_spec",
    "vectorizable_spec",
]

ENGINES = ("auto", "batched", "vectorized", "reference")

# These spec-level capability predicates mirror the engines'
# supports_batched/supports_vectorized so the planner can route without
# building predictors.  When engine support widens, extend them too —
# tests/test_session.py pins the two layers against each other over the
# full spec catalogue, so drift fails loudly instead of silently
# degrading jobs to the reference engine.

#: Spec families the batched multi-configuration engine accepts.
_BATCHABLE_SPECS = (TwoLevelSpec, BimodalSpec)


def batchable_spec(spec: PredictorSpec) -> bool:
    """True if ``spec`` can join a batched multi-configuration pass."""
    return isinstance(spec, _BATCHABLE_SPECS)


def vectorizable_spec(spec: PredictorSpec) -> bool:
    """True if ``spec`` builds a predictor the vectorized engine supports.

    Mirrors :func:`repro.engine.supports_vectorized` at the spec level,
    so the planner can route without building anything.
    """
    if isinstance(spec, (TwoLevelSpec, BimodalSpec, AgreeSpec, StaticSpec, ProfileStaticSpec)):
        return True
    if isinstance(spec, TournamentSpec):
        return vectorizable_spec(spec.first) and vectorizable_spec(spec.second)
    if isinstance(spec, HybridSpec):
        return all(vectorizable_spec(component) for component in spec.components)
    return False


class StreamedTrace:
    """A session workload simulated out-of-core.

    Stands in for the materialized :class:`~repro.trace.stream.Trace`
    in the session's workload slots when a
    :class:`~repro.workload_spec.WorkloadSpec` reports a stream source
    (a large binary trace file): only the spec and one open
    :class:`~repro.trace.io.TraceReader` are held — never the trace
    columns — and every engine pass re-iterates the reader's chunks.
    Quacks like a trace where the planner needs it (``name``, length).
    """

    __slots__ = ("spec", "reader", "name")

    def __init__(self, spec: WorkloadSpec, reader) -> None:
        self.spec = spec
        self.reader = reader
        self.name = spec.label

    def __len__(self) -> int:
        return len(self.reader)

    def chunks(self):
        """A fresh iterator over the workload's chunks."""
        return iter(self.reader)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamedTrace(name={self.name!r}, records={len(self)})"


@dataclass(frozen=True, eq=False, slots=True)
class SimulationJob:
    """Handle for one submitted ``(workload, spec)`` simulation request.

    Jobs compare and hash by *identity* (each :meth:`Session.submit`
    call returns a distinct handle, even for duplicate requests), so
    they are cheap dictionary keys; the planner deduplicates the
    underlying work separately, by workload-content and spec equality.
    ``trace`` is the session's canonical materialized trace for the
    job's workload slot.
    """

    index: int
    trace: Trace | StreamedTrace
    spec: PredictorSpec
    engine: str
    slot: int = 0


@dataclass(frozen=True, slots=True)
class PlanEntry:
    """One unit of unique work: a spec plus every job it satisfies."""

    spec: PredictorSpec
    jobs: tuple[SimulationJob, ...]
    cached: bool

    @property
    def duplicates(self) -> int:
        """Jobs beyond the first that share this entry's result."""
        return len(self.jobs) - 1


@dataclass(frozen=True, slots=True)
class PlannedBatch:
    """One engine invocation the session will make for one trace.

    ``engine == "batched"`` means all entries run in a *single*
    multi-configuration pass; other engines run one entry at a time.
    """

    engine: str
    trace: Trace | StreamedTrace
    entries: tuple[PlanEntry, ...]

    @property
    def streamed(self) -> bool:
        """True when this batch simulates out-of-core."""
        return isinstance(self.trace, StreamedTrace)


@dataclass(frozen=True, slots=True)
class SessionPlan:
    """The execution plan for a session's pending jobs."""

    batches: tuple[PlannedBatch, ...]

    @property
    def num_jobs(self) -> int:
        """Pending jobs covered by this plan (including duplicates)."""
        return sum(len(e.jobs) for b in self.batches for e in b.entries)

    @property
    def num_unique(self) -> int:
        """Distinct simulations the plan will reference (cached or not)."""
        return sum(len(b.entries) for b in self.batches)

    @property
    def num_to_run(self) -> int:
        """Simulations that actually execute (not satisfied by the memo)."""
        return sum(1 for b in self.batches for e in b.entries if not e.cached)

    def describe(self) -> str:
        """Human-readable plan summary (used by ``repro simulate``)."""
        lines = [
            f"plan: {self.num_jobs} job(s) -> {self.num_unique} unique, "
            f"{self.num_to_run} to run"
        ]
        for batch in self.batches:
            label = batch.trace.name or f"<trace len={len(batch.trace)}>"
            mode = " (streamed)" if batch.streamed else ""
            lines.append(
                f"  [{batch.engine}] {label}: {len(batch.entries)} config(s){mode}"
            )
        return "\n".join(lines)


class SessionResults(Mapping[SimulationJob, SimulationResult]):
    """Results of one :meth:`Session.run`, keyed by job handle.

    Also iterable in submission order via :meth:`items`, with an
    :meth:`of` positional accessor for convenience.
    """

    __slots__ = ("_jobs", "_results")

    def __init__(
        self, jobs: list[SimulationJob], results: dict[SimulationJob, SimulationResult]
    ) -> None:
        self._jobs = list(jobs)
        self._results = results

    def __getitem__(self, job: SimulationJob) -> SimulationResult:
        return self._results[job]

    def __iter__(self) -> Iterator[SimulationJob]:
        return iter(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def of(self, index: int) -> SimulationResult:
        """Result of the ``index``-th job in this run (submission order)."""
        return self._results[self._jobs[index]]


class Session:
    """Facade that plans and executes many simulation jobs.

    Parameters
    ----------
    engine:
        Default engine request for submitted jobs.  ``"auto"`` lets the
        planner choose (batched for two-level-family specs, vectorized
        when supported, reference otherwise); ``"batched"``,
        ``"vectorized"`` and ``"reference"`` force that engine.
    max_chunk_elements:
        Memory bound forwarded to the batched engine.
    backend:
        Compiled-kernel backend for reference-path families
        (``auto``/``python``/``cext``; see
        :mod:`repro.engine.backend`).  ``None`` defers to
        ``REPRO_ENGINE_BACKEND``.  Backends are bit-identical, so the
        session memo is unaffected by this choice.

    Lifecycle: :meth:`submit` any number of jobs, optionally inspect
    :meth:`plan`, then :meth:`run` — which returns a
    :class:`SessionResults` for the pending jobs and retains every
    result in the session memo for later resubmissions.
    """

    def __init__(
        self,
        *,
        engine: str = "auto",
        max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
        backend: str | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ConfigurationError(f"engine {engine!r} not in {ENGINES}")
        if max_chunk_elements < 1:
            raise ConfigurationError("max_chunk_elements must be positive")
        if backend is not None and backend not in BACKENDS:
            raise ConfigurationError(f"backend {backend!r} not in {BACKENDS}")
        self.engine = engine
        self.max_chunk_elements = max_chunk_elements
        self.backend = backend
        self._pending: list[SimulationJob] = []
        self._submitted = 0
        # Workloads are grouped by *content*: workload specs key on
        # their content_key (materialized once per session), plain
        # traces on a content fingerprint.  Each distinct Trace object
        # is hashed once (the cache below holds a strong reference, so
        # an id() can never be reused while its entry is alive); slot
        # order is first-seen.
        self._trace_slots: dict[str, int] = {}
        self._traces: list[Trace] = []
        self._fingerprints: dict[int, tuple[Trace, str]] = {}
        self._memo: dict[tuple[int, PredictorSpec, str], SimulationResult] = {}

    # -- job intake ---------------------------------------------------------

    def _workload_slot(self, workload: Trace | WorkloadSpec) -> int:
        """The content-keyed slot for a workload, materializing specs
        (and fingerprinting traces) at most once per distinct content.

        A spec slot also registers its materialized trace's
        fingerprint, so a workload spec and an equal already-built
        trace resolve to the same slot regardless of submission order.
        """
        if isinstance(workload, WorkloadSpec):
            key = f"workload:{workload.content_key()}"
            slot = self._trace_slots.get(key)
            if slot is None:
                source = workload.stream_source()
                if source is not None:
                    # Out-of-core workload: hold the spec and an open
                    # reader, never the trace columns.
                    slot = len(self._traces)
                    self._traces.append(StreamedTrace(workload, source))
                    self._trace_slots[key] = slot
                else:
                    trace = workload.materialize()
                    slot = self._register_trace(trace)
                    self._trace_slots[key] = slot
            return slot
        if isinstance(workload, Trace):
            return self._register_trace(workload)
        raise ConfigurationError(
            f"expected a Trace or WorkloadSpec, got {type(workload).__name__}"
        )

    def _register_trace(self, trace: Trace) -> int:
        cached = self._fingerprints.get(id(trace))
        if cached is None or cached[0] is not trace:
            self._fingerprints[id(trace)] = (trace, trace_fingerprint(trace))
        key = f"trace:{self._fingerprints[id(trace)][1]}"
        slot = self._trace_slots.get(key)
        if slot is None:
            slot = len(self._traces)
            self._trace_slots[key] = slot
            self._traces.append(trace)
        return slot

    def submit(
        self,
        workload: Trace | WorkloadSpec,
        spec: PredictorSpec,
        *,
        engine: str | None = None,
    ) -> SimulationJob:
        """Queue one simulation request; returns its job handle."""
        if not isinstance(spec, PredictorSpec):
            raise ConfigurationError(
                f"expected a PredictorSpec, got {type(spec).__name__} "
                "(build stateful predictors with repro.engine.simulate instead)"
            )
        requested = self.engine if engine is None else engine
        if requested not in ENGINES:
            raise ConfigurationError(f"engine {requested!r} not in {ENGINES}")
        slot = self._workload_slot(workload)
        job = SimulationJob(self._submitted, self._traces[slot], spec, requested, slot)
        self._submitted += 1
        self._pending.append(job)
        return job

    def submit_many(
        self,
        jobs: Iterable[tuple[Trace | WorkloadSpec, PredictorSpec]],
        *,
        engine: str | None = None,
    ) -> list[SimulationJob]:
        """Queue many ``(workload, spec)`` pairs; returns their handles in order."""
        return [self.submit(workload, spec, engine=engine) for workload, spec in jobs]

    # -- planning -----------------------------------------------------------

    def _resolve_engine(self, job: SimulationJob) -> str:
        if job.engine == "auto":
            if batchable_spec(job.spec):
                return "batched"
            return "vectorized" if vectorizable_spec(job.spec) else "reference"
        if job.engine == "batched":
            check_batched(job.spec.build())
        return job.engine

    def _work_key(self, job: SimulationJob, engine: str) -> tuple[int, PredictorSpec, str]:
        return (job.slot, job.spec, engine)

    def plan(self) -> SessionPlan:
        """Group the pending jobs into engine invocations.

        Jobs are grouped per trace (first-submission order); within a
        trace, unique (spec, engine) work items are deduplicated, all
        batched-engine items form one :class:`PlannedBatch`, and the
        rest get per-engine batches executed one spec at a time.
        """
        # (trace slot, engine) -> {work key -> [jobs]}, insertion ordered.
        grouped: dict[
            tuple[int, str], dict[tuple[int, PredictorSpec, str], list[SimulationJob]]
        ] = {}
        for job in self._pending:
            engine = self._resolve_engine(job)
            key = self._work_key(job, engine)
            slot = key[0]
            grouped.setdefault((slot, engine), {}).setdefault(key, []).append(job)

        batches = []
        for (slot, engine), entries in grouped.items():
            batches.append(
                PlannedBatch(
                    engine=engine,
                    trace=self._traces[slot],
                    entries=tuple(
                        PlanEntry(
                            spec=key[1],
                            jobs=tuple(jobs),
                            cached=key in self._memo,
                        )
                        for key, jobs in entries.items()
                    ),
                )
            )
        return SessionPlan(batches=tuple(batches))

    # -- execution ----------------------------------------------------------

    def run(self) -> SessionResults:
        """Execute the pending jobs and return their results.

        Duplicate jobs share one simulation; work already in the
        session memo is not recomputed.  After the call the pending
        queue is empty, but the memo persists, so resubmitting any
        job is free.
        """
        plan = self.plan()
        for batch in plan.batches:
            slot = batch.entries[0].jobs[0].slot
            fresh = [e for e in batch.entries if (slot, e.spec, batch.engine) not in self._memo]
            if not fresh:
                continue
            if isinstance(batch.trace, StreamedTrace):
                streamed = batch.trace
                if batch.engine == "batched":
                    # One multi-configuration pass over the chunk
                    # iterator covers every entry, O(chunk) memory.
                    results = simulate_batched_stream(
                        [entry.spec.build() for entry in fresh],
                        streamed.chunks(),
                        max_chunk_elements=self.max_chunk_elements,
                        trace_name=streamed.name,
                    )
                    for entry, result in zip(fresh, results):
                        self._memo[(slot, entry.spec, batch.engine)] = result
                else:
                    for entry in fresh:
                        self._memo[(slot, entry.spec, batch.engine)] = simulate_stream(
                            entry.spec.build(),
                            streamed.chunks(),
                            engine=batch.engine,
                            trace_name=streamed.name,
                            backend=self.backend,
                        )
            elif batch.engine == "batched":
                # One multi-configuration pass covers every entry.
                results = simulate_batched(
                    [entry.spec.build() for entry in fresh],
                    batch.trace,
                    max_chunk_elements=self.max_chunk_elements,
                )
                for entry, result in zip(fresh, results):
                    self._memo[(slot, entry.spec, batch.engine)] = result
            else:
                for entry in fresh:
                    self._memo[(slot, entry.spec, batch.engine)] = simulate(
                        entry.spec.build(),
                        batch.trace,
                        engine=batch.engine,
                        backend=self.backend,
                    )

        jobs = self._pending
        self._pending = []
        results = {
            job: self._memo[self._work_key(job, self._resolve_engine(job))]
            for job in jobs
        }
        return SessionResults(jobs, results)

    def simulate(
        self,
        workload: Trace | WorkloadSpec,
        spec: PredictorSpec,
        *,
        engine: str | None = None,
    ) -> SimulationResult:
        """One-shot convenience: submit one job, run, return its result.

        Pending jobs submitted earlier run in the same pass (they stay
        planned together), so interleaving ``submit`` and ``simulate``
        does not lose batching.
        """
        job = self.submit(workload, spec, engine=engine)
        return self.run()[job]
