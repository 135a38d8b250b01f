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
   content and spec) are simulated once and every duplicate handle
   receives the shared result.  Workload specs are keyed by
   :meth:`~repro.workload_spec.WorkloadSpec.content_key` and
   materialized at most once per session; plain traces fall back to a
   content fingerprint (name + sha256 of the pcs/outcomes columns), so
   two separately materialized identical traces still share one engine
   invocation;
2. **plans** — jobs on the same trace whose specs belong to the
   two-level family are grouped into a *single*
   :func:`~repro.engine.simulate_batched` invocation (one
   multi-configuration carrier), while the remaining specs take the
   engine's ``auto`` route one at a time: their family's carrier
   (:func:`~repro.engine.stream_simulator`);
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

Every routing decision preserves bit-exactness: the batched pass, the
single-predictor carriers and the reference oracle produce identical
:class:`~repro.engine.results.SimulationResult` objects, so the planner
is free to pick the fastest.

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
from .engine.results import SimulationResult
from .errors import ConfigurationError, TraceError
from .spec import BimodalSpec, PredictorSpec, TwoLevelSpec
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
]

#: The simulation engines every layer accepts: ``"auto"`` runs each
#: predictor's carrier, ``"reference"`` the oracle.
ENGINES = ("auto", "reference")


def batchable_spec(spec: PredictorSpec) -> bool:
    """True if ``spec`` can join a batched multi-configuration pass: the
    spec-level :func:`~repro.engine.supports_batched`, so the planner
    routes without building anything."""
    return isinstance(spec, (TwoLevelSpec, BimodalSpec))


class StreamedTrace:
    """A session workload simulated out-of-core.

    Stands in for the materialized :class:`~repro.trace.stream.Trace`
    in the session's workload slots when a
    :class:`~repro.workload_spec.WorkloadSpec` reports a stream source
    (a large binary trace file): only the spec and its record count are
    held — never the trace columns.  A run opens the spec's stream
    source on its first pass, every engine pass re-iterates that
    reader's chunks, and the session closes it when the run ends
    (:meth:`close`).  Quacks like a trace where the planner needs it
    (``name``, length).
    """

    __slots__ = ("spec", "name", "_records", "_reader")

    def __init__(self, spec: WorkloadSpec, records: int) -> None:
        self.spec = spec
        self.name = spec.label
        self._records = records
        self._reader = None

    def __len__(self) -> int:
        return self._records

    def chunks(self):
        """A fresh iterator over the workload's chunks."""
        if self._reader is None:
            self._reader = self.spec.stream_source()
            if self._reader is None:
                raise TraceError(f"workload {self.name!r} no longer streams from its file")
        return iter(self._reader)

    def close(self) -> None:
        """Close the reader, if one is open."""
        reader, self._reader = self._reader, None
        if reader is not None:
            reader.close()

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
    multi-configuration pass; ``"auto"`` (each entry on its family's
    carrier) and ``"reference"`` (the oracle) run one entry at a time.
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
        The engine every job of the session runs on (:data:`ENGINES`).
        ``"auto"`` batches two-level-family specs per trace into one
        multi-configuration pass and runs every other spec on its
        family's carrier; ``"reference"`` runs every job on the oracle.
        The carriers' kernels come from ``REPRO_ENGINE_BACKEND`` (see
        :mod:`repro.engine.backend`); every backend is bit-identical.

    Lifecycle: :meth:`submit` any number of jobs, optionally inspect
    :meth:`plan`, then :meth:`run` — which returns a
    :class:`SessionResults` for the pending jobs and retains every
    result in the session memo for later resubmissions.
    """

    def __init__(self, *, engine: str = "auto") -> None:
        if engine not in ENGINES:
            raise ConfigurationError(f"engine {engine!r} not in {ENGINES}")
        self.engine = engine
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
        self._memo: dict[tuple[int, PredictorSpec], SimulationResult] = {}

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
                    # Out-of-core workload: hold the spec and its record
                    # count, never the trace columns; a run reopens it.
                    with source:
                        slot = len(self._traces)
                        self._traces.append(StreamedTrace(workload, len(source)))
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

    def submit(self, workload: Trace | WorkloadSpec, spec: PredictorSpec) -> SimulationJob:
        """Queue one simulation request; returns its job handle."""
        if not isinstance(spec, PredictorSpec):
            raise ConfigurationError(
                f"expected a PredictorSpec, got {type(spec).__name__} "
                "(build stateful predictors with repro.engine.simulate instead)"
            )
        slot = self._workload_slot(workload)
        job = SimulationJob(self._submitted, self._traces[slot], spec, slot)
        self._submitted += 1
        self._pending.append(job)
        return job

    def submit_many(
        self, jobs: Iterable[tuple[Trace | WorkloadSpec, PredictorSpec]]
    ) -> list[SimulationJob]:
        """Queue many ``(workload, spec)`` pairs; returns their handles in order."""
        return [self.submit(workload, spec) for workload, spec in jobs]

    # -- planning -----------------------------------------------------------

    def _resolve_engine(self, spec: PredictorSpec) -> str:
        """The plan label of a spec's batch: ``"batched"`` for the
        two-level family under ``auto``, else the session's engine."""
        if self.engine == "auto" and batchable_spec(spec):
            return "batched"
        return self.engine

    def plan(self) -> SessionPlan:
        """Group the pending jobs into engine invocations.

        Jobs are grouped per trace (first-submission order); within a
        trace, unique specs are deduplicated, all batched items form
        one :class:`PlannedBatch`, and the rest one batch executed one
        spec at a time.
        """
        # (trace slot, label) -> {spec -> [jobs]}, insertion ordered.
        grouped: dict[tuple[int, str], dict[PredictorSpec, list[SimulationJob]]] = {}
        for job in self._pending:
            batch = grouped.setdefault((job.slot, self._resolve_engine(job.spec)), {})
            batch.setdefault(job.spec, []).append(job)
        return SessionPlan(
            batches=tuple(
                PlannedBatch(
                    engine=engine,
                    trace=self._traces[slot],
                    entries=tuple(
                        PlanEntry(spec=spec, jobs=tuple(jobs), cached=(slot, spec) in self._memo)
                        for spec, jobs in entries.items()
                    ),
                )
                for (slot, engine), entries in grouped.items()
            )
        )

    # -- execution ----------------------------------------------------------

    def run(self) -> SessionResults:
        """Execute the pending jobs and return their results.

        Duplicate jobs share one simulation; work already in the
        session memo is not recomputed.  After the call the pending
        queue is empty, but the memo persists, so resubmitting any
        job is free.  A streamed workload's file is open only while the
        call runs, and is closed when it returns or raises.
        """
        try:
            for batch in self.plan().batches:
                self._run_batch(batch)
        finally:
            for trace in self._traces:
                if isinstance(trace, StreamedTrace):
                    trace.close()
        jobs = self._pending
        self._pending = []
        results = {job: self._memo[(job.slot, job.spec)] for job in jobs}
        return SessionResults(jobs, results)

    def _run_batch(self, batch: PlannedBatch) -> None:
        """Simulate the batch's entries missing from the memo."""
        slot = batch.entries[0].jobs[0].slot
        specs = [e.spec for e in batch.entries if (slot, e.spec) not in self._memo]
        if specs:
            trace = batch.trace
            streamed = isinstance(trace, StreamedTrace)
            if batch.engine == "batched":
                # One multi-configuration pass covers every entry; a
                # streamed trace is fed chunk by chunk, O(chunk) memory.
                predictors = [spec.build() for spec in specs]
                if streamed:
                    results = simulate_batched_stream(
                        predictors, trace.chunks(), trace_name=trace.name
                    )
                else:
                    results = simulate_batched(predictors, trace)
            elif streamed:
                results = [
                    simulate_stream(
                        spec.build(), trace.chunks(), engine=batch.engine, trace_name=trace.name
                    )
                    for spec in specs
                ]
            else:
                results = [simulate(spec.build(), trace, engine=batch.engine) for spec in specs]
            for spec, result in zip(specs, results):
                self._memo[(slot, spec)] = result

    def simulate(self, workload: Trace | WorkloadSpec, spec: PredictorSpec) -> SimulationResult:
        """One-shot convenience: submit one job, run, return its result.

        Pending jobs submitted earlier run in the same pass (they stay
        planned together), so interleaving ``submit`` and ``simulate``
        does not lose batching.
        """
        job = self.submit(workload, spec)
        return self.run()[job]
