"""Plan execution: cache resolution, process-pool fan-out, fault tolerance.

The :class:`Executor` takes a :class:`~repro.pipeline.planner.Plan` and
materializes its targets:

1. **Cache resolution** (main process).  Cached nodes whose value some
   downstream computation (or the caller) actually needs are loaded
   from the store; cached nodes nobody needs are left untouched on
   disk.  A cached object that turns out corrupt reads as a miss and
   the node joins the run set — recovery is automatic, never an error.
2. **Execution.**  Run-set nodes execute when their dependencies are
   ready.  With ``jobs=1`` everything runs inline in plan order; with
   ``jobs>1`` ready nodes fan out across a process pool — the per-trace
   sweep artifacts are the wide tier this is built for.  Results are
   identical either way: every aggregation follows declared dependency
   order, never completion order.
3. **Fault tolerance.**  Failures carry a :class:`FaultKind` taxonomy:

   * ``NODE_ERROR`` — the node's own computation raised; deterministic,
     never retried (rerunning the same code on the same inputs fails
     the same way).
   * ``WORKER_CRASH`` — a worker process died (``BrokenProcessPool``,
     OOM-kill, ``kill -9``); the pool is rebuilt and in-flight nodes
     requeue.  Transient: retried.
   * ``TIMEOUT`` — the node exceeded ``node_timeout`` wall-clock
     seconds; enforced worker-side via ``SIGALRM`` with a main-side
     backstop that terminates genuinely wedged workers.  Transient:
     retried.
   * ``STORE_IO`` — persisting the computed value failed (disk fault,
     injected write error).  Transient: retried.

   The per-node :class:`RetryPolicy` bounds attempts and spaces them
   with exponential backoff plus *deterministic* jitter (hashed from
   the node key and attempt, so reruns behave identically).  A node
   that exhausts its attempts records a :class:`NodeFailure`, its
   dependents are skipped (each remembering which ancestor actually
   failed), and every independent subgraph keeps running — ``repro run
   all`` reports all failures at the end instead of aborting on the
   first.
4. **Checkpointing.**  When the store is on disk, the executor
   persists an incremental ``run-report.json``
   (:mod:`~repro.pipeline.runreport`) after every node it computes or
   fails, whenever its ledger changed since its last write.  A run
   that computes and fails nothing leaves a report it did not write
   alone, so a warm pass over a store that holds one writes no file.
   A killed run resumes with ``resume=True`` (CLI ``--resume``):
   the planner replans against the store — which content-addresses
   everything already on disk — and the prior report, so only the
   missing nodes recompute.

Chaos hooks (:mod:`repro.faults`) thread through every stage: node
delays and worker crashes fire inside
:meth:`~repro.pipeline.artifacts.ArtifactNode.compute_guarded`, store
write faults and object corruption inside
:meth:`~repro.pipeline.store.ArtifactStore.put`.  All of them are
no-ops unless a :class:`~repro.faults.FaultPlan` is active.

:class:`Pipeline` bundles config + store + planner + executor behind
the two calls everything else uses: ``value(key)`` for one artifact and
``run_experiments(ids)`` for rendered tables/figures.
"""

from __future__ import annotations

import heapq
import logging
import signal
import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any

from .. import faults
from ..errors import ConfigurationError, PipelineError
from ..faults import FaultPlan, stable_unit
from .artifacts import ArtifactNode, PipelineConfig
from .planner import Plan, Planner
from .runreport import NodeRecord, RunReport
from .store import ArtifactStore

__all__ = [
    "FaultKind",
    "RetryPolicy",
    "FailureMemo",
    "WorkerPool",
    "NodeFailure",
    "ExecutionReport",
    "Executor",
    "Pipeline",
]

logger = logging.getLogger("repro.pipeline")


class FaultKind(str, Enum):
    """Structured failure taxonomy (see the module docstring)."""

    NODE_ERROR = "node-error"
    WORKER_CRASH = "worker-crash"
    TIMEOUT = "timeout"
    STORE_IO = "store-io"


#: Fault classes that are transient by nature: retrying can succeed.
TRANSIENT_FAULTS = frozenset(
    {FaultKind.WORKER_CRASH, FaultKind.TIMEOUT, FaultKind.STORE_IO}
)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, and how patiently, a node is retried.

    Only fault kinds in ``retry_on`` are retried — by default the
    transient classes (worker death, timeout, store I/O), never
    ``NODE_ERROR``: a deterministic exception recurs on every attempt,
    so retrying it only burns time.  Backoff grows exponentially from
    ``backoff_base`` by ``backoff_factor`` per attempt, capped at
    ``backoff_max``, with up to ``jitter`` (fractional) spread hashed
    deterministically from the node key and attempt number — reruns of
    the same plan behave identically, but a wide tier of requeued nodes
    does not thundering-herd the pool.
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    retry_on: frozenset[FaultKind] = TRANSIENT_FAULTS

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff times must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ConfigurationError("jitter must be in [0, 1]")
        object.__setattr__(self, "retry_on", frozenset(self.retry_on))

    def should_retry(self, kind: FaultKind, attempts: int) -> bool:
        """Whether a node that just failed its ``attempts``-th attempt
        with ``kind`` gets another."""
        return attempts < self.max_attempts and kind in self.retry_on

    def delay(self, key: str, attempts: int) -> float:
        """Seconds to wait before the attempt after ``attempts`` failures."""
        base = min(
            self.backoff_base * self.backoff_factor ** max(attempts - 1, 0),
            self.backoff_max,
        )
        return base * (1.0 + self.jitter * stable_unit("retry", key, attempts))


class FailureMemo:
    """Known-broken content addresses, shareable across runs and jobs.

    The executor records every terminal failure here by content
    address, so resubmitting a known-broken artifact fails fast instead
    of recomputing (e.g. 16 more times during a streamed ``run all``).
    Historically this memo was private per-:class:`Executor`; hoisted
    behind this interface, a long-running service scheduler hands one
    memo to every job's executor and the knowledge spans jobs.
    Thread-safe: service runner threads record concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._failed: dict[str, tuple[FaultKind, str]] = {}

    def record(self, digest: str, kind: FaultKind, error: str) -> None:
        with self._lock:
            self._failed[digest] = (kind, error)

    def get(self, digest: str) -> tuple[FaultKind, str] | None:
        with self._lock:
            return self._failed.get(digest)

    def forget(self, digest: str) -> None:
        """Drop one address (a deliberately requeued failed job retries
        its computation instead of failing fast on stale knowledge)."""
        with self._lock:
            self._failed.pop(digest, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._failed)

    def snapshot(self) -> dict[str, dict[str, str]]:
        """Digest -> ``{kind, error}`` (first line), for the run report."""
        with self._lock:
            return {
                digest: {"kind": kind.value, "error": error.splitlines()[0][:500]}
                for digest, (kind, error) in self._failed.items()
            }


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers (hung or broken) without waiting."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - already-dead workers etc.
            pass
    pool.shutdown(wait=False, cancel_futures=True)


class WorkerPool:
    """A persistent, crash-surviving process pool shared across runs.

    Wraps a ``ProcessPoolExecutor`` behind two thread-safe operations:
    :meth:`submit` (which lazily creates the pool and transparently
    replaces a broken one) and :meth:`rebuild` (kill + recreate after a
    worker crash or wedge).  Rebuilds are *generation-guarded*: every
    submit returns the pool generation it ran against, and a rebuild
    request carrying a stale generation is a no-op — so several
    concurrent plan runs sharing one pool (the ``repro serve``
    scheduler) cannot stampede-rebuild when a single crash breaks all
    their in-flight futures at once.

    An :class:`Executor` without an explicit pool creates a private one
    per ``run()`` (the historical behavior); the service scheduler
    creates one ``WorkerPool`` at startup and shares it across every
    job's executor.
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def _rebuild_locked(self) -> None:
        self._generation += 1
        pool, self._pool = self._pool, None
        if pool is not None:
            _terminate_pool(pool)

    def submit(self, fn: Any, /, *args: Any, **kwargs: Any) -> tuple[Any, int]:
        """Submit work; returns ``(future, generation)``.

        A pool found broken at submit time is replaced once before the
        submit is retried, so callers only ever see ``BrokenExecutor``
        through their futures, not from the submit itself.
        """
        with self._lock:
            for _ in range(2):
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
                try:
                    return self._pool.submit(fn, *args, **kwargs), self._generation
                except BrokenExecutor:
                    self._rebuild_locked()
            raise BrokenExecutor("worker pool broken immediately after rebuild")

    def rebuild(self, generation: int) -> None:
        """Kill and replace the pool *iff* ``generation`` is current."""
        with self._lock:
            if generation == self._generation:
                self._rebuild_locked()

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


class _NodeTimeout(Exception):
    """Raised by the SIGALRM handler inside a timed-out node."""


def _compute_node(
    node: ArtifactNode,
    config: PipelineConfig,
    dep_values: dict[str, Any],
    fault_token: str = "",
    fault_plan: FaultPlan | None = None,
    timeout: float | None = None,
) -> tuple[str, Any]:
    """Worker entry point: never raises, so failures cross process
    boundaries as data rather than as maybe-unpicklable exceptions.

    Returns ``(status, payload)`` with status ``"ok"`` (payload is the
    value), ``"timeout"`` or ``"error"`` (payload is the message).  The
    wall-clock timeout is enforced here — in the worker (or inline in
    the caller) — via ``SIGALRM``, which requires the main thread of a
    POSIX process; elsewhere the main-side backstop still applies.
    A ``crash`` fault injection exits the process instead of returning,
    exactly like an OOM kill would.
    """
    use_alarm = (
        timeout is not None
        and timeout > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    previous_handler: Any = None
    try:
        if use_alarm:

            def _on_alarm(signum: int, frame: Any) -> None:
                raise _NodeTimeout()

            previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        with faults.activation(fault_plan):
            try:
                return ("ok", node.compute_guarded(config, dep_values, fault_token))
            except _NodeTimeout:
                return (
                    "timeout",
                    f"node exceeded wall-clock timeout of {timeout:g}s",
                )
            except Exception as exc:  # noqa: BLE001 - isolate any node fault
                return (
                    "error",
                    f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                )
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous_handler)


@dataclass(frozen=True)
class NodeFailure:
    """One failed artifact computation."""

    key: str
    error: str
    kind: FaultKind = FaultKind.NODE_ERROR
    attempts: int = 1

    def summary(self) -> str:
        detail = self.kind.value
        if self.attempts > 1:
            detail += f" after {self.attempts} attempts"
        return f"{self.key}: [{detail}] {self.error.splitlines()[0]}"


@dataclass
class ExecutionReport:
    """What one :meth:`Executor.run` did and produced."""

    values: dict[str, Any] = field(default_factory=dict)
    computed: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    failures: list[NodeFailure] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    #: skipped key -> the ancestor key whose failure caused the skip.
    skip_causes: dict[str, str] = field(default_factory=dict)
    #: node key -> compute attempts made (only nodes that ran).
    attempts: dict[str, int] = field(default_factory=dict)
    #: node key -> fault kinds hit on the way (including the final one).
    fault_kinds: dict[str, list[str]] = field(default_factory=dict)
    #: where this call wrote the run report (None: it wrote none).
    run_report_path: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def failure_for(self, key: str) -> NodeFailure | None:
        for failure in self.failures:
            if failure.key == key:
                return failure
        return None

    def value(self, key: str) -> Any:
        """The materialized value for ``key``; raises with the causing
        failure when it (or an ancestor) did not complete."""
        if key in self.values:
            return self.values[key]
        failure = self.failure_for(key)
        if failure is not None:
            raise PipelineError(f"artifact {key} failed: {failure.error}")
        if key in self.skipped:
            # Report the *actual* ancestor failure for this key (walking
            # the recorded dependency chain), not every failure in the run.
            cause = self.failure_for(self.skip_causes.get(key, ""))
            if cause is not None:
                raise PipelineError(
                    f"artifact {key} skipped (upstream failed: {cause.summary()})"
                )
            causes = "; ".join(f.summary() for f in self.failures) or "unknown"
            raise PipelineError(f"artifact {key} skipped (upstream failed: {causes})")
        raise PipelineError(f"artifact {key} was not materialized by this run")


@dataclass
class _NodeState:
    """Mutable per-node progress while a plan runs."""

    attempts: int = 0
    faults: list[str] = field(default_factory=list)
    elapsed: float = 0.0


class Executor:
    """Executes plans against a store, optionally across processes.

    Parameters
    ----------
    jobs:
        Worker processes for independent nodes (1 runs inline).
    retry:
        The per-node :class:`RetryPolicy`; the default makes a single
        attempt (no retries), preserving historical behavior.
    node_timeout:
        Per-node wall-clock seconds before an attempt is cancelled and
        counted as a ``TIMEOUT`` fault (``None`` disables).
    faults:
        An explicit :class:`~repro.faults.FaultPlan` for chaos testing;
        ``None`` defers to the ``REPRO_FAULTS`` environment variable.
    resume:
        Resume bookkeeping from the store's ``run-report.json``: nodes
        the prior run completed (and whose artifacts are still on disk)
        are served from cache and marked ``resumed`` in the new report.
    memo:
        A shared :class:`FailureMemo`; ``None`` creates a private one.
        The service scheduler shares one memo across every job's
        executor so known-broken artifacts fail fast service-wide.
    pool:
        A shared persistent :class:`WorkerPool`; ``None`` creates (and
        shuts down) a private pool per ``run()``.  Ignored at
        ``jobs=1``.
    on_event:
        Callback receiving one dict per node completion — the
        incremental run-report record plus ``{"event": "node", "key":
        …}`` — for progress streaming.  Exceptions in the callback are
        logged, never fail the run.
    checkpoint:
        Whether to persist the incremental ``run-report.json`` (the
        service disables it: its job registry is the ledger, and many
        concurrent jobs would clobber one report file).

    The executor keeps one ledger across all its ``run()`` calls, so
    ``repro run all``'s per-experiment calls share one report.  A node
    the ledger already holds at the same digest keeps that record when
    a later call only serves it again with the same outcome (from the
    store, from the failure memo, or skipped again); new work or a new
    outcome replaces it.  The report is written when the ledger
    changed since the last write; a call that computes and fails
    nothing writes it only if this executor wrote it before or no
    report exists yet.
    """

    def __init__(
        self,
        store: ArtifactStore,
        *,
        jobs: int = 1,
        retry: RetryPolicy | None = None,
        node_timeout: float | None = None,
        faults: FaultPlan | None = None,
        resume: bool = False,
        memo: FailureMemo | None = None,
        pool: WorkerPool | None = None,
        on_event: Any = None,
        checkpoint: bool = True,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if node_timeout is not None and node_timeout <= 0:
            raise ConfigurationError("node_timeout must be positive seconds")
        self.store = store
        self.jobs = jobs
        self.retry = retry if retry is not None else RetryPolicy()
        self.node_timeout = node_timeout
        self.faults = faults
        self.resume = resume
        self.memo = memo if memo is not None else FailureMemo()
        self.pool = pool
        self.on_event = on_event
        self.checkpoint = checkpoint
        # The cumulative run report (spans every run() of this executor,
        # so `repro run all`'s per-experiment calls share one ledger),
        # whether it changed since the last write, and whether this
        # executor has written it.
        self._report: RunReport | None = None
        self._unsaved = False
        self._wrote = False
        self._prior: RunReport | None = None
        self._prior_loaded = False

    def _emit(self, key: str, record: NodeRecord) -> None:
        """Hand one node event to the progress callback, if any."""
        if self.on_event is None:
            return
        try:
            self.on_event({"event": "node", "key": key, **record.to_dict()})
        except Exception:  # noqa: BLE001 - observer must not fail the run
            logger.warning("progress event callback failed", exc_info=True)

    # -- resume / run-report bookkeeping --------------------------------

    @property
    def prior_report(self) -> RunReport | None:
        """The previous run's report, when resuming (lazily loaded)."""
        if not self._prior_loaded:
            self._prior_loaded = True
            if self.resume:
                self._prior = RunReport.load(self.store.root)
        return self._prior

    def _run_report(self, plan: Plan) -> RunReport:
        if self._report is None:
            assert plan.config.suite is not None
            self._report = RunReport(
                config={
                    "suite": plan.config.suite.content_key(),
                    "scale": plan.config.scale,
                    "history_lengths": list(plan.config.history_lengths),
                }
            )
        return self._report

    def _note(self, key: str, record: NodeRecord, *, served: bool = False) -> None:
        """Enter one node's record in the ledger and emit it.

        ``served`` marks a node this call did no work for (a cache hit,
        a known failure, a skip): it keeps the record the ledger holds
        at the same digest with the same outcome (a computed node
        served again counts as cached).
        """
        assert self._report is not None
        held = self._report.nodes.get(key)
        kept = (
            served
            and held is not None
            and held.digest == record.digest
            and {"computed": "cached"}.get(held.status, held.status) == record.status
        )
        if not kept:
            self._report.nodes[key] = record
            self._unsaved = True
        self._emit(key, self._report.nodes[key])

    def _checkpoint(self, report: ExecutionReport, *, replace: bool = True) -> None:
        """Persist the run report if the ledger changed since the last
        write (atomic, under the store lock), noting the path in
        ``report``.

        ``replace=False`` leaves a report this executor did not write in
        place.  Checkpointing must never fail the run: a locked or
        unwritable report path degrades to warn-and-continue.
        """
        if not self.checkpoint or self.store.root is None or self._report is None:
            return
        known_failures = self.memo.snapshot()
        if known_failures != self._report.known_failures:
            self._report.known_failures = known_failures
            self._unsaved = True
        if not self._unsaved:
            return
        if not replace and not self._wrote and RunReport.path_for(self.store.root).exists():
            return  # another run's report
        try:
            with self.store.lock:
                report.run_report_path = self._report.save(self.store.root)
        except OSError as exc:  # pragma: no cover - environment-dependent
            logger.warning("could not checkpoint run report: %s", exc)
            return
        self._unsaved = False
        self._wrote = True

    # -- execution -------------------------------------------------------

    def run(self, plan: Plan) -> ExecutionReport:
        """Materialize the plan's targets; see the module docstring."""
        with faults.activation(self.faults):
            try:
                return self._run(plan)
            finally:
                # The manifest is advisory metadata: a corrupt or locked
                # manifest path must not mask the (more useful) report.
                try:
                    self.store.flush_manifest()
                except Exception as exc:  # noqa: BLE001 - advisory only
                    logger.warning("could not flush store manifest: %s", exc)

    def _run(self, plan: Plan) -> ExecutionReport:
        report = ExecutionReport()
        self._run_report(plan)
        prior = self.prior_report
        values = report.values
        run_set: set[str] = set()
        targets = set(plan.targets)

        def prepare(key: str) -> None:
            """Ensure ``key`` has a loaded value or joins the run set."""
            if key in values or key in run_set:
                return
            planned = plan.nodes[key]
            if planned.cached:
                value = self.store.get(planned.digest, planned.node)
                if value is not None:
                    values[key] = value
                    report.cached.append(key)
                    resumed = prior is not None and prior.completed(
                        key, planned.digest
                    )
                    prior_record = prior.record(key, planned.digest) if prior else None
                    self._note(
                        key,
                        NodeRecord(
                            digest=planned.digest,
                            status="cached",
                            attempts=prior_record.attempts if prior_record else 0,
                            resumed=resumed,
                        ),
                        served=True,
                    )
                    return
                # Corrupt/truncated object: recompute (its upstreams may
                # themselves be idle-cached, so prepare them too).
            run_set.add(key)
            for dep in planned.node.deps:
                prepare(dep)

        # A node's value is needed iff it's a target or some consumer will
        # actually run — decided transitively in reverse dependency order,
        # so a non-cached node whose consumers are all served from cache
        # does not drag its (possibly expensive) ancestors into memory.
        will_run: dict[str, bool] = {}
        needs_value: dict[str, bool] = {}
        for key in reversed(list(plan.nodes)):
            planned = plan.nodes[key]
            needs_value[key] = key in targets or any(
                will_run[consumer] for consumer in planned.consumers
            )
            will_run[key] = needs_value[key] and not planned.cached
        for key in plan.nodes:
            if needs_value[key]:
                prepare(key)

        ordered_run = [key for key in plan.nodes if key in run_set]
        # A call with nothing to run writes only a report this executor
        # wrote, or one that does not exist yet.
        self._checkpoint(report, replace=bool(ordered_run))
        if not ordered_run:
            return report

        dead: set[str] = set()
        states: dict[str, _NodeState] = {key: _NodeState() for key in ordered_run}

        def mark_dead(key: str, cause: str) -> None:
            for consumer in plan.nodes[key].consumers:
                if consumer in run_set and consumer not in dead:
                    dead.add(consumer)
                    report.skipped.append(consumer)
                    report.skip_causes[consumer] = cause
                    self._note(
                        consumer,
                        NodeRecord(
                            digest=plan.nodes[consumer].digest,
                            status="skipped",
                            error=f"upstream artifact {cause} failed",
                        ),
                        served=True,
                    )
                    mark_dead(consumer, cause)

        def finish_success(key: str, payload: Any) -> None:
            state = states[key]
            values[key] = payload
            report.computed.append(key)
            report.attempts[key] = state.attempts
            if state.faults:
                report.fault_kinds[key] = list(state.faults)
            self._note(
                key,
                NodeRecord(
                    digest=plan.nodes[key].digest,
                    status="computed",
                    attempts=state.attempts,
                    faults=list(state.faults),
                    elapsed=state.elapsed,
                ),
            )
            self._checkpoint(report)

        def finish_failure(key: str, kind: FaultKind, error: str) -> None:
            state = states[key]
            self.memo.record(plan.nodes[key].digest, kind, error)
            report.failures.append(
                NodeFailure(
                    key=key, error=error, kind=kind, attempts=max(state.attempts, 1)
                )
            )
            report.attempts[key] = state.attempts
            report.fault_kinds[key] = list(state.faults) or [kind.value]
            self._note(
                key,
                NodeRecord(
                    digest=plan.nodes[key].digest,
                    status="failed",
                    attempts=state.attempts,
                    faults=list(state.faults) or [kind.value],
                    error=error[:2000],
                ),
                # No attempt in this call: a known failure from the memo.
                served=state.attempts == 0,
            )
            dead.add(key)
            mark_dead(key, cause=key)
            self._checkpoint(report)

        def store_value(key: str, payload: Any, token: str) -> tuple[bool, str]:
            """Persist one computed value; (ok, error message)."""
            planned = plan.nodes[key]
            try:
                self.store.put(
                    planned.digest,
                    planned.node,
                    payload,
                    plan.config,
                    {dep: plan.digest_of(dep) for dep in planned.node.deps},
                    fault_token=token,
                )
            except Exception as exc:  # noqa: BLE001 - encode/disk faults
                # Persistence failures (unencodable value, full disk)
                # are node failures like any other: recorded and
                # isolated, never a crashed `run all`.
                return False, (
                    f"storing artifact failed: {type(exc).__name__}: {exc}\n"
                    f"{traceback.format_exc()}"
                )
            return True, ""

        helpers = _RunHelpers(
            plan=plan,
            values=values,
            dead=dead,
            states=states,
            finish_success=finish_success,
            finish_failure=finish_failure,
            store_value=store_value,
        )
        if self.jobs == 1 or len(ordered_run) == 1:
            self._run_inline(ordered_run, helpers)
        else:
            self._run_pool(ordered_run, helpers)
        return report

    # -- inline execution ------------------------------------------------

    def _run_inline(self, ordered_run: list[str], h: "_RunHelpers") -> None:
        for key in ordered_run:
            if key in h.dead:
                continue
            prior = self.memo.get(h.plan.nodes[key].digest)
            if prior is not None:
                kind, error = prior
                h.finish_failure(key, kind, error)
                continue
            self._attempt_until_final(key, h)

    def _attempt_until_final(self, key: str, h: "_RunHelpers") -> None:
        """Inline attempt loop: compute, classify, back off, retry."""
        node = h.plan.nodes[key].node
        state = h.states[key]
        while True:
            state.attempts += 1
            token = f"{key}#a{state.attempts}"
            started = time.monotonic()
            status, payload = _compute_node(
                node,
                h.plan.config,
                node.narrow({dep: h.values[dep] for dep in node.deps}),
                fault_token=token,
                fault_plan=self.faults,
                timeout=self.node_timeout,
            )
            state.elapsed = time.monotonic() - started
            if status == "ok":
                stored, error = h.store_value(key, payload, token)
                if stored:
                    h.finish_success(key, payload)
                    return
                kind = FaultKind.STORE_IO
            elif status == "timeout":
                kind, error = FaultKind.TIMEOUT, payload
            else:
                kind, error = FaultKind.NODE_ERROR, payload
            state.faults.append(kind.value)
            if self.retry.should_retry(kind, state.attempts):
                time.sleep(self.retry.delay(key, state.attempts))
                continue
            h.finish_failure(key, kind, error)
            return

    # -- pooled execution ------------------------------------------------

    def _run_pool(self, ordered_run: list[str], h: "_RunHelpers") -> None:
        plan = h.plan
        run_set = set(ordered_run)
        remaining = {
            key: {dep for dep in plan.nodes[key].node.deps if dep in run_set}
            for key in ordered_run
        }
        ready = [key for key in ordered_run if not remaining[key]]
        delayed: list[tuple[float, str]] = []  # (due monotonic time, key)
        scheduled: set[str] = set()  # keys ever moved out of "waiting on deps"
        finished: set[str] = set()  # keys with a terminal outcome
        # Main-side backstop for wedged workers: the worker-side alarm
        # should fire at node_timeout; if a worker stops responding
        # entirely, terminate the pool this far past the deadline.
        backstop = None
        if self.node_timeout is not None:
            backstop = self.node_timeout * 1.5 + 2.0

        def finalize(key: str, good: bool, payload_or_kind, error: str = "") -> None:
            finished.add(key)
            if good:
                h.finish_success(key, payload_or_kind)
            else:
                h.finish_failure(key, payload_or_kind, error)
            for consumer in plan.nodes[key].consumers:
                pending = remaining.get(consumer)
                if pending is None or consumer in scheduled:
                    continue
                pending.discard(key)
                if not pending:
                    ready.append(consumer)

        def attempt_failed(key: str, kind: FaultKind, error: str) -> None:
            """Record one failed attempt; requeue with backoff or finalize."""
            state = h.states[key]
            state.faults.append(kind.value)
            if self.retry.should_retry(kind, state.attempts):
                heapq.heappush(
                    delayed,
                    (time.monotonic() + self.retry.delay(key, state.attempts), key),
                )
            else:
                finalize(key, False, kind, error)

        # A private pool lives for this run only; a shared (service)
        # pool outlives it — rebuilds go through the generation guard
        # either way, so concurrent runs sharing one pool cannot
        # stampede-rebuild after a single crash.
        owned = self.pool is None
        pool = (
            self.pool
            if self.pool is not None
            else WorkerPool(min(self.jobs, len(ordered_run)))
        )
        inflight: dict[Any, str] = {}
        deadlines: dict[Any, float] = {}
        generations: dict[Any, int] = {}

        def recover_pool(
            kinds: dict[str, FaultKind], reason: str, generation: int
        ) -> None:
            """Tear down a broken/wedged pool; requeue its in-flight work."""
            casualties = list(inflight.items())
            inflight.clear()
            deadlines.clear()
            generations.clear()
            pool.rebuild(generation)
            for _, key in casualties:
                kind = kinds.get(key, FaultKind.WORKER_CRASH)
                attempt_failed(key, kind, f"{reason} while computing {key}")

        def submit(key: str) -> None:
            if key in h.dead or key in finished:
                scheduled.add(key)
                return
            prior = self.memo.get(plan.nodes[key].digest)
            if prior is not None:
                scheduled.add(key)
                finalize(key, False, prior[0], prior[1])
                return
            scheduled.add(key)
            state = h.states[key]
            state.attempts += 1
            node = plan.nodes[key].node
            token = f"{key}#a{state.attempts}"
            # narrow() trims dep values to what the node consumes,
            # so wide tiers don't pickle the whole suite per task.
            try:
                future, generation = pool.submit(
                    _compute_node,
                    node,
                    plan.config,
                    node.narrow({dep: h.values[dep] for dep in node.deps}),
                    fault_token=token,
                    fault_plan=self.faults,
                    timeout=self.node_timeout,
                )
            except BrokenExecutor:
                # The pool broke immediately after its own rebuild —
                # count a crash attempt and let the requeue retry.
                attempt_failed(key, FaultKind.WORKER_CRASH, "worker pool broken")
                return
            inflight[future] = key
            generations[future] = generation
            if backstop is not None:
                deadlines[future] = time.monotonic() + backstop

        try:
            while ready or inflight or delayed:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, key = heapq.heappop(delayed)
                    ready.append(key)
                for key in ready:
                    submit(key)
                ready = []
                if not inflight:
                    if delayed:
                        time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                        continue
                    break
                timeout = None
                now = time.monotonic()
                if delayed:
                    timeout = max(0.0, delayed[0][0] - now)
                if deadlines:
                    hard = max(0.01, min(deadlines.values()) - now)
                    timeout = hard if timeout is None else min(timeout, hard)
                done, _ = wait(
                    set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    now = time.monotonic()
                    expired = {
                        inflight[f]: FaultKind.TIMEOUT
                        for f, deadline in deadlines.items()
                        if deadline <= now
                    }
                    if expired:
                        # A worker blew straight through its alarm: it is
                        # wedged beyond signals.  Kill the pool; expired
                        # nodes count as timeouts, collateral in-flight
                        # nodes as worker crashes — both retry.
                        stale = max(
                            generations[f]
                            for f, deadline in deadlines.items()
                            if deadline <= now
                        )
                        recover_pool(
                            expired, "worker unresponsive past timeout", stale
                        )
                    continue
                broken_generation: int | None = None
                for future in done:
                    key = inflight.pop(future)
                    deadlines.pop(future, None)
                    generation = generations.pop(future, 0)
                    exc = future.exception()
                    if exc is not None:
                        if isinstance(exc, BrokenExecutor):
                            broken_generation = max(
                                generation,
                                -1 if broken_generation is None else broken_generation,
                            )
                            attempt_failed(
                                key,
                                FaultKind.WORKER_CRASH,
                                f"worker process died: {type(exc).__name__}: {exc}",
                            )
                        else:  # pool infrastructure fault (unpicklable task…)
                            attempt_failed(
                                key,
                                FaultKind.NODE_ERROR,
                                f"{type(exc).__name__}: {exc}",
                            )
                        continue
                    status, payload = future.result()
                    if status == "ok":
                        token = f"{key}#a{h.states[key].attempts}"
                        stored, error = h.store_value(key, payload, token)
                        if stored:
                            finalize(key, True, payload)
                        else:
                            attempt_failed(key, FaultKind.STORE_IO, error)
                    elif status == "timeout":
                        attempt_failed(key, FaultKind.TIMEOUT, payload)
                    else:
                        attempt_failed(key, FaultKind.NODE_ERROR, payload)
                if broken_generation is not None:
                    recover_pool({}, "worker process died", broken_generation)
        finally:
            if owned:
                pool.shutdown()


@dataclass
class _RunHelpers:
    """The shared mutable state both execution modes operate on."""

    plan: Plan
    values: dict[str, Any]
    dead: set[str]
    states: dict[str, _NodeState]
    finish_success: Any
    finish_failure: Any
    store_value: Any


class Pipeline:
    """Config + store + planner + executor, behind two calls.

    ``value(key)`` materializes one artifact (raising on failure);
    ``run_experiments(ids)`` materializes render artifacts with fault
    isolation and returns the full :class:`ExecutionReport`.  All
    values are memoized in the store's in-process cache, so repeated
    calls — and every consumer sharing this pipeline — reuse rather
    than recompute.

    ``retry``, ``node_timeout``, ``faults`` and ``resume`` configure
    the executor's fault tolerance (see :class:`Executor` and
    ``docs/FAULTS.md``).
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        store: ArtifactStore | None = None,
        *,
        jobs: int = 1,
        retry: RetryPolicy | None = None,
        node_timeout: float | None = None,
        faults: FaultPlan | None = None,
        resume: bool = False,
        memo: FailureMemo | None = None,
        pool: WorkerPool | None = None,
        on_event: Any = None,
        checkpoint: bool = True,
    ) -> None:
        self.config = config or PipelineConfig()
        self.store = store if store is not None else ArtifactStore(None)
        self.planner = Planner(self.config)
        self.executor = Executor(
            self.store,
            jobs=jobs,
            retry=retry,
            node_timeout=node_timeout,
            faults=faults,
            resume=resume,
            memo=memo,
            pool=pool,
            on_event=on_event,
            checkpoint=checkpoint,
        )

    @property
    def jobs(self) -> int:
        return self.executor.jobs

    def plan(self, targets: list[str]) -> Plan:
        """Plan (but do not run) the given artifact keys."""
        return self.planner.plan(targets, self.store, prior=self.executor.prior_report)

    def plan_experiments(self, experiment_ids: list[str]) -> Plan:
        """Plan (but do not run) the given experiments' renders."""
        return self.planner.plan_experiments(
            experiment_ids, self.store, prior=self.executor.prior_report
        )

    def execute(self, plan: Plan) -> ExecutionReport:
        """Run a previously built plan."""
        return self.executor.run(plan)

    def value(self, key: str) -> Any:
        """Materialize one artifact, raising :class:`PipelineError` on failure."""
        report = self.execute(self.plan([key]))
        return report.value(key)

    def run_experiments(self, experiment_ids: list[str]) -> ExecutionReport:
        """Materialize render artifacts for the given experiments.

        Failures are isolated per subgraph; inspect
        :attr:`ExecutionReport.failures` / :meth:`ExecutionReport.value`.
        """
        return self.execute(self.plan_experiments(experiment_ids))
