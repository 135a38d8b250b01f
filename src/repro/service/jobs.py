"""Job model and registry for the analysis service.

A *job* is one client request — a set of artifact targets over a
workload configuration — normalized into a :class:`JobSpec` whose
content key doubles as the job id.  Everything the pipeline computes
is already content-addressed, and the job layer extends that property
upward: two clients asking for the same (workload, grid, targets)
produce the same :meth:`JobSpec.content_key`, so the
:class:`JobRegistry` can *dedupe in flight* — the second submission
attaches to the first job instead of queuing a duplicate computation.

Lifecycle: ``queued`` → ``running`` → ``done`` | ``failed``.  A job's
results are store addresses (plus rendered text for render targets, so
clients can byte-compare against the one-shot CLI); its ``events``
list accumulates the executor's per-node progress records (the
run-report node schema, see :mod:`repro.pipeline.runreport`) for NDJSON
streaming.

The registry also enforces **backpressure**: a bounded count of queued
jobs.  Dedupe wins over backpressure — attaching to an existing job is
free and always allowed; only genuinely new work can be rejected with
:class:`~repro.errors.QueueFull`.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from ..errors import ConfigurationError, JobNotFound, QueueFull
from ..pipeline import PipelineConfig
from ..pipeline.planner import Planner
from ..predictors.paper_configs import HISTORY_LENGTHS
from ..workload_spec import SuiteSpec, load_suite, workload_spec_from_dict

__all__ = ["Job", "JobRegistry", "JobSpec", "JobState"]


class JobState(str, Enum):
    """Where a job is in its lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


def _coerce_targets(data: Mapping[str, Any]) -> tuple[str, ...]:
    """Normalize ``targets`` / ``experiments`` into artifact keys."""
    targets = list(data.get("targets") or [])
    experiments = data.get("experiments") or []
    if isinstance(targets, str) or isinstance(experiments, str):
        raise ConfigurationError("'targets'/'experiments' must be lists, not strings")
    targets.extend(f"render:{exp}" for exp in experiments)
    if not targets:
        raise ConfigurationError(
            "request needs 'targets' (artifact keys) or 'experiments' "
            "(experiment ids, sugar for render:<id>)"
        )
    seen: dict[str, None] = {}
    for target in targets:
        if not isinstance(target, str) or not target:
            raise ConfigurationError(f"invalid target {target!r}")
        seen.setdefault(target)
    return tuple(seen)


def _coerce_suite(data: Mapping[str, Any], scale: float) -> SuiteSpec | None:
    """Resolve the request's ``suite`` — a name or an inline spec dict."""
    raw = data.get("suite")
    if raw is None:
        return None
    if isinstance(raw, str):
        return load_suite(raw, scale=scale)
    if isinstance(raw, Mapping):
        spec = workload_spec_from_dict(raw)
        if isinstance(spec, SuiteSpec):
            return spec
        return SuiteSpec(name=spec.label, members=(spec,))
    raise ConfigurationError("'suite' must be a suite name or a workload spec object")


@dataclass(frozen=True)
class JobSpec:
    """A validated service request; the content key is the job id.

    ``engine`` (``"auto"`` or ``"reference"``) deliberately does *not*
    participate in the content key: the two are bit-exact (see
    ``docs/ENGINES.md``), so requests differing only in engine
    describe the same artifacts and dedupe onto one job (first
    submission's engine wins).
    """

    targets: tuple[str, ...]
    suite: SuiteSpec | None = None
    inputs: str = "primary"
    scale: float = 1.0
    history_lengths: tuple[int, ...] = tuple(HISTORY_LENGTHS)
    engine: str = "auto"

    @classmethod
    def from_request(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Validate a request document into a spec (raises
        :class:`~repro.errors.ConfigurationError` on any problem —
        the HTTP layer maps that to a 400)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError("request body must be a JSON object")
        known = {"targets", "experiments", "suite", "inputs", "scale",
                 "history_lengths", "engine"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown request field(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        try:
            scale = float(data.get("scale", 1.0))
        except (TypeError, ValueError):
            raise ConfigurationError(f"invalid scale {data.get('scale')!r}") from None
        histories = data.get("history_lengths")
        if histories is None:
            history_lengths = tuple(HISTORY_LENGTHS)
        else:
            try:
                history_lengths = tuple(int(h) for h in histories)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"invalid history_lengths {histories!r}"
                ) from None
        spec = cls(
            targets=_coerce_targets(data),
            suite=_coerce_suite(data, scale),
            inputs=str(data.get("inputs", "primary")),
            scale=scale,
            history_lengths=history_lengths,
            engine=str(data.get("engine", "auto")),
        )
        spec.validate()
        return spec

    def pipeline_config(self) -> PipelineConfig:
        """The :class:`PipelineConfig` this job plans against (also
        re-runs the config-level validation)."""
        return PipelineConfig(
            inputs=self.inputs,
            scale=self.scale,
            history_lengths=self.history_lengths,
            engine=self.engine,
            suite=self.suite,
        )

    def validate(self) -> None:
        """Check the spec is plannable: valid config, known targets."""
        config = self.pipeline_config()
        universe = Planner(config).universe()
        unknown = sorted(t for t in self.targets if t not in universe)
        if unknown:
            raise ConfigurationError(
                f"unknown target(s): {', '.join(unknown)}; the universe "
                f"has {len(universe)} keys (try 'sweep', "
                "'misclassification' or 'render:<experiment>')"
            )

    def content_key(self) -> str:
        """The job id: sha256 over the canonical request semantics."""
        assert self.suite is None or isinstance(self.suite, SuiteSpec)
        payload = {
            "targets": sorted(self.targets),
            "suite": self.suite.content_key() if self.suite is not None else None,
            "inputs": self.inputs,
            "scale": self.scale,
            "history_lengths": list(self.history_lengths),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        return {
            "targets": list(self.targets),
            "suite": None if self.suite is None else self.suite.to_dict(),
            "inputs": self.inputs,
            "scale": self.scale,
            "history_lengths": list(self.history_lengths),
            "engine": self.engine,
        }


@dataclass
class Job:
    """One submitted computation and everything observed about it."""

    spec: JobSpec
    key: str
    state: JobState = JobState.QUEUED
    created: float = 0.0
    started: float | None = None
    finished: float | None = None
    #: target -> {"digest": <store address>, "rendered"?: str, "paper_note"?: str}
    results: dict[str, dict[str, Any]] = field(default_factory=dict)
    error: str | None = None
    #: Per-node progress events (run-report node records + event/key),
    #: appended by the executor callback; append-only so streamers can
    #: hold an index into it.
    events: list[dict[str, Any]] = field(default_factory=list)
    #: How many submissions deduped onto this job (1 = no sharing).
    subscribers: int = 1

    def to_dict(self, *, include_spec: bool = True) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "id": self.key,
            "state": self.state.value,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "subscribers": self.subscribers,
            "events": len(self.events),
        }
        if include_spec:
            payload["spec"] = self.spec.to_dict()
        if self.results:
            payload["results"] = self.results
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobRegistry:
    """Thread-safe job table with in-flight dedupe and backpressure.

    ``queue_limit`` bounds the number of *queued* jobs (running and
    terminal jobs don't count): when full, a submission that would
    create a new job raises :class:`~repro.errors.QueueFull` with a
    Retry-After hint, while one that dedupes onto an existing live job
    still succeeds — sharing is free.
    """

    def __init__(self, queue_limit: int = 8) -> None:
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        self.queue_limit = queue_limit
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Register ``spec``; returns ``(job, created)``.

        A live (queued/running) job with the same content key absorbs
        the submission (``created=False``).  A *failed* job is retried:
        the stale entry is replaced with a fresh queued job (the caller
        is responsible for clearing failure memos for its digests).  A
        *done* job is returned as-is — its results are final.
        """
        key = spec.content_key()
        with self._lock:
            existing = self._jobs.get(key)
            if existing is not None and existing.state is not JobState.FAILED:
                existing.subscribers += 1
                return existing, False
            queued = sum(
                1 for job in self._jobs.values() if job.state is JobState.QUEUED
            )
            if queued >= self.queue_limit:
                raise QueueFull(
                    f"job queue full ({queued}/{self.queue_limit} queued)",
                    retry_after=1.0,
                )
            job = Job(spec=spec, key=key, created=time.time())
            self._jobs[key] = job
            return job, True

    def get(self, key: str) -> Job:
        with self._lock:
            job = self._jobs.get(key)
        if job is None:
            raise JobNotFound(f"no job {key!r}")
        return job

    def peek(self, key: str) -> Job | None:
        """Like :meth:`get`, but ``None`` instead of raising."""
        with self._lock:
            return self._jobs.get(key)

    def jobs(self) -> list[Job]:
        """All known jobs, submission-ordered (dict order is insertion)."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        counts = dict.fromkeys((state.value for state in JobState), 0)
        for job in self.jobs():
            counts[job.state.value] += 1
        return counts
