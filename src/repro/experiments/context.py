"""Shared experiment state, as a thin facade over the artifact pipeline.

Every table/figure reproduction consumes the same expensive artefacts —
the benchmark traces, their profiles, and the PAs/GAs history sweep.
:class:`ExperimentContext` presents them context-style
(``context.sweep``, ``context.traces``, …) while delegating all
computation, caching and invalidation to a
:class:`~repro.pipeline.executor.Pipeline`: artifacts are
content-addressed in an on-disk :class:`~repro.pipeline.store.ArtifactStore`
(hash-keyed files + JSON manifest under ``cache_dir``), deduplicated
across experiments, and — with ``jobs > 1`` — computed in parallel
across worker processes.  See ``docs/API.md`` (*Pipeline & artifacts*).
"""

from __future__ import annotations

from pathlib import Path

from ..classify.profile import ProfileTable
from ..analysis.history_sweep import SweepResult
from ..analysis.misclassification import MisclassificationReport
from ..faults import FaultPlan
from ..pipeline import ArtifactStore, Pipeline, PipelineConfig, RetryPolicy
from ..predictors.paper_configs import HISTORY_LENGTHS
from ..session import Session
from ..trace.stream import Trace
from ..workload_spec import SuiteSpec

__all__ = ["ExperimentContext"]


class ExperimentContext:
    """Facade over one pipeline: experiment state by attribute access.

    Parameters
    ----------
    suite:
        The workload universe, as a
        :class:`~repro.workload_spec.SuiteSpec` — any mix of synthetic
        benchmarks, VM kernels, trace files and composed workloads.
        ``None`` (the default) builds the calibrated spec95 suite from
        ``inputs``/``scale``, which survive as sugar.
    inputs:
        ``"primary"`` (one input set per benchmark, the default) or
        ``"all"`` (all 34 Table 1 input sets).  Ignored when ``suite``
        is given.
    scale:
        Trace-length multiplier on top of the Table 1 scaling; the
        benchmark harness uses small scales, full reproduction uses 1.0.
        Applies to the default suite only (a custom ``suite`` carries
        its own scaling).
    history_lengths:
        Histories swept (the paper uses 0..16).
    cache_dir:
        Directory for the artifact store; ``None`` keeps artifacts in
        memory only for this context's lifetime.
    engine:
        Simulation engine selector passed through to sweep artifacts.
        ``"auto"`` (the default) and ``"batched"`` simulate all sweep
        configurations of a trace in one batched pass;
        ``"vectorized"``/``"reference"`` force per-configuration
        simulation (bit-identical, for cross-checking).  The engine is
        *not* part of artifact content addresses.  See ``docs/ENGINES.md``.
    jobs:
        Worker processes for independent artifacts (per-trace sweeps);
        1 (the default) runs everything inline.
    retry:
        Per-node :class:`~repro.pipeline.executor.RetryPolicy` for
        transient faults (worker death, timeout, store I/O); the
        default makes a single attempt.  See ``docs/FAULTS.md``.
    node_timeout:
        Per-node wall-clock seconds before an attempt counts as a
        ``TIMEOUT`` fault (``None`` disables).
    resume:
        Resume from the store's ``run-report.json``: artifacts the
        prior (possibly killed) run completed are served from the
        store; only missing nodes recompute.
    faults:
        An explicit chaos-testing :class:`~repro.faults.FaultPlan`
        (``None`` defers to the ``REPRO_FAULTS`` environment variable).
    """

    def __init__(
        self,
        *,
        inputs: str = "primary",
        scale: float = 1.0,
        history_lengths: tuple[int, ...] = tuple(HISTORY_LENGTHS),
        cache_dir: str | Path | None = ".repro-cache",
        engine: str = "auto",
        jobs: int = 1,
        suite: SuiteSpec | None = None,
        retry: "RetryPolicy | None" = None,
        node_timeout: float | None = None,
        resume: bool = False,
        faults: "FaultPlan | None" = None,
    ) -> None:
        config = PipelineConfig(
            inputs=inputs,
            scale=scale,
            history_lengths=tuple(history_lengths),
            engine=engine,
            suite=suite,
        )
        self.pipeline = Pipeline(
            config,
            ArtifactStore(cache_dir),
            jobs=jobs,
            retry=retry,
            node_timeout=node_timeout,
            faults=faults,
            resume=resume,
        )

    # -- configuration passthrough ----------------------------------------

    @property
    def config(self) -> PipelineConfig:
        return self.pipeline.config

    @property
    def store(self) -> ArtifactStore:
        return self.pipeline.store

    @property
    def inputs(self) -> str:
        return self.config.inputs

    @property
    def suite(self) -> SuiteSpec:
        """The workload universe this context's pipeline plans over."""
        assert self.config.suite is not None
        return self.config.suite

    @property
    def scale(self) -> float:
        return self.config.scale

    @property
    def history_lengths(self) -> tuple[int, ...]:
        return self.config.history_lengths

    @property
    def engine(self) -> str:
        return self.config.engine

    @property
    def cache_dir(self) -> Path | None:
        return self.store.root

    # -- artifacts ---------------------------------------------------------

    @property
    def traces(self) -> list[Trace]:
        """Per-benchmark traces (the ``traces`` artifact)."""
        return self.pipeline.value("traces")

    @property
    def profiles(self) -> dict[str, ProfileTable]:
        """Per-trace profiles keyed by trace label (``profile:*`` artifacts).

        Planned as one multi-target execution, so with ``jobs > 1`` the
        per-trace profile nodes fan out across the process pool.
        """
        trace_names = self.pipeline.planner.trace_names()
        plan = self.pipeline.plan([f"profile:{name}" for name in trace_names])
        report = self.pipeline.execute(plan)
        return {
            name: report.value(f"profile:{name}") for name in trace_names
        }

    @property
    def merged_profile(self) -> ProfileTable:
        """Profile of the whole suite with disjoint PC spaces."""
        return self.pipeline.value("profile:suite")

    @property
    def sweep(self) -> SweepResult:
        """The PAs/GAs history sweep over the suite (the ``sweep`` artifact)."""
        return self.pipeline.value("sweep")

    def misclassification(self) -> MisclassificationReport:
        """The §4.2 headline numbers (the ``misclassification`` artifact)."""
        return self.pipeline.value("misclassification")

    def render(self, experiment_id: str):
        """One experiment's rendered result (the ``render:*`` artifact)."""
        return self.pipeline.value(f"render:{experiment_id}")

    def session(self, *, backend: str | None = None) -> Session:
        """A :class:`~repro.session.Session` on this context's engine.

        Experiment code that simulates ad-hoc spec jobs (beyond the
        pipeline's sweep artifacts) should route them through one of
        these so jobs on the same trace share batched passes.
        ``backend`` forwards to the session (the compiled-kernel
        backend; see docs/PERFORMANCE.md).
        """
        return Session(engine=self.engine, backend=backend)
