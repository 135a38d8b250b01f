"""History-length sweeps with per-class miss attribution.

The engine behind Figures 3–14: simulate the paper's PAs and GAs
configurations at every history length over every benchmark trace,
profile the branches once, and attribute each misprediction to the
(profiled) taken class, transition class and joint class of the branch
that caused it.  Results are accumulated across benchmarks weighted by
dynamic occurrence, exactly like the paper's suite-level graphs.

Every (kind, history length) configuration is expressed as a
declarative :class:`~repro.spec.TwoLevelSpec` job and planned by
:class:`repro.session.Session`: with ``engine="auto"`` (or
``"batched"``) all configurations of a trace collapse into one batched
multi-config pass, while ``"vectorized"``/``"reference"`` force
per-configuration simulation; the grids are bit-identical either way.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..classify.classes import NUM_CLASSES
from ..classify.profile import ProfileTable
from ..errors import ConfigurationError
from ..predictors.paper_configs import HISTORY_LENGTHS, paper_spec
from ..session import Session
from ..trace.stream import Trace

__all__ = [
    "SweepConfig",
    "ClassMissGrid",
    "SweepResult",
    "TraceSweep",
    "sweep_trace",
    "sweep_workload",
    "accumulate_sweep",
    "run_sweep",
]

PREDICTOR_KINDS = ("pas", "gas")
METRICS = ("taken", "transition")
ENGINES = ("auto", "batched", "vectorized", "reference")


@dataclass(frozen=True, slots=True)
class SweepConfig:
    """Parameters of a history sweep.

    ``engine="auto"`` (and ``"batched"``) runs every (kind, history
    length) configuration of a trace through the batched multi-config
    engine in one pass; ``"vectorized"``/``"reference"`` force
    per-configuration simulation on that engine (the batched path is
    bit-exact with both, so the results never differ).
    """

    history_lengths: tuple[int, ...] = tuple(HISTORY_LENGTHS)
    predictor_kinds: tuple[str, ...] = PREDICTOR_KINDS
    engine: str = "auto"

    def __post_init__(self) -> None:
        if not self.history_lengths:
            raise ConfigurationError("history_lengths must be non-empty")
        for kind in self.predictor_kinds:
            if kind not in PREDICTOR_KINDS:
                raise ConfigurationError(
                    f"predictor kind {kind!r} not in {PREDICTOR_KINDS}"
                )
        if self.engine not in ENGINES:
            raise ConfigurationError(f"engine {self.engine!r} not in {ENGINES}")


@dataclass
class ClassMissGrid:
    """Executions and misses per (history length, class) for one predictor.

    ``taken_*`` / ``transition_*`` arrays have shape ``(H, 11)``;
    ``joint_*`` arrays have shape ``(H, 11, 11)`` with rows transition
    classes and columns taken classes (Table 2 layout).  Executions are
    per history length too (identical rows for a fixed trace set, but
    keeping them per-row makes accumulation trivially correct).
    """

    history_lengths: tuple[int, ...]
    taken_executions: np.ndarray = field(default=None)  # type: ignore[assignment]
    taken_misses: np.ndarray = field(default=None)  # type: ignore[assignment]
    transition_executions: np.ndarray = field(default=None)  # type: ignore[assignment]
    transition_misses: np.ndarray = field(default=None)  # type: ignore[assignment]
    joint_executions: np.ndarray = field(default=None)  # type: ignore[assignment]
    joint_misses: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        h = len(self.history_lengths)
        if self.taken_executions is None:
            self.taken_executions = np.zeros((h, NUM_CLASSES), dtype=np.int64)
            self.taken_misses = np.zeros((h, NUM_CLASSES), dtype=np.int64)
            self.transition_executions = np.zeros((h, NUM_CLASSES), dtype=np.int64)
            self.transition_misses = np.zeros((h, NUM_CLASSES), dtype=np.int64)
            self.joint_executions = np.zeros((h, NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
            self.joint_misses = np.zeros((h, NUM_CLASSES, NUM_CLASSES), dtype=np.int64)

    # -- derived rates -----------------------------------------------------

    def miss_rates(self, metric: str) -> np.ndarray:
        """(H, 11) miss-rate grid for ``metric`` ('taken'/'transition')."""
        execs, misses = self._select(metric)
        return _safe_divide(misses, execs)

    def joint_miss_rates(self) -> np.ndarray:
        """(H, 11, 11) miss-rate grid over joint classes."""
        return _safe_divide(self.joint_misses, self.joint_executions)

    def optimal_history(self, metric: str) -> np.ndarray:
        """(11,) history length minimizing each class's miss rate."""
        rates = self.miss_rates(metric)
        lengths = np.asarray(self.history_lengths)
        return lengths[np.argmin(rates, axis=0)]

    def miss_at_optimal(self, metric: str) -> np.ndarray:
        """(11,) per-class miss rate at each class's optimal history."""
        return self.miss_rates(metric).min(axis=0)

    def joint_miss_at_optimal(self) -> np.ndarray:
        """(11, 11) per-joint-class miss rate at the cell's optimal history."""
        return self.joint_miss_rates().min(axis=0)

    def overall_miss_rates(self) -> np.ndarray:
        """(H,) whole-trace miss rate at each history length."""
        execs = self.taken_executions.sum(axis=1)
        misses = self.taken_misses.sum(axis=1)
        return _safe_divide(misses, execs)

    def _select(self, metric: str) -> tuple[np.ndarray, np.ndarray]:
        if metric == "taken":
            return self.taken_executions, self.taken_misses
        if metric == "transition":
            return self.transition_executions, self.transition_misses
        raise ConfigurationError(f"metric must be 'taken' or 'transition', got {metric!r}")

    # -- accumulation -----------------------------------------------------

    def accumulate(self, other: "ClassMissGrid") -> None:
        """Add another grid's counts (suite-level aggregation)."""
        if other.history_lengths != self.history_lengths:
            raise ConfigurationError("cannot accumulate grids with different sweeps")
        self.taken_executions += other.taken_executions
        self.taken_misses += other.taken_misses
        self.transition_executions += other.transition_executions
        self.transition_misses += other.transition_misses
        self.joint_executions += other.joint_executions
        self.joint_misses += other.joint_misses


@dataclass
class SweepResult:
    """Per-predictor class-miss grids plus the aggregated branch profile."""

    config: SweepConfig
    grids: dict[str, ClassMissGrid]
    taken_distribution: np.ndarray
    transition_distribution: np.ndarray
    joint_distribution: np.ndarray
    total_dynamic: int

    def grid(self, kind: str) -> ClassMissGrid:
        """The grid for predictor kind 'pas' or 'gas'."""
        try:
            return self.grids[kind]
        except KeyError:
            raise ConfigurationError(f"sweep did not include predictor {kind!r}") from None


@dataclass
class TraceSweep:
    """One trace's raw contribution to a suite-level sweep.

    Grids hold per-(history, class) execution/miss counts exactly as in
    :class:`SweepResult`; the ``*_counts`` arrays are dynamic-weighted
    class occurrence counts (*not* normalized — divide by the suite's
    ``total_dynamic`` after accumulation).  This is the unit of work the
    experiment pipeline schedules per trace; :func:`run_sweep` is the
    in-process accumulation of these parts in trace order.
    """

    trace_name: str
    grids: dict[str, ClassMissGrid]
    taken_counts: np.ndarray
    transition_counts: np.ndarray
    joint_counts: np.ndarray
    total_dynamic: int


def _empty_part(trace_name: str, config: SweepConfig) -> TraceSweep:
    """A zeroed per-trace sweep contribution."""
    return TraceSweep(
        trace_name=trace_name,
        grids={
            kind: ClassMissGrid(history_lengths=config.history_lengths)
            for kind in config.predictor_kinds
        },
        taken_counts=np.zeros(NUM_CLASSES, dtype=np.float64),
        transition_counts=np.zeros(NUM_CLASSES, dtype=np.float64),
        joint_counts=np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.float64),
        total_dynamic=0,
    )


def _add_profile_counts(part: TraceSweep, profile: ProfileTable) -> None:
    """Fold a profile's dynamic-weighted class occurrences into ``part``."""
    part.total_dynamic = profile.total_dynamic
    part.taken_counts += np.bincount(
        profile.taken_classes, weights=profile.executions, minlength=NUM_CLASSES
    )
    part.transition_counts += np.bincount(
        profile.transition_classes, weights=profile.executions, minlength=NUM_CLASSES
    )
    np.add.at(
        part.joint_counts,
        (profile.transition_classes, profile.taken_classes),
        profile.executions.astype(np.float64),
    )


def sweep_trace(trace: Trace, config: SweepConfig | None = None) -> TraceSweep:
    """Sweep one trace over every (kind, history length) configuration.

    All configurations are submitted to one
    :class:`~repro.session.Session` as spec jobs; with ``"auto"``/
    ``"batched"`` the planner collapses them into a single batched
    multi-config pass (``"vectorized"``/``"reference"`` force
    per-configuration simulation; the counts are bit-identical).
    """
    config = config or SweepConfig()
    part = _empty_part(trace.name, config)
    if len(trace) == 0:
        return part

    profile = ProfileTable.from_trace(trace)
    _add_profile_counts(part, profile)

    session = Session(engine=config.engine)
    jobs = [
        (kind, row, session.submit(trace, paper_spec(kind, k)))
        for kind in config.predictor_kinds
        for row, k in enumerate(config.history_lengths)
    ]
    results = session.run()
    for kind, row, job in jobs:
        _accumulate_row(part.grids[kind], row, profile, results[job])
    return part


def sweep_workload(
    workload, config: SweepConfig | None = None
) -> TraceSweep:
    """Sweep one workload, streaming out-of-core when it supports it.

    ``workload`` is a :class:`~repro.trace.stream.Trace` or a
    :class:`~repro.workload_spec.WorkloadSpec`.  Specs that report a
    stream source (large binary trace files — see
    :func:`repro.workload_spec.stream_threshold`) are swept without
    ever materializing the trace: one bounded-memory pass profiles the
    branches (:meth:`ProfileTable.from_chunks`) and one streams every
    (kind, history length) configuration through the chunked batched
    engine.  The resulting :class:`TraceSweep` is bit-identical to
    ``sweep_trace(workload.materialize(), config)``.
    """
    from ..workload_spec import WorkloadSpec

    config = config or SweepConfig()
    if isinstance(workload, Trace):
        return sweep_trace(workload, config)
    if not isinstance(workload, WorkloadSpec):
        raise ConfigurationError(
            f"expected a Trace or WorkloadSpec, got {type(workload).__name__}"
        )
    source = workload.stream_source()
    if source is None:
        return sweep_trace(workload.materialize(), config)
    with source:
        return _sweep_stream(workload.label, source, config)


def _sweep_stream(label: str, reader, config: SweepConfig) -> TraceSweep:
    """Bounded-memory sweep over a chunk reader (two passes: profile,
    then the chunked multi-configuration simulation)."""
    from ..engine import simulate_batched_stream, simulate_stream

    part = _empty_part(label, config)
    if len(reader) == 0:
        return part

    profile = ProfileTable.from_chunks(iter(reader), name=label)
    _add_profile_counts(part, profile)

    keys = [
        (kind, row, k)
        for kind in config.predictor_kinds
        for row, k in enumerate(config.history_lengths)
    ]
    if config.engine in ("auto", "batched"):
        results = simulate_batched_stream(
            [paper_spec(kind, k).build() for kind, _, k in keys],
            iter(reader),
            trace_name=label,
        )
    else:
        results = [
            simulate_stream(
                paper_spec(kind, k).build(),
                iter(reader),
                engine=config.engine,
                trace_name=label,
            )
            for kind, _, k in keys
        ]
    for (kind, row, _), result in zip(keys, results):
        _accumulate_row(part.grids[kind], row, profile, result)
    return part


def accumulate_sweep(parts: Sequence[TraceSweep], config: SweepConfig) -> SweepResult:
    """Combine per-trace sweep parts (in the given order) into a suite result."""
    grids = {
        kind: ClassMissGrid(history_lengths=config.history_lengths)
        for kind in config.predictor_kinds
    }
    taken_dist = np.zeros(NUM_CLASSES, dtype=np.float64)
    transition_dist = np.zeros(NUM_CLASSES, dtype=np.float64)
    joint_dist = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.float64)
    total_dynamic = 0
    for part in parts:
        for kind in config.predictor_kinds:
            grids[kind].accumulate(part.grids[kind])
        taken_dist += part.taken_counts
        transition_dist += part.transition_counts
        joint_dist += part.joint_counts
        total_dynamic += part.total_dynamic

    if total_dynamic:
        taken_dist /= total_dynamic
        transition_dist /= total_dynamic
        joint_dist /= total_dynamic

    return SweepResult(
        config=config,
        grids=grids,
        taken_distribution=taken_dist,
        transition_distribution=transition_dist,
        joint_distribution=joint_dist,
        total_dynamic=total_dynamic,
    )


def run_sweep(traces: Sequence[Trace], config: SweepConfig | None = None) -> SweepResult:
    """Run the full history sweep over a set of benchmark traces.

    Each trace is swept independently (:func:`sweep_trace`: one session
    per trace, so the memo's per-PC result columns are dropped as soon
    as the rows are accumulated) and the parts are combined in trace
    order — the same decomposition the experiment pipeline executes as
    explicit per-trace artifacts, possibly in parallel.
    """
    config = config or SweepConfig()
    return accumulate_sweep([sweep_trace(trace, config) for trace in traces], config)


def _accumulate_row(grid: ClassMissGrid, row: int, profile: ProfileTable, result) -> None:
    # Simulation results and profiles are both keyed by sorted unique PC,
    # over the same trace, so their columns are aligned by construction.
    if not np.array_equal(result.pcs, profile.pcs):  # pragma: no cover - invariant
        raise ConfigurationError("profile and simulation cover different branches")
    _accumulate_counts(grid, row, profile, result.executions, result.mispredictions)


def _accumulate_counts(
    grid: ClassMissGrid,
    row: int,
    profile: ProfileTable,
    execs: np.ndarray,
    misses: np.ndarray,
) -> None:
    t_cls = profile.taken_classes
    x_cls = profile.transition_classes

    grid.taken_executions[row] += np.bincount(
        t_cls, weights=execs, minlength=NUM_CLASSES
    ).astype(np.int64)
    grid.taken_misses[row] += np.bincount(
        t_cls, weights=misses, minlength=NUM_CLASSES
    ).astype(np.int64)
    grid.transition_executions[row] += np.bincount(
        x_cls, weights=execs, minlength=NUM_CLASSES
    ).astype(np.int64)
    grid.transition_misses[row] += np.bincount(
        x_cls, weights=misses, minlength=NUM_CLASSES
    ).astype(np.int64)
    np.add.at(grid.joint_executions[row], (x_cls, t_cls), execs)
    np.add.at(grid.joint_misses[row], (x_cls, t_cls), misses)


def _safe_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.where(den > 0, num / np.maximum(den, 1), 0.0)
