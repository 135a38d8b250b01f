"""Typed artifact nodes of the experiment DAG.

Every expensive quantity behind the paper's 17 tables/figures is an
*artifact*: the suite traces, each trace's profile, each trace's
PAs/GAs sweep contribution, the aggregated sweep grids, the
misclassification report and every rendered table/figure.  An
:class:`ArtifactNode` declares

* a **key** — the node's stable, human-readable identity within the
  DAG (``"traces"``, ``"profile:gcc/expr.i"``, ``"sweep"``,
  ``"render:fig5"``);
* its **deps** — the keys of the upstream artifacts it consumes;
* its **params** — the JSON-serializable slice of the
  :class:`PipelineConfig` that changes its value; and
* codecs (:meth:`~ArtifactNode.encode` / :meth:`~ArtifactNode.decode`)
  mapping its value to numpy arrays + JSON metadata for the
  content-addressed :class:`~repro.pipeline.store.ArtifactStore`.

The **content address** of a node is ``sha256`` over the canonical JSON
of ``{version, kind, params, dep addresses}`` — a producing-spec hash
chained through upstream hashes, so changing the trace scale re-keys
every downstream artifact while changing only the history sweep leaves
the trace and profile artifacts warm.  The simulation ``engine`` is
deliberately *excluded* from the address: ``auto`` and ``reference``
are bit-exact (see ``docs/ENGINES.md``), so an artifact computed on
either satisfies both.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Any, ClassVar

import numpy as np

from ..analysis.history_sweep import (
    ClassMissGrid,
    SweepConfig,
    SweepResult,
    TraceSweep,
    accumulate_sweep,
    sweep_trace,
    sweep_workload,
)
from ..analysis.misclassification import MisclassificationReport, misclassification_report
from ..classify.profile import ProfileTable
from ..errors import ConfigurationError, PipelineError
from ..predictors.paper_configs import HISTORY_LENGTHS
from ..session import ENGINES, Session
from ..trace.filters import merge_suite
from ..trace.stats import TraceStats
from ..trace.stream import Trace
from ..workload_spec import SuiteSpec, WorkloadSpec, spec95_suite

__all__ = [
    "STORE_VERSION",
    "PipelineConfig",
    "ArtifactNode",
    "WorkloadNode",
    "ProfileNode",
    "StreamedProfileNode",
    "MergedProfileNode",
    "TraceSweepNode",
    "StreamedTraceSweepNode",
    "SweepNode",
    "MisclassificationNode",
    "RenderNode",
    "ArtifactView",
    "node_digest",
]

#: Bumped when any codec or node semantics change incompatibly; part of
#: every content address, so old store objects simply stop matching.
#: Version 2: the trace root became the workload-spec-addressed
#: :class:`WorkloadNode` (was the spec95-only ``SuiteTracesNode``).
#: Not bumped when :class:`WorkloadNode` stored its traces as a branch
#: dictionary (``branches_<i>``/``ids_<i>``/``taken_<i>``, was
#: ``pcs_<i>``/``outcomes_<i>``): the values are the same, so every
#: downstream address stays valid, and an object in the old layout
#: fails to decode, reads as a miss and is rewritten when a run needs it.
STORE_VERSION = 2

_GRID_FIELDS = (
    "taken_executions",
    "taken_misses",
    "transition_executions",
    "transition_misses",
    "joint_executions",
    "joint_misses",
)


@dataclass(frozen=True)
class PipelineConfig:
    """The experiment-level configuration an artifact DAG is planned for.

    The workload universe is the ``suite``
    (:class:`~repro.workload_spec.SuiteSpec`); ``inputs``/``scale``
    survive as sugar for the default calibrated spec95 suite — when
    ``suite`` is ``None`` it is built as
    ``spec95_suite(inputs, scale)``, so the historical constructor
    keeps working unchanged.  The suite's content key and
    ``history_lengths`` participate in content addresses (they change
    artifact values); ``engine`` (one of
    :data:`~repro.session.ENGINES`) does not: ``auto`` and
    ``reference`` are bit-exact, so it only selects *how* sweep
    artifacts are computed.
    """

    inputs: str = "primary"
    scale: float = 1.0
    history_lengths: tuple[int, ...] = tuple(HISTORY_LENGTHS)
    engine: str = "auto"
    predictor_kinds: tuple[str, ...] = ("pas", "gas")
    suite: SuiteSpec | None = None

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")
        if self.inputs not in ("primary", "all"):
            raise ConfigurationError(
                f"inputs must be 'primary' or 'all', got {self.inputs!r}"
            )
        if not self.history_lengths:
            raise ConfigurationError("history_lengths must be non-empty")
        if self.engine not in ENGINES:
            raise ConfigurationError(f"engine {self.engine!r} not in {ENGINES}")
        if self.suite is None:
            object.__setattr__(self, "suite", spec95_suite(self.inputs, self.scale))
        elif not isinstance(self.suite, SuiteSpec):
            raise ConfigurationError(
                f"suite must be a SuiteSpec, got {type(self.suite).__name__}"
            )
        object.__setattr__(self, "history_lengths", tuple(self.history_lengths))
        object.__setattr__(self, "predictor_kinds", tuple(self.predictor_kinds))

    def sweep_config(self) -> SweepConfig:
        """The analysis-layer sweep configuration this plan simulates."""
        return SweepConfig(
            history_lengths=self.history_lengths,
            predictor_kinds=self.predictor_kinds,
            engine=self.engine,
        )


def node_digest(node: "ArtifactNode", config: PipelineConfig, dep_digests: list[str]) -> str:
    """Content address: producing-spec hash chained through upstream hashes."""
    payload = {
        "v": STORE_VERSION,
        "kind": node.kind,
        "params": node.params(config),
        "deps": dep_digests,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ArtifactNode:
    """One node of the experiment DAG (subclasses define the node types)."""

    key: str
    deps: tuple[str, ...] = ()

    #: Node-type tag; part of the content address and the manifest.
    kind: ClassVar[str] = ""

    def params(self, config: PipelineConfig) -> dict[str, Any]:
        """The JSON-able slice of the config that changes this value."""
        return {}

    def compute(self, config: PipelineConfig, deps: Mapping[str, Any]) -> Any:
        """Produce the value from upstream values (keyed by dep key)."""
        raise NotImplementedError

    def compute_guarded(
        self, config: PipelineConfig, deps: Mapping[str, Any], fault_token: str = ""
    ) -> Any:
        """:meth:`compute` with the chaos hooks armed.

        The executor routes every attempt through here; ``fault_token``
        names the attempt (``"<key>#a<n>"``) so an active
        :class:`~repro.faults.FaultPlan` can deterministically delay the
        node or crash the computing process at this exact site.  With no
        active plan both hooks are no-ops and this *is* ``compute``.
        """
        from .. import faults  # local import: keep the hot path lazy

        faults.inject("delay", fault_token)
        faults.inject("crash", fault_token)
        return self.compute(config, deps)

    def narrow(self, deps: dict[str, Any]) -> dict[str, Any]:
        """Trim dep values to what :meth:`compute` consumes.

        The executor applies this before shipping values to worker
        processes, so per-trace nodes serialize one trace instead of
        the whole suite.  The default keeps everything.
        """
        return deps

    def encode(self, value: Any) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Split the value into numpy arrays + JSON-able metadata."""
        raise NotImplementedError

    def decode(self, arrays: Mapping[str, np.ndarray], meta: dict[str, Any]) -> Any:
        """Rebuild the value from :meth:`encode`'s output."""
        raise NotImplementedError


@dataclass(frozen=True)
class WorkloadNode(ArtifactNode):
    """The suite's materialized traces (the root of every other artifact).

    Addressed by the suite spec's
    :meth:`~repro.workload_spec.WorkloadSpec.content_key` — *any*
    workload universe (spec95, VM kernels, trace files, custom JSON
    suites) flows through this one generic node, and two configurations
    describing the same workload content share the same stored traces.
    """

    kind: ClassVar[str] = "workload-traces"

    def params(self, config: PipelineConfig) -> dict[str, Any]:
        assert config.suite is not None
        return {"workload": config.suite.content_key()}

    def compute(self, config: PipelineConfig, deps: Mapping[str, Any]) -> list[Trace]:
        assert config.suite is not None
        return config.suite.traces()

    def encode(self, value: list[Trace]) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        # A trace holds few distinct branches, so each is stored as its
        # branch dictionary (sorted distinct PCs, one id per record in
        # the narrowest unsigned dtype) and the outcomes packed eight
        # to a byte.
        arrays: dict[str, np.ndarray] = {}
        for i, trace in enumerate(value):
            arrays[f"branches_{i}"], arrays[f"ids_{i}"] = trace.dictionary()
            arrays[f"taken_{i}"] = np.packbits(trace.outcomes)
        meta = {"names": [trace.name for trace in value], "records": [len(t) for t in value]}
        return arrays, meta

    def decode(self, arrays: Mapping[str, np.ndarray], meta: dict[str, Any]) -> list[Trace]:
        names, records = meta["names"], meta["records"]
        if len(names) != len(records):
            raise PipelineError("workload-traces: names and record counts disagree")
        traces = []
        for i, (name, count) in enumerate(zip(names, records)):
            branches, ids, taken = (arrays[f"{a}_{i}"] for a in ("branches", "ids", "taken"))
            # np.unpackbits(count=) pads a short array with zeros, so
            # every length is checked here.
            if (
                ids.dtype.kind != "u"
                or len(ids) != count
                or (count and int(ids.max()) >= len(branches))
                or len(taken) != -(-count // 8)
            ):
                raise PipelineError(f"workload-traces: trace {i} ({name!r}) is inconsistent")
            outcomes = np.unpackbits(taken, count=count)
            traces.append(Trace.from_dictionary(branches, ids, outcomes, name=name))
        return traces


def _trace_by_name(traces: list[Trace], name: str) -> Trace:
    for trace in traces:
        if trace.name == name:
            return trace
    raise PipelineError(f"suite traces artifact has no trace named {name!r}")


def _narrow_to_trace(node, deps: dict[str, Any]) -> dict[str, Any]:
    """Per-trace nodes consume exactly one trace of the suite artifact."""
    return {"traces": [_trace_by_name(deps["traces"], node.trace_name)]}


class _ProfileCodec:
    """Shared ProfileTable codec: persist the integer counts, re-derive
    rates/classes on load (classification is deterministic)."""

    @staticmethod
    def encode(value: ProfileTable) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        stats = value.stats
        arrays = {
            "pcs": stats.pcs,
            "executions": stats.executions,
            "taken": stats.taken,
            "transitions": stats.transitions,
        }
        return arrays, {"name": stats.name}

    @staticmethod
    def decode(arrays: Mapping[str, np.ndarray], meta: dict[str, Any]) -> ProfileTable:
        stats = TraceStats(
            arrays["pcs"],
            arrays["executions"],
            arrays["taken"],
            arrays["transitions"],
            name=meta["name"],
        )
        return ProfileTable(stats)


@dataclass(frozen=True)
class ProfileNode(ArtifactNode):
    """Per-branch taken/transition classification of one suite trace."""

    trace_name: str = ""

    kind: ClassVar[str] = "trace-profile"

    def params(self, config: PipelineConfig) -> dict[str, Any]:
        return {"trace": self.trace_name}

    def compute(self, config: PipelineConfig, deps: Mapping[str, Any]) -> ProfileTable:
        return ProfileTable.from_trace(_trace_by_name(deps["traces"], self.trace_name))

    def narrow(self, deps: dict[str, Any]) -> dict[str, Any]:
        return _narrow_to_trace(self, deps)

    encode = staticmethod(_ProfileCodec.encode)
    decode = staticmethod(_ProfileCodec.decode)


@dataclass(frozen=True)
class StreamedProfileNode(ProfileNode):
    """Per-branch classification of an out-of-core suite member.

    Used instead of :class:`ProfileNode` when the member workload
    reports a stream source (a large binary trace file): the profile is
    accumulated chunk-at-a-time directly from the file, so the node has
    *no* dependency on the materialized suite-traces artifact and ships
    nothing to worker processes.  Addressed by the member's workload
    content key (the file's bytes) instead of the traces dep digest.
    """

    member: WorkloadSpec | None = None

    def params(self, config: PipelineConfig) -> dict[str, Any]:
        assert self.member is not None
        return {"trace": self.trace_name, "workload": self.member.content_key()}

    def compute(self, config: PipelineConfig, deps: Mapping[str, Any]) -> ProfileTable:
        assert self.member is not None
        source = self.member.stream_source()
        if source is None:  # fell below the threshold since planning
            return ProfileTable.from_trace(self.member.materialize())
        with source:
            return ProfileTable.from_chunks(iter(source), name=self.member.label)

    def narrow(self, deps: dict[str, Any]) -> dict[str, Any]:
        return {}


@dataclass(frozen=True)
class MergedProfileNode(ArtifactNode):
    """Whole-suite profile over disjoint PC spaces (paper's aggregate view)."""

    kind: ClassVar[str] = "suite-profile"

    def compute(self, config: PipelineConfig, deps: Mapping[str, Any]) -> ProfileTable:
        return ProfileTable.from_trace(merge_suite(deps["traces"], name="suite"))

    encode = staticmethod(_ProfileCodec.encode)
    decode = staticmethod(_ProfileCodec.decode)


@dataclass(frozen=True)
class TraceSweepNode(ArtifactNode):
    """One trace's PAs/GAs class-miss contribution to the suite sweep.

    These are the wide, independent nodes of the DAG — the executor
    fans them out across worker processes under ``--jobs N``.
    """

    trace_name: str = ""

    kind: ClassVar[str] = "trace-sweep"

    def params(self, config: PipelineConfig) -> dict[str, Any]:
        return {
            "trace": self.trace_name,
            "history_lengths": list(config.history_lengths),
            "predictor_kinds": list(config.predictor_kinds),
        }

    def compute(self, config: PipelineConfig, deps: Mapping[str, Any]) -> TraceSweep:
        trace = _trace_by_name(deps["traces"], self.trace_name)
        return sweep_trace(trace, config.sweep_config())

    def narrow(self, deps: dict[str, Any]) -> dict[str, Any]:
        return _narrow_to_trace(self, deps)

    def encode(self, value: TraceSweep) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        arrays: dict[str, np.ndarray] = {
            "taken_counts": value.taken_counts,
            "transition_counts": value.transition_counts,
            "joint_counts": value.joint_counts,
        }
        for kind, grid in value.grids.items():
            for name in _GRID_FIELDS:
                arrays[f"{kind}_{name}"] = getattr(grid, name)
        meta = {
            "trace_name": value.trace_name,
            "kinds": sorted(value.grids),
            "history_lengths": [int(k) for k in _grid_histories(value.grids)],
            "total_dynamic": value.total_dynamic,
        }
        return arrays, meta

    def decode(self, arrays: Mapping[str, np.ndarray], meta: dict[str, Any]) -> TraceSweep:
        histories = tuple(meta["history_lengths"])
        return TraceSweep(
            trace_name=meta["trace_name"],
            grids={
                kind: _decode_grid(arrays, kind, histories) for kind in meta["kinds"]
            },
            taken_counts=np.array(arrays["taken_counts"]),
            transition_counts=np.array(arrays["transition_counts"]),
            joint_counts=np.array(arrays["joint_counts"]),
            total_dynamic=int(meta["total_dynamic"]),
        )


@dataclass(frozen=True)
class StreamedTraceSweepNode(TraceSweepNode):
    """One out-of-core member's sweep contribution.

    The streaming sibling of :class:`TraceSweepNode`: the member's
    chunks flow straight from its file through the chunked batched
    engine (:func:`~repro.analysis.history_sweep.sweep_workload`), so
    peak memory is O(chunk) and the node depends on nothing upstream.
    Bit-identical to the materialized node's value.
    """

    member: WorkloadSpec | None = None

    def params(self, config: PipelineConfig) -> dict[str, Any]:
        assert self.member is not None
        params = super().params(config)
        params["workload"] = self.member.content_key()
        return params

    def compute(self, config: PipelineConfig, deps: Mapping[str, Any]) -> TraceSweep:
        assert self.member is not None
        return sweep_workload(self.member, config.sweep_config())

    def narrow(self, deps: dict[str, Any]) -> dict[str, Any]:
        return {}


@dataclass(frozen=True)
class SweepNode(ArtifactNode):
    """The suite-level sweep: per-trace parts accumulated in suite order."""

    kind: ClassVar[str] = "sweep-grids"

    def params(self, config: PipelineConfig) -> dict[str, Any]:
        return {
            "history_lengths": list(config.history_lengths),
            "predictor_kinds": list(config.predictor_kinds),
        }

    def compute(self, config: PipelineConfig, deps: Mapping[str, Any]) -> SweepResult:
        # Accumulation follows self.deps (suite order), independent of
        # the order workers finished in — `--jobs N` stays bit-exact.
        parts = [deps[key] for key in self.deps]
        return accumulate_sweep(parts, config.sweep_config())

    def encode(self, value: SweepResult) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        arrays: dict[str, np.ndarray] = {
            "taken_distribution": value.taken_distribution,
            "transition_distribution": value.transition_distribution,
            "joint_distribution": value.joint_distribution,
        }
        for kind, grid in value.grids.items():
            for name in _GRID_FIELDS:
                arrays[f"{kind}_{name}"] = getattr(grid, name)
        meta = {
            "kinds": sorted(value.grids),
            "history_lengths": [int(k) for k in value.config.history_lengths],
            "total_dynamic": value.total_dynamic,
        }
        return arrays, meta

    def decode(self, arrays: Mapping[str, np.ndarray], meta: dict[str, Any]) -> SweepResult:
        histories = tuple(meta["history_lengths"])
        return SweepResult(
            config=SweepConfig(
                history_lengths=histories,
                predictor_kinds=tuple(meta["kinds"]),
            ),
            grids={
                kind: _decode_grid(arrays, kind, histories) for kind in meta["kinds"]
            },
            taken_distribution=np.array(arrays["taken_distribution"]),
            transition_distribution=np.array(arrays["transition_distribution"]),
            joint_distribution=np.array(arrays["joint_distribution"]),
            total_dynamic=int(meta["total_dynamic"]),
        )


@dataclass(frozen=True)
class MisclassificationNode(ArtifactNode):
    """The §4.2 headline numbers, derived from the sweep distributions."""

    kind: ClassVar[str] = "misclassification"

    def compute(
        self, config: PipelineConfig, deps: Mapping[str, Any]
    ) -> MisclassificationReport:
        sweep: SweepResult = deps["sweep"]
        return misclassification_report(
            sweep.taken_distribution, sweep.transition_distribution
        )

    def encode(
        self, value: MisclassificationReport
    ) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        return {}, {
            "taken_identified": value.taken_identified,
            "gas_transition_identified": value.gas_transition_identified,
            "pas_transition_identified": value.pas_transition_identified,
        }

    def decode(
        self, arrays: Mapping[str, np.ndarray], meta: dict[str, Any]
    ) -> MisclassificationReport:
        return MisclassificationReport(
            taken_identified=meta["taken_identified"],
            gas_transition_identified=meta["gas_transition_identified"],
            pas_transition_identified=meta["pas_transition_identified"],
        )


def _runner_fingerprint(runner) -> str:
    """Digest of a runner's bytecode, chased through the ``repro``
    functions it references.

    Render artifacts must invalidate when their *code* changes, not
    just their inputs — a format tweak in ``run_fig5`` or in
    ``ascii_colormap`` must not serve the stale pre-edit rendering from
    a warm store.  The digest covers ``co_code``/``co_consts`` of the
    runner, transitively of every same-package function it names, and
    the repr of module-level data constants those functions reference
    (``LINEPLOT_CLASSES``-style tables).  The approximation errs toward
    spurious recomputes; the known residual gap is edits *inside*
    referenced classes — those (like semantic changes to the
    data-producing nodes, which are deliberately not fingerprinted
    because their values are pinned by the bit-exactness contract)
    warrant a :data:`STORE_VERSION` bump.
    """
    import types

    digest = hashlib.sha256()
    seen: set[int] = set()

    def visit_code(code: types.CodeType) -> None:
        if id(code) in seen:
            return
        seen.add(id(code))
        digest.update(code.co_code)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit_code(const)
            else:
                digest.update(repr(const).encode("utf-8", "replace"))

    _DATA = (tuple, list, dict, str, bytes, int, float, complex, bool, type(None))

    def visit_function(fn) -> None:
        if id(fn) in seen:
            return
        seen.add(id(fn))
        visit_code(fn.__code__)
        for name in fn.__code__.co_names:
            ref = fn.__globals__.get(name)
            if isinstance(ref, types.FunctionType) and (
                ref.__module__ or ""
            ).startswith("repro"):
                visit_function(ref)
            elif isinstance(ref, _DATA):
                digest.update(f"{name}={ref!r}".encode("utf-8", "replace"))
            elif isinstance(ref, (set, frozenset)):
                ordered = sorted(ref, key=repr)  # stable across processes
                digest.update(f"{name}={ordered!r}".encode("utf-8", "replace"))

    if isinstance(runner, types.FunctionType):
        visit_function(runner)
    else:  # pragma: no cover - exotic callables key on identity only
        digest.update(repr(runner).encode("utf-8", "replace"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class RenderNode(ArtifactNode):
    """A rendered paper table/figure (the DAG's leaves)."""

    experiment_id: str = ""

    kind: ClassVar[str] = "experiment-render"

    def params(self, config: PipelineConfig) -> dict[str, Any]:
        from ..experiments.registry import get_experiment  # lazy: avoid cycle

        # Scale keys renders with no upstream artifacts (table1 prints
        # scaled lengths directly); for the rest it is redundant with
        # the dep digests but harmless.  The code fingerprint re-keys
        # the render whenever its rendering code changes.
        return {
            "experiment": self.experiment_id,
            "scale": config.scale,
            "code": _runner_fingerprint(get_experiment(self.experiment_id).runner),
        }

    def compute(self, config: PipelineConfig, deps: Mapping[str, Any]):
        from ..experiments.registry import get_experiment  # lazy: avoid cycle

        experiment = get_experiment(self.experiment_id)
        result = experiment.runner(ArtifactView(config, deps))
        if result.experiment_id != self.experiment_id:
            raise PipelineError(
                f"runner for {self.experiment_id} returned result for "
                f"{result.experiment_id}"
            )
        # Normalize ``data`` through JSON immediately, so a cold compute
        # and a warm store load hand consumers identically-typed values
        # (tuples->lists, numpy scalars->floats) — and unencodable data
        # fails here, inside fault isolation, not at store time.
        return replace(
            result,
            # Round-trip normalization, not persistence: the text is
            # parsed straight back, so key order can never be observed.
            data=json.loads(json.dumps(result.data)),  # repro: noqa[D104]
        )

    def encode(self, value) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        return {}, {
            "experiment_id": value.experiment_id,
            "title": value.title,
            "rendered": value.rendered,
            "data": value.data,
            "paper_note": value.paper_note,
        }

    def decode(self, arrays: Mapping[str, np.ndarray], meta: dict[str, Any]):
        from ..experiments.base import ExperimentResult  # lazy: avoid cycle

        return ExperimentResult(
            experiment_id=meta["experiment_id"],
            title=meta["title"],
            rendered=meta["rendered"],
            data=meta["data"],
            paper_note=meta["paper_note"],
        )


class ArtifactView:
    """The inputs an experiment runner declared, presented context-style.

    Runners receive one of these (or a full
    :class:`~repro.experiments.context.ExperimentContext`, which exposes
    the same attributes); accessing an artifact the experiment did not
    declare via ``@artifact_inputs`` raises :class:`PipelineError`
    instead of silently computing it.
    """

    def __init__(self, config: PipelineConfig, values: Mapping[str, Any]) -> None:
        self._values = dict(values)
        self.inputs = config.inputs
        self.scale = config.scale
        self.suite = config.suite
        self.history_lengths = config.history_lengths
        self.engine = config.engine

    def _require(self, key: str, role: str) -> Any:
        try:
            return self._values[key]
        except KeyError:
            raise PipelineError(
                f"experiment runner used artifact {role!r} without declaring "
                "it in @artifact_inputs"
            ) from None

    @property
    def traces(self) -> list[Trace]:
        return self._require("traces", "traces")

    @property
    def profiles(self) -> dict[str, ProfileTable]:
        profiles = {
            key.split(":", 1)[1]: value
            for key, value in self._values.items()
            if key.startswith("profile:") and key != "profile:suite"
        }
        if not profiles:
            raise PipelineError(
                "experiment runner used artifact 'profiles' without declaring "
                "it in @artifact_inputs"
            )
        return profiles

    @property
    def merged_profile(self) -> ProfileTable:
        return self._require("profile:suite", "merged_profile")

    @property
    def sweep(self) -> SweepResult:
        return self._require("sweep", "sweep")

    def misclassification(self):
        """The §4.2 report artifact (role ``misclassification``)."""
        return self._require("misclassification", "misclassification")

    def session(self) -> Session:
        """A fresh :class:`Session` on the plan's engine (ad-hoc jobs)."""
        return Session(engine=self.engine)


def _grid_histories(grids: dict[str, ClassMissGrid]) -> tuple[int, ...]:
    for grid in grids.values():
        return tuple(grid.history_lengths)
    return ()


def _decode_grid(
    arrays: Mapping[str, np.ndarray], kind: str, histories: tuple[int, ...]
) -> ClassMissGrid:
    return ClassMissGrid(
        history_lengths=histories,
        **{name: np.array(arrays[f"{kind}_{name}"]) for name in _GRID_FIELDS},
    )
