"""Declarative workload specifications.

A :class:`WorkloadSpec` is a frozen, hashable, JSON-round-trippable
description of a trace *source* — *where branch outcomes come from*,
with no trace data attached.  It is the third leg of the declarative
API: :mod:`repro.spec` describes predictors, :mod:`repro.pipeline`
describes experiment artifacts, and this module describes workloads.
Every trace source in the library has a spec class:

* :class:`Spec95InputSpec` — one calibrated synthetic SPECint95
  benchmark/input pair (Table 1), at a chosen scale;
* :class:`PopulationSpec` — a raw model-mix population over the
  :class:`~repro.workloads.synthetic.models.BranchModel` zoo, one
  :class:`PopulationBranch` per static branch;
* :class:`KernelSpec` — a real program executed by the mini-ISA VM
  (:func:`~repro.workloads.programs.kernels.run_kernel`), with output
  verification anchoring trace validity;
* :class:`TraceFileSpec` — an on-disk binary/text trace file,
  content-fingerprinted so the spec's key tracks the file's *bytes*;
* composers :class:`ConcatSpec` / :class:`FilterSpec` wrapping
  :mod:`repro.trace.filters`, and :class:`SuiteSpec` — a named,
  ordered collection of uniquely-labelled member workloads (what the
  experiment pipeline plans over).

Every spec provides

* :meth:`~WorkloadSpec.materialize` — generate/load/execute the
  actual :class:`~repro.trace.stream.Trace` (always named
  :attr:`~WorkloadSpec.label`);
* :meth:`~WorkloadSpec.to_dict` / :meth:`~WorkloadSpec.from_dict` —
  JSON round-trip through the kind-keyed registry :data:`WORKLOADS`
  (the serde, field coercion and registry live in
  :mod:`repro.specbase`, shared with the predictor specs);
* :meth:`~WorkloadSpec.content_key` — a stable sha256 address of the
  *workload content*: equal keys mean bit-identical materialized
  traces (generators are seeded; files are fingerprinted by bytes),
  which is what lets :class:`repro.session.Session` and the pipeline's
  ``WorkloadNode`` cache by value rather than by object identity.

See ``docs/WORKLOADS.md`` for the JSON schema and a custom-suite
walkthrough.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import os
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ClassVar

from .errors import ConfigurationError, TraceError
from .specbase import (
    Probability,
    Registry,
    Spec,
    canonical_digest,
    coerce_float,
    coerce_int,
    coerce_probability,
    coerce_specs,
    coerce_tuple,
    require_min,
)
from .trace import filters
from .trace.stream import Trace, concat as concat_traces

__all__ = [
    "WORKLOAD_KEY_VERSION",
    "WORKLOADS",
    "MODELS",
    "WorkloadSpec",
    "Spec95InputSpec",
    "PopulationSpec",
    "PopulationBranch",
    "KernelSpec",
    "GenKernelSpec",
    "TraceFileSpec",
    "PerfLbrSpec",
    "ConcatSpec",
    "FilterSpec",
    "SuiteSpec",
    "ModelSpec",
    "BiasModelSpec",
    "PatternModelSpec",
    "LoopModelSpec",
    "AlternatingModelSpec",
    "MarkovModelSpec",
    "PhasedModelSpec",
    "trace_fingerprint",
    "file_fingerprint",
    "stream_threshold",
    "DEFAULT_STREAM_THRESHOLD",
    "NAMED_SUITES",
    "spec95_suite",
    "kernel_suite",
    "adversarial_suite",
    "named_suite",
    "resolve_workload",
    "load_suite",
]

#: Bumped when key semantics change incompatibly; part of every
#: content key, so old cache addresses simply stop matching.
WORKLOAD_KEY_VERSION = 1

#: Default :func:`stream_threshold`: trace files at or above this many
#: bytes are simulated out-of-core instead of materialized.
DEFAULT_STREAM_THRESHOLD = 64 * 1024 * 1024


def stream_threshold() -> int:
    """The out-of-core size threshold in bytes.

    Binary trace-file workloads whose file is at least this large are
    *streamed* (chunk-at-a-time, peak memory O(chunk)) by the session,
    the sweep and the pipeline instead of being materialized.
    Controlled by the ``REPRO_STREAM_THRESHOLD`` environment variable
    (bytes; ``0`` streams every binary trace file); defaults to
    :data:`DEFAULT_STREAM_THRESHOLD` (64 MiB).
    """
    raw = os.environ.get("REPRO_STREAM_THRESHOLD")
    if raw is None:
        return DEFAULT_STREAM_THRESHOLD
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_STREAM_THRESHOLD must be an integer byte count, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(
            f"REPRO_STREAM_THRESHOLD must be non-negative, got {value}"
        )
    return value


#: Branch-model and workload kinds: one namespace, because a nested
#: dict decodes by kind across both (a population branch's model, a
#: composer's members).
MODELS = Registry("model")
WORKLOADS = Registry("workload", shares=MODELS)
#: The workload kinds under their older private name, which
#: ``perfbench``'s tracer iterates to wrap each ``materialize``.
_REGISTRY = WORKLOADS


def trace_fingerprint(trace: Trace) -> str:
    """Stable content fingerprint of an in-memory trace.

    Covers the name and both data columns, so two separately
    materialized but bit-identical traces fingerprint equal — the
    fallback identity :class:`repro.session.Session` dedupes plain
    :class:`Trace` submissions by.
    """
    digest = hashlib.sha256()
    digest.update(trace.name.encode("utf-8", "replace"))
    digest.update(b"\x00")
    digest.update(trace.pcs.tobytes())
    digest.update(trace.outcomes.tobytes())
    return digest.hexdigest()


#: (resolved path, mtime_ns, size) -> sha256, so repeated key/plan
#: computations over an unpinned file re-read it only when it changes.
_FILE_FINGERPRINTS: dict[tuple[str, int, int], str] = {}


def file_fingerprint(path: str | Path) -> str:
    """sha256 of a file's bytes (the :class:`TraceFileSpec` key input).

    Cached per (path, mtime, size), so planning and session submission
    do not stream a large trace file once per ``content_key()`` call.
    """
    try:
        stat = os.stat(path)
        cache_key = (os.fspath(path), stat.st_mtime_ns, stat.st_size)
        cached = _FILE_FINGERPRINTS.get(cache_key)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        with open(path, "rb") as fp:
            for chunk in iter(lambda: fp.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise ConfigurationError(f"cannot fingerprint trace file {path!r}: {exc}") from None
    _FILE_FINGERPRINTS[cache_key] = digest.hexdigest()
    return _FILE_FINGERPRINTS[cache_key]


def _key_encode(value: Any) -> Any:
    """A field value for :meth:`WorkloadSpec.content_key`: plain data,
    except that nested workload specs collapse to their content key, so a
    composer's key tracks member *content* (e.g. a member trace file's
    bytes), not just member field values."""
    if isinstance(value, WorkloadSpec):
        return {"workload": value.content_key()}
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_key_encode(v) for v in value]
    return value


# -- branch model specs -------------------------------------------------------


class ModelSpec(Spec):
    """Declarative form of one :class:`BranchModel` (a population's
    per-branch outcome process).  Model specs are pure data: their
    full field values participate in content keys directly."""

    __slots__ = ()

    registry: ClassVar[Registry] = MODELS

    def build(self):
        """Materialize the stateless :class:`BranchModel`."""
        raise NotImplementedError


@MODELS.register
@dataclass(frozen=True, slots=True)
class BiasModelSpec(ModelSpec):
    """I.i.d. coin flips with taken probability ``p``."""

    kind: ClassVar[str] = "bias"

    p: Probability = 0.5

    def build(self):
        from .workloads.synthetic.models import BiasedModel

        return BiasedModel(self.p)


@MODELS.register
@dataclass(frozen=True, slots=True)
class PatternModelSpec(ModelSpec):
    """A fixed repeating 0/1 pattern (learnable by two-level predictors)."""

    kind: ClassVar[str] = "pattern"

    pattern: tuple[int, ...] = (1, 0)
    random_phase: bool = True

    def _validate(self) -> None:
        pattern = tuple(
            coerce_int(v, "pattern entry") for v in coerce_tuple(self.pattern, "pattern")
        )
        if any(v not in (0, 1) for v in pattern):
            raise ConfigurationError("pattern entries must be 0 or 1")
        object.__setattr__(self, "pattern", pattern)

    def build(self):
        from .workloads.synthetic.models import PatternModel

        return PatternModel(list(self.pattern), random_phase=self.random_phase)


@MODELS.register
@dataclass(frozen=True, slots=True)
class LoopModelSpec(ModelSpec):
    """A loop back-edge: taken ``body - 1`` times, then not-taken once."""

    kind: ClassVar[str] = "loop"

    body: int = 10
    random_phase: bool = True

    def _validate(self) -> None:
        require_min(self, 2, "body")

    def build(self):
        from .workloads.synthetic.models import LoopModel

        return LoopModel(self.body, random_phase=self.random_phase)


@MODELS.register
@dataclass(frozen=True, slots=True)
class AlternatingModelSpec(ModelSpec):
    """Strict T/N alternation — the transition-class-10 extreme."""

    kind: ClassVar[str] = "alternating"

    def build(self):
        from .workloads.synthetic.models import AlternatingModel

        return AlternatingModel()


@MODELS.register
@dataclass(frozen=True, slots=True)
class MarkovModelSpec(ModelSpec):
    """Two-state Markov chain; ``from_rates`` solves for target
    stationary taken/transition rates."""

    kind: ClassVar[str] = "markov"

    p_tn: Probability = 0.5
    p_nt: Probability = 0.5

    def _validate(self) -> None:
        if self.p_tn == 0.0 and self.p_nt == 0.0:
            raise ConfigurationError("absorbing chain: p_tn and p_nt cannot both be 0")

    @classmethod
    def from_rates(cls, taken_rate: float, transition_rate: float) -> "MarkovModelSpec":
        from .workloads.synthetic.models import MarkovModel

        model = MarkovModel.for_rates(taken_rate, transition_rate)
        return cls(p_tn=model.p_tn, p_nt=model.p_nt)

    def build(self):
        from .workloads.synthetic.models import MarkovModel

        return MarkovModel(self.p_tn, self.p_nt)


@MODELS.register
@dataclass(frozen=True, slots=True)
class PhasedModelSpec(ModelSpec):
    """Concatenated phases of other models (phase-changing branches)."""

    kind: ClassVar[str] = "phased"

    phases: tuple[tuple[ModelSpec, float], ...] = ()

    def _validate(self) -> None:
        normalized = []
        for entry in coerce_tuple(self.phases, "phases"):
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and isinstance(entry[0], ModelSpec)
            ):
                raise ConfigurationError("phases must pair a ModelSpec with a weight")
            weight = coerce_float(entry[1], "phase weight")
            if weight < 0:
                raise ConfigurationError(f"phase weights must be non-negative, got {weight}")
            normalized.append((entry[0], weight))
        if not sum(weight for _, weight in normalized) > 0:
            raise ConfigurationError("phased model needs a phase of positive weight")
        object.__setattr__(self, "phases", tuple(normalized))

    def build(self):
        from .workloads.synthetic.models import PhasedModel

        return PhasedModel([(m.build(), w) for m, w in self.phases])


# -- workload spec base -------------------------------------------------------


class WorkloadSpec(Spec):
    """Base class for declarative trace sources.

    Subclasses are frozen dataclasses registered under a unique
    :attr:`kind` string.  Two specs are equal (and hash equal) iff
    they have the same kind and field values; two specs with the same
    :meth:`content_key` materialize bit-identical traces.
    """

    __slots__ = ()

    registry: ClassVar[Registry] = WORKLOADS

    # -- identity -----------------------------------------------------------

    @property
    def label(self) -> str:
        """The materialized trace's name (stable, no generation needed)."""
        raise NotImplementedError

    def content_key(self) -> str:
        """Stable content address of the workload.

        sha256 over the canonical JSON of ``{version, kind, fields}``
        with nested workloads collapsed to *their* content keys.
        Subclasses whose trace depends on state outside their fields
        (e.g. file bytes) extend :meth:`_key_fields`.
        """
        return canonical_digest(
            {"v": WORKLOAD_KEY_VERSION, "kind": self.kind, "fields": self._key_fields()}
        )

    def _key_fields(self) -> dict[str, Any]:
        return {
            f.name: _key_encode(getattr(self, f.name))
            for f in dataclasses.fields(self)  # type: ignore[arg-type]
        }

    # -- materialization ----------------------------------------------------

    def materialize(self) -> Trace:
        """Generate/load/execute the trace (named :attr:`label`)."""
        raise NotImplementedError

    # -- out-of-core streaming ----------------------------------------------

    def streams(self) -> bool:
        """True if this workload is simulated out-of-core (cheap probe;
        only large binary :class:`TraceFileSpec` workloads stream)."""
        return False

    def stream_source(self):
        """A fresh :class:`~repro.trace.io.TraceReader` over this
        workload's chunks, or ``None`` when it must be materialized.

        Non-``None`` exactly when :meth:`streams` is true.  Callers own
        the reader (close it, or iterate it repeatedly); the chunks are
        bit-identical to :meth:`materialize` split at chunk boundaries,
        but are named by the *file's* stored name — pass
        :attr:`label` explicitly where the trace name matters.
        """
        return None


# -- spec95 synthetic benchmarks ----------------------------------------------


@WORKLOADS.register
@dataclass(frozen=True, slots=True)
class Spec95InputSpec(WorkloadSpec):
    """One calibrated synthetic SPECint95 benchmark/input pair.

    ``benchmark``/``input_name`` must name a row of the paper's
    Table 1 (:data:`repro.workloads.synthetic.spec95.SPEC95_INPUTS`);
    ``scale`` multiplies the reduced-scale trace length exactly like
    the experiment pipeline's ``--scale``.
    """

    kind: ClassVar[str] = "spec95"

    benchmark: str = "gcc"
    input_name: str = "expr.i"
    scale: float = 1.0

    def _validate(self) -> None:
        self._input_set()  # validate the Table 1 row exists
        if not self.scale > 0:
            raise ConfigurationError("scale must be positive")

    def _input_set(self):
        from .workloads.synthetic.spec95 import SPEC95_INPUTS

        for input_set in SPEC95_INPUTS:
            if (
                input_set.benchmark == self.benchmark
                and input_set.input_name == self.input_name
            ):
                return input_set
        known = sorted({s.benchmark for s in SPEC95_INPUTS})
        raise ConfigurationError(
            f"unknown Table 1 input {self.benchmark}/{self.input_name}; "
            f"benchmarks: {known}"
        )

    @classmethod
    def of(cls, label: str, *, scale: float = 1.0) -> "Spec95InputSpec":
        """Spec from a ``"benchmark/input"`` label (e.g. ``"gcc/expr.i"``)."""
        benchmark, _, input_name = label.partition("/")
        if not input_name:
            raise ConfigurationError(
                f"spec95 label must look like 'benchmark/input', got {label!r}"
            )
        return cls(benchmark=benchmark, input_name=input_name, scale=scale)

    @property
    def label(self) -> str:
        return f"{self.benchmark}/{self.input_name}"

    def materialize(self) -> Trace:
        from .workloads.synthetic.spec95 import input_trace

        return input_trace(self._input_set(), scale=self.scale).with_name(self.label)


# -- raw model-mix populations ------------------------------------------------


@dataclass(frozen=True, slots=True)
class PopulationBranch(Spec):
    """One static branch of a :class:`PopulationSpec`: a PC, an outcome
    model, a schedule weight, and the optional hard/follower markers of
    :class:`~repro.workloads.synthetic.population.BranchSpec`.  A
    kind-less record: it serializes without a ``"kind"`` key."""

    #: Decodes the nested ``model`` dict by its kind.
    registry: ClassVar[Registry] = MODELS

    pc: int
    model: ModelSpec
    weight: int = 1
    hard: bool = False
    follows: int | None = None

    def _validate(self) -> None:
        if not isinstance(self.model, ModelSpec):
            raise ConfigurationError("branch model must be a ModelSpec")


@WORKLOADS.register
@dataclass(frozen=True, slots=True)
class PopulationSpec(WorkloadSpec):
    """A raw synthetic population: explicit branches over the model zoo.

    The declarative face of
    :class:`~repro.workloads.synthetic.population.BranchPopulation` —
    what :mod:`~repro.workloads.synthetic.spec95` builds internally,
    exposed so custom populations are first-class workloads.
    """

    kind: ClassVar[str] = "population"

    branches: tuple[PopulationBranch, ...] = ()
    length: int = 10_000
    seed: int = 0
    hard_adjacency: Probability = 0.0
    name: str = "population"

    def _validate(self) -> None:
        branches = tuple(
            PopulationBranch.from_dict(b) if isinstance(b, Mapping) else b
            for b in coerce_tuple(self.branches, "branches")
        )
        require_min(self, 0, "length", "seed")
        object.__setattr__(self, "branches", coerce_specs(branches, "branches", PopulationBranch))

    @property
    def label(self) -> str:
        return self.name

    def materialize(self) -> Trace:
        from .workloads.synthetic.population import BranchPopulation, BranchSpec

        population = BranchPopulation(
            [
                BranchSpec(
                    pc=b.pc,
                    model=b.model.build(),
                    weight=b.weight,
                    hard=b.hard,
                    follows=b.follows,
                )
                for b in self.branches
            ],
            seed=self.seed,
            hard_adjacency=self.hard_adjacency,
            name=self.name,
        )
        return population.generate(self.length, name=self.label)


# -- VM kernel programs -------------------------------------------------------


@WORKLOADS.register
@dataclass(frozen=True, slots=True)
class KernelSpec(WorkloadSpec):
    """A mini-ISA kernel executed to completion by the VM.

    The trace is *earned*: :func:`run_kernel` verifies the program's
    architectural output (sorts actually sort), so a kernel workload's
    branches come from a real algorithm, not a generator.
    """

    kind: ClassVar[str] = "kernel"

    name: str = "bubble_sort"
    size: int = 64
    seed: int = 0
    alias: str = ""

    def _validate(self) -> None:
        from .workloads.programs.kernels import KERNEL_NAMES

        if self.name not in KERNEL_NAMES:
            raise ConfigurationError(
                f"unknown kernel {self.name!r}; available: {KERNEL_NAMES}"
            )
        require_min(self, 1, "size")
        require_min(self, 0, "seed")

    @property
    def label(self) -> str:
        return self.alias or f"vm/{self.name}"

    def materialize(self) -> Trace:
        from .workloads.programs.kernels import run_kernel

        result = run_kernel(self.name, size=self.size, seed=self.seed)
        assert result.trace is not None
        return result.trace.with_name(self.label)


def _coerce_rates(value: Any, what: str) -> tuple[float, ...]:
    """A rate list field: a scalar becomes a one-element tuple, and every
    entry must be a probability."""
    rates = tuple(value) if isinstance(value, (list, tuple)) else (value,)
    if not rates:
        raise ConfigurationError(f"{what} must be a number or a non-empty list")
    return tuple(coerce_probability(v, what) for v in rates)


@WORKLOADS.register
@dataclass(frozen=True, slots=True)
class GenKernelSpec(WorkloadSpec):
    """A parametrically *generated* mini-ISA kernel.

    Declarative front end for
    :func:`repro.workloads.generator.generate_kernel`: branch topology
    (``branches`` × ``unroll`` sites, ``depth``-deep loop nest,
    ``pattern``/``align`` physical layout) and per-branch
    taken/transition-rate targets, deterministic in ``seed``.  The VM
    executes the program and verifies its architectural output, so the
    trace is earned the same way :class:`KernelSpec` traces are — but
    every site's transition-rate class is known *by construction*,
    which is what the ``adversarial`` suite leans on.
    """

    kind: ClassVar[str] = "gen-kernel"

    branches: int = 4
    iters: int = 256
    unroll: int = 1
    depth: int = 1
    pattern: str = "seq"
    align: int = 0
    taken_rates: tuple[float, ...] = (0.5,)
    transition_rates: tuple[float, ...] = (0.5,)
    seed: int = 0
    alias: str = ""

    def _validate(self) -> None:
        require_min(self, 0, "seed")
        object.__setattr__(self, "taken_rates", _coerce_rates(self.taken_rates, "taken_rates"))
        object.__setattr__(
            self, "transition_rates", _coerce_rates(self.transition_rates, "transition_rates")
        )
        # Validate topology eagerly (a bad spec should fail at
        # construction, not at materialize time); building the program
        # text for a handful of sites is cheap.
        self._kernel()

    def _kernel(self):
        from .workloads.generator import generate_kernel

        return generate_kernel(
            branches=self.branches,
            iters=self.iters,
            unroll=self.unroll,
            depth=self.depth,
            pattern=self.pattern,
            align=self.align,
            taken_rates=self.taken_rates,
            transition_rates=self.transition_rates,
            seed=self.seed,
        )

    @property
    def label(self) -> str:
        if self.alias:
            return self.alias
        return (
            f"gen/b{self.branches}x{self.unroll}d{self.depth}"
            f"-{self.pattern}-s{self.seed}"
        )

    def materialize(self) -> Trace:
        from .workloads.generator import run_generated

        result = run_generated(self._kernel(), name=self.label)
        assert result.trace is not None
        return result.trace.with_name(self.label)


# -- on-disk trace files ------------------------------------------------------


@WORKLOADS.register
@dataclass(frozen=True, slots=True)
class TraceFileSpec(WorkloadSpec):
    """A saved trace file (binary ``.rbt`` or text format).

    The content key fingerprints the file's *bytes* — editing the file
    re-keys every downstream artifact.  ``sha256`` may pin the
    expected fingerprint (:meth:`of` does); materialization then fails
    loudly if the file changed underneath the spec.
    """

    kind: ClassVar[str] = "trace-file"

    path: str = ""
    sha256: str = ""
    alias: str = ""

    def _validate(self) -> None:
        if not self.path:
            raise ConfigurationError("trace-file spec needs a path")

    @classmethod
    def of(cls, path: str | Path, *, alias: str = "") -> "TraceFileSpec":
        """Spec for ``path`` with the current file content pinned."""
        return cls(path=str(path), sha256=file_fingerprint(path), alias=alias)

    @property
    def label(self) -> str:
        return self.alias or Path(self.path).stem

    def _key_fields(self) -> dict[str, Any]:
        # The file's *content* is the workload; the path it happens to
        # live at is not (an unpinned spec fingerprints at key time).
        # The label IS part of the content — the materialized trace is
        # named by it, and results/artifacts key on trace names — so
        # same bytes under a different stem/alias stay distinct.
        return {
            "sha256": self.sha256 or file_fingerprint(self.path),
            "label": self.label,
        }

    def materialize(self) -> Trace:
        from .trace.io import load_trace

        self._check_pin()
        try:
            trace = load_trace(self.path)
        except OSError as exc:
            raise TraceError(f"cannot read trace file {self.path!r}: {exc}") from None
        return trace.with_name(self.label)

    def _check_pin(self) -> None:
        if self.sha256:
            actual = file_fingerprint(self.path)
            if actual != self.sha256:
                raise TraceError(
                    f"trace file {self.path} changed: fingerprint {actual[:12]} "
                    f"does not match pinned {self.sha256[:12]}"
                )

    def streams(self) -> bool:
        """True when the file is a binary trace at least
        :func:`stream_threshold` bytes large (text traces always
        materialize — they have no chunk structure to seek)."""
        from .trace.io import MAGIC

        try:
            if os.stat(self.path).st_size < stream_threshold():
                return False
            with open(self.path, "rb") as fp:
                return fp.read(4) == MAGIC
        except OSError:
            return False  # let materialize() raise the real error

    def stream_source(self):
        from .trace.io import TraceReader

        if not self.streams():
            return None
        self._check_pin()
        return TraceReader(self.path)


@WORKLOADS.register
@dataclass(frozen=True, slots=True)
class PerfLbrSpec(WorkloadSpec):
    """A real-hardware branch trace: ``perf script`` LBR output.

    Materializing parses the text dump through
    :mod:`repro.ingest.perf` and yields the per-PC taken/not-taken
    stream.  The content key fingerprints the *source bytes* plus the
    filter parameters (event/pid/cond_only) — same capture filtered
    differently is a different workload.  ``sha256`` may pin the
    expected source fingerprint (:meth:`of` does).

    This spec parses in memory; for multi-GB captures convert once with
    ``repro ingest perf`` and point a :class:`TraceFileSpec` at the
    resulting ``.rbt``, which streams out-of-core.
    """

    kind: ClassVar[str] = "perf-lbr"

    path: str = ""
    sha256: str = ""
    event: str = ""
    pid: int | None = None
    cond_only: bool = False
    alias: str = ""

    def _validate(self) -> None:
        if not self.path:
            raise ConfigurationError("perf-lbr spec needs a path")
        require_min(self, 0, "pid")

    @classmethod
    def of(cls, path: str | Path, **kwargs: Any) -> "PerfLbrSpec":
        """Spec for ``path`` with the current file content pinned."""
        return cls(path=str(path), sha256=file_fingerprint(path), **kwargs)

    @property
    def label(self) -> str:
        return self.alias or Path(self.path).stem

    def _key_fields(self) -> dict[str, Any]:
        # Source bytes + filters are the workload; the path is not.
        return {
            "sha256": self.sha256 or file_fingerprint(self.path),
            "event": self.event,
            "pid": self.pid,
            "cond_only": self.cond_only,
            "label": self.label,
        }

    def materialize(self) -> Trace:
        from .ingest.perf import parse_perf_trace

        trace, report = parse_perf_trace(
            self.path,
            event=self.event or None,
            pid=self.pid,
            cond_only=self.cond_only,
            name=self.label,
        )
        if self.sha256 and report.sha256 != self.sha256:
            raise TraceError(
                f"perf trace {self.path} changed: fingerprint "
                f"{report.sha256[:12]} does not match pinned {self.sha256[:12]}"
            )
        if not len(trace):
            raise TraceError(
                f"no branch records parsed from {self.path!r} "
                f"({report.summary()}); is this really `perf script` output?"
            )
        return trace


# -- composers ----------------------------------------------------------------


@WORKLOADS.register
@dataclass(frozen=True, slots=True)
class ConcatSpec(WorkloadSpec):
    """Member workloads concatenated end to end (shared PC space)."""

    kind: ClassVar[str] = "concat"

    parts: tuple[WorkloadSpec, ...] = ()
    name: str = "concat"

    def _validate(self) -> None:
        object.__setattr__(self, "parts", coerce_specs(self.parts, "parts", WorkloadSpec))

    @property
    def label(self) -> str:
        return self.name

    def materialize(self) -> Trace:
        return concat_traces(
            [part.materialize() for part in self.parts], name=self.label
        )


#: Filter operations available to :class:`FilterSpec`: op name -> a
#: callable of ``(trace, *args)``.  Each argument named ``pcs`` is a
#: list of PCs; every other one is an integer.
_FILTER_OPS: dict[str, Callable[..., Trace]] = {
    "select_pcs": filters.select_pcs,
    "exclude_pcs": filters.exclude_pcs,
    "window": filters.window,
    "sample_every": filters.sample_every,
    "offset_pcs": filters.offset_pcs,
    "head": Trace.head,
}


@WORKLOADS.register
@dataclass(frozen=True, slots=True)
class FilterSpec(WorkloadSpec):
    """A :mod:`repro.trace.filters` transformation of another workload.

    ``op`` selects the transformation; ``args`` are its positional
    arguments after the trace (e.g. ``op="window", args=(0, 1000)``).
    """

    kind: ClassVar[str] = "filter"

    source: WorkloadSpec | None = None
    op: str = "head"
    args: tuple = ()
    alias: str = ""

    def _validate(self) -> None:
        if not isinstance(self.source, WorkloadSpec):
            raise ConfigurationError("filter source must be a WorkloadSpec")
        if self.op not in _FILTER_OPS:
            raise ConfigurationError(
                f"unknown filter op {self.op!r}; available: {sorted(_FILTER_OPS)}"
            )
        # Bind the arguments to the op's signature (after the trace), so a
        # wrong count or type fails here rather than at materialize.
        try:
            bound = inspect.signature(_FILTER_OPS[self.op]).bind(
                None, *coerce_tuple(self.args, "args")
            )
        except TypeError as exc:
            raise ConfigurationError(f"filter op {self.op!r}: {exc}") from None
        args = tuple(
            tuple(coerce_int(pc, name) for pc in coerce_tuple(value, name))
            if name == "pcs"
            else coerce_int(value, name)
            for name, value in list(bound.arguments.items())[1:]
        )
        object.__setattr__(self, "args", args)

    @property
    def label(self) -> str:
        assert self.source is not None
        return self.alias or f"{self.source.label}|{self.op}"

    def materialize(self) -> Trace:
        assert self.source is not None
        trace = _FILTER_OPS[self.op](self.source.materialize(), *self.args)
        return trace.with_name(self.label)


@WORKLOADS.register
@dataclass(frozen=True, slots=True)
class SuiteSpec(WorkloadSpec):
    """A named, ordered collection of uniquely-labelled workloads.

    The unit the experiment pipeline plans over: per-member artifacts
    (profiles, sweep parts) are keyed by member labels, which are
    available without materializing anything.  :meth:`materialize`
    returns the suite merged into one disjoint-PC-space trace
    (:func:`~repro.trace.filters.merge_suite`); :meth:`traces` gives
    the per-member list the pipeline's workload artifact holds.
    """

    kind: ClassVar[str] = "suite"

    name: str = "suite"
    members: tuple[WorkloadSpec, ...] = ()

    def _validate(self) -> None:
        members = coerce_specs(self.members, "members", WorkloadSpec)
        labels = [member.label for member in members]
        duplicates = sorted({label for label in labels if labels.count(label) > 1})
        if duplicates:
            raise ConfigurationError(
                f"suite member labels must be unique; duplicated: {duplicates}"
            )
        object.__setattr__(self, "members", members)

    @property
    def label(self) -> str:
        return self.name

    def labels(self) -> list[str]:
        """Member trace labels, in suite order (no generation)."""
        return [member.label for member in self.members]

    def traces(self) -> list[Trace]:
        """Materialize every member, in suite order."""
        return [m.materialize().with_name(m.label) for m in self.members]

    def materialize(self) -> Trace:
        from .trace.filters import merge_suite

        return merge_suite(self.traces(), name=self.label)


# -- named suites -------------------------------------------------------------


def spec95_suite(inputs: str = "primary", scale: float = 1.0) -> SuiteSpec:
    """The calibrated synthetic SPECint95 suite (the historical default).

    ``inputs="primary"`` selects the largest input per benchmark (8
    members); ``"all"`` selects all 34 Table 1 rows — exactly the old
    ``--inputs`` semantics, now just a particular :class:`SuiteSpec`.
    """
    from .workloads.synthetic.spec95 import suite_input_sets

    members = tuple(
        Spec95InputSpec(benchmark=s.benchmark, input_name=s.input_name, scale=scale)
        for s in suite_input_sets(inputs)
    )
    name = "spec95" if inputs == "primary" else f"spec95-{inputs}"
    return SuiteSpec(name=name, members=members)


#: Base problem size per kernel at scale 1.0 — chosen so each kernel
#: contributes a few thousand dynamic branches (laptop-sized, like the
#: spec95 suite's reduced Table 1 scaling).
_KERNEL_BASE_SIZES = {
    "bubble_sort": 48,
    "binary_search": 96,
    "rle_compress": 384,
    "sieve": 512,
    "byte_scanner": 512,
    "matmul": 36,
}


def kernel_suite(scale: float = 1.0, *, seed: int = 0) -> SuiteSpec:
    """The VM kernel suite: every mini-ISA program, sizes scaled.

    A genuinely different workload universe from spec95: branches come
    from executed, output-verified algorithms rather than calibrated
    generators — ``repro run all --suite kernels`` reruns every
    figure/table on it.
    """
    if not scale > 0:
        raise ConfigurationError("scale must be positive")
    from .workloads.programs.kernels import KERNEL_NAMES

    members = tuple(
        KernelSpec(
            name=name,
            size=max(8, int(_KERNEL_BASE_SIZES[name] * scale)),
            seed=seed,
        )
        for name in KERNEL_NAMES
    )
    return SuiteSpec(name="kernels", members=members)


def adversarial_suite(scale: float = 1.0, *, seed: int = 0) -> SuiteSpec:
    """Generated kernels that sit on the classifier's weak spots.

    Members pair near-boundary transition-rate targets (the class
    edges at 5% and 95%, and the hard 50% middle) with topology
    stressors — an aliasing-heavy aligned layout, a physically
    scrambled ``jumpy`` body, and a deep loop nest.  Because
    :class:`GenKernelSpec` streams are exact by construction, each
    member's intended class is known, making boundary behaviour
    measurable instead of anecdotal.
    """
    if not scale > 0:
        raise ConfigurationError("scale must be positive")
    iters = max(64, int(512 * scale))

    def gen(alias: str, **kwargs: Any) -> GenKernelSpec:
        return GenKernelSpec(iters=iters, seed=seed, alias=alias, **kwargs)

    members = (
        # Transition rates a hair inside/outside the lowest class edge
        # (class 0 is [0, 5%), class 1 starts at 5%).
        gen("adv/edge-lo-in", branches=4, taken_rates=0.5, transition_rates=0.049),
        gen("adv/edge-lo-out", branches=4, taken_rates=0.5, transition_rates=0.051),
        # ... and the highest edge (class 10 starts at 95%).
        gen("adv/edge-hi-in", branches=4, taken_rates=0.5, transition_rates=0.951),
        gen("adv/edge-hi-out", branches=4, taken_rates=0.5, transition_rates=0.949),
        # The 50% middle: maximally unpredictable for 2-bit counters.
        gen("adv/mid", branches=4, taken_rates=0.5, transition_rates=0.5),
        # Aliasing stress: every branch PC congruent mod 2**10, so all
        # sites collide in predictor tables indexed by < 8 PC bits.
        gen(
            "adv/alias",
            branches=8,
            align=10,
            taken_rates=0.6,
            transition_rates=(0.3, 0.7),
        ),
        # Physically scrambled block layout + unrolled body.
        gen(
            "adv/jumpy",
            branches=6,
            unroll=2,
            pattern="jumpy",
            taken_rates=(0.3, 0.8),
            transition_rates=(0.15, 0.55, 0.85),
        ),
        # Deep loop nest: biased back-edges wrap the measured sites.
        gen(
            "adv/deep",
            branches=3,
            unroll=2,
            depth=3,
            taken_rates=0.7,
            transition_rates=0.35,
        ),
    )
    return SuiteSpec(name="adversarial", members=members)


#: Named suite constructors, each ``fn(scale) -> SuiteSpec``.
NAMED_SUITES: dict[str, Callable[[float], SuiteSpec]] = {
    "spec95": lambda scale: spec95_suite("primary", scale),
    "spec95-all": lambda scale: spec95_suite("all", scale),
    "kernels": kernel_suite,
    "adversarial": adversarial_suite,
}


def named_suite(name: str, *, scale: float = 1.0) -> SuiteSpec:
    """One of the built-in suites by name (``repro run --suite <name>``)."""
    try:
        builder = NAMED_SUITES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown suite {name!r}; available: {sorted(NAMED_SUITES)} "
            "(or pass a suite JSON file)"
        ) from None
    return builder(scale)


def resolve_workload(text: str, *, scale: float = 1.0) -> WorkloadSpec:
    """Resolve a CLI workload value into a :class:`WorkloadSpec`.

    Accepts a built-in suite name (scaled by ``scale``), inline JSON
    (starting with ``{``), a path to a workload JSON file, or a trace
    file itself — ``file:<path>`` explicitly, or any path whose bytes
    carry the binary-trace magic — which resolves to a
    :class:`TraceFileSpec` (and therefore streams out-of-core above
    :func:`stream_threshold`).  The one resolver behind both
    ``--suite`` and ``--workload``.
    """
    candidate = text.strip()
    if candidate in NAMED_SUITES:
        return named_suite(candidate, scale=scale)
    if candidate.startswith("{"):
        return WorkloadSpec.from_json(candidate)
    if candidate.startswith("file:"):
        return TraceFileSpec(path=candidate[len("file:") :])
    path = Path(candidate)
    if not path.exists():
        raise ConfigurationError(
            f"workload {candidate!r} is neither a built-in suite name "
            f"({sorted(NAMED_SUITES)}), inline JSON, nor an existing file"
        )
    try:
        from .trace.io import MAGIC

        with open(path, "rb") as fp:
            if fp.read(4) == MAGIC:
                return TraceFileSpec(path=str(path))
        return WorkloadSpec.from_json(path.read_text())
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read workload file {candidate!r}: {exc}"
        ) from None


def load_suite(text: str, *, scale: float = 1.0) -> SuiteSpec:
    """Resolve a CLI ``--suite`` value into a :class:`SuiteSpec`.

    :func:`resolve_workload`, plus: a workload that is not itself a
    suite is wrapped into a one-member suite, so ``--suite`` composes
    with any workload document.
    """
    spec = resolve_workload(text, scale=scale)
    if isinstance(spec, SuiteSpec):
        return spec
    return SuiteSpec(name=spec.label, members=(spec,))
