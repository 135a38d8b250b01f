"""Declarative predictor specifications.

A :class:`PredictorSpec` is a frozen, hashable, JSON-round-trippable
description of a predictor configuration — *what* to simulate, with no
tables, histories or other mutable state attached.  Every predictor
family in the library has a spec class; :meth:`PredictorSpec.build`
materializes the stateful :class:`~repro.predictors.base.BranchPredictor`
on demand.

Why a separate layer (see ``docs/API.md`` for the full schema):

* **Serializable** — specs round-trip through ``to_dict``/``from_dict``
  and JSON, so configurations can live in files, caches and requests
  (``repro simulate --spec …``).
* **Hashable** — equal specs compare and hash equal, which is what lets
  :class:`repro.session.Session` deduplicate identical jobs and plan
  batched execution.
* **Inspectable** — planners can read a spec's geometry (and route the
  two-level family to the batched engine) without building anything.

The registry maps each spec's ``kind`` string to its class;
:func:`spec_from_dict` dispatches on that key.  Specs deliberately
import no predictor modules at import time, so the predictor package
can itself emit specs (``repro.predictors.paper_configs``) without an
import cycle.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

from .errors import ConfigurationError

__all__ = [
    "PredictorSpec",
    "StaticSpec",
    "ProfileStaticSpec",
    "LastOutcomeSpec",
    "BimodalSpec",
    "TwoLevelSpec",
    "AgreeSpec",
    "TournamentSpec",
    "HybridSpec",
    "YagsSpec",
    "BiModeSpec",
    "FilterSpec",
    "DhlfSpec",
    "spec_kinds",
    "spec_class",
    "spec_from_dict",
    "spec_from_json",
    "build_predictor",
]

_REGISTRY: dict[str, type["PredictorSpec"]] = {}

#: Longest two-level history register.  The reference BHT rows are
#: uint32, and the compiled sweep kernel's int64 index arithmetic
#: relies on the bound.
MAX_HISTORY_BITS = 32


def _register(cls: type["PredictorSpec"]) -> type["PredictorSpec"]:
    """Class decorator: enter ``cls`` into the kind-keyed registry."""
    kind = cls.kind
    if not kind or kind in _REGISTRY:
        raise ConfigurationError(f"duplicate or empty spec kind {kind!r}")
    _REGISTRY[kind] = cls
    return cls


def _duplicate_keys(pairs: tuple) -> list:
    """Keys appearing more than once in a sorted ``(key, value)`` tuple."""
    return sorted({a[0] for a, b in zip(pairs, pairs[1:]) if a[0] == b[0]})


def _check_pow2(value: int, what: str) -> None:
    if not isinstance(value, int):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    if value < 1 or value & (value - 1):
        raise ConfigurationError(f"{what} must be a positive power of two, got {value}")


def _encode(value: Any) -> Any:
    """Encode one field value into plain JSON-compatible data."""
    if isinstance(value, PredictorSpec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(value: Any) -> Any:
    """Inverse of :func:`_encode`: dicts with a ``kind`` become specs,
    lists become tuples (JSON has no tuple type)."""
    if isinstance(value, Mapping) and "kind" in value:
        return spec_from_dict(value)
    if isinstance(value, (list, tuple)):
        return tuple(_decode(v) for v in value)
    return value


class PredictorSpec:
    """Base class for declarative predictor configurations.

    Subclasses are frozen dataclasses registered under a unique
    :attr:`kind` string.  Two specs are equal (and hash equal) iff they
    have the same kind and field values, which makes specs usable as
    dictionary keys, cache keys and session job identities.
    """

    __slots__ = ()

    #: Registry key; also the ``"kind"`` entry of the serialized form.
    kind: ClassVar[str] = ""

    # -- construction -------------------------------------------------------

    def build(self):
        """Materialize the stateful :class:`BranchPredictor`."""
        raise NotImplementedError

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form: ``{"kind": …, **fields}`` (JSON-compatible)."""
        data: dict[str, Any] = {"kind": self.kind}
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            data[f.name] = _encode(getattr(self, f.name))
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PredictorSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        Called on :class:`PredictorSpec` it dispatches through the
        registry; called on a subclass it additionally checks the kind.
        """
        if cls is PredictorSpec:
            return spec_from_dict(data)
        kind = data.get("kind", cls.kind)
        if kind != cls.kind:
            raise ConfigurationError(
                f"spec kind mismatch: expected {cls.kind!r}, got {kind!r}"
            )
        known = {f.name for f in dataclasses.fields(cls)}  # type: ignore[arg-type]
        extra = set(data) - known - {"kind"}
        if extra:
            raise ConfigurationError(
                f"unknown field(s) {sorted(extra)} for spec kind {cls.kind!r}"
            )
        kwargs = {k: _decode(v) for k, v in data.items() if k != "kind"}
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            # Wrong-typed field values (e.g. a JSON float where an int
            # belongs) must surface as the library's error type — this
            # is the JSON-facing boundary the CLI catches.
            raise ConfigurationError(f"invalid {cls.kind!r} spec: {exc}") from None

    def to_json(self, **dumps_kwargs: Any) -> str:
        """JSON text form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "PredictorSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid spec JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("spec JSON must be an object")
        return cls.from_dict(data)

    # -- hardware cost ------------------------------------------------------

    def storage_bits(self) -> int:
        """Hardware state of the built predictor, in bits."""
        return self.build().storage_bits()

    def storage_bytes(self) -> float:
        """Hardware state in bytes."""
        return self.storage_bits() / 8


# -- static family ------------------------------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class StaticSpec(PredictorSpec):
    """Always-taken (``direction=True``) or always-not-taken predictor."""

    kind: ClassVar[str] = "static"

    direction: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "direction", bool(self.direction))

    def build(self):
        from .predictors.static import AlwaysNotTakenPredictor, AlwaysTakenPredictor

        return AlwaysTakenPredictor() if self.direction else AlwaysNotTakenPredictor()


@_register
@dataclass(frozen=True, slots=True)
class ProfileStaticSpec(PredictorSpec):
    """Profile-guided static predictor: a fixed direction per branch PC.

    ``directions`` is a sorted tuple of ``(pc, taken)`` pairs (a frozen
    mapping); ``default`` covers branches absent from the profile.
    """

    kind: ClassVar[str] = "profile-static"

    directions: tuple[tuple[int, bool], ...] = ()
    default: bool = True

    def __post_init__(self) -> None:
        try:
            normalized = tuple(
                sorted((int(pc), bool(taken)) for pc, taken in self.directions)
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"directions must be (pc, taken) pairs: {exc}"
            ) from None
        duplicates = _duplicate_keys(normalized)
        if duplicates:
            raise ConfigurationError(
                f"duplicate PCs in directions: {duplicates} (one direction per branch)"
            )
        object.__setattr__(self, "directions", normalized)
        object.__setattr__(self, "default", bool(self.default))

    @classmethod
    def from_profile(cls, profile, *, default: bool = True) -> "ProfileStaticSpec":
        """Majority direction per branch from a
        :class:`~repro.classify.profile.ProfileTable`."""
        directions = tuple(
            (int(pc), bool(profile[pc].taken_rate >= 0.5)) for pc in profile
        )
        return cls(directions=directions, default=default)

    def build(self):
        from .predictors.static import ProfileStaticPredictor

        return ProfileStaticPredictor(dict(self.directions), default=self.default)


# -- PC-indexed table family --------------------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class LastOutcomeSpec(PredictorSpec):
    """One-bit last-outcome predictor table."""

    kind: ClassVar[str] = "last-outcome"

    entries: int = 1 << 14
    initial: bool = True

    def __post_init__(self) -> None:
        _check_pow2(self.entries, "entries")
        object.__setattr__(self, "initial", bool(self.initial))

    def build(self):
        from .predictors.bimodal import LastOutcomePredictor

        return LastOutcomePredictor(self.entries, initial=self.initial)


@_register
@dataclass(frozen=True, slots=True)
class BimodalSpec(PredictorSpec):
    """PC-indexed saturating-counter table (the history-length-0 machine)."""

    kind: ClassVar[str] = "bimodal"

    entries: int = 1 << 17
    counter_bits: int = 2

    def __post_init__(self) -> None:
        _check_pow2(self.entries, "entries")
        if not 1 <= self.counter_bits <= 8:
            raise ConfigurationError(
                f"counter_bits must be in [1, 8], got {self.counter_bits}"
            )

    def build(self):
        from .predictors.bimodal import BimodalPredictor

        return BimodalPredictor(self.entries, counter_bits=self.counter_bits)


# -- two-level family ---------------------------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class TwoLevelSpec(PredictorSpec):
    """Two-level adaptive predictor geometry (PAs/GAs/gshare/gselect/pshare).

    One spec covers the whole Yeh & Patt family: the history kind
    (global vs per-address), history length, PHT size, and the
    history/PC combination scheme (concatenation vs XOR).  The named
    classmethods mirror the constructors in
    :mod:`repro.predictors.twolevel`.
    """

    kind: ClassVar[str] = "two-level"

    history_kind: str = "global"
    history_bits: int = 0
    pht_index_bits: int = 17
    index_scheme: str = "concat"
    bht_entries: int | None = None
    counter_bits: int = 2
    name: str | None = None

    def __post_init__(self) -> None:
        if self.history_kind not in ("global", "per-address"):
            raise ConfigurationError(
                f"history_kind must be 'global' or 'per-address', got {self.history_kind!r}"
            )
        if self.index_scheme not in ("concat", "xor"):
            raise ConfigurationError(
                f"index_scheme must be 'concat' or 'xor', got {self.index_scheme!r}"
            )
        if not 0 <= self.history_bits <= MAX_HISTORY_BITS:
            raise ConfigurationError(
                f"history_bits must be in [0, {MAX_HISTORY_BITS}], got {self.history_bits}"
            )
        if self.pht_index_bits < 1:
            raise ConfigurationError("pht_index_bits must be >= 1")
        if self.index_scheme == "concat" and self.history_bits > self.pht_index_bits:
            raise ConfigurationError(
                f"concat indexing needs history_bits ({self.history_bits}) <= "
                f"pht_index_bits ({self.pht_index_bits})"
            )
        if not 1 <= self.counter_bits <= 8:
            raise ConfigurationError(
                f"counter_bits must be in [1, 8], got {self.counter_bits}"
            )
        if self.history_kind == "per-address" and self.history_bits > 0:
            if self.bht_entries is None:
                raise ConfigurationError("per-address specs need bht_entries")
            _check_pow2(self.bht_entries, "bht_entries")
        else:
            # No BHT exists for global or zero-history geometries, so a
            # stray bht_entries value is normalized away — otherwise two
            # specs describing the same machine would compare unequal
            # and defeat Session dedupe.
            object.__setattr__(self, "bht_entries", None)

    # -- named family members ----------------------------------------------

    @classmethod
    def gas(
        cls, history_bits: int, *, pht_index_bits: int = 17, counter_bits: int = 2
    ) -> "TwoLevelSpec":
        """Global history concatenated with PC fill bits (the paper's GAs)."""
        return cls(
            history_kind="global",
            history_bits=history_bits,
            pht_index_bits=pht_index_bits,
            index_scheme="concat",
            counter_bits=counter_bits,
            name=f"GAs-h{history_bits}",
        )

    @classmethod
    def pas(
        cls,
        history_bits: int,
        *,
        pht_index_bits: int = 16,
        bht_entries: int = 1 << 13,
        counter_bits: int = 2,
    ) -> "TwoLevelSpec":
        """Per-address history concatenated with PC fill bits (the paper's PAs)."""
        return cls(
            history_kind="per-address",
            history_bits=history_bits,
            pht_index_bits=pht_index_bits,
            index_scheme="concat",
            bht_entries=bht_entries if history_bits > 0 else None,
            counter_bits=counter_bits,
            name=f"PAs-h{history_bits}",
        )

    @classmethod
    def gshare(
        cls, history_bits: int, *, pht_index_bits: int | None = None, counter_bits: int = 2
    ) -> "TwoLevelSpec":
        """McFarling's gshare: global history XORed with the branch address."""
        if pht_index_bits is None:
            pht_index_bits = max(history_bits, 1)
        return cls(
            history_kind="global",
            history_bits=history_bits,
            pht_index_bits=pht_index_bits,
            index_scheme="xor",
            counter_bits=counter_bits,
            name=f"gshare-h{history_bits}",
        )

    @classmethod
    def gselect(
        cls, history_bits: int, *, pht_index_bits: int, counter_bits: int = 2
    ) -> "TwoLevelSpec":
        """gselect: global history concatenated with branch address bits."""
        return cls(
            history_kind="global",
            history_bits=history_bits,
            pht_index_bits=pht_index_bits,
            index_scheme="concat",
            counter_bits=counter_bits,
            name=f"gselect-h{history_bits}",
        )

    @classmethod
    def pshare(
        cls,
        history_bits: int,
        *,
        pht_index_bits: int | None = None,
        bht_entries: int = 1 << 13,
        counter_bits: int = 2,
    ) -> "TwoLevelSpec":
        """pshare: per-address history XORed with the branch address."""
        if pht_index_bits is None:
            pht_index_bits = max(history_bits, 1)
        return cls(
            history_kind="per-address",
            history_bits=history_bits,
            pht_index_bits=pht_index_bits,
            index_scheme="xor",
            bht_entries=bht_entries if history_bits > 0 else None,
            counter_bits=counter_bits,
            name=f"pshare-h{history_bits}",
        )

    def build(self):
        from .predictors.twolevel import TwoLevelPredictor

        return TwoLevelPredictor(
            history_kind=self.history_kind,
            history_bits=self.history_bits,
            pht_index_bits=self.pht_index_bits,
            index_scheme=self.index_scheme,
            bht_entries=self.bht_entries if self.history_bits > 0 else None,
            counter_bits=self.counter_bits,
            name=self.name,
        )

    def storage_bits(self) -> int:
        # Closed form — no need to allocate the tables to price them.
        bits = (1 << self.pht_index_bits) * self.counter_bits
        if self.history_bits > 0:
            if self.history_kind == "global":
                bits += self.history_bits
            else:
                assert self.bht_entries is not None
                bits += self.bht_entries * self.history_bits
        return bits


# -- interference-aware global schemes ---------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class AgreeSpec(PredictorSpec):
    """Agree predictor: gshare-indexed PHT over per-branch biasing bits."""

    kind: ClassVar[str] = "agree"

    history_bits: int = 12
    pht_index_bits: int = 12
    bias_entries: int = 1 << 14

    def __post_init__(self) -> None:
        if self.history_bits < 0:
            raise ConfigurationError("history_bits must be >= 0")
        if self.pht_index_bits < 1:
            raise ConfigurationError("pht_index_bits must be >= 1")
        _check_pow2(self.bias_entries, "bias_entries")

    def build(self):
        from .predictors.agree import AgreePredictor

        return AgreePredictor(
            self.history_bits,
            pht_index_bits=self.pht_index_bits,
            bias_entries=self.bias_entries,
        )


@_register
@dataclass(frozen=True, slots=True)
class YagsSpec(PredictorSpec):
    """YAGS: choice PHT plus tagged exception caches."""

    kind: ClassVar[str] = "yags"

    history_bits: int = 12
    cache_index_bits: int = 11
    tag_bits: int = 8
    choice_index_bits: int = 13

    def __post_init__(self) -> None:
        if self.history_bits < 0:
            raise ConfigurationError("history_bits must be >= 0")
        if self.cache_index_bits < 1 or self.choice_index_bits < 1:
            raise ConfigurationError("index bit widths must be >= 1")
        if self.tag_bits < 1:
            raise ConfigurationError("tag_bits must be >= 1")

    def build(self):
        from .predictors.yags import YagsPredictor

        return YagsPredictor(
            self.history_bits,
            cache_index_bits=self.cache_index_bits,
            tag_bits=self.tag_bits,
            choice_index_bits=self.choice_index_bits,
        )


@_register
@dataclass(frozen=True, slots=True)
class BiModeSpec(PredictorSpec):
    """Bi-Mode: taken/not-taken direction banks plus a choice PHT."""

    kind: ClassVar[str] = "bimode"

    history_bits: int = 12
    direction_index_bits: int = 12
    choice_index_bits: int = 13

    def __post_init__(self) -> None:
        if self.history_bits < 0:
            raise ConfigurationError("history_bits must be >= 0")
        if self.direction_index_bits < 1 or self.choice_index_bits < 1:
            raise ConfigurationError("index bit widths must be >= 1")

    def build(self):
        from .predictors.bimode import BiModePredictor

        return BiModePredictor(
            self.history_bits,
            direction_index_bits=self.direction_index_bits,
            choice_index_bits=self.choice_index_bits,
        )


@_register
@dataclass(frozen=True, slots=True)
class FilterSpec(PredictorSpec):
    """Bias filter in front of a dynamic backing predictor.

    ``backing=None`` uses the library default (gshare-12 into a 2^14
    PHT), exactly like :class:`~repro.predictors.filter.FilterPredictor`.
    """

    kind: ClassVar[str] = "filter"

    backing: PredictorSpec | None = None
    threshold: int = 32
    counter_bits: int = 6
    entries: int = 1 << 14

    def __post_init__(self) -> None:
        if self.backing is not None and not isinstance(self.backing, PredictorSpec):
            raise ConfigurationError("backing must be a PredictorSpec or None")
        _check_pow2(self.entries, "entries")
        max_count = (1 << self.counter_bits) - 1
        if not 1 <= self.threshold <= max_count:
            raise ConfigurationError(
                f"threshold {self.threshold} must fit the {self.counter_bits}-bit counter"
            )

    def build(self):
        from .predictors.filter import FilterPredictor

        return FilterPredictor(
            self.backing.build() if self.backing is not None else None,
            threshold=self.threshold,
            counter_bits=self.counter_bits,
            entries=self.entries,
        )


@_register
@dataclass(frozen=True, slots=True)
class DhlfSpec(PredictorSpec):
    """Dynamic History-Length Fitting gshare."""

    kind: ClassVar[str] = "dhlf"

    pht_index_bits: int = 14
    interval: int = 16 * 1024
    start_history: int | None = None

    def __post_init__(self) -> None:
        if self.pht_index_bits < 1:
            raise ConfigurationError("pht_index_bits must be >= 1")
        if self.interval < 16:
            raise ConfigurationError("interval must be >= 16")
        if self.start_history is not None and not 0 <= self.start_history <= self.pht_index_bits:
            raise ConfigurationError("start_history out of range")

    def build(self):
        from .predictors.dhlf import DhlfPredictor

        return DhlfPredictor(
            pht_index_bits=self.pht_index_bits,
            interval=self.interval,
            start_history=self.start_history,
        )


# -- combining families -------------------------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class TournamentSpec(PredictorSpec):
    """McFarling tournament of two component specs with a PC-indexed chooser."""

    kind: ClassVar[str] = "tournament"

    first: PredictorSpec = dataclasses.field(default_factory=BimodalSpec)
    second: PredictorSpec = dataclasses.field(default_factory=lambda: TwoLevelSpec.gshare(12))
    chooser_index_bits: int = 13
    name: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.first, PredictorSpec) or not isinstance(self.second, PredictorSpec):
            raise ConfigurationError("tournament components must be PredictorSpecs")
        if self.chooser_index_bits < 1:
            raise ConfigurationError("chooser_index_bits must be >= 1")

    def build(self):
        from .predictors.tournament import TournamentPredictor

        return TournamentPredictor(
            self.first.build(),
            self.second.build(),
            chooser_index_bits=self.chooser_index_bits,
            name=self.name,
        )


@_register
@dataclass(frozen=True, slots=True)
class HybridSpec(PredictorSpec):
    """Class-routed hybrid: component specs plus a frozen PC→slot routing.

    ``routes`` is a sorted tuple of ``(pc, component_index)`` pairs;
    branches absent from it fall back to component 0, exactly like
    :class:`~repro.predictors.hybrid.ClassRoutedHybrid`.
    """

    kind: ClassVar[str] = "hybrid"

    components: tuple[PredictorSpec, ...] = ()
    routes: tuple[tuple[int, int], ...] = ()
    name: str | None = None

    def __post_init__(self) -> None:
        components = tuple(self.components)
        if not components:
            raise ConfigurationError("hybrid needs at least one component")
        for component in components:
            if not isinstance(component, PredictorSpec):
                raise ConfigurationError("hybrid components must be PredictorSpecs")
        try:
            routes = tuple(sorted((int(pc), int(slot)) for pc, slot in self.routes))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"routes must be (pc, slot) pairs: {exc}") from None
        bad = {pc: slot for pc, slot in routes if not 0 <= slot < len(components)}
        if bad:
            raise ConfigurationError(f"route targets out of range: {bad}")
        duplicates = _duplicate_keys(routes)
        if duplicates:
            raise ConfigurationError(
                f"duplicate PCs in routes: {duplicates} (one slot per branch)"
            )
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "routes", routes)

    def build(self):
        from .predictors.hybrid import ClassRoutedHybrid

        return ClassRoutedHybrid(
            [component.build() for component in self.components],
            dict(self.routes),
            name=self.name,
        )


# -- registry API -------------------------------------------------------------


def spec_kinds() -> tuple[str, ...]:
    """Every registered spec kind, in registration order."""
    return tuple(_REGISTRY)


def spec_class(kind: str) -> type[PredictorSpec]:
    """The spec class registered under ``kind``."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown spec kind {kind!r}; available: {sorted(_REGISTRY)}"
        ) from None


def spec_from_dict(data: Mapping[str, Any]) -> PredictorSpec:
    """Rebuild any spec from its :meth:`PredictorSpec.to_dict` form."""
    if "kind" not in data:
        raise ConfigurationError("spec dict needs a 'kind' key")
    return spec_class(data["kind"]).from_dict(data)


def spec_from_json(text: str) -> PredictorSpec:
    """Rebuild any spec from JSON text."""
    return PredictorSpec.from_json(text)


def build_predictor(predictor_or_spec):
    """Pass a :class:`BranchPredictor` through; build a :class:`PredictorSpec`.

    The single coercion point used by every API that accepts either.
    """
    if isinstance(predictor_or_spec, PredictorSpec):
        return predictor_or_spec.build()
    from .predictors.base import BranchPredictor

    if isinstance(predictor_or_spec, BranchPredictor):
        return predictor_or_spec
    raise ConfigurationError(
        f"expected a BranchPredictor or PredictorSpec, got {type(predictor_or_spec).__name__}"
    )
