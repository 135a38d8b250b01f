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

:data:`PREDICTORS` maps each spec's ``kind`` string to its class, and
``PredictorSpec.from_dict``/``from_json`` dispatch on that key (the
serde, field coercion and registry live in :mod:`repro.specbase`,
shared with the workload specs).  Specs deliberately
import no predictor modules at import time, so the predictor package
can itself emit specs (``repro.predictors.paper_configs``) without an
import cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

from .errors import ConfigurationError
from .specbase import (
    Registry,
    Spec,
    coerce_bool,
    coerce_int,
    coerce_specs,
    coerce_tuple,
    require_min,
)

__all__ = [
    "PREDICTORS",
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
    "build_predictor",
]

#: Every predictor kind.  Its own namespace: ``filter`` is also a
#: workload kind (:data:`repro.workload_spec.WORKLOADS`).
PREDICTORS = Registry("predictor")

#: Longest two-level history register.  The reference BHT rows are
#: uint32, and the compiled sweep kernel's int64 index arithmetic
#: relies on the bound.
MAX_HISTORY_BITS = 32


def _pairs(value: Any, what: str, second: Callable[[Any, str], Any]) -> tuple:
    """A sorted tuple of ``(pc, second(value))`` pairs, each PC once."""
    try:
        pairs = tuple(
            sorted((coerce_int(pc, what), second(v, what)) for pc, v in coerce_tuple(value, what))
        )
    except (TypeError, ValueError):
        raise ConfigurationError(f"{what} must be (pc, value) pairs, got {value!r}") from None
    duplicates = sorted({a[0] for a, b in zip(pairs, pairs[1:]) if a[0] == b[0]})
    if duplicates:
        raise ConfigurationError(f"duplicate PCs in {what}: {duplicates} (one entry per branch)")
    return pairs


def _check_pow2(value: int, what: str) -> None:
    if value < 1 or value & (value - 1):
        raise ConfigurationError(f"{what} must be a positive power of two, got {value}")


class PredictorSpec(Spec):
    """Base class for declarative predictor configurations.

    Subclasses are frozen dataclasses registered under a unique
    :attr:`kind` string.  Two specs are equal (and hash equal) iff they
    have the same kind and field values, which makes specs usable as
    dictionary keys, cache keys and session job identities.
    """

    __slots__ = ()

    registry: ClassVar[Registry] = PREDICTORS

    def build(self):
        """Materialize the stateful :class:`BranchPredictor`."""
        raise NotImplementedError

    # -- hardware cost ------------------------------------------------------

    def storage_bits(self) -> int:
        """Hardware state of the built predictor, in bits."""
        return self.build().storage_bits()


# -- static family ------------------------------------------------------------


@PREDICTORS.register
@dataclass(frozen=True, slots=True)
class StaticSpec(PredictorSpec):
    """Always-taken (``direction=True``) or always-not-taken predictor."""

    kind: ClassVar[str] = "static"

    direction: bool = True

    def build(self):
        from .predictors.static import AlwaysNotTakenPredictor, AlwaysTakenPredictor

        return AlwaysTakenPredictor() if self.direction else AlwaysNotTakenPredictor()


@PREDICTORS.register
@dataclass(frozen=True, slots=True)
class ProfileStaticSpec(PredictorSpec):
    """Profile-guided static predictor: a fixed direction per branch PC.

    ``directions`` is a sorted tuple of ``(pc, taken)`` pairs (a frozen
    mapping); ``default`` covers branches absent from the profile.
    """

    kind: ClassVar[str] = "profile-static"

    directions: tuple[tuple[int, bool], ...] = ()
    default: bool = True

    def _validate(self) -> None:
        object.__setattr__(self, "directions", _pairs(self.directions, "directions", coerce_bool))

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


@PREDICTORS.register
@dataclass(frozen=True, slots=True)
class LastOutcomeSpec(PredictorSpec):
    """One-bit last-outcome predictor table."""

    kind: ClassVar[str] = "last-outcome"

    entries: int = 1 << 14
    initial: bool = True

    def _validate(self) -> None:
        _check_pow2(self.entries, "entries")

    def build(self):
        from .predictors.bimodal import LastOutcomePredictor

        return LastOutcomePredictor(self.entries, initial=self.initial)


@PREDICTORS.register
@dataclass(frozen=True, slots=True)
class BimodalSpec(PredictorSpec):
    """PC-indexed saturating-counter table (the history-length-0 machine)."""

    kind: ClassVar[str] = "bimodal"

    entries: int = 1 << 17
    counter_bits: int = 2

    def _validate(self) -> None:
        _check_pow2(self.entries, "entries")
        if not 1 <= self.counter_bits <= 8:
            raise ConfigurationError(
                f"counter_bits must be in [1, 8], got {self.counter_bits}"
            )

    def build(self):
        from .predictors.bimodal import BimodalPredictor

        return BimodalPredictor(self.entries, counter_bits=self.counter_bits)


# -- two-level family ---------------------------------------------------------


@PREDICTORS.register
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

    def _validate(self) -> None:
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
        require_min(self, 1, "pht_index_bits")
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


@PREDICTORS.register
@dataclass(frozen=True, slots=True)
class AgreeSpec(PredictorSpec):
    """Agree predictor: gshare-indexed PHT over per-branch biasing bits."""

    kind: ClassVar[str] = "agree"

    history_bits: int = 12
    pht_index_bits: int = 12
    bias_entries: int = 1 << 14

    def _validate(self) -> None:
        require_min(self, 0, "history_bits")
        require_min(self, 1, "pht_index_bits")
        _check_pow2(self.bias_entries, "bias_entries")

    def build(self):
        from .predictors.agree import AgreePredictor

        return AgreePredictor(
            self.history_bits,
            pht_index_bits=self.pht_index_bits,
            bias_entries=self.bias_entries,
        )


@PREDICTORS.register
@dataclass(frozen=True, slots=True)
class YagsSpec(PredictorSpec):
    """YAGS: choice PHT plus tagged exception caches."""

    kind: ClassVar[str] = "yags"

    history_bits: int = 12
    cache_index_bits: int = 11
    tag_bits: int = 8
    choice_index_bits: int = 13

    def _validate(self) -> None:
        require_min(self, 0, "history_bits")
        require_min(self, 1, "cache_index_bits", "tag_bits", "choice_index_bits")

    def build(self):
        from .predictors.yags import YagsPredictor

        return YagsPredictor(
            self.history_bits,
            cache_index_bits=self.cache_index_bits,
            tag_bits=self.tag_bits,
            choice_index_bits=self.choice_index_bits,
        )


@PREDICTORS.register
@dataclass(frozen=True, slots=True)
class BiModeSpec(PredictorSpec):
    """Bi-Mode: taken/not-taken direction banks plus a choice PHT."""

    kind: ClassVar[str] = "bimode"

    history_bits: int = 12
    direction_index_bits: int = 12
    choice_index_bits: int = 13

    def _validate(self) -> None:
        require_min(self, 0, "history_bits")
        require_min(self, 1, "direction_index_bits", "choice_index_bits")

    def build(self):
        from .predictors.bimode import BiModePredictor

        return BiModePredictor(
            self.history_bits,
            direction_index_bits=self.direction_index_bits,
            choice_index_bits=self.choice_index_bits,
        )


@PREDICTORS.register
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

    def _validate(self) -> None:
        if self.backing is not None and not isinstance(self.backing, PredictorSpec):
            raise ConfigurationError("backing must be a PredictorSpec or None")
        _check_pow2(self.entries, "entries")
        if not 1 <= self.counter_bits <= 16:
            raise ConfigurationError(
                f"counter_bits must be in [1, 16], got {self.counter_bits}"
            )
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


@PREDICTORS.register
@dataclass(frozen=True, slots=True)
class DhlfSpec(PredictorSpec):
    """Dynamic History-Length Fitting gshare."""

    kind: ClassVar[str] = "dhlf"

    pht_index_bits: int = 14
    interval: int = 16 * 1024
    start_history: int | None = None

    def _validate(self) -> None:
        require_min(self, 1, "pht_index_bits")
        require_min(self, 16, "interval")
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


@PREDICTORS.register
@dataclass(frozen=True, slots=True)
class TournamentSpec(PredictorSpec):
    """McFarling tournament of two component specs with a PC-indexed chooser."""

    kind: ClassVar[str] = "tournament"

    first: PredictorSpec = dataclasses.field(default_factory=BimodalSpec)
    second: PredictorSpec = dataclasses.field(default_factory=lambda: TwoLevelSpec.gshare(12))
    chooser_index_bits: int = 13
    name: str | None = None

    def _validate(self) -> None:
        if not isinstance(self.first, PredictorSpec) or not isinstance(self.second, PredictorSpec):
            raise ConfigurationError("tournament components must be PredictorSpecs")
        require_min(self, 1, "chooser_index_bits")

    def build(self):
        from .predictors.tournament import TournamentPredictor

        return TournamentPredictor(
            self.first.build(),
            self.second.build(),
            chooser_index_bits=self.chooser_index_bits,
            name=self.name,
        )


@PREDICTORS.register
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

    def _validate(self) -> None:
        components = coerce_specs(self.components, "components", PredictorSpec)
        routes = _pairs(self.routes, "routes", coerce_int)
        bad = {pc: slot for pc, slot in routes if not 0 <= slot < len(components)}
        if bad:
            raise ConfigurationError(f"route targets out of range: {bad}")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "routes", routes)

    def build(self):
        from .predictors.hybrid import ClassRoutedHybrid

        return ClassRoutedHybrid(
            [component.build() for component in self.components],
            dict(self.routes),
            name=self.name,
        )


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
