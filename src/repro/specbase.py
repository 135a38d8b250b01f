"""Machinery shared by the declarative spec families.

Predictor specs (:mod:`repro.spec`) and branch-model and workload specs
(:mod:`repro.workload_spec`) are frozen dataclasses over one base,
:class:`Spec`, which gives every one of them

* a plain-data form, ``{"kind": …, **fields}``, through
  :meth:`~Spec.to_dict`/:meth:`~Spec.from_dict` and the JSON pair
  :meth:`~Spec.to_json`/:meth:`~Spec.from_json`;
* its scalar fields coerced to their declared type at construction
  (``int``, ``bool``, ``str``, ``float`` or :data:`Probability`, each
  optionally ``| None``): an integral float becomes an int
  (``2.0`` → ``2``), so equal specs serialize equal, and any other
  misfit raises :class:`~repro.errors.ConfigurationError`;
* dispatch by kind through its family's :class:`Registry`.

:func:`canonical_digest` is the one content hash: workload content
keys, pipeline node addresses and service job ids all go through it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import operator
from collections.abc import Callable, Mapping
from dataclasses import MISSING
from typing import Any, ClassVar

from .errors import ConfigurationError, SpecError

__all__ = [
    "Probability",
    "Registry",
    "Spec",
    "canonical_digest",
    "coerce_bool",
    "coerce_float",
    "coerce_int",
    "coerce_probability",
    "coerce_specs",
    "coerce_str",
    "coerce_tuple",
    "require_min",
]

#: A ``float`` field that must lie in [0, 1] (the annotation selects
#: :func:`coerce_probability`).
Probability = float


def canonical_digest(payload: Any) -> str:
    """sha256 of ``payload``'s canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- field coercions ----------------------------------------------------------


def coerce_int(value: Any, what: str) -> int:
    """An exact integer; an integral float canonicalizes (``2.0`` → ``2``)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{what} must be an integer, got {value!r}")


def coerce_bool(value: Any, what: str) -> bool:
    """A boolean; ``0`` and ``1`` canonicalize to ``False`` and ``True``."""
    if value in (0, 1):
        return bool(value)
    raise ConfigurationError(f"{what} must be a boolean, got {value!r}")


def coerce_str(value: Any, what: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigurationError(f"{what} must be a string, got {value!r}")


def coerce_float(value: Any, what: str) -> float:
    """A finite real number as a float (``1`` and ``1.0`` key identically)."""
    number = math.nan
    if type(value) is float:
        number = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
    if math.isfinite(number):
        return number
    raise ConfigurationError(f"{what} must be a finite number, got {value!r}")


def coerce_probability(value: Any, what: str) -> float:
    number = coerce_float(value, what)
    if not 0.0 <= number <= 1.0:
        raise ConfigurationError(f"{what} must be in [0, 1], got {number}")
    return number


def coerce_tuple(value: Any, what: str) -> tuple:
    """A list or tuple field as a tuple (JSON has no tuple type)."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise ConfigurationError(f"{what} must be a list, got {value!r}")


def coerce_specs(value: Any, what: str, cls: type) -> tuple:
    """A non-empty list of ``cls`` instances as a tuple."""
    items = coerce_tuple(value, what)
    if not items or not all(isinstance(item, cls) for item in items):
        raise ConfigurationError(f"{what} must be a non-empty list of {cls.__name__}s")
    return items


def require_min(spec: Any, minimum: int, *fields: str) -> None:
    """Each of ``spec``'s (coerced) ``fields`` is ``None`` or ``>= minimum``."""
    for name in fields:
        value = getattr(spec, name)
        if value is not None and value < minimum:
            raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


#: Declared field type -> (the type a value already fits exactly, or
#: ``None`` when every value needs checking; its coercion).  ``X | None``
#: also passes ``None``.
_COERCIONS: dict[str, tuple[type | None, Callable[[Any, str], Any]]] = {
    "int": (int, coerce_int),
    "bool": (bool, coerce_bool),
    "str": (str, coerce_str),
    "float": (None, coerce_float),
    "Probability": (None, coerce_probability),
}


@functools.cache
def _field_coercions(cls: type) -> tuple[tuple[str, type | None, Callable, bool], ...]:
    """``(field, exact type, coercion, optional)`` for each scalar field of
    ``cls`` (field types are annotation strings: ``from __future__ import
    annotations``)."""
    plan = []
    for f in dataclasses.fields(cls):
        declared = str(f.type)
        coercion = _COERCIONS.get(declared.removesuffix(" | None"))
        if coercion is not None:
            plan.append((f.name, *coercion, declared.endswith(" | None")))
    return tuple(plan)


# -- kind registry ------------------------------------------------------------


class Registry(dict):
    """The kinds of one spec family: ``kind`` → class, in registration order.

    Families whose documents nest each other (branch models inside
    workloads) pass ``shares=`` to form one namespace: no kind repeats
    across it, and a nested dict decodes by kind through all of it.
    """

    def __init__(self, family: str, *, shares: Registry | None = None) -> None:
        super().__init__()
        self.family = family
        #: Every kind of the registries sharing this one's namespace.
        self.namespace: dict[str, type] = {} if shares is None else shares.namespace

    def register(self, cls: type) -> type:
        """Class decorator: enter ``cls`` under its ``kind``."""
        kind = cls.kind
        if not kind or kind in self.namespace:
            raise ConfigurationError(f"duplicate or empty {self.family} spec kind {kind!r}")
        self[kind] = self.namespace[kind] = cls
        return cls

    def kinds(self) -> tuple[str, ...]:
        """Every registered kind, in registration order."""
        return tuple(self)

    def lookup(self, kind: Any) -> type:
        """The class registered under ``kind``; raises
        :class:`~repro.errors.SpecError` naming the family's kinds."""
        if isinstance(kind, str) and kind in self:
            return self[kind]
        raise SpecError(f"unknown {self.family} kind {kind!r}; available: {sorted(self)}")

    def from_dict(self, data: Any) -> Spec:
        """Rebuild any spec of the family from its ``to_dict`` form."""
        if not isinstance(data, Mapping) or "kind" not in data:
            raise ConfigurationError(f"a {self.family} spec must be an object with a 'kind' key")
        return self.lookup(data["kind"]).from_dict(data)

    def decode(self, value: Any) -> Any:
        """A field value from its plain-data form: a dict with a ``kind``
        becomes a spec of the namespace, a list becomes a tuple."""
        if isinstance(value, Mapping) and "kind" in value:
            kind = value["kind"]
            if not (isinstance(kind, str) and kind in self.namespace):
                raise SpecError(f"unknown kind {kind!r}; available: {sorted(self.namespace)}")
            return self.namespace[kind].from_dict(value)
        if isinstance(value, (list, tuple)):
            return tuple(self.decode(v) for v in value)
        return value


# -- serde base ---------------------------------------------------------------


def _encode(value: Any) -> Any:
    """One field value as plain JSON-compatible data."""
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


class Spec:
    """Base of every spec dataclass: serde, field coercion, kind dispatch.

    A family base (``PredictorSpec``, ``ModelSpec``, ``WorkloadSpec``)
    sets :attr:`registry`; its concrete kinds are frozen, slotted
    dataclasses registered with ``@<REGISTRY>.register``.  Per-kind
    checks go in :meth:`_validate`, which runs after the coercions
    (a slotted dataclass cannot call zero-argument ``super()``, so
    kinds do not override ``__post_init__``).
    """

    __slots__ = ()

    #: Registry key; also the ``"kind"`` entry of the serialized form.
    #: Empty on family bases and on kind-less records (a population
    #: branch), which serialize without one.
    kind: ClassVar[str] = ""

    #: The family registry: a family base's :meth:`from_dict` dispatches
    #: through it, and nested kind-keyed dicts decode through its namespace.
    registry: ClassVar[Registry]

    def __post_init__(self) -> None:
        for name, exact, coerce, optional in _field_coercions(type(self)):
            value = getattr(self, name)
            if type(value) is not exact and (value is not None or not optional):
                object.__setattr__(self, name, coerce(value, name))
        self._validate()

    def _validate(self) -> None:
        """Per-kind checks and normalization of the non-scalar fields."""

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form: ``{"kind": …, **fields}`` (JSON-compatible)."""
        data: dict[str, Any] = {"kind": self.kind} if self.kind else {}
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            data[f.name] = _encode(getattr(self, f.name))
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Rebuild a spec from its :meth:`to_dict` form.

        On a family base it dispatches by kind through the registry; on
        a concrete class it also checks the kind.
        """
        if not dataclasses.is_dataclass(cls):
            return cls.registry.from_dict(data)
        name = cls.kind or cls.__name__
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"a {name} spec must be an object, got {data!r}")
        if data.get("kind", cls.kind) != cls.kind:
            raise ConfigurationError(
                f"{cls.registry.family} spec kind mismatch: expected {cls.kind!r}, "
                f"got {data['kind']!r}"
            )
        fields = dataclasses.fields(cls)
        extra = set(data) - {f.name for f in fields} - {"kind"}
        if extra:
            raise ConfigurationError(f"unknown field(s) {sorted(extra, key=str)} for {name!r}")
        missing = {f.name for f in fields if f.default is MISSING is f.default_factory}
        missing -= set(data)
        if missing:
            raise ConfigurationError(f"{name!r} spec needs field(s) {sorted(missing)}")
        return cls(**{k: cls.registry.decode(v) for k, v in data.items() if k != "kind"})

    def to_json(self, **dumps_kwargs: Any) -> str:
        """JSON text form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Rebuild a spec from :meth:`to_json` output (see :meth:`from_dict`)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid spec JSON: {exc}") from None
        return cls.from_dict(data)
