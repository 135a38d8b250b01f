"""Spec-contract rules (``S2xx``): the declarative-layer guarantees.

PRs 2 and 4 established the contract every ``*Spec`` dataclass must
honor: frozen (specs are hashable identities — cache keys, session
dedupe keys, content keys), registered in its kind registry (JSON
round-trips dispatch through it), and fully serialized (an overriding
``to_dict`` that drops a field silently loses state across a
round-trip, which is exactly the class of bug a content key cannot
catch — equal keys would describe unequal specs).
"""

from __future__ import annotations

import ast

from .core import FileContext, Rule, register_rule
from .findings import Finding, Severity

__all__ = ["SpecFrozenRule", "SpecRegisteredRule", "SpecToDictCompleteRule"]


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` / ``@dataclasses.dataclass(...)`` decorator, if any."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return decorator
    return None


def _is_spec_class(node: ast.ClassDef) -> bool:
    return node.name.endswith("Spec")


def _declared_fields(node: ast.ClassDef) -> list[str]:
    """Dataclass field names: annotated class-level names, minus ClassVars."""
    fields: list[str] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        annotation = ast.unparse(statement.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append(statement.target.id)
    return fields


def _kind_value(node: ast.ClassDef) -> str | None:
    """The ``kind: ClassVar[str] = "..."`` literal, if declared."""
    for statement in node.body:
        if (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and statement.target.id == "kind"
            and statement.value is not None
            and isinstance(statement.value, ast.Constant)
            and isinstance(statement.value.value, str)
        ):
            return statement.value.value
    return None


@register_rule
class SpecFrozenRule(Rule):
    """Every ``*Spec`` dataclass must be ``frozen=True``."""

    id = "S201"
    name = "spec-not-frozen"
    severity = Severity.ERROR
    description = (
        "a `*Spec` dataclass without `frozen=True` is mutable: its hash can "
        "rot inside session dedupe maps and cache keys; specs are identities "
        "and must be immutable"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ctx.walk():
            if not isinstance(node, ast.ClassDef) or not _is_spec_class(node):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue  # not a dataclass: the contract targets dataclass specs
            frozen = False
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        frozen = True
            if not frozen:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"spec dataclass `{node.name}` is not `frozen=True`; "
                        "specs are hashable identities and must be immutable",
                    )
                )
        return findings


@register_rule
class SpecRegisteredRule(Rule):
    """Concrete spec kinds must enter their registry."""

    id = "S202"
    name = "spec-unregistered"
    severity = Severity.ERROR
    scope = ("spec.py", "workload_spec.py")
    description = (
        "a concrete `*Spec` dataclass declaring a `kind` must carry its "
        "registry decorator (`@PREDICTORS.register`, `@WORKLOADS.register`, "
        "`@MODELS.register`, or a `_register` function); an unregistered "
        "kind serializes fine but `from_dict` cannot ever round-trip it back"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ctx.walk():
            if not isinstance(node, ast.ClassDef) or not _is_spec_class(node):
                continue
            if _dataclass_decorator(node) is None or _kind_value(node) is None:
                continue
            registered = False
            for decorator in node.decorator_list:
                target = (
                    decorator.func if isinstance(decorator, ast.Call) else decorator
                )
                name = None
                if isinstance(target, ast.Name):
                    name = target.id
                elif isinstance(target, ast.Attribute):
                    name = target.attr
                if name is not None and (
                    name.startswith("_register") or name.startswith("register")
                ):
                    registered = True
            if not registered:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"spec dataclass `{node.name}` declares kind "
                        f"{_kind_value(node)!r} but no registry decorator; "
                        "`from_dict`/JSON round-trips cannot reach it",
                    )
                )
        return findings


@register_rule
class SpecToDictCompleteRule(Rule):
    """An overriding ``to_dict`` must serialize every declared field."""

    id = "S203"
    name = "spec-to-dict-incomplete"
    severity = Severity.ERROR
    description = (
        "a `*Spec`/spec-layer dataclass overriding `to_dict` must reference "
        "every declared field (or iterate `dataclasses.fields`); a dropped "
        "field silently loses state across serialize/deserialize round-trips"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ctx.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            if _dataclass_decorator(node) is None:
                continue
            to_dict = None
            for statement in node.body:
                if (
                    isinstance(statement, ast.FunctionDef)
                    and statement.name == "to_dict"
                ):
                    to_dict = statement
            if to_dict is None:
                continue
            fields = _declared_fields(node)
            if not fields:
                continue
            body_source = ast.unparse(to_dict)
            if "fields(" in body_source:
                continue  # generic field iteration covers everything
            referenced: set[str] = set()
            for inner in ast.walk(to_dict):
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                ):
                    referenced.add(inner.attr)
                elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    referenced.add(inner.value)
            missing = [name for name in fields if name not in referenced]
            if missing:
                findings.append(
                    self.finding(
                        ctx,
                        to_dict,
                        f"`{node.name}.to_dict` never references declared "
                        f"field(s) {', '.join(repr(m) for m in missing)}; a "
                        "round-trip through it silently drops that state",
                    )
                )
        return findings
