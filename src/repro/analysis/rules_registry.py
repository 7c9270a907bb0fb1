"""RPR004 — registry hygiene.

The project is held together by seven string-keyed registries
(backends, routing policies, scalers, sharding strategies, cache
policies, telemetry exporters and the lint rules themselves), all built
on :class:`repro.registry.Registry`.  ``Registry.register`` rejects a
duplicate key at import and ``Registry.get`` names every registered key
when a lookup misses; what only a static check can keep is that every
key is **static** — either a string literal argument or a
string-literal ``name`` class attribute on the registered object.
Computed keys (f-strings, concatenation, ``.format``) hide the key from
grep and from a reader of the registering module.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule

_STRING_METHODS = {"format", "join", "replace", "lower", "upper", "strip"}


def _call_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_computed_string(node: ast.AST) -> bool:
    """An expression that *computes* a string (f-string, concat,
    ``.format(...)``) — never acceptable as a registry key."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Mod)
    ):
        return any(
            isinstance(side, ast.Constant)
            and isinstance(side.value, str)
            for side in (node.left, node.right)
        )
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "str":
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _STRING_METHODS
        ):
            return True
    return False


def _non_literal_name(cls: ast.ClassDef) -> ast.expr | None:
    """The value of ``cls``'s class-level ``name`` assignment when it is
    not a string literal; ``None`` when it is one or there is none."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "name" for t in targets):
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                return None
            return value
    return None


class RegistryHygieneRule(Rule):
    name = "RPR004"
    slug = "registry-hygiene"
    invariant = (
        "register_* keys, and the `name` of each registered class, "
        "are string literals"
    )
    rationale = (
        "seven registries built on repro.registry resolve every CLI "
        "flag; a computed key hides the name a flag must spell from "
        "grep and from the registering module"
    )

    def check_module(
        self, module: ModuleContext
    ) -> Iterator[Finding]:
        tree = module.tree
        if tree is None:
            return
        classes: dict[str, ast.ClassDef] | None = None
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func_name = _call_name(node.func)
            if not (func_name and func_name.startswith("register_")):
                continue
            if classes is None:
                classes = {
                    cls.name: cls
                    for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef)
                }
            finding = self._check_registration(
                module, classes, node, func_name
            )
            if finding is not None:
                yield finding

    def _check_registration(
        self,
        module: ModuleContext,
        classes: dict[str, ast.ClassDef],
        node: ast.Call,
        func_name: str,
    ) -> Finding | None:
        """The first non-literal key of one ``register_*`` call."""
        key_args = list(node.args) + [
            kw.value for kw in node.keywords if kw.arg == "name"
        ]
        for arg in key_args:
            if _is_computed_string(arg):
                return module.finding(
                    arg, self.name,
                    f"{func_name}() key must be a string literal, "
                    "not a computed string",
                )
            if isinstance(arg, ast.Call) and isinstance(
                arg.func, ast.Name
            ):
                cls = classes.get(arg.func.id)
                value = None if cls is None else _non_literal_name(cls)
                if value is not None:
                    return module.finding(
                        value, self.name,
                        "registered class must define its `name` as "
                        "a string literal",
                    )
        return None


register_rule(RegistryHygieneRule())
