"""RPR005 — mutable default arguments."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule

_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (
        ast.List, ast.Dict, ast.Set,
        ast.ListComp, ast.DictComp, ast.SetComp,
    )):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        return name in _MUTABLE_CALLS
    return False


class MutableDefaultRule(Rule):
    name = "RPR005"
    slug = "mutable-default"
    invariant = (
        "no mutable default arguments (list/dict/set literals or "
        "constructors); use None and fill in the body"
    )
    rationale = (
        "a mutable default is shared across calls — state leaks "
        "between queries and between test cases"
    )

    def check_module(
        self, module: ModuleContext
    ) -> Iterator[Finding]:
        tree = module.tree
        if tree is None:
            return
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            args = node.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    label = getattr(node, "name", "<lambda>")
                    yield module.finding(
                        default, self.name,
                        f"mutable default argument in {label}(); "
                        "default to None and construct inside",
                    )


register_rule(MutableDefaultRule())
