"""RPR005 — mutable default arguments; RPR006 — parity-pair coverage.

RPR006 is project-specific: every vectorised hot path keeps its
original interpreter loop as a ``_<name>_scalar`` method (the parity
reference the perf PRs lock behavior against).  The rule checks both
halves of that contract — the vectorised companion exists in the same
module, and some test module exercises the pair side by side.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.context import ModuleContext, ProjectContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule

# ---------------------------------------------------------------------------
# RPR005 — mutable defaults
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# RPR006 — parity-pair coverage
# ---------------------------------------------------------------------------

#: `_run_scalar` -> companion `run`; `_add_many_scalar` -> `add_many`.
_SCALAR_NAME_RE = re.compile(r"^_(?P<base>\w+?)_scalar$")


class ParityPairRule(Rule):
    name = "RPR006"
    slug = "parity-pair"
    invariant = (
        "every _<name>_scalar parity reference has a vectorised "
        "<name> companion in the same module and a test exercising "
        "both"
    )
    rationale = (
        "the scalar loop is the ground truth the vectorised rewrite "
        "is judged against; an untested or orphaned pair lets the "
        "two drift apart silently"
    )

    def __init__(self) -> None:
        self._pairs: list[tuple[str, int, str, str]] = []

    def check_module(
        self, module: ModuleContext
    ) -> Iterator[Finding]:
        tree = module.tree
        if tree is None or module.is_test:
            return
        names = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            match = _SCALAR_NAME_RE.match(node.name)
            if match is None:
                continue
            companion = match.group("base")
            if companion not in names:
                yield module.finding(
                    node, self.name,
                    f"parity reference {node.name}() has no "
                    f"vectorised companion {companion}() in this "
                    "module",
                )
                continue
            self._pairs.append(
                (module.relpath, node.lineno, node.name, companion)
            )

    def finalize(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        pairs = self._pairs
        self._pairs = []
        if not project.has_tests:
            # The lint run does not include the test tree (e.g.
            # `repro lint src`): companion existence was still
            # checked, coverage cannot be.
            return
        tests = project.test_modules()
        for relpath, line, scalar, companion in pairs:
            covered = any(
                scalar in test.referenced_names()
                and companion in test.referenced_names()
                for test in tests
            )
            if not covered:
                yield Finding(
                    path=relpath,
                    line=line,
                    col=0,
                    rule=self.name,
                    message=(
                        f"no test references both {scalar}() and "
                        f"{companion}() — the parity pair is not "
                        "locked by the suite"
                    ),
                )


register_rule(MutableDefaultRule())
register_rule(ParityPairRule())
