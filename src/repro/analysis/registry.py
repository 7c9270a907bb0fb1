"""Lint-rule registry.

Rules are *objects* registered at import time in a
:class:`repro.registry.Registry`, and third-party rules plug in the same
way the built-ins do::

    from repro.analysis import Rule, register_rule

    class NoPrintRule(Rule):
        name = "RPR901"
        slug = "no-print"
        invariant = "library code never calls print()"

        def check_module(self, module):
            ...  # yield Finding(...)

    register_rule(NoPrintRule())

The registry key is the rule's ``name`` — a ``RPR``-prefixed code that
doubles as the suppression code in ``# repro-lint: noqa[RPR...]``
comments.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.registry import Registry, UnknownNameError

if TYPE_CHECKING:
    from repro.analysis.context import ModuleContext
    from repro.analysis.findings import Finding

#: Rule codes look like RPR001 — the suppression parser relies on this.
RULE_CODE_RE = re.compile(r"^RPR\d{3}$")


class UnknownRuleError(UnknownNameError):
    """Raised when a rule code is not in the registry."""


class Rule:
    """Base class every lint rule extends: ``check_module`` runs once
    per linted file and yields its findings."""

    name: str = ""
    """Registry key and suppression code (``RPR001`` ...)."""

    slug: str = ""
    """Short human label (``unseeded-rng``)."""

    invariant: str = ""
    """One-line statement of the invariant the rule defends."""

    rationale: str = ""
    """Why the invariant matters to this project."""

    def check_module(
        self, module: "ModuleContext"
    ) -> Iterable["Finding"]:
        return ()


_REGISTRY: Registry[Rule] = Registry("lint rule", "rules", UnknownRuleError)
get_rule = _REGISTRY.get
available_rules = _REGISTRY.names


def register_rule(rule: Rule, *, replace: bool = False) -> Rule:
    """:meth:`Registry.register <repro.registry.Registry.register>` for a
    rule whose code matches ``RPR###``, the suppression-comment format."""
    name = getattr(rule, "name", None)
    if isinstance(name, str) and not RULE_CODE_RE.match(name):
        raise ValueError(
            f"rule code {name!r} must match RPR### (e.g. 'RPR001')"
        )
    return _REGISTRY.register(rule, replace=replace)


def iter_rules(
    select: Iterable[str] | None = None,
) -> Iterator[Rule]:
    """Yield selected rules in code order (all rules when ``select``
    is None).  Unknown codes raise :class:`UnknownRuleError`."""
    if select is None:
        codes: Iterable[str] = available_rules()
    else:
        codes = sorted(dict.fromkeys(select))
    for code in codes:
        yield get_rule(code)


def rules_epilog() -> str:
    """Live registry listing for ``--help`` epilogs.

    Built from the registry at parser-construction time (the same
    pattern as the backend / policy / strategy epilogs) so third-party
    rules show up in the help text automatically.
    """
    lines = ["registered lint rules:"]
    for code in available_rules():
        rule = get_rule(code)
        lines.append(f"  {code}  {rule.slug:<22} {rule.invariant}")
    return "\n".join(lines)
