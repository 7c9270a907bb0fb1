"""``repro.analysis`` — the project's own static-analysis pass.

An AST-based invariant checker (``repro lint`` / ``python -m
repro.analysis``) over the repo's Python sources, built around a
**rule registry** (a :class:`repro.registry.Registry`).  Six rules ship
built in:

========  ======================  =======================================
code      slug                    invariant
========  ======================  =======================================
RPR001    unseeded-rng            every RNG explicitly seeded; no global
                                  or module-level RNG state
RPR002    wall-clock              wall-clock reads only inside the bench
                                  timing harness
RPR003    unsorted-set-iteration  iterating a set requires an enclosing
                                  ``sorted()``
RPR004    registry-hygiene        literal, unique registry keys;
                                  ``Unknown*Error`` names available keys
RPR005    mutable-default         no mutable default arguments
RPR006    parity-pair             ``_*_scalar`` references keep a
                                  vectorised companion + a pairing test
========  ======================  =======================================

Suppress a finding per line with a *justified* comment::

    t0 = time.perf_counter()  # repro-lint: noqa[RPR002] -- measures real wall clock

Add a rule by registering an object (same idiom as every other
registry)::

    from repro.analysis import Rule, register_rule

    class MyRule(Rule):
        name = "RPR900"
        slug = "my-invariant"
        invariant = "one-line statement"

        def check_module(self, module):
            ...  # yield Finding(...)

    register_rule(MyRule())
"""

from repro.analysis.context import (
    LintUsageError,
    ModuleContext,
    ProjectContext,
)
from repro.analysis.engine import SCHEMA, LintReport, run_lint
from repro.analysis.findings import ENGINE_RULE, Finding
from repro.analysis.registry import (
    Rule,
    UnknownRuleError,
    available_rules,
    get_rule,
    register_rule,
    rules_epilog,
)
from repro.analysis.suppress import Suppression, scan_suppressions

# Built-in rules register at import time, like the built-in backends,
# routing policies, scalers, strategies, and cache policies.
from repro.analysis import rules_determinism as _rules_determinism  # noqa: F401
from repro.analysis import rules_hygiene as _rules_hygiene  # noqa: F401
from repro.analysis import rules_registry as _rules_registry  # noqa: F401

__all__ = [
    "ENGINE_RULE",
    "Finding",
    "LintReport",
    "LintUsageError",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "SCHEMA",
    "Suppression",
    "UnknownRuleError",
    "available_rules",
    "get_rule",
    "register_rule",
    "rules_epilog",
    "run_lint",
    "scan_suppressions",
]
