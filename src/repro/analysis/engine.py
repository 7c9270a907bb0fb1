"""Lint engine: discover files, run rules, apply suppressions.

:func:`run_lint` is the library entry point under ``repro lint`` (and
``python -m repro.analysis``, which runs that verb).  The resulting
:class:`LintReport` is fully deterministic — findings sorted by
location, no timestamps, no absolute paths — so its ``--json`` form is
byte-identical across runs on the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.context import (
    LintUsageError,
    ModuleContext,
    discover_files,
    load_module,
)
from repro.analysis.findings import ENGINE_RULE, Finding
from repro.analysis.registry import iter_rules

#: Report schema identifier (bump on breaking payload changes).
SCHEMA = "repro-lint/v1"


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]
    files_scanned: int
    rules: tuple[str, ...]
    suppressed: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict[str, object]:
        """Deterministic payload for ``--json`` (sorted, no clocks)."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "schema": SCHEMA,
            "rules": list(self.rules),
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "counts": {k: counts[k] for k in sorted(counts)},
            "findings": [f.as_dict() for f in self.findings],
        }

    def render(self) -> str:
        """Human-readable report (one line per finding + summary)."""
        lines = [f.render() for f in self.findings]
        noun = "file" if self.files_scanned == 1 else "files"
        if self.findings:
            lines.append(
                f"{len(self.findings)} finding(s) in "
                f"{self.files_scanned} {noun} "
                f"({self.suppressed} suppressed)"
            )
        else:
            lines.append(
                f"clean: {self.files_scanned} {noun}, "
                f"{len(self.rules)} rule(s), "
                f"{self.suppressed} suppressed"
            )
        return "\n".join(lines)


def _apply_suppressions(
    modules: dict[str, ModuleContext], findings: list[Finding]
) -> tuple[list[Finding], int]:
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        module = modules.get(finding.path)
        suppression = (
            module.suppressions.get(finding.line)
            if module is not None
            else None
        )
        if (
            suppression is not None
            and finding.rule != ENGINE_RULE
            and suppression.covers(finding.rule)
        ):
            suppressed += 1
            continue
        kept.append(finding)
    return kept, suppressed


def run_lint(
    paths: Sequence[str],
    *,
    select: Sequence[str] | None = None,
    root: str | Path | None = None,
) -> LintReport:
    """Lint every Python file under ``paths``.

    ``select`` restricts the run to the given rule codes (unknown
    codes raise :class:`~repro.analysis.UnknownRuleError` — exit 2 at
    the CLI).  ``root`` anchors the relative paths in the report
    (default: the current directory).

    Raises :class:`LintUsageError` for a missing path or an empty
    path list.
    """
    if not paths:
        raise LintUsageError("no paths given")
    rules = list(iter_rules(select))
    root_path = Path(root) if root is not None else Path.cwd()
    files = discover_files(list(paths))
    modules = [load_module(path, root_path) for path in files]
    by_path = {module.relpath: module for module in modules}

    findings: list[Finding] = []
    for module in modules:
        findings.extend(module.problems)
    for rule in rules:
        for module in modules:
            findings.extend(rule.check_module(module))

    kept, suppressed = _apply_suppressions(by_path, findings)
    return LintReport(
        findings=sorted(set(kept)),
        files_scanned=len(modules),
        rules=tuple(rule.name for rule in rules),
        suppressed=suppressed,
    )

