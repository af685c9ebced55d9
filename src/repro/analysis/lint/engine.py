"""Lint engine: repo context, rule registry and the ``run_lint`` driver."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.lint.diagnostics import Diagnostic, is_waived


class LintContext:
    """Cached file/AST access rooted at one repository checkout.

    Rules address files by repo-relative POSIX paths (``src/repro/...``)
    so the same rule runs unchanged against the real repository and
    against the miniature fixture trees the lint test suite builds.
    """

    __slots__ = ("root", "_text", "_tree")

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._text: Dict[str, str] = {}
        self._tree: Dict[str, ast.Module] = {}

    def path(self, rel: str) -> Path:
        """Absolute path of a repo-relative file."""
        return self.root / rel

    def exists(self, rel: str) -> bool:
        """Whether the repo-relative file exists."""
        return self.path(rel).is_file()

    def text(self, rel: str) -> str:
        """The file's text (cached; UTF-8)."""
        cached = self._text.get(rel)
        if cached is None:
            cached = self.path(rel).read_text(encoding="utf-8")
            self._text[rel] = cached
        return cached

    def lines(self, rel: str) -> List[str]:
        """The file's lines (no trailing newlines)."""
        return self.text(rel).splitlines()

    def tree(self, rel: str) -> ast.Module:
        """The parsed AST of a repo-relative Python file (cached)."""
        cached = self._tree.get(rel)
        if cached is None:
            cached = ast.parse(self.text(rel), filename=rel)
            self._tree[rel] = cached
        return cached

    def py_files(self, rel_dir: str) -> List[str]:
        """Sorted repo-relative paths of every ``.py`` file under a dir."""
        base = self.path(rel_dir)
        if not base.is_dir():
            return []
        return sorted(
            p.relative_to(self.root).as_posix() for p in base.rglob("*.py")
        )


RuleFunc = Callable[[LintContext], List[Diagnostic]]


@dataclass(frozen=True, slots=True)
class Rule:
    """One registered lint rule: stable ID, one-line summary, checker."""

    rule_id: str
    summary: str
    check: RuleFunc


def _load_rules() -> Dict[str, Rule]:
    # Imported lazily so the rule modules can import this one for
    # shared helpers without a cycle at package-import time.
    from repro.analysis.lint import (
        rule_hygiene,
        rule_keys,
        rule_reasons,
        rule_registry,
        rule_silent,
    )

    rules = (
        Rule("R1", "job-key completeness of frozen keyed dataclasses",
             rule_keys.check),
        Rule("R3", "hot-path hygiene (__slots__, module state, randomness)",
             rule_hygiene.check),
        Rule("R4", "golden-grid coverage of every registered prefetcher",
             rule_registry.check),
        Rule("R5", "non-empty decline reasons in sim/driver.py",
             rule_reasons.check),
        Rule("R6", "no bare/silent except handlers in experiments/",
             rule_silent.check),
    )
    return {rule.rule_id: rule for rule in rules}


#: Rule registry, keyed by stable rule ID.
RULES: Dict[str, Rule] = _load_rules()


@dataclass(slots=True)
class LintReport:
    """Outcome of one lint run: surviving diagnostics plus waived ones."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    waived: List[Diagnostic] = field(default_factory=list)
    rules_run: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no (unwaived) diagnostic survived."""
        return not self.diagnostics


def default_root() -> Path:
    """The repository root that owns the running ``repro`` package.

    ``src/repro/analysis/lint/engine.py`` sits four levels below the
    root, so walking up is exact for both editable installs and plain
    ``PYTHONPATH=src`` checkouts.
    """
    here = Path(__file__).resolve()
    root = here.parents[4]
    if (root / "src" / "repro").is_dir():
        return root
    return Path.cwd()


def run_lint(
    root: Optional[Path] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run the selected rules (default: all) against ``root``.

    Waivers are applied centrally: a rule reports every violation it
    sees, and diagnostics whose flagged line (or the line above it)
    carries a matching ``repro-lint: waive`` comment are moved to the
    report's ``waived`` list instead of failing the run.
    """
    context = LintContext(root if root is not None else default_root())
    selected = tuple(rules) if rules is not None else tuple(sorted(RULES))
    unknown = [rule_id for rule_id in selected if rule_id not in RULES]
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {unknown}; known: {sorted(RULES)}"
        )

    report = LintReport(rules_run=selected)
    for rule_id in selected:
        for diagnostic in RULES[rule_id].check(context):
            try:
                lines = context.lines(diagnostic.path)
            except OSError:
                lines = []
            if is_waived(diagnostic, lines):
                report.waived.append(diagnostic)
            else:
                report.diagnostics.append(diagnostic)
    report.diagnostics.sort(key=lambda d: (d.path, d.line, d.rule, d.message))
    report.waived.sort(key=lambda d: (d.path, d.line, d.rule, d.message))
    return report
