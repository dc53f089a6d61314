"""File collection, allowlist handling, and the lint run itself."""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.rules import RULES, Rule, all_rules
from repro.lint.violations import (
    FileContext,
    ProjectContext,
    Violation,
    parse_pragmas,
)

__all__ = ["Allowlist", "AllowlistEntry", "LintReport", "collect_files",
           "lint_paths", "load_allowlist"]

#: Directory names never descended into when expanding path arguments.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules",
                        ".mypy_cache", ".ruff_cache"})

#: Default allowlist filename, looked up in the lint root.
ALLOWLIST_FILENAME = ".repro-lint.json"


@dataclass(frozen=True)
class AllowlistEntry:
    """One documented whole-file exception: (rule, path) plus its reason."""

    rule: str
    path: str
    reason: str

    def matches(self, violation: Violation) -> bool:
        return (self.rule == violation.rule
                and violation.path.replace("\\", "/") == self.path)


@dataclass
class Allowlist:
    """The parsed allowlist plus bookkeeping of which entries fired."""

    entries: Tuple[AllowlistEntry, ...] = ()
    source: Optional[Path] = None
    _used: Dict[AllowlistEntry, int] = field(default_factory=dict)

    def suppresses(self, violation: Violation) -> bool:
        for entry in self.entries:
            if entry.matches(violation):
                self._used[entry] = self._used.get(entry, 0) + 1
                return True
        return False

    def unused_entries(self) -> List[AllowlistEntry]:
        """Entries that suppressed nothing — candidates for deletion."""
        return [entry for entry in self.entries if entry not in self._used]


def load_allowlist(path: Path) -> Allowlist:
    """Parse an allowlist file, validating every entry carries a reason."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ValueError(f"allowlist {path} is not valid JSON: {error}") from error
    if not isinstance(document, dict) or not isinstance(
            document.get("entries"), list):
        raise ValueError(
            f"allowlist {path} must be an object with an 'entries' list")
    entries = []
    for index, raw in enumerate(document["entries"]):
        if not isinstance(raw, dict):
            raise ValueError(f"allowlist {path} entry {index} must be an object")
        rule = raw.get("rule")
        rel = raw.get("path")
        reason = raw.get("reason")
        if not isinstance(rule, str) or rule not in RULES:
            known = ", ".join(sorted(RULES))
            raise ValueError(
                f"allowlist {path} entry {index}: unknown rule {rule!r} "
                f"(known rules: {known})")
        if not isinstance(rel, str) or not rel.strip():
            raise ValueError(
                f"allowlist {path} entry {index}: 'path' must be a non-empty "
                "string")
        if not isinstance(reason, str) or not reason.strip():
            raise ValueError(
                f"allowlist {path} entry {index}: every exception must state "
                "a non-empty 'reason'")
        entries.append(AllowlistEntry(rule=rule, path=rel.replace("\\", "/"),
                                      reason=reason.strip()))
    return Allowlist(entries=tuple(entries), source=path)


@dataclass
class LintReport:
    """The outcome of one lint run."""

    violations: List[Violation]
    files_checked: int
    rules_run: Tuple[str, ...]
    suppressed_by_pragma: int = 0
    suppressed_by_allowlist: int = 0
    unused_allowlist: List[AllowlistEntry] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def to_dict(self) -> Dict[str, object]:
        """The stable ``--json`` document (schema pinned by the tests)."""
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "rules": list(self.rules_run),
            "violations": [violation.to_dict() for violation in self.violations],
            "counts": counts,
            "suppressed": {"pragma": self.suppressed_by_pragma,
                           "allowlist": self.suppressed_by_allowlist},
            "unused_allowlist": [
                {"rule": entry.rule, "path": entry.path, "reason": entry.reason}
                for entry in self.unused_allowlist],
        }


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    collected: List[Path] = []
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(
                candidate for candidate in path.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in candidate.parts))
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return collected


def _relative_to_root(path: Path, root: Path) -> str:
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        relative = path
    return relative.as_posix()


def _parse_file(path: Path, root: Path) -> Tuple[Optional[FileContext],
                                                 Optional[Violation]]:
    relpath = _relative_to_root(path, root)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as error:
        return None, Violation(
            rule="parse-error", path=relpath,
            line=getattr(error, "lineno", 1) or 1, col=0,
            message=f"could not parse file: {error}")
    lines = source.splitlines()
    return FileContext(path=path, relpath=relpath, tree=tree, lines=lines,
                       pragmas=parse_pragmas(source)), None


def _unknown_pragmas(context: FileContext) -> Iterable[Violation]:
    """Pragmas naming no registered rule: a typo, or a rule since deleted."""
    for line, names in sorted(context.pragmas.items()):
        for name in sorted(names - RULES.keys() - {"all"}):
            yield Violation(
                rule="unknown-pragma", path=context.relpath, line=line, col=0,
                message=f"pragma disables {name!r}, which is no registered "
                        "rule; fix the name or delete the pragma")


def lint_paths(paths: Sequence[Path], root: Optional[Path] = None,
               allowlist: Optional[Allowlist] = None,
               rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Run ``rules`` (default: all) over ``paths`` and report violations.

    ``root`` anchors relative paths in messages, locates the ``tests/``
    directory for cross-file rules, and is where the default allowlist
    lives; it defaults to the current working directory.
    """
    root = Path.cwd() if root is None else root
    active = list(all_rules()) if rules is None else list(rules)
    if allowlist is None:
        default_path = root / ALLOWLIST_FILENAME
        allowlist = (load_allowlist(default_path) if default_path.is_file()
                     else Allowlist())

    contexts: List[FileContext] = []
    raw_violations: List[Violation] = []
    for path in collect_files(paths):
        context, parse_violation = _parse_file(path, root)
        if parse_violation is not None:
            raw_violations.append(parse_violation)
        if context is not None:
            contexts.append(context)

    tests_dir = root / "tests"
    project = ProjectContext(root=root, files=tuple(contexts),
                             tests_dir=tests_dir if tests_dir.is_dir() else None)

    for active_rule in active:
        if active_rule.scope == "file":
            for context in contexts:
                raw_violations.extend(active_rule.check(context))
        else:
            raw_violations.extend(active_rule.check(project))

    by_relpath = {context.relpath: context for context in contexts}
    violations: List[Violation] = []
    seen = set()
    suppressed_pragma = 0
    suppressed_allowlist = 0
    for violation in raw_violations:
        if violation in seen:
            continue
        seen.add(violation)
        context = by_relpath.get(violation.path)
        if context is not None and context.suppressed(violation.rule,
                                                      violation.line):
            suppressed_pragma += 1
            continue
        if allowlist.suppresses(violation):
            suppressed_allowlist += 1
            continue
        violations.append(violation)
    for context in contexts:
        violations.extend(_unknown_pragmas(context))

    violations.sort(key=lambda item: (item.path, item.line, item.col, item.rule))
    return LintReport(
        violations=violations,
        files_checked=len(contexts),
        rules_run=tuple(active_rule.name for active_rule in active),
        suppressed_by_pragma=suppressed_pragma,
        suppressed_by_allowlist=suppressed_allowlist,
        unused_allowlist=allowlist.unused_entries(),
    )
