"""Violation records and the parsed-file contexts rules run against."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

__all__ = ["FileContext", "ProjectContext", "Violation", "parse_pragmas"]

#: ``# repro-lint: disable=<rule>[,<rule>...]`` (or ``disable=all``) in a
#: comment on the offending line suppresses those rules for that line.
_PRAGMA_PATTERN = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-\s]+)")


@dataclass(frozen=True)
class Violation:
    """One rule hit: where it is, which rule fired, and why it matters."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """The human one-liner (``path:line:col: rule: message``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """The ``--json`` form of this violation."""
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}


def parse_pragmas(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule names a comment there disables."""
    pragmas: Dict[int, FrozenSet[str]] = {}
    readline = io.StringIO(source).readline
    for token in tokenize.generate_tokens(readline):
        match = _PRAGMA_PATTERN.search(token.string)
        if token.type != tokenize.COMMENT or match is None:
            continue
        names = frozenset(
            name.strip() for name in match.group(1).split(",") if name.strip())
        if names:
            pragmas[token.start[0]] = names
    return pragmas


@dataclass
class FileContext:
    """One parsed source file, as a per-file rule sees it."""

    path: Path
    relpath: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: Line -> rule names disabled by a ``repro-lint: disable=`` pragma.
    pragmas: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def violation(self, rule: str, node: ast.AST, message: str) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(rule=rule, path=self.relpath,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0), message=message)

    def suppressed(self, rule: str, line: int) -> bool:
        """True when a pragma on ``line`` disables ``rule`` (or ``all``)."""
        disabled = self.pragmas.get(line)
        return disabled is not None and (rule in disabled or "all" in disabled)


@dataclass
class ProjectContext:
    """Everything a cross-file rule needs: all parsed files plus the layout."""

    root: Path
    files: Tuple[FileContext, ...]
    #: The repo's ``tests/`` directory, when it exists (conformance suites).
    tests_dir: Optional[Path] = None

    def find(self, relpath_suffix: str) -> Optional[FileContext]:
        """The analysed file whose relpath ends with ``relpath_suffix``."""
        for context in self.files:
            if context.relpath.endswith(relpath_suffix):
                return context
        return None
