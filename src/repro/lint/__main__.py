"""CLI for the project linter: ``python -m repro.lint [paths...]``.

Exit codes: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import ALLOWLIST_FILENAME, lint_paths, load_allowlist
from repro.lint.rules import RULES, all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Project-specific static analysis of repro's invariants.")
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--root", default=None,
        help="repo root anchoring relative paths, the tests/ directory, and "
             f"the default allowlist (default: cwd)")
    parser.add_argument(
        "--allowlist", default=None,
        help="allowlist JSON file of documented exceptions "
             f"(default: <root>/{ALLOWLIST_FILENAME} when present)")
    parser.add_argument(
        "--rule", action="append", default=None, metavar="NAME",
        help="run only this rule (repeatable)")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a machine-readable JSON report on stdout")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in all_rules():
            print(f"{rule.name} [{rule.scope}]\n    {rule.description}")
        return 0

    root = Path(options.root) if options.root else Path.cwd()
    rules = None
    if options.rule:
        unknown = [name for name in options.rule if name not in RULES]
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(unknown)}; "
                         f"known: {', '.join(sorted(RULES))}")
        rules = [RULES[name] for name in options.rule]

    allowlist = None
    if options.allowlist:
        try:
            allowlist = load_allowlist(Path(options.allowlist))
        except (OSError, ValueError) as error:
            parser.error(str(error))

    paths: List[Path] = [Path(path) for path in options.paths]
    try:
        report = lint_paths(paths, root=root, allowlist=allowlist, rules=rules)
    except FileNotFoundError as error:
        parser.error(str(error))
        return 2  # pragma: no cover - parser.error raises SystemExit

    if options.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return report.exit_code

    for violation in report.violations:
        print(violation.format())
    suppressed = report.suppressed_by_pragma + report.suppressed_by_allowlist
    summary = (f"repro.lint: {len(report.violations)} violation(s) in "
               f"{report.files_checked} file(s)")
    if suppressed:
        summary += (f" ({report.suppressed_by_pragma} pragma-suppressed, "
                    f"{report.suppressed_by_allowlist} allowlisted)")
    print(summary)
    for entry in report.unused_allowlist:
        print(f"note: unused allowlist entry {entry.rule} @ {entry.path} "
              f"({entry.reason}) — delete it")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
