"""Project-specific static analysis: mechanical enforcement of repro's invariants.

Six PRs of growth left the reproduction's correctness resting on conventions
that no generic linter checks: hot numerics must go through the one
:mod:`repro.kernels` module (or the stage ledger silently stops timing
them), seeds must be derived via :func:`repro.utils.rng.derive_seed` (or
campaign merges stop being bit-identical), and campaign store writes must be
atomic tmp + ``os.replace`` (or a crashed worker leaves torn records).  This
package turns each convention into an AST rule so CI enforces them the same
way the bit-identity test matrix gates executor backends.

Run it as ``python -m repro.lint src/`` (exit 0 = clean).  Suppress a single
line with ``# repro-lint: disable=<rule>`` and a documented whole-file
exception with an entry in the repo-root ``.repro-lint.json`` allowlist; both
forms require the reason to live next to the suppression, and both must name
a registered rule (a pragma that names none is itself a violation).
"""

from __future__ import annotations

from repro.lint.engine import (
    Allowlist,
    AllowlistEntry,
    LintReport,
    lint_paths,
    load_allowlist,
)
from repro.lint.rules import RULES, Rule, all_rules, get_rule
from repro.lint.violations import FileContext, ProjectContext, Violation

__all__ = [
    "Allowlist",
    "AllowlistEntry",
    "FileContext",
    "LintReport",
    "ProjectContext",
    "RULES",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "load_allowlist",
]
