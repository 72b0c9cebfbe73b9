"""``repro-lint``: codebase-aware static analysis for the reproduction.

Generic linters cannot know that this repository's correctness rests on
bit-for-bit deterministic simulation and exact integer tick arithmetic.
This package encodes those repository-specific invariants as AST rules
(``RPL0xx``) with a console entry point::

    repro-lint src tests benchmarks examples
    repro-lint --list-rules
    repro-lint --explain RPL002

See :mod:`repro.lint.rules` for the catalogue and
:mod:`repro.contracts` for the runtime half of the same invariants.
"""

from .diagnostics import Diagnostic, SuppressionIndex
from .engine import lint_file, lint_paths, lint_source
from .rules import REGISTRY, Rule, all_rules

__all__ = [
    "Diagnostic",
    "SuppressionIndex",
    "Rule",
    "REGISTRY",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
]
