"""Whole-program analysis for ``repro-lint``: the ``flow`` subpackage.

Per-file AST visitors cannot see the bugs that cross function
boundaries: interval/ownership state mutated around the contract layer
by code that no contract wrapper runs after.  This subpackage holds the
interprocedural framework that rule is built on:

- :mod:`~repro.lint.flow.symbols` — a project-wide symbol table and
  import resolver (relative imports, ``__init__`` re-exports);
- :mod:`~repro.lint.flow.callgraph` — a call-graph builder with
  best-effort receiver-type inference; calls it cannot resolve degrade
  to an explicit "unknown" bucket rather than guessed edges;
- :mod:`~repro.lint.flow.dataflow` — a forward data-flow engine that
  resolves each attribute store's receiver class across function
  boundaries;
- the rule built on top: :mod:`~repro.lint.flow.mutation` (RPL103);
- :mod:`~repro.lint.flow.cache` — an on-disk content-hash cache so warm
  full-tree runs skip parsing and analysis entirely.

The entry point is :func:`analyze_project`, called by the engine with
every parsed file; flow rules analyze only the files that map into the
``repro`` package (everything else has no module identity to resolve).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..diagnostics import Diagnostic
from .symbols import Project


def build_project(contexts: Iterable) -> Project:
    """A :class:`Project` over the package files among ``contexts``."""
    return Project([ctx for ctx in contexts if ctx.in_package])


def analyze_project(
    contexts: Sequence,
    rules: Sequence[type] | None = None,
) -> list[Diagnostic]:
    """Run the selected flow rules over ``contexts`` (parsed files).

    ``rules`` is a sequence of :class:`~repro.lint.rules.FlowRule`
    subclasses (default: every registered flow rule).  Suppression
    comments are honored per file, exactly as for per-file rules.
    """
    from ..rules import all_flow_rules

    contexts = list(contexts)
    project = build_project(contexts)
    if not project.modules:
        return []
    suppressions = {ctx.path: ctx.suppressions for ctx in contexts}
    found: list[Diagnostic] = []
    for rule_cls in rules if rules is not None else all_flow_rules():
        analysis = rule_cls(project)
        for diagnostic in analysis.run():
            index = suppressions.get(diagnostic.path)
            if index is not None and index.suppresses(diagnostic):
                continue
            found.append(diagnostic)
    return sorted(found)
