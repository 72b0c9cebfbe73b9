"""The ``repro-lint`` engine: file discovery, parsing, and rule dispatch.

The engine walks the given paths for ``*.py`` files, parses each into an
:mod:`ast` tree wrapped in a :class:`FileContext` (which also computes
the file's place in the repo layout — rules scope themselves by layer,
and :mod:`repro.lint.policy` scopes them by tree), and runs every
applicable per-file rule on it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Sequence

from . import policy
from .diagnostics import Diagnostic, SuppressionIndex
from .rules import all_rules


@dataclass
class FileContext:
    """One parsed file plus its location in the repository layout."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    suppressions: SuppressionIndex = field(init=False)

    def __post_init__(self) -> None:
        """Index suppression comments once per file."""
        self.suppressions = SuppressionIndex(self.lines)

    # -- layout scoping ------------------------------------------------
    @property
    def parts(self) -> tuple[str, ...]:
        """Path components, POSIX-normalized."""
        return PurePosixPath(self.path.replace("\\", "/")).parts

    @property
    def module_path(self) -> str | None:
        """Path relative to ``src/repro/`` when inside the package, else None."""
        parts = self.parts
        for i in range(len(parts) - 1):
            if parts[i] == "src" and parts[i + 1] == "repro":
                return "/".join(parts[i + 2:])
        return None

    @property
    def is_rng_module(self) -> bool:
        """Whether this is ``repro.sim.rng`` — the one sanctioned RNG home."""
        return self.module_path == "sim/rng.py"

    @property
    def in_core(self) -> bool:
        """Whether the file is part of ``repro.core`` (exact-arithmetic land)."""
        module = self.module_path
        return module is not None and module.startswith("core/")


def build_context(path: str, source: str) -> FileContext:
    """Parse ``source`` into a :class:`FileContext` (raises ``SyntaxError``)."""
    tree = ast.parse(source, filename=path)
    return FileContext(
        path=path, source=source, tree=tree, lines=source.splitlines()
    )


def _lint_context(
    ctx: FileContext, rules: Sequence[type] | None
) -> list[Diagnostic]:
    """Per-file rules over one parsed file (policy + suppressions applied)."""
    excluded = policy.excluded_rules(ctx.path)
    found: list[Diagnostic] = []
    for rule_cls in rules if rules is not None else all_rules():
        if rule_cls.id in excluded or not rule_cls.applies_to(ctx):
            continue
        rule = rule_cls(ctx)
        rule.visit(ctx.tree)
        found.extend(rule.diagnostics)
    return sorted(d for d in found if not ctx.suppressions.suppresses(d))


def lint_source(
    source: str,
    path: str = "src/repro/example.py",
    rules: Sequence[type] | None = None,
) -> list[Diagnostic]:
    """Lint a source string as if it lived at ``path`` (test entry point)."""
    return _lint_context(build_context(path, source), rules)


def lint_file(
    path: str | Path, rules: Sequence[type] | None = None
) -> list[Diagnostic]:
    """Lint one file on disk."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, path=str(path), rules=rules)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``*.py`` list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                seen.setdefault(sub, None)
        elif p.suffix == ".py":
            seen.setdefault(p, None)
    return sorted(seen)


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[type] | None = None,
) -> list[Diagnostic]:
    """Lint every Python file under ``paths``; returns sorted diagnostics."""
    found: list[Diagnostic] = []
    for file in iter_python_files(paths):
        found.extend(lint_file(file, rules=rules))
    return sorted(found)
