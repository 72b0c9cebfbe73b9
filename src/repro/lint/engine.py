"""The ``repro-lint`` engine: file discovery, parsing, and rule dispatch.

The engine walks the given paths for ``*.py`` files, parses each into an
:mod:`ast` tree wrapped in a :class:`FileContext` (which also computes
the file's place in the repo layout — rules scope themselves by layer,
and :mod:`repro.lint.policy` scopes them by tree), runs every applicable
per-file rule, and then hands the package files to the whole-program
analyses in :mod:`repro.lint.flow`.

Both halves are cached by content hash (see
:mod:`repro.lint.flow.cache`): pass a :class:`~repro.lint.flow.cache.
LintCache` to :func:`lint_paths` and warm full-tree runs skip parsing
and analysis entirely.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Mapping, Sequence

from . import policy
from .diagnostics import Diagnostic, SuppressionIndex
from .rules import FlowRule, Rule, all_rules


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
        return _package_path(self.path)

    @property
    def in_package(self) -> bool:
        """Whether the file is production code under ``src/repro/``."""
        return self.module_path is not None

    @property
    def is_rng_module(self) -> bool:
        """Whether this is ``repro.sim.rng`` — the one sanctioned RNG home."""
        return self.module_path == "sim/rng.py"

    @property
    def in_core(self) -> bool:
        """Whether the file is part of ``repro.core`` (exact-arithmetic land)."""
        module = self.module_path
        return module is not None and module.startswith("core/")


def _package_path(path: str) -> str | None:
    """Path relative to ``src/repro/`` when inside the package, else None."""
    parts = PurePosixPath(str(path).replace("\\", "/")).parts
    for i in range(len(parts) - 1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            return "/".join(parts[i + 2:])
    return None


def build_context(path: str, source: str) -> FileContext:
    """Parse ``source`` into a :class:`FileContext` (raises ``SyntaxError``)."""
    tree = ast.parse(source, filename=path)
    return FileContext(
        path=path, source=source, tree=tree, lines=source.splitlines()
    )


def _file_rules(rules: Sequence[type] | None) -> Sequence[type] | None:
    if rules is None:
        return None
    return [r for r in rules if issubclass(r, Rule)]


def _flow_rules(rules: Sequence[type] | None) -> Sequence[type] | None:
    if rules is None:
        return None
    return [r for r in rules if issubclass(r, FlowRule)]


def _lint_context(
    ctx: FileContext, rules: Sequence[type] | None
) -> list[Diagnostic]:
    """Per-file rules over one parsed file (policy + suppressions applied)."""
    excluded = policy.excluded_rules(ctx.path)
    found: list[Diagnostic] = []
    for rule_cls in rules if rules is not None else all_rules():
        if not issubclass(rule_cls, Rule):
            continue
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
    """Lint a source string as if it lived at ``path`` (test entry point).

    Runs per-file rules only; whole-program rules need a project — see
    :func:`lint_project`.
    """
    return _lint_context(build_context(path, source), rules)


def lint_file(
    path: str | Path, rules: Sequence[type] | None = None
) -> list[Diagnostic]:
    """Lint one file on disk."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, path=str(path), rules=rules)


def lint_project(
    sources: Mapping[str, str],
    rules: Sequence[type] | None = None,
) -> list[Diagnostic]:
    """Lint an in-memory project: per-file rules plus flow analyses.

    ``sources`` maps synthetic paths to source text; files whose paths
    place them under ``src/repro/`` participate in the whole-program
    analyses.  This is the fixture entry point for the RPL1xx rules.
    """
    from .flow import analyze_project

    contexts = [build_context(path, text) for path, text in sources.items()]
    found: list[Diagnostic] = []
    for ctx in contexts:
        found.extend(_lint_context(ctx, rules))
    found.extend(analyze_project(contexts, rules=_flow_rules(rules)))
    return sorted(found)


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
    cache=None,
) -> list[Diagnostic]:
    """Lint every Python file under ``paths``; returns sorted diagnostics.

    Runs the per-file rules on each file and the whole-program (flow)
    rules on the package files among them.  ``cache`` is an optional
    :class:`~repro.lint.flow.cache.LintCache`; hits skip parsing and
    analysis (the flow result is keyed by the hash of *every* package
    file, so cross-file staleness is impossible).
    """
    from .flow import analyze_project
    from .flow.cache import content_hash, project_hash, rules_token

    token = rules_token(sorted(r.id for r in rules) if rules is not None else None)
    file_rules = _file_rules(rules)
    flow_rules = _flow_rules(rules)

    found: list[Diagnostic] = []
    contexts: dict[str, FileContext] = {}
    package_files: list[tuple[str, str, str]] = []  # (path, source, hash)
    for file in iter_python_files(paths):
        path = str(file)
        text = file.read_text(encoding="utf-8")
        digest = content_hash(text)
        diagnostics = (
            cache.get_file(digest, token) if cache is not None else None
        )
        if diagnostics is None:
            file_ctx = build_context(path, text)
            contexts[path] = file_ctx
            diagnostics = _lint_context(file_ctx, file_rules)
            if cache is not None:
                cache.put_file(digest, token, diagnostics)
        found.extend(diagnostics)
        if _package_path(path) is not None:
            package_files.append((path, text, digest))

    run_flow = (flow_rules is None or flow_rules) and package_files
    if run_flow:
        tree_hash = project_hash((p, h) for p, _, h in package_files)
        cached = (
            cache.get_project(tree_hash, token) if cache is not None else None
        )
        if cached is not None:
            found.extend(cached)
        else:
            project_contexts = [
                contexts.get(p) or build_context(p, text)
                for p, text, _ in package_files
            ]
            flow_diags = analyze_project(project_contexts, rules=flow_rules)
            if cache is not None:
                cache.put_project(tree_hash, token, flow_diags)
            found.extend(flow_diags)
    if cache is not None:
        cache.save()
    return sorted(found)
