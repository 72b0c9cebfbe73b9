"""Interprocedural effect summaries over the call graph.

Some bugs live between functions: a mutator that tears contract state
on its exception path through a helper it calls, a fault driver that
emits half of a paired telemetry protocol before raising.  Finding them
needs a *summary* of what each function does that composes across the
call graph.

This module computes one :class:`EffectSummary` per function:

- **self writes** — attributes the function stores on ``self``
  (including subscript stores, augmented assigns, and ``del``);
- **emissions** — ``sink.emit(Record(...))`` sites whose argument
  resolves to a :class:`~repro.runtime.telemetry.TelemetryRecord`
  subclass, in source order;
- **head raise** — whether the function validates-then-raises before
  performing any effect (the shape of a guard like
  ``MembershipRoster.commission``).

Self writes are then propagated over *intra-class*
:class:`~repro.lint.flow.callgraph.CallGraph` edges to a fixpoint:
``all_self_writes`` of ``add_server`` includes whatever the
``self.repartition()`` it calls writes.  The two consuming rules are
:mod:`~repro.lint.flow.telemetry_gap` (RPL105) and
:mod:`~repro.lint.flow.torn_state` (RPL106); one analysis instance is
shared per project so the linter builds the graph once.

Everything here is positive evidence only: a call that cannot be
resolved, a receiver whose class is unknown, or a record argument that
is not a literal constructor contributes *nothing*, never a guess.
"""

from __future__ import annotations

import ast
import weakref
from dataclasses import dataclass, field

from ..rules import dotted_name
from .callgraph import CallGraph, FunctionNode
from .symbols import ClassInfo, Module, Project

@dataclass(frozen=True)
class EmissionSite:
    """One ``<sink>.emit(Record(...))`` call with a resolved record type."""

    record: str  #: terminal class name, e.g. ``FaultInjected``
    line: int
    col: int


@dataclass
class EffectSummary:
    """What one function does to the world, directly and transitively."""

    qualname: str
    #: Attributes this function writes on ``self`` (direct stores only).
    self_writes: frozenset = frozenset()
    #: Resolved telemetry emissions, in source order.
    emissions: tuple[EmissionSite, ...] = ()
    #: The function raises (a non-``AssertionError``) before any effect —
    #: the validate-at-head shape of a guard method.
    head_raise: bool = False
    #: Fixpoint: self writes closed over intra-class ``self.m()`` calls.
    all_self_writes: frozenset = field(default_factory=frozenset)


# ----------------------------------------------------------------------
# Shared AST helpers (also used by the consuming rules)
# ----------------------------------------------------------------------
def written_self_attr(target: ast.expr) -> str | None:
    """The ``self`` attribute a store target writes, peeling subscripts.

    ``self._owner[idx]`` and ``self._shares`` both resolve to their
    attribute name; anything not rooted at ``self`` returns None.
    """
    while isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def raise_escapes(stmt: ast.Raise) -> bool:
    """Whether a ``raise`` signals a real error to the caller.

    ``raise AssertionError(...)`` marks a branch the author believes
    unreachable (closed enums, internal sanity) and ``raise
    NotImplementedError`` marks an abstract stub a subclass overrides —
    neither is an input-validation path, so the paired-telemetry and
    torn-state rules exempt both.  Everything else (including a bare
    re-raise) escapes.
    """
    exc = stmt.exc
    if exc is None:
        return True
    if isinstance(exc, ast.Call):
        exc = exc.func
    chain = dotted_name(exc)
    return not (
        chain and chain[-1] in ("AssertionError", "NotImplementedError")
    )


def record_class(project: Project, module: Module, call: ast.Call) -> str | None:
    """Terminal class name if ``call`` constructs a telemetry record."""
    chain = dotted_name(call.func)
    if not chain:
        return None
    symbol = project.resolve_dotted(module, chain)
    if symbol is None or symbol.kind != "class":
        return None
    info = project.class_info(symbol.qualname)
    if info is not None and _is_record_class(project, info):
        return symbol.qualname.rsplit(".", 1)[-1]
    return None


def _is_record_class(project: Project, info: ClassInfo, _depth: int = 0) -> bool:
    """Whether ``info`` subclasses (or is) ``TelemetryRecord``."""
    if _depth > 8:
        return False
    if info.name == "TelemetryRecord":
        return True
    module = project.modules.get(info.module)
    if module is None:
        return False
    for base in info.base_exprs:
        chain = dotted_name(base)
        if not chain:
            continue
        if chain[-1] == "TelemetryRecord":
            return True
        symbol = project.resolve_dotted(module, chain)
        if symbol is None or symbol.kind != "class":
            continue
        base_info = project.class_info(symbol.qualname)
        if base_info is not None and _is_record_class(
            project, base_info, _depth + 1
        ):
            return True
    return False


def iter_emissions(project: Project, module: Module, node: ast.AST):
    """Yield ``(record_name, call)`` for each resolved emission in ``node``.

    An emission is ``<anything>.emit(Record(...))`` with exactly one
    positional argument that is a constructor of a project class derived
    from ``TelemetryRecord``.  Nested function bodies are not entered —
    their emissions belong to their own summary.
    """
    stack = list(ast.iter_child_nodes(node)) if not isinstance(
        node, ast.Call
    ) else [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (
            isinstance(current, ast.Call)
            and isinstance(current.func, ast.Attribute)
            and current.func.attr == "emit"
            and len(current.args) == 1
            and not current.keywords
            and isinstance(current.args[0], ast.Call)
        ):
            record = record_class(project, module, current.args[0])
            if record is not None:
                yield record, current
        stack.extend(ast.iter_child_nodes(current))


def iter_own_statements(stmts):
    """Pre-order walk over statements, not descending into nested defs."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield stmt
        for block in _child_blocks(stmt):
            yield from iter_own_statements(block)


def _child_blocks(stmt: ast.stmt):
    """Statement lists nested directly inside one compound statement."""
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------
class EffectAnalysis:
    """Per-function effect summaries plus their call-graph fixpoint."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = CallGraph(project)
        self.summaries: dict[str, EffectSummary] = {}
        for qualname, fn in self.graph.functions.items():
            self.summaries[qualname] = self._summarize(fn)
        self._propagate()

    # ------------------------------------------------------------------
    def _summarize(self, fn: FunctionNode) -> EffectSummary:
        module = self.project.modules[fn.module]
        scanner = _FunctionScanner(self.project, module, fn)
        scanner.scan()
        return EffectSummary(
            qualname=fn.qualname,
            self_writes=frozenset(scanner.self_writes),
            emissions=tuple(
                sorted(scanner.emissions, key=lambda e: (e.line, e.col))
            ),
            head_raise=self._head_raise(fn),
        )

    def _head_raise(self, fn: FunctionNode) -> bool:
        """Raise-before-any-effect: the validate-at-head guard shape.

        Effects that end the head are ``self`` stores and bare call
        statements (a call's own effects are unknown, so a raise after
        one is no longer pure validation).
        """
        for stmt in iter_own_statements(fn.node.body):
            if isinstance(stmt, ast.Raise):
                return raise_escapes(stmt)
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                if any(written_self_attr(t) is not None for t in targets):
                    return False
            elif isinstance(stmt, ast.Delete):
                if any(written_self_attr(t) is not None for t in stmt.targets):
                    return False
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                return False
        return False

    # ------------------------------------------------------------------
    def _propagate(self) -> None:
        """Close self writes over intra-class call edges, to a fixpoint.

        A cross-class call mutates a different object's state, not this
        receiver's, so only edges between methods of one class count.
        """
        writes = {q: set(s.self_writes) for q, s in self.summaries.items()}
        changed = True
        while changed:
            changed = False
            for caller, callees in self.graph.edges.items():
                if caller not in writes:
                    continue
                for callee in callees:
                    if callee not in writes:
                        continue
                    if self._intra_class(caller, callee) and not (
                        writes[caller] >= writes[callee]
                    ):
                        writes[caller] |= writes[callee]
                        changed = True
        for qualname, summary in self.summaries.items():
            summary.all_self_writes = frozenset(writes[qualname])

    def _intra_class(self, caller: str, callee: str) -> bool:
        a = self.graph.functions[caller].owner
        b = self.graph.functions[callee].owner
        return a is not None and a is b


class _FunctionScanner(ast.NodeVisitor):
    """Collects one function's direct effects (nested defs excluded)."""

    def __init__(
        self, project: Project, module: Module, fn: FunctionNode
    ) -> None:
        self.project = project
        self.module = module
        self.fn = fn
        self.self_writes: list[str] = []
        self.emissions: list[EmissionSite] = []

    def scan(self) -> None:
        for stmt in self.fn.node.body:
            self.visit(stmt)

    # -- scoping -------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Nested defs are separate graph nodes; do not descend."""

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- emissions -----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
            and len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Call)
        ):
            record = record_class(self.project, self.module, node.args[0])
            if record is not None:
                self.emissions.append(
                    EmissionSite(
                        record=record, line=node.lineno, col=node.col_offset
                    )
                )
        self.generic_visit(node)

    # -- self writes ---------------------------------------------------
    def _note_writes(self, targets) -> None:
        for target in targets:
            attr = written_self_attr(target)
            if attr is not None:
                self.self_writes.append(attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_writes(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_writes([node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note_writes([node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._note_writes(node.targets)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# One analysis per project (the two consuming rules share it)
# ----------------------------------------------------------------------
_ANALYSES: "weakref.WeakKeyDictionary[Project, EffectAnalysis]" = (
    weakref.WeakKeyDictionary()
)


def effect_analysis(project: Project) -> EffectAnalysis:
    """The (memoized) effect analysis for ``project``."""
    analysis = _ANALYSES.get(project)
    if analysis is None:
        analysis = EffectAnalysis(project)
        _ANALYSES[project] = analysis
    return analysis
