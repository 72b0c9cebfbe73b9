"""The ``repro-lint`` rule registry.

Each rule is a small :class:`ast.NodeVisitor` subclass with a stable ID
(``RPL0xx``), a one-line title, a docstring explaining the invariant it
protects and why, and an autofix ``hint``.  Rules register themselves via
:func:`register`; :func:`all_rules` returns them in ID order.

Rule catalogue
--------------
- ``RPL002`` — ``np.random`` used outside ``repro.sim.rng``
- ``RPL004`` — exact float equality on computed values
- ``RPL005`` — ``int(a / b)`` instead of floor division
- ``RPL006`` — ``float()`` cast on tick quantities in ``repro.core``
- ``RPL007`` — mutable default argument
- ``RPL008`` — bare ``except:``
- ``RPL009`` — ``global`` statement in production code

Interprocedural (flow) rules — see :mod:`repro.lint.flow`:

- ``RPL103`` — mutation of contract-protected state outside mutators
- ``RPL105`` — telemetry pair split by an exception path
- ``RPL106`` — protected state written before a reachable raise

Determinism itself is guarded at runtime, not here: the golden replays,
``repro-dsan`` (hash-seed and GC perturbation), and the serial-vs-process
comparison of sweep merges catch wall-clock reads, unordered iteration,
RNG-stream leaks, unit mix-ups, and worker-order dependence by replaying
them.  The rules above cover what no replay check backs up.
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic

#: ID -> rule class (per-file ``Rule`` and whole-program ``FlowRule``),
#: populated by :func:`register`.
REGISTRY: dict[str, type] = {}


def register(rule_cls):
    """Class decorator: add ``rule_cls`` to the registry (IDs unique)."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> list[type["Rule"]]:
    """Every registered per-file rule class, sorted by ID."""
    return [
        REGISTRY[rule_id]
        for rule_id in sorted(REGISTRY)
        if issubclass(REGISTRY[rule_id], Rule)
    ]


def all_flow_rules() -> list[type["FlowRule"]]:
    """Every registered whole-program rule class, sorted by ID."""
    return [
        REGISTRY[rule_id]
        for rule_id in sorted(REGISTRY)
        if issubclass(REGISTRY[rule_id], FlowRule)
    ]


class Rule(ast.NodeVisitor):
    """Base class for lint rules: a visitor that accumulates diagnostics."""

    #: Stable rule identifier, e.g. ``"RPL002"``.
    id: str = ""
    #: One-line summary shown by ``repro-lint --list-rules``.
    title: str = ""
    #: Autofix hint appended to every diagnostic.
    hint: str = ""

    def __init__(self, ctx) -> None:
        """``ctx`` is the :class:`~repro.lint.engine.FileContext` under lint."""
        self.ctx = ctx
        self.diagnostics: list[Diagnostic] = []

    @classmethod
    def applies_to(cls, ctx) -> bool:
        """Whether this rule runs on ``ctx`` (path-based layer scoping)."""
        return True

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding anchored at ``node``."""
        self.diagnostics.append(
            Diagnostic(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule_id=self.id,
                message=message,
                hint=self.hint,
            )
        )


class FlowRule:
    """Base class for whole-program (interprocedural) lint rules.

    A flow rule receives a :class:`~repro.lint.flow.symbols.Project`
    (every package file of the run, with symbol tables) and returns its
    findings from :meth:`run`.  Unlike per-file rules there is no
    visitor protocol: each analysis drives the shared data-flow engine
    in :mod:`repro.lint.flow.dataflow` however it needs to.
    """

    #: Stable rule identifier, e.g. ``"RPL103"``.
    id: str = ""
    #: One-line summary shown by ``repro-lint --list-rules``.
    title: str = ""
    #: Autofix hint appended to every diagnostic.
    hint: str = ""

    def __init__(self, project) -> None:
        """``project`` is a :class:`~repro.lint.flow.symbols.Project`."""
        self.project = project
        self.diagnostics: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        """Analyze the project; returns (and stores) the findings."""
        raise NotImplementedError

    def report(self, path: str, line: int, col: int, message: str) -> None:
        """Record a finding at an explicit location."""
        self.diagnostics.append(
            Diagnostic(
                path=path,
                line=line,
                col=col,
                rule_id=self.id,
                message=message,
                hint=self.hint,
            )
        )


def dotted_name(node: ast.AST) -> tuple[str, ...]:
    """The dotted chain of an attribute/name expression, outermost first.

    ``np.random.default_rng`` -> ``("np", "random", "default_rng")``;
    returns ``()`` for anything that is not a pure Name/Attribute chain.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


# Import rule modules for their registration side effects.  The flow
# modules import back into this package (FlowRule, dotted_name), which is
# safe because everything they need is defined above this line.
from . import arithmetic, determinism, hygiene  # noqa: E402,F401
from ..flow import mutation, telemetry_gap, torn_state  # noqa: E402,F401
