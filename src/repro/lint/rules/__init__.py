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

Determinism itself is guarded at runtime, not here: the golden replays,
``repro-dsan`` (hash-seed and GC perturbation), and the serial-vs-process
comparison of sweep merges catch wall-clock reads, unordered iteration,
RNG-stream leaks, unit mix-ups, and worker-order dependence by replaying
them.  Failure-path atomicity is runtime-checked too:
``tests/test_contract_atomicity.py`` calls every contract-decorated
mutator with outside-caller arguments and asserts a rejected call leaves
the validated state untouched, and the chaos soak's pairing law
(:class:`repro.membership.soak.PairingLaw`) checks that every
``FaultInjected`` record is completed and every move start finishes.
Contract bypass is runtime-checked as well: every contract-decorated
call verifies that the object's validated state is as the previous such
call left it (see :mod:`repro.contracts`).  The rules above cover what
no runtime check backs up.
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic

#: ID -> rule class, populated by :func:`register`.
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
    """Every registered rule class, sorted by ID."""
    return [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]


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


# Import rule modules for their registration side effects.
from . import arithmetic, determinism, hygiene  # noqa: E402,F401
