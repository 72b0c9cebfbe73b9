"""Project-wide symbol table and import resolver.

A :class:`Project` maps every linted file inside ``src/repro/`` to a
:class:`Module` with a dotted name (``repro.sim.rng``) and a table of its
top-level symbols: functions, classes (with their methods and dataclass
fields), and imports.  :meth:`Project.resolve` chases a fully qualified
name through import aliases and ``__init__``-re-exports to the defining
symbol, which is what lets the call graph and the data-flow analyses see
``from ..sim.rng import StreamFactory`` and ``from repro.sim import
StreamFactory`` as the same class.

Resolution is best-effort and never guesses: a name that leaves the
project (``numpy.random``) or cannot be followed resolves to ``None``
and downstream analyses degrade to "unknown".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class Symbol:
    """One resolvable top-level (or class-level) definition."""

    #: ``"function"``, ``"class"``, ``"import"``, or ``"value"``.
    kind: str
    #: Fully qualified name, e.g. ``repro.sim.rng.StreamFactory``.
    qualname: str
    #: Defining module's dotted name.
    module: str
    #: The defining AST node (None for imports: ``target`` says where).
    node: ast.AST | None = None
    #: For ``kind == "import"``: the qualified name the alias points at.
    target: str | None = None


class ClassInfo:
    """A class definition: methods, dataclass fields, decorators, bases."""

    def __init__(self, module: str, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.qualname = f"{module}.{node.name}"
        self.name = node.name
        #: method name -> FunctionDef/AsyncFunctionDef node.
        self.methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        #: annotated class-body fields in declaration order (dataclasses).
        self.fields: list[str] = []
        #: field/attr name -> annotation expression (class body AnnAssign).
        self.field_annotations: dict[str, ast.expr] = {}
        self.base_exprs: list[ast.expr] = node.bases
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.fields.append(stmt.target.id)
                self.field_annotations[stmt.target.id] = stmt.annotation

    @property
    def has_explicit_init(self) -> bool:
        """Whether the class defines ``__init__`` itself."""
        return "__init__" in self.methods


class Module:
    """One parsed package file plus its symbol table."""

    def __init__(self, ctx) -> None:
        """``ctx`` is the engine's FileContext for a file under src/repro."""
        self.ctx = ctx
        self.name = module_name(ctx.module_path)
        #: local top-level name -> Symbol.
        self.symbols: dict[str, Symbol] = {}
        #: local class name -> ClassInfo (also reachable via symbols).
        self.classes: dict[str, ClassInfo] = {}
        self._index()
        self._index_local_imports()

    def _index(self) -> None:
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.symbols[stmt.name] = Symbol(
                    kind="function",
                    qualname=f"{self.name}.{stmt.name}",
                    module=self.name,
                    node=stmt,
                )
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(self.name, stmt)
                self.classes[stmt.name] = info
                self.symbols[stmt.name] = Symbol(
                    kind="class",
                    qualname=info.qualname,
                    module=self.name,
                    node=stmt,
                )
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.symbols[local] = Symbol(
                        kind="import",
                        qualname=f"{self.name}.{local}",
                        module=self.name,
                        target=target,
                    )
            elif isinstance(stmt, ast.ImportFrom):
                base = self._import_base(stmt)
                if base is None:
                    continue
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.symbols[local] = Symbol(
                        kind="import",
                        qualname=f"{self.name}.{local}",
                        module=self.name,
                        target=f"{base}.{alias.name}" if base else alias.name,
                    )
            elif isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        self.symbols[tgt.id] = Symbol(
                            kind="value",
                            qualname=f"{self.name}.{tgt.id}",
                            module=self.name,
                            node=stmt.value,
                        )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.symbols[stmt.target.id] = Symbol(
                    kind="value",
                    qualname=f"{self.name}.{stmt.target.id}",
                    module=self.name,
                    node=stmt.value,
                )

    def _index_local_imports(self) -> None:
        """Fold function-local imports into the symbol table.

        Modules break import cycles (and defer heavy dependencies) with
        imports *inside* function bodies; for whole-program resolution
        they bind the same names to the same targets as module-level
        imports, just later.  ``setdefault`` keeps any top-level binding
        authoritative, so the (rare) shadowing case degrades to the old
        behaviour rather than misresolving.
        """
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (
                        alias.name
                        if alias.asname
                        else alias.name.split(".")[0]
                    )
                    self.symbols.setdefault(
                        local,
                        Symbol(
                            kind="import",
                            qualname=f"{self.name}.{local}",
                            module=self.name,
                            target=target,
                        ),
                    )
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.symbols.setdefault(
                        local,
                        Symbol(
                            kind="import",
                            qualname=f"{self.name}.{local}",
                            module=self.name,
                            target=(
                                f"{base}.{alias.name}" if base else alias.name
                            ),
                        ),
                    )

    def _import_base(self, stmt: ast.ImportFrom) -> str | None:
        """Absolute dotted module a ``from X import ...`` refers to."""
        if stmt.level == 0:
            return stmt.module or ""
        # Relative: strip (level) components off this module's package.
        parts = self.name.split(".")
        # A module's package is itself for __init__, else its parent.
        if not self.is_package:
            parts = parts[:-1]
        drop = stmt.level - 1
        if drop > len(parts):
            return None
        base_parts = parts[: len(parts) - drop] if drop else parts
        if stmt.module:
            base_parts = [*base_parts, stmt.module]
        return ".".join(base_parts)

    @property
    def is_package(self) -> bool:
        """Whether this module is an ``__init__.py``."""
        return self.ctx.module_path.endswith("__init__.py")


def module_name(module_path: str) -> str:
    """Dotted module name for a path relative to ``src/repro/``."""
    parts = module_path[: -len(".py")].split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro", *parts]) if parts else "repro"


class Project:
    """All package modules of one lint run, with cross-module resolution."""

    def __init__(self, contexts: Iterable) -> None:
        self.modules: dict[str, Module] = {}
        for ctx in contexts:
            module = Module(ctx)
            self.modules[module.name] = module

    # ------------------------------------------------------------------
    def resolve(self, qualname: str, _depth: int = 0) -> Symbol | None:
        """The defining Symbol for a fully qualified name, or None.

        Chases import aliases (including ``__init__`` re-exports) with a
        depth guard so import cycles terminate as unresolved.
        """
        if _depth > 16:
            return None
        module, attr = self._split(qualname)
        if module is None:
            return None
        symbol = module.symbols.get(attr)
        if symbol is None:
            return None
        if symbol.kind == "import":
            if symbol.target is None:
                return None
            # The target may itself be a module (import of a submodule).
            if symbol.target in self.modules:
                return Symbol(
                    kind="module",
                    qualname=symbol.target,
                    module=symbol.target,
                )
            return self.resolve(symbol.target, _depth + 1)
        return symbol

    def resolve_local(self, module: Module, name: str) -> Symbol | None:
        """Resolve a bare name used inside ``module`` to its definition."""
        symbol = module.symbols.get(name)
        if symbol is None:
            return None
        if symbol.kind == "import":
            if symbol.target is None:
                return None
            if symbol.target in self.modules:
                return Symbol(
                    kind="module", qualname=symbol.target, module=symbol.target
                )
            return self.resolve(symbol.target)
        return symbol

    def resolve_dotted(self, module: Module, chain: tuple[str, ...]) -> Symbol | None:
        """Resolve a dotted chain (``pkg.sub.fn``) used inside ``module``.

        The head is looked up locally; every subsequent component walks
        module symbols.  Returns None the moment the chain leaves the
        project (e.g. ``np.random.default_rng`` — numpy is external); the
        *import target* is still recoverable via :meth:`qualify_chain`.
        """
        symbol = self.resolve_local(module, chain[0])
        for part in chain[1:]:
            if symbol is None or symbol.kind != "module":
                return None
            owner = self.modules.get(symbol.qualname)
            if owner is None:
                return None
            symbol = self.resolve_local(owner, part)
        return symbol

    def qualify_chain(self, module: Module, chain: tuple[str, ...]) -> str | None:
        """Best-effort fully qualified name for a dotted chain.

        Unlike :meth:`resolve_dotted` this also qualifies *external*
        names: ``np.random.default_rng`` -> ``numpy.random.default_rng``
        when ``np`` is ``import numpy as np``.
        """
        if not chain:
            return None
        head = module.symbols.get(chain[0])
        if head is None:
            return None
        if head.kind == "import":
            base = head.target
        else:
            base = head.qualname
        if base is None:
            return None
        return ".".join([base, *chain[1:]])

    def class_info(self, qualname: str) -> ClassInfo | None:
        """The ClassInfo for a fully qualified class name, or None."""
        symbol = self.resolve(qualname)
        if symbol is None or symbol.kind != "class":
            return None
        owner = self.modules.get(symbol.module)
        if owner is None:
            return None
        return owner.classes.get(symbol.qualname.rsplit(".", 1)[1])

    def iter_classes(self) -> Iterable[ClassInfo]:
        """Every class defined in the project."""
        for module in self.modules.values():
            yield from module.classes.values()

    # ------------------------------------------------------------------
    def _split(self, qualname: str) -> tuple[Module | None, str]:
        """Split ``repro.a.b.name`` into (defining module, local name)."""
        parts = qualname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                if cut != len(parts) - 1:
                    # Deeper than module.attr (e.g. module.Class.method):
                    # resolution of nested attributes happens via ClassInfo.
                    return None, ""
                return self.modules[candidate], parts[-1]
        return None, ""
