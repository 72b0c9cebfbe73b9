"""Call-graph construction over the project.

Nodes are fully qualified function names (``repro.sim.engine.Engine.run``,
``repro.core.interval.fractions_to_ticks``); edges are the statically
resolvable calls between them.  Resolution handles:

- bare names through the import table (including re-exports),
- dotted module access (``module.func()``),
- ``self.method()`` inside a class (following resolvable base classes),
- method calls on receivers whose class is inferable — from a parameter
  annotation, a constructor assignment in the same function, or a
  ``self.attr`` whose type was pinned in ``__init__``/an annotation,
- constructor calls (edge to ``Class.__init__`` when defined, else to
  ``Class.__post_init__`` for dataclasses that define one),
- chained constructor calls (``ClassName(...).method(...)``).

Anything else — callbacks invoked through variables, ``getattr``,
subscripted lookups — is recorded in :attr:`CallGraph.unknown` rather
than guessed, so analyses can stay conservative without false edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..rules import dotted_name
from .symbols import ClassInfo, Module, Project


@dataclass(frozen=True)
class UnknownCall:
    """A call site the graph could not resolve to a project function."""

    caller: str
    module: str
    line: int
    text: str


@dataclass
class FunctionNode:
    """One function/method in the graph."""

    qualname: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Enclosing ClassInfo for methods, else None.
    owner: ClassInfo | None = None
    #: Resolved qualified names of the function's decorators.
    decorators: tuple[str, ...] = ()


class CallGraph:
    """Functions, resolved call edges, and the unresolved remainder."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: dict[str, FunctionNode] = {}
        #: caller qualname -> set of callee qualnames.
        self.edges: dict[str, set[str]] = {}
        self.unknown: list[UnknownCall] = []
        for module in project.modules.values():
            self._collect_functions(module)
        for fn in list(self.functions.values()):
            self._collect_edges(fn)

    # ------------------------------------------------------------------
    # Function enumeration
    # ------------------------------------------------------------------
    def _collect_functions(self, module: Module) -> None:
        for stmt in module.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, f"{module.name}.{stmt.name}", None)
            elif isinstance(stmt, ast.ClassDef):
                info = module.classes[stmt.name]
                for name, fn in info.methods.items():
                    self._add_function(
                        module, fn, f"{info.qualname}.{name}", info
                    )

    def _add_function(
        self,
        module: Module,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        owner: ClassInfo | None,
    ) -> None:
        decorators = tuple(
            name
            for name in (
                self._decorator_name(module, d) for d in fn.decorator_list
            )
            if name is not None
        )
        self.functions[qualname] = FunctionNode(
            qualname=qualname,
            module=module.name,
            node=fn,
            owner=owner,
            decorators=decorators,
        )
        # Nested functions become graph nodes too (their calls matter even
        # when nothing can statically call *them*).
        for inner in ast.walk(fn):
            if inner is fn or not isinstance(
                inner, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            nested = f"{qualname}.<locals>.{inner.name}"
            if nested not in self.functions:
                self.functions[nested] = FunctionNode(
                    qualname=nested, module=module.name, node=inner, owner=owner
                )

    def _decorator_name(self, module: Module, dec: ast.expr) -> str | None:
        """Qualified name of a decorator expression (unwraps calls)."""
        if isinstance(dec, ast.Call):
            dec = dec.func
        chain = dotted_name(dec)
        if not chain:
            return None
        symbol = self.project.resolve_dotted(module, chain)
        if symbol is not None:
            return symbol.qualname
        return self.project.qualify_chain(module, chain)

    # ------------------------------------------------------------------
    # Edge construction
    # ------------------------------------------------------------------
    def _collect_edges(self, fn: FunctionNode) -> None:
        module = self.project.modules[fn.module]
        types = self._local_types(fn)
        # Only walk this function's own calls, not nested defs (those are
        # separate nodes); ast.walk can't express that, so use a stack.
        stack = list(ast.iter_child_nodes(fn.node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            callee = self._resolve_call(module, fn, node, types)
            if callee is not None:
                self.edges.setdefault(fn.qualname, set()).add(callee)
            else:
                self.unknown.append(
                    UnknownCall(
                        caller=fn.qualname,
                        module=fn.module,
                        line=node.lineno,
                        text=ast.unparse(node.func)[:60],
                    )
                )

    def _resolve_call(
        self,
        module: Module,
        fn: FunctionNode,
        call: ast.Call,
        types: dict[str, str],
    ) -> str | None:
        chain = dotted_name(call.func)
        if not chain:
            # Chained calls: ClassName(...).method(...) resolves through
            # the constructed class; helper(...).method(...) through the
            # helper's return annotation.
            if isinstance(call.func, ast.Attribute) and isinstance(
                call.func.value, ast.Call
            ):
                inner = self._resolve_call(
                    module, fn, call.func.value, types
                )
                if inner is not None:
                    class_qual = inner
                    for suffix in (".__init__", ".__post_init__"):
                        if class_qual.endswith(suffix):
                            class_qual = class_qual[: -len(suffix)]
                    info = self.project.class_info(class_qual)
                    if info is None:
                        returned = self._return_class(inner)
                        if returned is not None:
                            info = self.project.class_info(returned)
                    if info is not None:
                        return self._resolve_method(info, call.func.attr)
            return None
        # self.method(...) — resolve within the enclosing class (and bases).
        if chain[0] == "self" and fn.owner is not None and len(chain) == 2:
            target = self._resolve_method(fn.owner, chain[1])
            if target is not None:
                return target
        # Receiver with an inferred class: x.method(...), self.attr.method().
        if len(chain) >= 2:
            recv_key = ".".join(chain[:-1])
            class_qual = types.get(recv_key)
            if class_qual is not None:
                info = self.project.class_info(class_qual)
                if info is not None:
                    target = self._resolve_method(info, chain[-1])
                    if target is not None:
                        return target
        # Plain/dotted resolution through the symbol tables.
        symbol = self.project.resolve_dotted(module, chain)
        if symbol is None:
            return None
        if symbol.kind == "function":
            return symbol.qualname
        if symbol.kind == "class":
            info = self.project.class_info(symbol.qualname)
            if info is not None and info.has_explicit_init:
                return f"{symbol.qualname}.__init__"
            if info is not None and "__post_init__" in info.methods:
                # Dataclass with a generated __init__: construction runs
                # __post_init__, so reachability must flow through it.
                return f"{symbol.qualname}.__post_init__"
            return symbol.qualname  # constructor of an implicit __init__
        return None

    def _return_class(self, qualname: str) -> str | None:
        """The project class a function's return annotation names."""
        fn = self.functions.get(qualname)
        if fn is None:
            return None
        module = self.project.modules.get(fn.module)
        if module is None:
            return None
        return annotation_class(self.project, module, fn.node.returns)

    def _resolve_method(
        self, info: ClassInfo, name: str, _depth: int = 0
    ) -> str | None:
        """Find ``name`` on ``info`` or a resolvable base class."""
        if _depth > 8:
            return None
        if name in info.methods:
            return f"{info.qualname}.{name}"
        module = self.project.modules.get(info.module)
        if module is None:
            return None
        for base in info.base_exprs:
            chain = dotted_name(base)
            if not chain:
                continue
            symbol = self.project.resolve_dotted(module, chain)
            if symbol is None or symbol.kind != "class":
                continue
            base_info = self.project.class_info(symbol.qualname)
            if base_info is None:
                continue
            found = self._resolve_method(base_info, name, _depth + 1)
            if found is not None:
                return found
        return None

    def _local_types(self, fn: FunctionNode) -> dict[str, str]:
        """Map receiver expressions to project class qualnames in ``fn``.

        Keys are dotted receiver texts (``x``, ``self.cluster``); values
        are class qualnames.  Covers annotated parameters, ``x =
        ClassName(...)`` local constructor assignments, and ``self.attr``
        types pinned by the enclosing class.  Everything else stays
        unknown.
        """
        project = self.project
        module = project.modules[fn.module]
        types: dict[str, str] = {}
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            found = annotation_class(project, module, arg.annotation)
            if found is not None:
                types[arg.arg] = found
        for stmt in ast.walk(fn.node):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                chain = dotted_name(stmt.value.func)
                if not chain:
                    continue
                symbol = project.resolve_dotted(module, chain)
                if symbol is not None and symbol.kind == "class":
                    types[stmt.targets[0].id] = symbol.qualname
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                found = annotation_class(project, module, stmt.annotation)
                if found is not None:
                    types[stmt.target.id] = found
        if fn.owner is not None:
            for attr, qual in class_attr_types(project, module, fn.owner).items():
                types[f"self.{attr}"] = qual
        return types


# ----------------------------------------------------------------------
# Shared inference helpers
# ----------------------------------------------------------------------
def annotation_class(
    project: Project, module: Module, annotation: ast.expr | None
) -> str | None:
    """The project class a parameter/field annotation names, if any.

    Unwraps ``X | None``, ``Optional[X]``, and string annotations.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        for side in (annotation.left, annotation.right):
            found = annotation_class(project, module, side)
            if found is not None:
                return found
        return None
    if isinstance(annotation, ast.Subscript):
        chain = dotted_name(annotation.value)
        if chain and chain[-1] == "Optional":
            return annotation_class(project, module, annotation.slice)
        return None
    chain = dotted_name(annotation)
    if not chain:
        return None
    symbol = project.resolve_dotted(module, chain)
    if symbol is not None and symbol.kind == "class":
        return symbol.qualname
    return None


def class_attr_types(
    project: Project, module: Module, info: ClassInfo
) -> dict[str, str]:
    """attr name -> project class qualname, from annotations and __init__.

    Sources, in increasing priority: class-body ``AnnAssign`` fields,
    ``self.x: T = ...`` annotations anywhere in the class,
    ``self.x = ClassName(...)`` constructor assignments in ``__init__``,
    and ``self.x = param`` binds of annotated ``__init__`` parameters.
    """
    out: dict[str, str] = {}
    for name, ann in info.field_annotations.items():
        found = annotation_class(project, module, ann)
        if found is not None:
            out[name] = found
    for method in info.methods.values():
        for stmt in ast.walk(method):
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Attribute)
                and isinstance(stmt.target.value, ast.Name)
                and stmt.target.value.id == "self"
            ):
                found = annotation_class(project, module, stmt.annotation)
                if found is not None:
                    out[stmt.target.attr] = found
    init = info.methods.get("__init__")
    if init is not None:
        params: dict[str, str] = {}
        args = init.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            found = annotation_class(project, module, arg.annotation)
            if found is not None:
                params[arg.arg] = found
        for stmt in init.body:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Attribute)
                and isinstance(stmt.targets[0].value, ast.Name)
                and stmt.targets[0].value.id == "self"
            ):
                continue
            attr = stmt.targets[0].attr
            if isinstance(stmt.value, ast.Call):
                chain = dotted_name(stmt.value.func)
                if not chain:
                    continue
                symbol = project.resolve_dotted(module, chain)
                if symbol is not None and symbol.kind == "class":
                    out[attr] = symbol.qualname
            elif isinstance(stmt.value, ast.Name) and stmt.value.id in params:
                out[attr] = params[stmt.value.id]
    return out
