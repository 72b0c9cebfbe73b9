"""Forward data-flow engine behind RPL103 (contract-bypassing writes).

The engine is a two-phase, context-insensitive, whole-program analysis
that answers one question: which project class does the receiver of each
attribute store hold?

1. **Collection.**  Every function body is walked once (statement order,
   loop bodies twice for loop-carried values) by a
   :class:`SymbolicEvaluator`.  Expressions evaluate to sets of *atoms*
   — terminal ``instance`` facts and symbolic placeholders
   (``param``/``ret``/``attr``) whose meaning depends on other
   functions.  Each call site binds argument atoms onto the
   callee's ``param`` atoms, each ``return`` feeds the function's
   ``ret`` atom, and each attribute store feeds a ``(class, attr)``
   atom: the interprocedural equations.  Module globals and class-body
   fields use the same ``attr`` channel, keyed by module/class name.
2. **Solving.**  :class:`Lattice.solve` expands the placeholder atoms to
   their terminal meanings by fixpoint iteration (cycles in the call
   graph simply converge).  Attribute stores whose *receiver* was itself
   symbolic (``self.cluster._ownership = ...``) are recorded as pending
   :class:`Store` sites and folded in by :func:`finalize` once the
   receiver resolves.  The rule then re-inspects the recorded stores
   with fully resolved receivers and emits diagnostics.

All checks are *positive evidence only*: an unresolved value is an empty
set, and an empty set never fires a rule — dynamic calls degrade to
"unknown", never to a false positive.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from ..rules import dotted_name
from .symbols import ClassInfo, Module, Project


@dataclass(frozen=True)
class Atom:
    """One abstract fact or placeholder flowing through the program."""

    kind: str
    key: tuple

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind}{self.key!r}"


def param(func: str, index) -> Atom:
    """Placeholder: the ``index``-th parameter of ``func``."""
    return Atom("param", (func, index))


def ret(func: str) -> Atom:
    """Placeholder: the return value of ``func``."""
    return Atom("ret", (func,))


def attr(owner: str, name: str) -> Atom:
    """Placeholder: values stored in attribute ``name`` of a class.

    Also used for module globals, with the module's dotted name as
    ``owner`` — a module is just a singleton namespace here.
    """
    return Atom("attr", (owner, name))


def instance(class_qualname: str) -> Atom:
    """Terminal: an instance of a project class."""
    return Atom("instance", (class_qualname,))


@dataclass(frozen=True)
class Store:
    """One attribute-write site, kept for post-solve re-examination."""

    owner_atoms: frozenset
    attr: str
    values: frozenset
    path: str
    line: int
    col: int
    #: Qualname of the function/module/class body doing the write.
    context: str
    #: Qualname of the enclosing class, if the write is inside a method.
    context_class: str | None
    #: True when the "write" is a constructor field bind, not a mutation.
    is_ctor: bool


class Lattice:
    """The global constraint store and its fixpoint solver."""

    def __init__(self) -> None:
        self.defs: dict[Atom, set[Atom]] = {}
        self.stores: list[Store] = []
        self._expanded: dict[Atom, frozenset] | None = None

    def add(self, target: Atom, values: Iterable[Atom]) -> None:
        """Record ``target ⊇ values``."""
        self.defs.setdefault(target, set()).update(values)
        self._expanded = None

    def solve(self, max_passes: int = 64) -> None:
        """Expand every placeholder to terminals (monotone fixpoint)."""
        expanded: dict[Atom, set[Atom]] = {}
        for target, values in self.defs.items():
            expanded[target] = {v for v in values if v.kind == "instance"}
        for _ in range(max_passes):
            changed = False
            for target, values in self.defs.items():
                bucket = expanded[target]
                before = len(bucket)
                for value in values:
                    if value.kind != "instance":
                        bucket |= expanded.get(value, set())
                if len(bucket) != before:
                    changed = True
            if not changed:
                break
        self._expanded = {k: frozenset(v) for k, v in expanded.items()}

    def resolve(self, atoms: Iterable[Atom]) -> frozenset:
        """Terminal atoms a value may hold (solves lazily on first use)."""
        if self._expanded is None:
            self.solve()
        assert self._expanded is not None
        out: set[Atom] = set()
        for atom in atoms:
            if atom.kind == "instance":
                out.add(atom)
            else:
                out |= self._expanded.get(atom, frozenset())
        return frozenset(out)


def finalize(lattice: Lattice, max_rounds: int = 3) -> None:
    """Fold pending stores whose receiver was symbolic, then re-solve.

    A write like ``self.cluster._ownership[x] = y`` is recorded before
    the type of ``self.cluster`` is known; each round resolves receivers
    against the current solution and feeds the newly discovered
    ``(class, attr)`` atoms back in.
    """
    for _ in range(max_rounds):
        lattice.solve()
        # Resolve every receiver against this round's snapshot *before*
        # mutating the store: an add() invalidates the solution, so
        # interleaving add with resolve re-runs the full fixpoint once
        # per store (quadratic in practice).  Batched, each round costs
        # exactly one solve.
        pending: list[tuple[Atom, frozenset]] = []
        for store in lattice.stores:
            for atom in lattice.resolve(store.owner_atoms):
                if atom.kind != "instance":
                    continue
                pending.append((attr(atom.key[0], store.attr), store.values))
        changed = False
        for target, values in pending:
            before = len(lattice.defs.get(target, ()))
            lattice.add(target, values)
            if len(lattice.defs[target]) != before:
                changed = True
        if not changed:
            break
    lattice.solve()


class SymbolicEvaluator:
    """Walks one function, producing atom sets and lattice constraints.

    Three scopes share the class: function bodies (``fn`` set), class
    bodies (``fn`` None, ``owner`` set — ``Name`` targets become field
    stores), and module bodies (both None — ``Name`` targets become
    module-global ``attr`` atoms).
    """

    def __init__(
        self,
        project: Project,
        lattice: Lattice,
        module: Module,
        qualname: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef | None,
        owner: ClassInfo | None,
    ) -> None:
        self.project = project
        self.lattice = lattice
        self.module = module
        self.qualname = qualname
        self.fn = fn
        self.owner = owner
        self.env: dict[str, set[Atom]] = {}

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Evaluate the function body (use :meth:`exec_block` directly
        for module/class bodies, which have no parameters to seed)."""
        if self.fn is not None:
            self._seed_params()
            self.exec_block(self.fn.body)

    def _seed_params(self) -> None:
        assert self.fn is not None
        args = self.fn.args
        ordered = [*args.posonlyargs, *args.args]
        for index, arg in enumerate(ordered):
            if index == 0 and arg.arg == "self" and self.owner is not None:
                self.env[arg.arg] = {instance(self.owner.qualname)}
                continue
            # An annotation is authoritative when it yields atoms;
            # otherwise fall back to the symbolic parameter channel.
            atoms = self.seed_annotation(arg.annotation)
            if not atoms:
                atoms = {param(self.qualname, index)}
            self.env[arg.arg] = atoms
        for arg in args.kwonlyargs:
            atoms = self.seed_annotation(arg.annotation)
            if not atoms:
                atoms = {param(self.qualname, f"kw:{arg.arg}")}
            self.env[arg.arg] = atoms
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                self.env[arg.arg] = set()

    def exec_block(self, body: Iterable[ast.stmt]) -> None:
        """Execute statements in order (both branches of conditionals)."""
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        """Walk one statement, recording assignments and effects."""
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self.assign(target, value, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            value = self.eval(stmt.value) if stmt.value is not None else set()
            value = value | self.seed_annotation(stmt.annotation)
            self.assign(stmt.target, value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id, set())
            else:
                current = self.eval(stmt.target)
            self.assign(stmt.target, current | value, stmt, merge=True)
        elif isinstance(stmt, ast.Return):
            atoms = self.eval(stmt.value) if stmt.value is not None else set()
            self.lattice.add(ret(self.qualname), atoms)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter)
            # Two passes: loop-carried values reach their own reads.
            for _ in range(2):
                self.assign(stmt.target, set(), stmt, merge=True)
                self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            for _ in range(2):
                self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, value, stmt)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._delete(target)
        # Nested defs/classes are separate walkers; pass/imports are inert.

    # ------------------------------------------------------------------
    # Assignment targets
    # ------------------------------------------------------------------
    def assign(
        self,
        target: ast.expr,
        value: set[Atom],
        stmt: ast.stmt | ast.expr,
        merge: bool = False,
    ) -> None:
        """Record ``target = value`` into locals/attr channels."""
        if isinstance(target, ast.Name):
            if merge:
                self.env[target.id] = self.env.get(target.id, set()) | value
            else:
                self.env[target.id] = set(value)
            if self.fn is None:
                # Class body: names are field defaults; module body:
                # names are module globals.  Both use the attr channel.
                if self.owner is not None:
                    self.store_attr(
                        {instance(self.owner.qualname)},
                        target.id,
                        value,
                        target,
                        is_ctor=True,
                    )
                else:
                    self.lattice.add(attr(self.qualname, target.id), value)
        elif isinstance(target, ast.Attribute):
            owner_atoms = self.eval(target.value)
            self.store_attr(owner_atoms, target.attr, value, target)
        elif isinstance(target, ast.Subscript):
            self.eval(target.slice)
            base = target.value
            if isinstance(base, ast.Name):
                # Conflate container contents with the container variable.
                self.env[base.id] = self.env.get(base.id, set()) | value
            elif isinstance(base, ast.Attribute):
                owner_atoms = self.eval(base.value)
                self.store_attr(owner_atoms, base.attr, value, target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.assign(element, set(), stmt, merge=merge)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, set(), stmt, merge=merge)

    def store_attr(
        self,
        owner_atoms: set[Atom],
        name: str,
        value: set[Atom],
        node: ast.AST,
        is_ctor: bool = False,
    ) -> None:
        """Record an attribute write (resolved receivers feed the lattice
        immediately; symbolic ones are finalized post-solve)."""
        self.lattice.stores.append(
            Store(
                owner_atoms=frozenset(owner_atoms),
                attr=name,
                values=frozenset(value),
                path=self.module.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                context=self.qualname,
                context_class=self.owner.qualname if self.owner else None,
                is_ctor=is_ctor,
            )
        )
        for atom in owner_atoms:
            if atom.kind == "instance":
                self.lattice.add(attr(atom.key[0], name), value)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval(self, node: ast.expr | None) -> set[Atom]:
        """Atoms that may flow out of expression ``node``."""
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return set(self.env[node.id])
            return self._global_name(node)
        if isinstance(node, ast.Attribute):
            return self._attribute(node, self.eval(node.value))
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.BinOp):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out: set[Atom] = set()
            for value in node.values:
                out |= self.eval(value)
            return out
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for comp in node.comparators:
                self.eval(comp)
            return set()
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            self.eval(node.slice)
            return base
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for element in node.elts:
                out |= self.eval(element)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for key in node.keys:
                if key is not None:
                    self.eval(key)
            for value in node.values:
                out |= self.eval(value)
            return out
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for comp in node.generators:
                self.eval(comp.iter)
                self.assign(comp.target, set(), node)
                for condition in comp.ifs:
                    self.eval(condition)
            if isinstance(node, ast.DictComp):
                self.eval(node.key)
                return self.eval(node.value)
            return self.eval(node.elt)
        if isinstance(node, ast.Lambda):
            return set()
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child)
            return set()
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            self.assign(node.target, value, node)
            return value
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.eval(part)
            return set()
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        return set()

    # ------------------------------------------------------------------
    # Calls: resolution + argument binding
    # ------------------------------------------------------------------
    def eval_call(self, node: ast.Call) -> set[Atom]:
        """Atoms produced by a call (dispatching on what resolves)."""
        chain = dotted_name(node.func)
        recv_atoms: set[Atom] = set()
        if isinstance(node.func, ast.Attribute):
            recv_atoms = self.eval(node.func.value)
        arg_atoms = [self.eval(arg) for arg in node.args]
        kwarg_atoms = {
            kw.arg: self.eval(kw.value) for kw in node.keywords if kw.arg
        }
        for kw in node.keywords:
            if kw.arg is None:
                self.eval(kw.value)
        return self._apply_call(node, chain, recv_atoms, arg_atoms, kwarg_atoms)

    def _apply_call(
        self,
        node: ast.Call,
        chain: tuple[str, ...],
        recv_atoms: set[Atom],
        args: list[set[Atom]],
        kwargs: dict[str, set[Atom]],
    ) -> set[Atom]:
        """Resolve the callee, bind arguments, and produce result atoms."""
        # dataclasses.field(...): the default/default_factory IS the value.
        if chain and chain[-1] == "field":
            for kw in node.keywords:
                if kw.arg == "default_factory" and isinstance(
                    kw.value, ast.Lambda
                ):
                    return self.eval(kw.value.body)
                if kw.arg == "default":
                    return self.eval(kw.value)
            return set()
        # Method through a receiver instance.
        if chain and isinstance(node.func, ast.Attribute):
            for atom in recv_atoms:
                if atom.kind != "instance":
                    continue
                info = self.project.class_info(atom.key[0])
                if info is None:
                    continue
                method = self._find_method(info, node.func.attr)
                if method is not None:
                    method_qual, method_node = method
                    self._bind(method_qual, method_node, args, kwargs, 1)
                    return {ret(method_qual)}
        # Plain/dotted resolution through the symbol tables.
        if chain:
            symbol = self.project.resolve_dotted(self.module, chain)
            if symbol is not None and symbol.kind == "function":
                fn_node = symbol.node
                if isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._bind(symbol.qualname, fn_node, args, kwargs, 0)
                    return {ret(symbol.qualname)}
            if symbol is not None and symbol.kind == "class":
                return self._construct(node, symbol.qualname, args, kwargs)
        return set()

    def _construct(
        self,
        node: ast.Call,
        class_qualname: str,
        args: list[set[Atom]],
        kwargs: dict[str, set[Atom]],
    ) -> set[Atom]:
        """Bind constructor arguments; result is an instance atom."""
        info = self.project.class_info(class_qualname)
        if info is None:
            return set()
        if info.has_explicit_init:
            init = info.methods["__init__"]
            self._bind(f"{class_qualname}.__init__", init, args, kwargs, 1)
        else:
            # Dataclass-style: positional and keyword args are field binds.
            owner = {instance(class_qualname)}
            for index, atoms in enumerate(args):
                if index < len(info.fields):
                    self.store_attr(
                        owner, info.fields[index], atoms, node, is_ctor=True
                    )
            for name, atoms in kwargs.items():
                if name in info.fields:
                    self.store_attr(owner, name, atoms, node, is_ctor=True)
        return {instance(class_qualname)}

    def _bind(
        self,
        qualname: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        args: list[set[Atom]],
        kwargs: dict[str, set[Atom]],
        offset: int,
    ) -> None:
        params = [a.arg for a in [*fn.args.posonlyargs, *fn.args.args]]
        kwonly = [a.arg for a in fn.args.kwonlyargs]
        for index, atoms in enumerate(args):
            slot = index + offset
            if slot < len(params):
                self.lattice.add(param(qualname, slot), atoms)
        for name, atoms in kwargs.items():
            if name in params:
                self.lattice.add(param(qualname, params.index(name)), atoms)
            elif name in kwonly:
                self.lattice.add(param(qualname, f"kw:{name}"), atoms)

    def _find_method(
        self, info: ClassInfo, name: str, _depth: int = 0
    ) -> tuple[str, ast.FunctionDef | ast.AsyncFunctionDef] | None:
        if _depth > 8:
            return None
        if name in info.methods:
            return f"{info.qualname}.{name}", info.methods[name]
        module = self.project.modules.get(info.module)
        if module is None:
            return None
        for base in info.base_exprs:
            base_chain = dotted_name(base)
            if not base_chain:
                continue
            symbol = self.project.resolve_dotted(module, base_chain)
            if symbol is None or symbol.kind != "class":
                continue
            base_info = self.project.class_info(symbol.qualname)
            if base_info is None:
                continue
            found = self._find_method(base_info, name, _depth + 1)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def seed_annotation(self, annotation: ast.expr | None) -> set[Atom]:
        """Atoms implied by a parameter/variable annotation."""
        from .callgraph import annotation_class

        found = annotation_class(self.project, self.module, annotation)
        if found is not None:
            return {instance(found)}
        return set()

    def _global_name(self, node: ast.Name) -> set[Atom]:
        """A name not bound locally: module global / import / builtin."""
        symbol = self.project.resolve_local(self.module, node.id)
        if symbol is not None and symbol.kind == "value":
            # Module globals live on the defining module's attr channel.
            return {attr(symbol.module, symbol.qualname.rsplit(".", 1)[1])}
        return set()

    def _attribute(self, node: ast.Attribute, recv: set[Atom]) -> set[Atom]:
        """Atoms read through ``recv.attr`` (instance attr channels)."""
        out: set[Atom] = set()
        for atom in recv:
            if atom.kind != "instance":
                continue
            info = self.project.class_info(atom.key[0])
            method = info.methods.get(node.attr) if info is not None else None
            if method is not None and _is_property(method):
                # Property read: the value channel is the getter's return.
                out.add(ret(f"{atom.key[0]}.{node.attr}"))
            else:
                out.add(attr(atom.key[0], node.attr))
        return out

    def _delete(self, target: ast.expr) -> None:
        """``del`` treated as a write of nothing (it mutates the owner)."""
        if isinstance(target, ast.Attribute):
            self.store_attr(self.eval(target.value), target.attr, set(), target)
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            owner_atoms = self.eval(target.value.value)
            self.store_attr(owner_atoms, target.value.attr, set(), target)


def _is_property(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in fn.decorator_list:
        chain = dotted_name(dec)
        if chain and chain[-1] in {"property", "cached_property"}:
            return True
    return False


def run_evaluators(project: Project, lattice: Lattice) -> None:
    """Drive one evaluator per scope over the whole project.

    Module bodies and class bodies run with ``fn=None`` (their ``Name``
    assignments feed the global/field attr channels); functions and
    methods run normally, including defs nested inside them (as
    ``...<locals>.name`` scopes with an empty environment).
    """

    def make(module, qualname, fn, owner):
        return SymbolicEvaluator(project, lattice, module, qualname, fn, owner)

    def run_function(module, qualname, fn, owner):
        make(module, qualname, fn, owner).run()
        for stmt in ast.walk(fn):
            if stmt is not fn and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                nested = f"{qualname}.<locals>.{stmt.name}"
                make(module, nested, stmt, owner).run()

    for module in project.modules.values():
        make(module, module.name, None, None).exec_block(module.ctx.tree.body)
        for stmt in module.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                run_function(module, f"{module.name}.{stmt.name}", stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                info = module.classes[stmt.name]
                make(module, info.qualname, None, info).exec_block(stmt.body)
                for name, fn in info.methods.items():
                    run_function(module, f"{info.qualname}.{name}", fn, info)
