"""Whole-program linting: call graph edge cases and RPL103.

Two halves:

1. :class:`repro.lint.flow.callgraph.CallGraph` on synthetic projects —
   cycles, decorated functions, method resolution through ``self`` and
   inferred receivers, ``__init__.py`` re-exports, and dynamic calls
   degrading to the explicit "unknown" bucket (never guessed edges).
2. Bad-fixture projects for RPL103 where the offending write crosses a
   function (or class) boundary — exactly the bugs the per-file rules
   cannot see — plus the clean twins proving the rule stays quiet, and
   suppression-comment handling.

Fixtures go through :func:`repro.lint.lint_project`, the in-memory
entry point, with an explicit rule selection so per-file rules (which
would also fire on intentionally bad code) stay out of the way.
"""

from repro.lint import lint_project
from repro.lint.engine import build_context
from repro.lint.flow import build_project
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.mutation import ContractBypass


def make_graph(sources: dict[str, str]) -> CallGraph:
    contexts = [build_context(path, text) for path, text in sources.items()]
    return CallGraph(build_project(contexts))


# ----------------------------------------------------------------------
# Call-graph edge cases
# ----------------------------------------------------------------------
def test_callgraph_cycles_terminate_and_resolve():
    graph = make_graph({
        "src/repro/core/cyc.py": (
            "def ping(n):\n"
            "    return pong(n - 1) if n else 0\n"
            "def pong(n):\n"
            "    return ping(n - 1) if n else 1\n"
        ),
    })
    ping, pong = "repro.core.cyc.ping", "repro.core.cyc.pong"
    assert pong in graph.edges[ping]
    assert ping in graph.edges[pong]


def test_callgraph_decorated_functions_keep_edges_and_decorators():
    graph = make_graph({
        "src/repro/core/deco.py": (
            "from ..contracts import checks_invariants\n"
            "def helper():\n"
            "    return 1\n"
            "class Box:\n"
            "    def check_invariants(self):\n"
            "        pass\n"
            "    @checks_invariants\n"
            "    def mutate(self):\n"
            "        return helper()\n"
        ),
    })
    node = graph.functions["repro.core.deco.Box.mutate"]
    assert any(d.endswith("checks_invariants") for d in node.decorators)
    assert "repro.core.deco.helper" in graph.edges["repro.core.deco.Box.mutate"]


def test_callgraph_resolves_methods_through_self_and_bases():
    graph = make_graph({
        "src/repro/core/meth.py": (
            "class Base:\n"
            "    def shared(self):\n"
            "        return 0\n"
            "class Child(Base):\n"
            "    def own(self):\n"
            "        return self.shared() + self.local()\n"
            "    def local(self):\n"
            "        return 1\n"
        ),
    })
    edges = graph.edges["repro.core.meth.Child.own"]
    assert "repro.core.meth.Base.shared" in edges
    assert "repro.core.meth.Child.local" in edges


def test_callgraph_resolves_reexported_names():
    graph = make_graph({
        "src/repro/sub/__init__.py": "from .impl import thing\n",
        "src/repro/sub/impl.py": "def thing():\n    return 42\n",
        "src/repro/core/user.py": (
            "from ..sub import thing\n"
            "def use():\n"
            "    return thing()\n"
        ),
    })
    assert "repro.sub.impl.thing" in graph.edges["repro.core.user.use"]


def test_callgraph_resolves_annotated_receivers():
    graph = make_graph({
        "src/repro/core/recv.py": (
            "class Engine:\n"
            "    def schedule(self, delay):\n"
            "        return delay\n"
            "def drive(engine: Engine):\n"
            "    return engine.schedule(1.0)\n"
        ),
    })
    assert "repro.core.recv.Engine.schedule" in graph.edges["repro.core.recv.drive"]


def test_callgraph_dynamic_calls_degrade_to_unknown():
    graph = make_graph({
        "src/repro/core/dyn.py": (
            "def indirect(callback, obj):\n"
            "    callback()\n"
            "    getattr(obj, 'poke')()\n"
        ),
    })
    caller = "repro.core.dyn.indirect"
    # No guessed edges to project functions...
    assert not graph.edges.get(caller)
    # ...but the call sites are accounted for, not silently dropped.
    assert sum(1 for u in graph.unknown if u.caller == caller) >= 2


# ----------------------------------------------------------------------
# RPL103 — contract-bypassing mutation
# ----------------------------------------------------------------------
BOX_MODULE = (
    "from ..contracts import checks_invariants\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self._items = {}\n"
    "    def check_invariants(self):\n"
    "        for key in self._items:\n"
    "            assert key\n"
    "    @checks_invariants\n"
    "    def put(self, key, value):\n"
    "        self._items[key] = value\n"
)


def test_rpl103_external_write_across_class_boundary():
    findings = lint_project({
        "src/repro/core/box.py": BOX_MODULE,
        "src/repro/cluster/driver.py": (
            "from ..core.box import Box\n"
            "class Driver:\n"
            "    def __init__(self):\n"
            "        self.box = Box()\n"
            "    def poke(self, key, value):\n"
            "        self.box._items[key] = value\n"
        ),
    }, rules=[ContractBypass])
    assert [d.rule_id for d in findings] == ["RPL103"]
    assert findings[0].path == "src/repro/cluster/driver.py"
    assert "outside the class" in findings[0].message


def test_rpl103_undecorated_method_write():
    findings = lint_project({
        "src/repro/core/box.py": BOX_MODULE + (
            "    def sneak(self, key, value):\n"
            "        self._items[key] = value\n"
        ),
    }, rules=[ContractBypass])
    assert [d.rule_id for d in findings] == ["RPL103"]
    assert "not a contract-wrapped mutator" in findings[0].message


def test_rpl103_decorated_helpers_are_sanctioned():
    findings = lint_project({
        "src/repro/core/box.py": BOX_MODULE + (
            "    @checks_invariants\n"
            "    def put_many(self, pairs):\n"
            "        for key, value in pairs:\n"
            "            self._apply(key, value)\n"
            "    def _apply(self, key, value):\n"
            "        self._items[key] = value\n"
        ),
    }, rules=[ContractBypass])
    assert findings == []


def test_rpl103_outside_protected_layers_is_ignored():
    findings = lint_project({
        "src/repro/metrics/box.py": BOX_MODULE + (
            "    def sneak(self, key, value):\n"
            "        self._items[key] = value\n"
        ),
    }, rules=[ContractBypass])
    assert findings == []


def test_flow_rules_honor_suppression_comments():
    findings = lint_project({
        "src/repro/core/box.py": BOX_MODULE + (
            "    def sneak(self, key, value):\n"
            "        self._items[key] = value  # repro-lint: disable=RPL103\n"
        ),
    }, rules=[ContractBypass])
    assert findings == []
