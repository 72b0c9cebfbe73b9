"""The repository lints itself: a dirty tree is a failing test.

This is the pytest wiring for ``repro-lint`` — the same gate CI runs,
enforced locally on every ``pytest`` invocation so a violation can never
land between CI runs.  All four trees are linted; what differs per tree
is the *rule set*, centralized in :mod:`repro.lint.policy`:

========== =========================================================
tree       excluded rules (everything else applies)
========== =========================================================
src        none — production code gets the full catalogue
examples   none — examples are copied verbatim; they must model the
           same discipline as production code
tests      RPL002 (tests seed ad-hoc generators on purpose),
           RPL004 (float literals in expected values), RPL009
           (fixtures monkeypatch globals)
benchmarks same as tests — harness code, not simulation code
========== =========================================================

The whole-program rules (RPL103, RPL105, RPL106) run wherever package
files are in the lint set and are never excluded by tree: they analyze
``src/repro`` itself, so the tree containing the *entry path* is
irrelevant.
"""

import pathlib

from repro.lint import lint_paths
from repro.lint.policy import EXCLUSIONS, excluded_rules, tree_of

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
LINTED_TREES = ("src", "tests", "benchmarks", "examples")


def test_repository_is_lint_clean():
    targets = [REPO_ROOT / tree for tree in LINTED_TREES if (REPO_ROOT / tree).is_dir()]
    findings = lint_paths(targets)
    rendered = "\n".join(d.render() for d in findings)
    assert findings == [], f"repro-lint found violations:\n{rendered}"


def test_every_tree_has_an_exclusion_policy():
    for tree in LINTED_TREES:
        assert tree in EXCLUSIONS, f"no lint policy declared for {tree}/"


def test_production_trees_get_the_full_catalogue():
    assert EXCLUSIONS["src"] == frozenset()
    assert EXCLUSIONS["examples"] == frozenset()


def test_flow_rules_are_never_excluded():
    for tree, excluded in EXCLUSIONS.items():
        flow = {r for r in excluded if r.startswith("RPL1")}
        assert not flow, f"{tree}: whole-program rules cannot be tree-excluded"


def test_path_to_tree_resolution():
    assert tree_of("src/repro/core/interval.py") == "src"
    assert tree_of("tests/test_interval.py") == "tests"
    assert tree_of(str(REPO_ROOT / "benchmarks" / "conftest.py")) == "benchmarks"
    assert tree_of("/tmp/scratch/snippet.py") == "other"
    assert "RPL004" in excluded_rules("tests/test_interval.py")
    assert excluded_rules("src/repro/core/interval.py") == frozenset()
