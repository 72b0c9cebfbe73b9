"""The on-disk lint cache: correctness of invalidation, plus a speed guard.

The cache is content-addressed (per-file results keyed by the file's
hash, whole-program results keyed by the hash of *every* package file),
so the invalidation tests here are really tests that the keys include
everything they must: file content, the rule selection, and the linter's
own version.  The final test is the benchmark guard from the issue: a
warm full-tree run must stay interactive.
"""

import json
import pathlib
import time

from repro.lint import lint_paths
from repro.lint.flow.cache import LintCache

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CLEAN = "def width(x):\n    return x\n"
DIRTY = "import numpy as np\ngen = np.random.default_rng()\n"


def project(tmp_path, name="mod.py", text=CLEAN):
    target = tmp_path / "src" / "repro" / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target


def test_warm_run_reproduces_cold_results(tmp_path):
    target = project(tmp_path, text=DIRTY)
    cache_dir = tmp_path / "cache"
    cold = lint_paths([target], cache=LintCache(cache_dir))
    assert (cache_dir / "cache.json").exists()
    warm = lint_paths([target], cache=LintCache(cache_dir))
    assert warm == cold
    assert warm  # the fixture really has findings


def test_editing_a_file_invalidates_its_entries(tmp_path):
    target = project(tmp_path, text=CLEAN)
    cache_dir = tmp_path / "cache"
    assert lint_paths([target], cache=LintCache(cache_dir)) == []
    target.write_text(DIRTY, encoding="utf-8")
    findings = lint_paths([target], cache=LintCache(cache_dir))
    assert findings, "stale cache hit after edit"
    # And back: restoring the content re-hits the original entry.
    target.write_text(CLEAN, encoding="utf-8")
    assert lint_paths([target], cache=LintCache(cache_dir)) == []


def test_rule_selection_is_part_of_the_key(tmp_path):
    from repro.lint.rules import REGISTRY

    target = project(tmp_path, text=DIRTY)
    cache_dir = tmp_path / "cache"
    all_findings = lint_paths([target], cache=LintCache(cache_dir))
    only_rpl002 = lint_paths(
        [target],
        rules=[REGISTRY["RPL002"]],
        cache=LintCache(cache_dir),
    )
    assert {d.rule_id for d in only_rpl002} == {"RPL002"}
    assert lint_paths([target], cache=LintCache(cache_dir)) == all_findings


def test_corrupt_cache_degrades_to_cold_run(tmp_path):
    target = project(tmp_path, text=DIRTY)
    cache_dir = tmp_path / "cache"
    cold = lint_paths([target], cache=LintCache(cache_dir))
    (cache_dir / "cache.json").write_text("{not json", encoding="utf-8")
    assert lint_paths([target], cache=LintCache(cache_dir)) == cold


def test_cache_file_is_versioned(tmp_path):
    target = project(tmp_path, text=DIRTY)
    cache_dir = tmp_path / "cache"
    lint_paths([target], cache=LintCache(cache_dir))
    data = json.loads((cache_dir / "cache.json").read_text(encoding="utf-8"))
    # A linter upgrade (different version token) must drop every entry.
    data["version"] = "0" * 64
    (cache_dir / "cache.json").write_text(json.dumps(data), encoding="utf-8")
    fresh = LintCache(cache_dir)
    assert fresh._data["per_file"] == {}


def test_benchmark_guard_warm_full_tree_run(tmp_path):
    """Issue acceptance: a warm cached full-tree run stays interactive.

    The cold run (parse + whole-program analysis over all of src/) pays
    the real cost and primes the cache; the warm run should be pure
    hashing + lookups.  The 5 s ceiling is deliberately loose for slow
    CI machines — locally this is well under 2 s.
    """
    trees = [
        REPO_ROOT / t
        for t in ("src", "tests", "benchmarks", "examples")
        if (REPO_ROOT / t).is_dir()
    ]
    cache_dir = tmp_path / "cache"
    cold = lint_paths(trees, cache=LintCache(cache_dir))
    start = time.perf_counter()
    warm = lint_paths(trees, cache=LintCache(cache_dir))
    elapsed = time.perf_counter() - start
    assert warm == cold == []
    assert elapsed < 5.0, f"warm cached run took {elapsed:.2f}s (budget 5s)"

