"""Console entry point: ``repro-lint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage/parse error — so CI can gate on
it directly.  ``--list-rules`` prints the rule catalogue (per-file and
whole-program), ``--select`` restricts the run to specific IDs,
``--explain RPLxxx`` prints a rule's full docstring, and ``--format``
switches between human ``text``, machine ``json``, and CI ``sarif``
output.  Results are cached by content hash in ``.repro-lint-cache/``
(``--no-cache`` / ``--cache-dir`` to control).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .engine import lint_paths
from .output import render
from .rules import REGISTRY, all_flow_rules, all_rules

#: Directories linted when no paths are given (repo-root invocation).
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Codebase-aware static analysis for the repro package.",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: %(default)s)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain", metavar="RULE_ID",
        help="print one rule's full documentation and exit",
    )
    parser.add_argument(
        "--select", metavar="IDS",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache directory (default: .repro-lint-cache)",
    )
    return parser


def _list_rules() -> int:
    for rule in [*all_rules(), *all_flow_rules()]:
        print(f"{rule.id}  {rule.title}")
    return 0


def _explain(rule_id: str) -> int:
    rule = REGISTRY.get(rule_id.upper())
    if rule is None:
        print(f"unknown rule {rule_id!r}; try --list-rules", file=sys.stderr)
        return 2
    print(f"{rule.id}: {rule.title}")
    print()
    print(rule.__doc__ or "(undocumented)")
    print(f"autofix hint: {rule.hint}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    if args.explain:
        return _explain(args.explain)
    rules = None
    if args.select:
        wanted = {part.strip().upper() for part in args.select.split(",")}
        unknown = wanted - set(REGISTRY)
        if unknown:
            print(f"unknown rule ids: {sorted(unknown)}", file=sys.stderr)
            return 2
        rules = [REGISTRY[rule_id] for rule_id in sorted(wanted)]
    cache = None
    if not args.no_cache:
        from .flow.cache import DEFAULT_CACHE_DIR, LintCache

        cache = LintCache(args.cache_dir or DEFAULT_CACHE_DIR)
    try:
        findings = lint_paths(args.paths, rules=rules, cache=cache)
    except SyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read {exc.filename or '?'}: {exc.strerror}", file=sys.stderr)
        return 2
    if args.format != "text":
        print(render(findings, args.format))
        return 1 if findings else 0
    for diagnostic in findings:
        print(diagnostic.render())
    if findings:
        by_rule: dict[str, int] = {}
        for diagnostic in findings:
            by_rule[diagnostic.rule_id] = by_rule.get(diagnostic.rule_id, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(by_rule.items()))
        print(f"\n{len(findings)} finding(s)  ({summary})")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
