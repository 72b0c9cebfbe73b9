"""``repro-bench`` — the persistent benchmark-regression harness.

Runs the gated microbenchmark suites — the paths the e2e benchmark
(``benchmarks/e2e/``) does not time — with warmup and median-of-k
timing, writes one schema-versioned ``BENCH_<suite>.json`` per suite at
the repo root, and compares medians against the committed baselines
under ``benchmarks/baselines/`` (fail at a >25% slowdown).  There is one
size and one mode: a gated run times exactly the workload its baseline
timed.

Usage examples::

    repro-bench                       # run and gate every suite
    repro-bench --suites micro_sim    # one suite
    repro-bench --update-baseline     # refresh benchmarks/baselines/*.json
    repro-bench --list                # show the gated suites

Exit status: 0 on success, 1 on a gate breach, 2 on usage or discovery
errors.

Measurements run with the runtime contract layer compiled out
(``REPRO_CONTRACTS=off``), matching ``benchmarks/conftest.py``: the
harness re-executes itself with the environment pinned when the current
process imported ``repro.contracts`` in a different mode, because the
zero-overhead path is frozen at import time.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .. import contracts
from .discovery import (
    DiscoveryError,
    discover_suites,
    find_benchmarks_dir,
    run_suite,
)
from .report import (
    ReportError,
    build_document,
    compare,
    format_gate_result,
    git_rev,
    load_document,
    write_document,
)
from .timing import TimerConfig

#: Loop guard for the contract-mode re-exec.
_REEXEC_VAR = "REPRO_BENCH_REEXEC"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="microbenchmark gate for the paths the e2e benchmark does not time",
    )
    parser.add_argument(
        "--suites",
        default=None,
        help="comma-separated suite names (default: every gated suite)",
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="measure and write reports but skip the baseline comparison",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run's reports to the baseline directory and exit 0",
    )
    parser.add_argument(
        "--benchmarks-dir",
        type=Path,
        default=None,
        help="suite directory (default: auto-detected benchmarks/)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="where BENCH_<suite>.json land (default: the repo root)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=None,
        help="committed baselines (default: benchmarks/baselines/)",
    )
    parser.add_argument(
        "--contracts",
        choices=("on", "off"),
        default="off",
        help="runtime-contract mode for the measured code (default: off)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the gated suites and exit"
    )
    return parser


def _ensure_contract_mode(desired: str, argv: list[str]) -> None:
    """Re-exec with ``REPRO_CONTRACTS`` pinned when the mode is frozen wrong.

    The contract layer is compiled in or out when ``repro.contracts`` is
    first imported, which for a console script happens before ``main``
    runs; flipping modes therefore requires restarting the interpreter.
    """
    actual = "off" if contracts.COMPILED_OUT else "on"
    if actual == desired:
        return
    if os.environ.get(_REEXEC_VAR) == "1":
        raise DiscoveryError(
            f"cannot pin REPRO_CONTRACTS={desired}: already re-executed once"
        )
    env = dict(os.environ)
    env["REPRO_CONTRACTS"] = desired
    env[_REEXEC_VAR] = "1"
    os.execve(
        sys.executable, [sys.executable, "-m", "repro.bench", *argv], env
    )


def _select_suites(
    requested: str | None, available: dict[str, Path]
) -> dict[str, Path]:
    if requested is None:
        return dict(available)
    names = [s.strip() for s in requested.split(",") if s.strip()]
    missing = [s for s in names if s not in available]
    if missing:
        raise DiscoveryError(
            f"unknown suite(s) {missing}; available: {sorted(available)}"
        )
    return {name: available[name] for name in names}


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-bench`` / ``python -m repro.bench``."""
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(raw_argv)
    try:
        bench_dir = args.benchmarks_dir or find_benchmarks_dir()
        bench_dir = bench_dir.resolve()
        available = discover_suites(bench_dir)
        if args.list:
            for name, path in available.items():
                print(f"  {name:32s} {path.name}")
            return 0
        _ensure_contract_mode(args.contracts, raw_argv)
        selected = _select_suites(args.suites, available)
    except (DiscoveryError, ReportError) as exc:
        print(f"repro-bench: {exc}", file=sys.stderr)
        return 2

    repo_root = bench_dir.parent
    output_dir = (args.output_dir or repo_root).resolve()
    baseline_dir = (args.baseline_dir or bench_dir / "baselines").resolve()
    config = TimerConfig()

    failures = 0
    for name, path in selected.items():
        print(f"== suite {name} ({path.name}) ==")
        try:
            results = run_suite(path, config)
        except DiscoveryError as exc:
            print(f"repro-bench: {exc}", file=sys.stderr)
            return 2
        document = build_document(
            name,
            results,
            config=config,
            contracts=args.contracts,
            rev=git_rev(repo_root),
        )
        for result in results:
            print(
                f"   {result.name}: median {result.stats['median_ns']:,.0f} ns "
                f"(k={result.stats['rounds']}, iters={result.stats['iterations']})"
            )
        out_path = output_dir / f"BENCH_{name}.json"
        write_document(document, out_path)
        print(f"   wrote {out_path}")
        baseline_path = baseline_dir / f"BENCH_{name}.json"
        if args.update_baseline:
            write_document(document, baseline_path)
            print(f"   baseline refreshed: {baseline_path}")
            continue
        if args.no_gate:
            continue
        if not baseline_path.is_file():
            print(f"   no baseline at {baseline_path}; gate skipped")
            continue
        try:
            verdict = compare(document, load_document(baseline_path))
        except ReportError as exc:
            print(f"repro-bench: {exc}", file=sys.stderr)
            return 2
        print(format_gate_result(verdict))
        if not verdict.passed:
            failures += 1
    return 1 if failures else 0
