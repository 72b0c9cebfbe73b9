"""Persistent benchmark-regression harness (``repro-bench``).

Loads the gated pytest-style suites under ``benchmarks/``, runs them with
warmup and median-of-k timing, emits schema-versioned
``BENCH_<suite>.json`` documents at the repo root, and gates against the
committed baselines in ``benchmarks/baselines/`` — see
:mod:`repro.bench.cli` for the command-line surface and
:mod:`repro.bench.report` for the document schema.
"""

from .discovery import (
    SUITES,
    BenchCase,
    CaseResult,
    DiscoveryError,
    collect_cases,
    discover_suites,
    find_benchmarks_dir,
    run_suite,
)
from .report import (
    GATE,
    SCHEMA_VERSION,
    Comparison,
    GateResult,
    ReportError,
    build_document,
    compare,
    load_document,
    write_document,
)
from .timing import BenchTimer, TimerConfig, TimingStats

__all__ = [
    "BenchCase",
    "BenchTimer",
    "CaseResult",
    "Comparison",
    "DiscoveryError",
    "GATE",
    "GateResult",
    "ReportError",
    "SCHEMA_VERSION",
    "SUITES",
    "TimerConfig",
    "TimingStats",
    "build_document",
    "collect_cases",
    "compare",
    "discover_suites",
    "find_benchmarks_dir",
    "load_document",
    "run_suite",
    "write_document",
]
