"""Shared helpers for the benchmark suite.

The figure and ablation drivers (``bench_fig*``, ``bench_abl*``) run the
paper's experiments at full published scale by default; set
``REPRO_BENCH_QUICK=1`` to run the same shapes at reduced scale.  Each
figure bench prints the series/rows the paper's figure plots, so
``pytest benchmarks/ --benchmark-only`` output doubles as the reproduction
record (EXPERIMENTS.md quotes it).  The gated microbenchmark suites
(``repro-bench``) have one size and do not read it.
"""

from __future__ import annotations

import os

# Benchmarks measure the production hot path: compile the runtime contract
# layer out (see repro.contracts) unless the caller explicitly overrides.
# This must run before any ``repro`` import, which is why it lives here.
os.environ.setdefault("REPRO_CONTRACTS", "off")

import pytest


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") == "1"


@pytest.fixture(scope="session")
def quick() -> bool:
    return quick_mode()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
