"""Microbenchmarks of the parallel sweep engine's own machinery.

The cells a sweep runs are ``ClusterSimulation`` runs, which the e2e
benchmark times; no workload goes through ``run_sweep``.  Two costs are
pinned here:

- **Serial sweep** — the cells plus what ``run_sweep`` adds around them:
  plan bookkeeping, shard and merge writes, the digest manifest.
- **Process-executor startup** — the same grid through a 2-worker spawn
  pool.  Small grids are dominated by pool startup (~1 s), so this case
  pins that constant rather than chasing speedup.
"""

import tempfile
from pathlib import Path

from repro.sweep import GridSpec, run_sweep


def _plan():
    return GridSpec(
        axes={"policy": ["anu", "simple-random"]},
        seeds=list(range(6)),
        base={
            "n_filesets": 12,
            "n_requests": 60,
            "duration": 120.0,
            "tuning_interval": 30.0,
        },
    ).build_plan()


def _timed_sweep(benchmark, **executor):
    plan = _plan()

    def sweep():
        with tempfile.TemporaryDirectory() as tmp:
            return run_sweep(plan, Path(tmp) / "out", **executor)

    result = benchmark(sweep)
    assert result.complete and result.ran == len(plan)


def test_serial_sweep_overhead(benchmark):
    """Full serial ``run_sweep``: cells plus plan/shard/merge machinery."""
    _timed_sweep(benchmark, executor="serial")


def test_process_sweep_two_workers(benchmark):
    """2-worker spawn-pool sweep: pool startup plus the same grid."""
    _timed_sweep(benchmark, executor="process", jobs=2)
