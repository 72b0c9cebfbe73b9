"""Microbenchmarks of the parallel sweep engine.

Two costs worth pinning:

- **Per-cell orchestration overhead** — what ``run_sweep`` adds on top
  of the bare :func:`~repro.sweep.worker.run_cell` calls it wraps (plan
  bookkeeping, shard/merge writes, digest manifest).  The bare-run case
  measures the floor so the overhead stays visible in the report; the
  serial sweep is gated directly against its baseline.
- **Process-executor scaling** — the same grid through a 2-worker spawn
  pool.  Small grids are dominated by pool startup (~1 s), so this case
  pins that constant rather than chasing speedup; it also asserts the
  parallel digest matches the serial one, making the benchmark double
  as a determinism check.
"""

import tempfile
from pathlib import Path

from conftest import quick_mode, run_once

from repro.sweep import GridSpec, run_sweep
from repro.sweep.worker import _scenario_for, run_cell


def _spec() -> GridSpec:
    n_seeds = 3 if quick_mode() else 6
    return GridSpec(
        axes={"policy": ["anu", "simple-random"]},
        seeds=list(range(n_seeds)),
        base={
            "n_filesets": 12,
            "n_requests": 60,
            "duration": 120.0,
            "tuning_interval": 30.0,
        },
    )


def test_bare_cells_floor(benchmark):
    """The floor: every cell run directly through ``run_cell``."""
    plan = _spec().build_plan()

    def bare():
        return [run_cell(cell.payload()) for cell in plan.cells]

    rows = run_once(benchmark, bare)
    assert len(rows) == len(plan)


def test_serial_sweep_overhead(benchmark):
    """Full serial ``run_sweep``: cells plus plan/shard/merge machinery."""
    plan = _spec().build_plan()

    def sweep():
        with tempfile.TemporaryDirectory() as tmp:
            return run_sweep(plan, Path(tmp) / "out", executor="serial")

    result = run_once(benchmark, sweep)
    assert result.complete and result.ran == len(plan)


def test_process_sweep_two_workers(benchmark):
    """2-worker spawn-pool sweep; digest must match the serial run."""
    plan = _spec().build_plan()
    with tempfile.TemporaryDirectory() as tmp:
        serial = run_sweep(plan, Path(tmp) / "serial", executor="serial")

    def sweep():
        with tempfile.TemporaryDirectory() as tmp:
            return run_sweep(
                plan, Path(tmp) / "out", executor="process", jobs=2
            )

    result = run_once(benchmark, sweep)
    assert result.complete
    assert result.merged_digest == serial.merged_digest


def test_worker_summary_matches_bare_scenario(benchmark):
    """``run_cell`` adds bookkeeping around ``Scenario``, never work.

    Pins the equivalence the overhead numbers rely on: the worker's
    summary is exactly what a bare seeded scenario run produces.
    """
    cell = _spec().build_plan().cells[0]

    def both():
        row = run_cell(cell.payload())
        result = _scenario_for(cell.seed, cell.params_dict).run_cluster()
        return row, result

    row, result = run_once(benchmark, both)
    assert row["summary"]["mean_latency"] == result.mean_latency
    assert row["summary"]["completed"] == result.completed
