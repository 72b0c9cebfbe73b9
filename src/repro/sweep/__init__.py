"""Parallel parameter sweeps: grids of (seed x parameter) cells.

The package splits along the process boundary:

- :mod:`repro.sweep.grid` — plans: cells with content-derived ids,
  canonical ordering, plan digests.
- :mod:`repro.sweep.worker` — the spawn-safe per-cell worker running one
  :class:`~repro.runtime.scenario.Scenario` under a ``DigestSink``.
- :mod:`repro.sweep.orchestrator` — executors (serial / a ``spawn``
  ``multiprocessing`` pool), sharded JSONL output, order-independent
  merge, resume-from-partial.
- :mod:`repro.sweep.table` — deterministic seed-aggregation of a merged
  sweep into the (policy x r x router x limp) comparison table.
- :mod:`repro.sweep.cli` — the ``repro-sweep`` command.
"""

from __future__ import annotations

from .grid import Cell, GridSpec, PlanError, SweepPlan, cell_id_for
from .orchestrator import SweepResult, run_sweep
from .worker import run_cell

__all__ = [
    "Cell",
    "GridSpec",
    "PlanError",
    "SweepPlan",
    "cell_id_for",
    "run_sweep",
    "SweepResult",
    "run_cell",
]
