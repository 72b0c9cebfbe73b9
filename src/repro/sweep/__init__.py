"""Parallel parameter sweeps: grids of (seed x parameter) cells.

The package splits along the process boundary:

- :mod:`repro.sweep.api` — the process-cache registry that worker
  initializers clear.  Dependency-free; imported from every layer,
  including :mod:`repro.core`.
- :mod:`repro.sweep.grid` — plans: cells with content-derived ids,
  canonical ordering, plan digests.
- :mod:`repro.sweep.worker` — the spawn-safe per-cell worker running one
  :class:`~repro.runtime.scenario.Scenario` under a ``DigestSink``.
- :mod:`repro.sweep.orchestrator` — pluggable executors (serial /
  ``multiprocessing`` / ``concurrent.futures``), sharded JSONL output,
  order-independent merge, resume-from-partial.
- :mod:`repro.sweep.table` — deterministic seed-aggregation of a merged
  sweep into the (policy x r x router x limp) comparison table.
- :mod:`repro.sweep.cli` — the ``repro-sweep`` command.

Only ``api`` and ``grid`` import eagerly (both are stdlib-only, keeping
this package importable from low layers without cycles); the heavier
modules load on first attribute access.
"""

from __future__ import annotations

from .api import clear_process_caches, register_process_cache
from .grid import Cell, GridSpec, PlanError, SweepPlan, cell_id_for

__all__ = [
    "Cell",
    "GridSpec",
    "PlanError",
    "SweepPlan",
    "cell_id_for",
    "clear_process_caches",
    "register_process_cache",
    "run_sweep",
    "SweepResult",
    "run_cell",
]

_LAZY = {
    "run_sweep": "orchestrator",
    "SweepResult": "orchestrator",
    "run_cell": "worker",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
