"""Measurement: latency series, balance metrics, movement accounting.

(Movement accounting lives in :mod:`repro.core.movement` because the core
placement layer produces the diffs; it is re-exported here for convenience.)
"""

from ..core.movement import MovementLedger, ReconfigDiff, diff_assignment
from .analysis import (
    Spike,
    convergence_time,
    count_idle_hot_cycles,
    find_spikes,
    phase_means,
    settled_fraction,
    worst_per_window,
)
from .balance import (
    balance_summary,
    coefficient_of_variation,
    gini,
    jain_fairness,
    max_over_mean,
)
from .latency import LatencyCollector, LatencySeries
from .summary import run_summary, weighted_mean_latency

__all__ = [
    "LatencyCollector",
    "LatencySeries",
    "run_summary",
    "weighted_mean_latency",
    "balance_summary",
    "coefficient_of_variation",
    "gini",
    "jain_fairness",
    "max_over_mean",
    "MovementLedger",
    "ReconfigDiff",
    "diff_assignment",
    "Spike",
    "convergence_time",
    "count_idle_hot_cycles",
    "find_spikes",
    "phase_means",
    "settled_fraction",
    "worst_per_window",
]
